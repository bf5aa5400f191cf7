// metrics.h - Always-compiled, lightweight telemetry for PaSTRI.
//
// The paper's whole evaluation is throughput-shaped (compression and
// decompression rate, parallel dump/load time, recompute-vs-decompress),
// so the codec needs first-class instrumentation whose cost never
// distorts what it measures.  The design here keeps the hot path to one
// relaxed atomic add:
//
//   * `MetricsRegistry` hands out `Counter` / `Gauge` / `Histogram`
//     handles for stable names (see metric_names.h).  Handles are plain
//     {registry, slot} values, safe to copy and share across threads.
//   * Counters and histograms are sharded per thread: each thread that
//     touches a registry lazily gets its own `MetricShard` (registered
//     under a mutex once, cached in a thread_local after), and every
//     update is a relaxed fetch_add on the thread's own cache lines --
//     no cross-thread contention, no locks on the hot path.
//   * `snapshot()` aggregates all shards under the registry mutex into a
//     plain-value `MetricsSnapshot` that the exporters (obs/export.h)
//     render as JSON or Prometheus text.
//   * `set_enabled(false)` turns every update into a relaxed load + early
//     return and makes `ScopedTimer` skip its clock reads, so a
//     no-metrics baseline costs nothing measurable (bench_parallel_scaling
//     proves the enabled-vs-disabled delta stays under 2%).
//
// Histograms use fixed power-of-two buckets over nanoseconds: bucket i
// holds values whose bit width is i (bucket 0 = exactly zero), which
// covers 1 ns .. ~9 min in 40 buckets with a branch-free index.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pastri::obs {

class MetricsRegistry;

/// Capacity of one registry.  Registration past a limit yields inert
/// handles (updates become no-ops) instead of failing -- telemetry must
/// never take the process down.
inline constexpr std::size_t kMaxCounters = 128;
inline constexpr std::size_t kMaxGauges = 32;
inline constexpr std::size_t kMaxHistograms = 64;
inline constexpr std::size_t kHistBuckets = 40;

/// Bucket of a nanosecond (or any uint64) value: its bit width, clamped.
inline std::size_t histogram_bucket(std::uint64_t v) {
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistBuckets ? w : kHistBuckets - 1;
}

/// Inclusive upper bound of bucket `i` (the last bucket is unbounded).
inline std::uint64_t histogram_bucket_bound(std::size_t i) {
  if (i + 1 >= kHistBuckets) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return (std::uint64_t{1} << i) - 1;
}

namespace detail {

/// One thread's private slice of a registry's counters and histograms.
/// Owned by the registry (so values survive thread exit), updated only
/// by its thread, read by snapshot() -- all accesses relaxed atomics.
struct MetricShard {
  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<Hist, kMaxHistograms> hists{};
};

}  // namespace detail

/// Monotonic counter handle.  Default-constructed (or past-capacity)
/// handles are inert.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t n) const;
  void inc() const { add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::size_t slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t slot_ = 0;
};

/// Last-write-wins gauge (double), for derived rates and ratios.
class Gauge {
 public:
  Gauge() = default;
  inline void set(double value) const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::size_t slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t slot_ = 0;
};

/// Fixed-bucket latency/size histogram handle.
class Histogram {
 public:
  Histogram() = default;
  inline void record(std::uint64_t value) const;
  inline bool active() const;  ///< registered and registry enabled

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::size_t slot)
      : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::size_t slot_ = 0;
};

/// Aggregated point-in-time view of a registry (plain values; safe to
/// keep after the registry changes or dies).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kHistBuckets> buckets{};
    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all PaSTRI instrumentation reports to,
  /// pre-registered with the standard metric set (metric_names.h) so a
  /// snapshot always exposes the full family, exercised or not.
  static MetricsRegistry& instance();

  /// Register-or-look-up a metric by name.  Idempotent; returns an inert
  /// handle when the capacity for that metric type is exhausted.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Aggregate every thread's shard into plain values.
  MetricsSnapshot snapshot() const;

  /// Zero all counters, gauges, and histograms (names stay registered).
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  detail::MetricShard& shard_for_this_thread();
  std::size_t register_slot_(std::vector<std::string>& names,
                             std::size_t capacity, std::string_view name);

  const std::uint64_t id_;  ///< process-unique; keys the TLS shard cache
  std::atomic<bool> enabled_{true};

  mutable std::mutex mu_;  ///< guards shards_ and the name tables
  std::vector<std::unique_ptr<detail::MetricShard>> shards_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
};

/// Shorthand for MetricsRegistry::instance().
inline MetricsRegistry& registry() { return MetricsRegistry::instance(); }

inline void Counter::add(std::uint64_t n) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->shard_for_this_thread().counters[slot_].fetch_add(
      n, std::memory_order_relaxed);
}

inline void Gauge::set(double value) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->gauges_[slot_].store(value, std::memory_order_relaxed);
}

inline bool Histogram::active() const {
  return reg_ != nullptr && reg_->enabled();
}

inline void Histogram::record(std::uint64_t value) const {
  if (!active()) return;
  auto& h = reg_->shard_for_this_thread().hists[slot_];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[histogram_bucket(value)].fetch_add(1,
                                               std::memory_order_relaxed);
}

/// RAII wall-clock timer: records elapsed nanoseconds into a histogram
/// at scope exit.  When the registry is disabled the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& hist)
      : hist_(hist), active_(hist.active()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram hist_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pastri::obs
