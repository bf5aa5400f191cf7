// Tests for parallel_for, the library's one parallel executor: every
// index exactly once, exclusive tid slots, exception transport, inline
// nesting, concurrent callers, and the thread-count limit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/pastri.h"
#include "core/stream.h"
#include "qc/compressed_eri_store.h"
#include "qc/molecule.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0, 1, 2, 17, 1000}) {
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::size_t chunk : {1, 16}) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<int> bad_tid{0};
        parallel_for(n, threads, chunk, [&](int tid, std::size_t i) {
          if (tid < 0 || tid >= threads) bad_tid.fetch_add(1);
          hits[i].fetch_add(1);
        });
        std::size_t wrong = 0;
        for (const auto& h : hits) wrong += h.load() != 1;
        EXPECT_EQ(wrong, 0u) << "n=" << n << " threads=" << threads
                             << " chunk=" << chunk;
        EXPECT_EQ(bad_tid.load(), 0);
      }
    }
  }
}

TEST(ParallelFor, TidSlotIsNeverSharedAtOnce) {
  constexpr int kThreads = 4;
  std::atomic<int> busy[kThreads] = {};
  std::atomic<int> clashes{0};
  std::atomic<int> bad_tid{0};
  std::vector<std::uint64_t> per_tid(kThreads);  // unsynchronized on purpose
  parallel_for(4000, kThreads, 1, [&](int tid, std::size_t i) {
    if (tid < 0 || tid >= kThreads) {
      bad_tid.fetch_add(1);
      return;
    }
    if (busy[tid].exchange(1) != 0) clashes.fetch_add(1);
    per_tid[static_cast<std::size_t>(tid)] += i;
    busy[tid].store(0);
  });
  EXPECT_EQ(clashes.load(), 0);
  EXPECT_EQ(bad_tid.load(), 0);
  std::uint64_t total = 0;
  for (const std::uint64_t s : per_tid) total += s;
  EXPECT_EQ(total, 4000u * 3999u / 2);
}

TEST(ParallelFor, ExceptionReachesCallerAfterJoinAndPoolRecovers) {
  constexpr std::size_t n = 4000;
  std::atomic<int> running{0};
  std::atomic<std::size_t> visited{0};
  try {
    parallel_for(n, 4, 1, [&](int, std::size_t i) {
      running.fetch_add(1);
      visited.fetch_add(1);
      if (i == 3) {
        running.fetch_sub(1);
        throw std::runtime_error("index 3 failed");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      running.fetch_sub(1);
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3 failed");
  }
  EXPECT_EQ(running.load(), 0) << "returned before every helper finished";
  EXPECT_LT(visited.load(), n) << "threads kept claiming after the failure";

  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), 4, 1,
               [&](int, std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallRunsInline) {
  std::atomic<int> not_inline{0};
  std::atomic<std::size_t> inner_visits{0};
  parallel_for(64, 4, 1, [&](int, std::size_t) {
    const auto outer_thread = std::this_thread::get_id();
    parallel_for(16, 4, 1, [&](int tid, std::size_t) {
      if (tid != 0 || std::this_thread::get_id() != outer_thread) {
        not_inline.fetch_add(1);
      }
      inner_visits.fetch_add(1);
    });
  });
  EXPECT_EQ(not_inline.load(), 0);
  EXPECT_EQ(inner_visits.load(), 64u * 16u);
}

TEST(ParallelFor, ConcurrentCallersAllFinishCorrectly) {
  constexpr std::size_t n = 1000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::uint64_t> partial(4 * 8);  // one line per tid
        parallel_for(n, 4, 7, [&](int tid, std::size_t i) {
          partial[static_cast<std::size_t>(tid) * 8] += i;
        });
        std::uint64_t sum = 0;
        for (const std::uint64_t s : partial) sum += s;
        if (sum != n * (n - 1) / 2) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelFor, OneThreadRunsOnCallerAndStartsNoPoolThread) {
  const std::size_t started = detail::pool_threads_started();
  const auto caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  std::atomic<std::size_t> visits{0};
  const auto body = [&](int tid, std::size_t) {
    if (tid != 0 || std::this_thread::get_id() != caller) {
      elsewhere.fetch_add(1);
    }
    visits.fetch_add(1);
  };
  parallel_for(100, 1, 1, body);
  parallel_for(1, 8, 1, body);    // one index
  parallel_for(12, 8, 16, body);  // one chunk
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(visits.load(), 113u);
  EXPECT_EQ(detail::pool_threads_started(), started);
}

TEST(ParallelFor, ResolveThreadsAppliesDefaultAndLimit) {
  EXPECT_GE(default_threads(), 1);
  EXPECT_LE(default_threads(), kMaxThreads);
  EXPECT_EQ(resolve_threads(0), default_threads());
  EXPECT_EQ(resolve_threads(-3), default_threads());
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW(resolve_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(resolve_threads(1 << 20), std::invalid_argument);

  const int before = default_threads();
  set_default_threads(3);
  EXPECT_EQ(resolve_threads(0), 3);
  set_default_threads(before);
  EXPECT_THROW(set_default_threads(0), std::invalid_argument);
  EXPECT_THROW(set_default_threads(1 << 20), std::invalid_argument);
  EXPECT_EQ(default_threads(), before);
}

TEST(ParallelFor, OutOfRangeThreadCountsRejectedBeforeAnyThreadStarts) {
  const std::size_t started = detail::pool_threads_started();
  constexpr int kHuge = 1 << 20;
  EXPECT_THROW(parallel_for(100, kHuge, 1, [](int, std::size_t) {}),
               std::invalid_argument);

  const BlockSpec spec{4, 4};
  const auto data = testutil::random_doubles(8 * spec.block_size(), -1, 1);
  Params p;
  p.num_threads = kHuge;
  EXPECT_THROW(compress(data, spec, p), std::invalid_argument);

  const auto stream = compress(data, spec, Params{});
  EXPECT_THROW(decompress(stream, kHuge), std::invalid_argument);
  EXPECT_THROW(BlockReader(stream, kHuge).read_range(0, 8),
               std::invalid_argument);
  SpanSource source(stream);
  EXPECT_THROW(StreamConsumer(source, {.num_threads = kHuge}),
               std::invalid_argument);

  const qc::BasisSet basis =
      qc::make_sto3g_basis(qc::make_molecule("benzene"));
  EXPECT_THROW(qc::CompressedEriStore(basis, p), std::invalid_argument);
  EXPECT_EQ(detail::pool_threads_started(), started);
}

}  // namespace
}  // namespace pastri
