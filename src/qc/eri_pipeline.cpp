// eri_pipeline.cpp - The fused compute->compress->io driver.  Lives in
// the io build target (not pastri_qc) because it feeds the shard
// writers; the header sits with the other qc entry points it extends.
#include "qc/eri_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "io/file_per_process.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// Pipeline telemetry (obs/metric_names.h): one counter bump per chunk,
/// stall totals added once per run.
struct PipelineMetrics {
  obs::Counter chunks = obs::registry().counter(obs::kQcPipelineChunks);
  obs::Gauge queue_depth =
      obs::registry().gauge(obs::kQcPipelineQueueDepth);
  obs::Counter compute_stall =
      obs::registry().counter(obs::kQcPipelineComputeStallNs);
  obs::Counter encode_stall =
      obs::registry().counter(obs::kQcPipelineEncodeStallNs);
  obs::Counter io_stall =
      obs::registry().counter(obs::kQcPipelineIoStallNs);
  obs::Gauge overlap_pct =
      obs::registry().gauge(obs::kQcPipelineOverlapPct);
};

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
}

std::uint64_t since_ns(std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Chunk batch when the caller left it auto: the same sizing rule
/// StreamWriter uses for its encode batches (keep every worker busy, cap
/// the staging buffer at a few MB), so one computed chunk fills exactly
/// one encode batch.
std::size_t auto_chunk_blocks(std::size_t block_size) {
  const std::size_t bs = std::max<std::size_t>(1, block_size);
  const std::size_t want = std::max<std::size_t>(
      64, 16 * static_cast<std::size_t>(resolve_threads(0)));
  const std::size_t mem_cap =
      std::max<std::size_t>(1, (std::size_t{8} << 20) / (bs * sizeof(double)));
  return std::min(want, mem_cap);
}

/// One unit of compute->encode traffic: whole blocks
/// [first, first+count), contiguous.  Buffers are recycled through a
/// free queue, so steady-state allocation is zero.
struct Chunk {
  std::size_t first = 0;
  std::size_t count = 0;
  std::vector<double> values;
};

struct PumpStats {
  std::size_t chunks = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t compute_stall_ns = 0;
  std::uint64_t encode_stall_ns = 0;
  std::vector<EriProducerStats> producers;
};

using PutFn =
    std::function<void(std::size_t first_block, std::span<const double>)>;

/// Drive dataset blocks [first, first+count) from `gen` into `put`, in
/// order.  Pipelined mode runs compute on a producer thread feeding a
/// bounded filled-chunk queue (capacity = queue_depth) while `put` runs
/// on the caller's thread; sequential mode runs both inline on one
/// buffer.  `put` sees the identical (first_block, values) sequence
/// either way.
PumpStats pump_blocks(const EriBlockGenerator& gen, std::size_t first,
                      std::size_t count, std::size_t batch,
                      const EriPipelineOptions& popt, const PutFn& put) {
  const std::size_t bs = gen.meta().shape.block_size();
  PumpStats st;
  if (count == 0) return st;

  if (!popt.pipelined) {
    std::vector<double> buf(batch * bs);
    for (std::size_t b0 = 0; b0 < count; b0 += batch) {
      const std::size_t n = std::min(batch, count - b0);
      const auto chunk = std::span<double>(buf).first(n * bs);
      auto t0 = std::chrono::steady_clock::now();
      gen.compute_range(first + b0, n, chunk);
      st.compute_ns += since_ns(t0);
      t0 = std::chrono::steady_clock::now();
      put(first + b0, chunk);
      st.encode_ns += since_ns(t0);
      ++st.chunks;
      pipeline_metrics().chunks.inc();
    }
    return st;
  }

  // Staged overlap, N compute producers feeding one encoder.  Producers
  // claim chunk indices dynamically: each first acquires a free buffer,
  // THEN claims the next index -- so the indices outstanding at any
  // moment span fewer than nbuf positions, and the consumer can
  // re-establish dataset order with a fixed ring of nbuf slots (slot =
  // chunk_index % nbuf) without ever allocating or deadlocking.  The
  // encoder therefore sees the identical in-order (first, values)
  // sequence for every producer count, which keeps the bytes identical.
  //
  // Peak memory is nbuf = depth + producers + 1 chunks: `depth` queued
  // between the stages, one in flight per producer, one in the encoder
  // (the single-producer case reduces to the classic depth + 2 double
  // buffering).
  const std::size_t nprod = std::max<std::size_t>(1, popt.producers);
  const std::size_t depth = std::max<std::size_t>(1, popt.queue_depth);
  const std::size_t nbuf = depth + nprod + 1;
  const std::size_t nchunks = (count + batch - 1) / batch;
  BoundedQueue<Chunk> free_q(nbuf);
  BoundedQueue<Chunk> filled_q(depth);
  for (std::size_t i = 0; i < nbuf; ++i) {
    Chunk c;
    c.values.reserve(batch * bs);
    free_q.push(std::move(c));
  }

  std::mutex err_mu;
  std::exception_ptr producer_error;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> live{nprod};
  st.producers.resize(nprod);
  std::vector<std::thread> workers;
  workers.reserve(nprod);
  for (std::size_t pi = 0; pi < nprod; ++pi) {
    workers.emplace_back([&, pi] {
      // Each producer thread gets its own parallel_for helpers inside
      // compute_range (the generator is safe for concurrent ranges), so
      // the quartet math stays parallel while the encode stage runs.
      EriProducerStats& ps = st.producers[pi];
      try {
        for (;;) {
          Chunk c;
          if (!free_q.pop(c, &ps.stall_ns)) break;
          const std::size_t ci =
              next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (ci >= nchunks) {
            free_q.push(std::move(c));
            break;
          }
          const std::size_t b0 = ci * batch;
          const std::size_t n = std::min(batch, count - b0);
          c.first = first + b0;
          c.count = n;
          c.values.resize(n * bs);
          const auto t0 = std::chrono::steady_clock::now();
          gen.compute_range(c.first, n, c.values);
          ps.compute_ns += since_ns(t0);
          ++ps.chunks;
          if (!filled_q.push(std::move(c), &ps.stall_ns)) break;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!producer_error) producer_error = std::current_exception();
      }
      if (live.fetch_sub(1) == 1) {
        filled_q.close();  // last producer out: let the consumer drain
      }
    });
  }

  std::vector<Chunk> ring(nbuf);
  std::vector<char> ring_full(nbuf, 0);
  std::size_t expected = 0;
  try {
    Chunk c;
    while (filled_q.pop(c)) {
      pipeline_metrics().queue_depth.set(
          static_cast<double>(filled_q.size()));
      const std::size_t ci = (c.first - first) / batch;
      if (ci != expected) {
        // Arrived ahead of a slower neighbour; park it in its ring slot.
        ring[ci % nbuf] = std::move(c);
        ring_full[ci % nbuf] = 1;
        continue;
      }
      for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        put(c.first, std::span<const double>(c.values).first(c.count * bs));
        st.encode_ns += since_ns(t0);
        ++st.chunks;
        pipeline_metrics().chunks.inc();
        c.values.clear();
        free_q.push(std::move(c));
        ++expected;
        const std::size_t slot = expected % nbuf;
        if (!ring_full[slot]) break;
        c = std::move(ring[slot]);
        ring_full[slot] = 0;
      }
    }
  } catch (...) {
    // Unblock the producers wherever they are waiting, then re-raise.
    free_q.close();
    filled_q.close();
    for (std::thread& w : workers) w.join();
    throw;
  }
  for (std::thread& w : workers) w.join();
  if (producer_error) std::rethrow_exception(producer_error);
  if (expected != nchunks) {
    throw std::runtime_error("eri pipeline: chunk stream ended early");
  }

  for (const EriProducerStats& ps : st.producers) {
    st.compute_ns += ps.compute_ns;
    st.compute_stall_ns += ps.stall_ns;
  }
  st.encode_stall_ns =
      filled_q.consumer_wait_ns() + free_q.producer_wait_ns();
  pipeline_metrics().compute_stall.add(st.compute_stall_ns);
  pipeline_metrics().encode_stall.add(st.encode_stall_ns);
  return st;
}

/// (sum busy - wall) / (sum busy - max busy): the fraction of the
/// theoretically hideable stage time that overlap actually hid.
double overlap_efficiency(std::uint64_t wall, std::uint64_t compute,
                          std::uint64_t encode, std::uint64_t io) {
  const double sum = static_cast<double>(compute) +
                     static_cast<double>(encode) + static_cast<double>(io);
  const double mx = static_cast<double>(
      std::max(compute, std::max(encode, io)));
  const double denom = sum - mx;
  if (denom <= 0.0) return 0.0;
  const double eff = (sum - static_cast<double>(wall)) / denom;
  return std::clamp(eff, 0.0, 1.0);
}

void finalize_result(EriPipelineResult& res, const PumpStats& ps,
                     std::uint64_t wall_ns) {
  res.chunks = ps.chunks;
  res.compute_ns = ps.compute_ns;
  res.encode_ns += ps.encode_ns;
  res.compute_stall_ns = ps.compute_stall_ns;
  res.encode_stall_ns = ps.encode_stall_ns;
  res.producers = ps.producers;
  res.wall_ns = wall_ns;
  res.overlap_efficiency = overlap_efficiency(wall_ns, res.compute_ns,
                                              res.encode_ns, res.io_ns);
  pipeline_metrics().io_stall.add(res.io_stall_ns);
  pipeline_metrics().overlap_pct.set(100.0 * res.overlap_efficiency);
}

/// Accumulate one shard's codec stats into the dump total.
void add_stats(Stats& into, const Stats& from) {
  into.input_bytes += from.input_bytes;
  into.output_bytes += from.output_bytes;
  into.header_bits += from.header_bits;
  into.pattern_bits += from.pattern_bits;
  into.scale_bits += from.scale_bits;
  into.ecq_bits += from.ecq_bits;
  into.num_blocks += from.num_blocks;
  for (int t = 0; t < 4; ++t) {
    into.blocks_by_type[t] += from.blocks_by_type[t];
  }
  into.sparse_blocks += from.sparse_blocks;
  into.num_outliers += from.num_outliers;
}

/// Routes a stream of whole blocks into consecutive shard containers,
/// starting mid-layout -- ShardedDatasetWriter's roll logic, minus the
/// from-zero assumption, which is what a resumed dump needs.
class ShardRoller {
 public:
  ShardRoller(const std::string& dir, const std::string& basename,
              const io::ShardLayout& layout, const BlockSpec& spec,
              const Params& params, const io::ShardIo& io,
              std::size_t block_size, std::size_t start_shard)
      : dir_(dir),
        basename_(basename),
        layout_(layout),
        spec_(spec),
        params_(params),
        io_(io),
        bs_(block_size),
        shard_(start_shard) {}

  void put(std::span<const double> values) {
    while (!values.empty()) {
      roll_();
      if (!cur_) {
        throw std::runtime_error("ShardRoller: more blocks than layout");
      }
      const std::size_t room =
          layout_.blocks_per_shard[shard_] - blocks_in_shard_;
      const std::size_t take = std::min(room, values.size() / bs_);
      cur_->put_values(values.first(take * bs_));
      blocks_in_shard_ += take;
      values = values.subspan(take * bs_);
    }
  }

  void finish() { roll_(); }

  std::size_t bytes() const { return bytes_; }
  const Stats& stats() const { return stats_; }
  const io::ShardIoStats& io_stats() const { return io_stats_; }

 private:
  void roll_() {
    while (shard_ < layout_.num_shards) {
      if (!cur_) {
        cur_ = std::make_unique<io::ShardWriter>(
            dir_, basename_, static_cast<int>(shard_), spec_, params_,
            layout_.blocks_per_shard[shard_], io_);
        blocks_in_shard_ = 0;
      }
      if (blocks_in_shard_ < layout_.blocks_per_shard[shard_]) return;
      bytes_ += cur_->finish();
      add_stats(stats_, cur_->stats());
      io_stats_.backpressure_wait_ns +=
          cur_->io_stats().backpressure_wait_ns;
      io_stats_.idle_wait_ns += cur_->io_stats().idle_wait_ns;
      io_stats_.apply_ns += cur_->io_stats().apply_ns;
      cur_.reset();
      ++shard_;
    }
  }

  const std::string& dir_;
  const std::string& basename_;
  const io::ShardLayout& layout_;
  BlockSpec spec_;
  const Params& params_;
  io::ShardIo io_;
  std::size_t bs_;
  std::size_t shard_;
  std::size_t blocks_in_shard_ = 0;
  std::unique_ptr<io::ShardWriter> cur_;
  std::size_t bytes_ = 0;
  Stats stats_;
  io::ShardIoStats io_stats_;
};

}  // namespace

EriPipelineResult compress_eri_stream(const Molecule& mol,
                                      const DatasetOptions& opt,
                                      const Params& params, ByteSink& sink,
                                      const EriPipelineOptions& popt) {
  const auto t_start = std::chrono::steady_clock::now();
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const std::size_t bs = meta.shape.block_size();
  const std::size_t batch =
      popt.batch_blocks != 0 ? popt.batch_blocks : auto_chunk_blocks(bs);

  std::unique_ptr<AsyncSink> async;
  if (popt.async_io) async = std::make_unique<AsyncSink>(sink);
  const BlockSpec spec{meta.shape.num_sub_blocks(),
                       meta.shape.sub_block_size()};
  StreamWriter writer(
      async ? static_cast<ByteSink&>(*async) : sink, spec, params,
      StreamWriterOptions{.batch_blocks = batch,
                          .expected_blocks = meta.num_blocks});

  EriPipelineResult res;
  res.meta = meta;
  const PumpStats ps = pump_blocks(
      gen, 0, meta.num_blocks, batch, popt,
      [&](std::size_t, std::span<const double> values) {
        writer.put_values(values);
      });

  const auto t_fin = std::chrono::steady_clock::now();
  res.bytes_written = writer.finish();
  res.stats = writer.stats();
  if (async) {
    async->flush();
    res.io_stall_ns = async->backpressure_wait_ns();
    res.io_ns = async->apply_ns();
    async.reset();
  }
  res.encode_ns = since_ns(t_fin);  // finish() runs on the encode stage
  finalize_result(res, ps, since_ns(t_start));
  return res;
}

EriDumpResult dump_eri_sharded(const Molecule& mol, const DatasetOptions& opt,
                               const Params& params, const std::string& dir,
                               const std::string& basename,
                               const EriDumpOptions& dopt,
                               const EriPipelineOptions& popt) {
  const auto t_start = std::chrono::steady_clock::now();
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const std::size_t bs = meta.shape.block_size();
  const io::ShardLayout layout =
      io::make_shard_layout(meta.num_blocks, dopt.num_shards);

  EriDumpResult res;
  res.pipeline.meta = meta;
  res.shards_total = layout.num_shards;

  // Resume: keep the leading run of shards that already parse as
  // complete containers.  The first incomplete one (a mid-dump
  // truncation, a partial write) is regenerated from scratch -- the
  // plan is deterministic, so the redone bytes equal what the
  // interrupted run would have produced.
  std::size_t start_shard = 0;
  if (dopt.resume) {
    while (start_shard < layout.num_shards &&
           io::shard_is_complete(dir, basename,
                                 static_cast<int>(start_shard),
                                 layout.blocks_per_shard[start_shard])) {
      res.bytes_total +=
          io::rank_file_size(dir, basename, static_cast<int>(start_shard));
      res.blocks_reused += layout.blocks_per_shard[start_shard];
      ++start_shard;
    }
  }
  res.shards_reused = start_shard;

  const BlockSpec spec{meta.shape.num_sub_blocks(),
                       meta.shape.sub_block_size()};
  io::ShardIo shard_io;
  shard_io.async = popt.async_io;
  ShardRoller roller(dir, basename, layout, spec, params, shard_io, bs,
                     start_shard);
  const std::size_t first = io::shard_first_block(layout, start_shard);
  const PumpStats ps = pump_blocks(
      gen, first, meta.num_blocks - first,
      popt.batch_blocks != 0 ? popt.batch_blocks : auto_chunk_blocks(bs),
      popt,
      [&](std::size_t, std::span<const double> values) {
        roller.put(values);
      });

  const auto t_fin = std::chrono::steady_clock::now();
  roller.finish();
  io::write_dataset_manifest(dir, basename, meta.label, meta.shape,
                             meta.num_blocks, layout);
  res.pipeline.bytes_written = roller.bytes();
  res.bytes_total += roller.bytes();
  res.pipeline.stats = roller.stats();
  res.pipeline.io_stall_ns = roller.io_stats().backpressure_wait_ns;
  res.pipeline.io_ns = roller.io_stats().apply_ns;
  res.pipeline.encode_ns = since_ns(t_fin);
  finalize_result(res.pipeline, ps, since_ns(t_start));
  return res;
}

}  // namespace pastri::qc
