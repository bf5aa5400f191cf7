// Tests for the fused compute->compress->io pipeline: the BoundedQueue
// stage primitive, the AsyncSink io stage, and the eri_pipeline driver.
//
// The load-bearing property is byte identity: every pipeline knob
// (thread overlap, chunk size, queue depth, async io) may change wall
// time but never the container bytes, so the pipelined dump is
// interchangeable with -- and resumable against -- the sequential
// dense-dataset path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "io/compressed_file.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/direct_scf.h"
#include "qc/eri_pipeline.h"
#include "qc/mp2.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri {
namespace {

// ---------------------------------------------------------------- core

TEST(BoundedQueue, FifoAndCloseDrain) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 4u);
  q.close();
  EXPECT_TRUE(q.closed());
  // Consumers drain what is queued, in order, then see end-of-stream.
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
  // Producers are refused after close.
  EXPECT_FALSE(q.push(99));
}

TEST(BoundedQueue, CapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
}

TEST(BoundedQueue, PerCallerWaitAttribution) {
  // The wait_ns out-params accumulate only the time THIS caller spent
  // blocked, on top of the queue-side totals -- that is what gives the
  // pipeline per-producer stall numbers when N producers share a queue.
  BoundedQueue<int> q(1);
  std::uint64_t push_wait = 0, pop_wait = 0;

  // Uncontended calls add nothing.
  EXPECT_TRUE(q.push(1, &push_wait));
  EXPECT_EQ(push_wait, 0u);
  int v = 0;
  EXPECT_TRUE(q.pop(v, &pop_wait));
  EXPECT_EQ(pop_wait, 0u);

  // A producer blocked on a full queue accrues wait in both places.
  EXPECT_TRUE(q.push(1));
  std::thread unblock([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int x;
    q.pop(x);
  });
  EXPECT_TRUE(q.push(2, &push_wait));
  unblock.join();
  EXPECT_GT(push_wait, 0u);
  EXPECT_GE(q.producer_wait_ns(), push_wait);

  // A consumer blocked on an empty queue likewise.
  int y;
  ASSERT_TRUE(q.pop(y));  // drain item 2
  std::thread feed([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(3);
  });
  EXPECT_TRUE(q.pop(y, &pop_wait));
  feed.join();
  EXPECT_EQ(y, 3);
  EXPECT_GT(pop_wait, 0u);
  EXPECT_GE(q.consumer_wait_ns(), pop_wait);
}

TEST(BoundedQueue, TransfersInOrderAcrossThreads) {
  constexpr int kItems = 2000;
  BoundedQueue<int> q(3);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  int expected = 0, v = -1;
  while (q.pop(v)) EXPECT_EQ(v, expected++);
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(BoundedQueue, CloseUnblocksFullQueueProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::atomic<bool> second_accepted{true};
  std::thread producer([&] { second_accepted = q.push(1); });
  // The producer is (about to be) blocked on the full queue; close must
  // wake it and make it drop the item.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_FALSE(second_accepted);
  EXPECT_GE(q.producer_wait_ns(), 0u);
}

TEST(BoundedQueue, ConsumerStallIsAccounted) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] {
    int v;
    while (q.pop(v)) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  q.push(1);
  q.close();
  consumer.join();
  // The consumer sat on an empty queue for ~30 ms; the counter must have
  // seen a decent fraction of that.
  EXPECT_GT(q.consumer_wait_ns(), 1'000'000u);
}

// A sink that always fails, for error-propagation tests.
struct ThrowingSink final : ByteSink {
  void write(std::span<const std::uint8_t>) override {
    throw std::runtime_error("disk on fire");
  }
  bool can_patch() const override { return false; }
};

TEST(AsyncSink, BytesMatchDirectWritesAndPatches) {
  // Apply the same op sequence directly and through AsyncSink (with a
  // tiny coalescing buffer so many queue ops actually happen); the inner
  // bytes must be identical.
  const auto payload = testutil::random_doubles(4096, -1.0, 1.0);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::size_t total = payload.size() * sizeof(double);

  VectorSink direct;
  VectorSink inner;
  {
    AsyncSink::Options o;
    o.queue_depth = 2;
    o.chunk_bytes = 64;
    AsyncSink async(inner, o);
    std::size_t off = 0, step = 1;
    while (off < total) {
      const std::size_t n = std::min(step, total - off);
      direct.write({raw + off, n});
      async.write({raw + off, n});
      off += n;
      step = step * 2 + 1;
    }
    const std::uint8_t patch_bytes[] = {0xDE, 0xAD, 0xBE, 0xEF};
    direct.patch(10, patch_bytes);
    async.patch(10, patch_bytes);
    direct.write({raw, 16});
    async.write({raw, 16});
    async.flush();
    EXPECT_TRUE(async.can_patch());
  }
  EXPECT_EQ(inner.bytes(), direct.bytes());
}

TEST(AsyncSink, InnerErrorReachesTheWriter) {
  ThrowingSink broken;
  AsyncSink async(broken);
  const std::uint8_t b[] = {1, 2, 3};
  async.write(b);  // coalesced; applied asynchronously after flush
  EXPECT_THROW(async.flush(), std::runtime_error);
  // Destruction after a failed drain must not terminate.
}

// ------------------------------------------------------------ io layout

TEST(ShardLayout, RemainderSpreadsOverLeadingShards) {
  const io::ShardLayout layout = io::make_shard_layout(10, 4);
  ASSERT_EQ(layout.num_shards, 4u);
  ASSERT_EQ(layout.blocks_per_shard.size(), 4u);
  EXPECT_EQ(layout.blocks_per_shard[0], 3u);
  EXPECT_EQ(layout.blocks_per_shard[1], 3u);
  EXPECT_EQ(layout.blocks_per_shard[2], 2u);
  EXPECT_EQ(layout.blocks_per_shard[3], 2u);
  EXPECT_EQ(io::shard_first_block(layout, 0), 0u);
  EXPECT_EQ(io::shard_first_block(layout, 1), 3u);
  EXPECT_EQ(io::shard_first_block(layout, 2), 6u);
  EXPECT_EQ(io::shard_first_block(layout, 3), 8u);
}

// --------------------------------------------------------- the pipeline

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

class EriPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("pastri_pipe_") + info->name()))
               .string();
    std::filesystem::create_directories(dir_);
    mol_ = qc::make_molecule("benzene");
    opt_.config = qc::parse_config("(dd|dd)");
    opt_.max_blocks = 24;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::vector<std::uint8_t> stream_bytes(const Params& p,
                                         const qc::EriPipelineOptions& popt) {
    VectorSink sink;
    qc::compress_eri_stream(mol_, opt_, p, sink, popt);
    return sink.take();
  }

  std::string dir_;
  qc::Molecule mol_;
  qc::DatasetOptions opt_;
};

TEST_F(EriPipelineTest, BytesInvariantAcrossEveryKnob) {
  Params p;
  qc::EriPipelineOptions seq;
  seq.pipelined = false;
  seq.async_io = false;
  const auto golden = stream_bytes(p, seq);
  ASSERT_FALSE(golden.empty());

  const int max_threads = default_threads();
  for (const int threads : {1, max_threads}) {
    set_default_threads(threads);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5},
                                    std::size_t{0}}) {
      for (const std::size_t depth : {std::size_t{1}, std::size_t{3}}) {
        qc::EriPipelineOptions popt;
        popt.batch_blocks = batch;
        popt.queue_depth = depth;
        EXPECT_EQ(stream_bytes(p, popt), golden)
            << "threads=" << threads << " batch=" << batch
            << " depth=" << depth;
      }
    }
  }
  set_default_threads(max_threads);
}

TEST_F(EriPipelineTest, SequentialBaselineIsAlsoSliceInvariant) {
  // Even with no pipeline thread and no async io, the chunk size must
  // not leak into the bytes.
  Params p;
  qc::EriPipelineOptions a, b;
  a.pipelined = b.pipelined = false;
  a.async_io = b.async_io = false;
  a.batch_blocks = 1;
  b.batch_blocks = 7;
  EXPECT_EQ(stream_bytes(p, a), stream_bytes(p, b));
}

TEST_F(EriPipelineTest, DumpMatchesDenseDatasetPathByteForByte) {
  // The tentpole invariant: dump_eri_sharded writes exactly the files
  // write_compressed_dataset(generate_eri_dataset(...)) would, without
  // ever holding the dense tensor.
  Params p;
  constexpr int kShards = 3;
  const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
  io::write_compressed_dataset(ds, p, kShards, dir_, "dense");

  qc::EriDumpOptions dopt;
  dopt.num_shards = kShards;
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "piped", dopt);
  EXPECT_EQ(res.pipeline.meta.num_blocks, ds.num_blocks);
  EXPECT_EQ(res.shards_total, static_cast<std::size_t>(kShards));
  EXPECT_EQ(res.shards_reused, 0u);

  for (int s = 0; s < kShards; ++s) {
    const std::string suffix = "." + std::to_string(s);
    EXPECT_EQ(slurp(dir_ + "/piped" + suffix),
              slurp(dir_ + "/dense" + suffix))
        << "shard " << s;
  }
  EXPECT_EQ(slurp(dir_ + "/piped.manifest"), slurp(dir_ + "/dense.manifest"));
}

TEST_F(EriPipelineTest, DumpRoundTripsWithinBound) {
  Params p;
  p.error_bound = 1e-9;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 2;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  const qc::EriDataset ds = qc::generate_eri_dataset(mol_, opt_);
  const qc::EriDataset back = io::read_compressed_dataset(dir_, "eri");
  EXPECT_EQ(back.label, ds.label);
  EXPECT_EQ(back.num_blocks, ds.num_blocks);
  EXPECT_LE(testutil::max_abs_diff(ds.values, back.values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(EriPipelineTest, ResumeReusesCompleteShards) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 3;
  const qc::EriDumpResult fresh =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(fresh.shards_reused, 0u);

  // Everything already on disk: a resumed dump regenerates nothing.
  dopt.resume = true;
  const qc::EriDumpResult all =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(all.shards_reused, 3u);
  EXPECT_EQ(all.blocks_reused, fresh.pipeline.meta.num_blocks);
  EXPECT_EQ(all.bytes_total, fresh.bytes_total);
  EXPECT_EQ(all.pipeline.chunks, 0u);
}

TEST_F(EriPipelineTest, ResumeRecoversFromMidDumpTruncation) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 3;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  std::vector<std::vector<std::uint8_t>> golden;
  for (int s = 0; s < 3; ++s)
    golden.push_back(slurp(dir_ + "/" + "eri." + std::to_string(s)));

  // Simulate a crash mid-way through shard 1: cut it in half.  Shard 0
  // stays complete, shards 1 and 2 must be regenerated.
  const io::ShardLayout layout =
      io::make_shard_layout(golden.size() ? 24 : 0, 3);
  std::filesystem::resize_file(dir_ + "/eri.1", golden[1].size() / 2);
  std::filesystem::remove(dir_ + "/eri.2");
  EXPECT_TRUE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 1, layout.blocks_per_shard[1]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 2, layout.blocks_per_shard[2]));

  dopt.resume = true;
  const qc::EriDumpResult res =
      qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  EXPECT_EQ(res.shards_reused, 1u);
  EXPECT_EQ(res.blocks_reused, layout.blocks_per_shard[0]);

  // The deterministic plan makes the recovered files byte-identical to
  // the uninterrupted dump.
  for (int s = 0; s < 3; ++s)
    EXPECT_EQ(slurp(dir_ + "/eri." + std::to_string(s)), golden[s])
        << "shard " << s;
  EXPECT_LE(testutil::max_abs_diff(
                qc::generate_eri_dataset(mol_, opt_).values,
                io::read_compressed_dataset(dir_, "eri").values),
            p.error_bound * (1 + 1e-12));
}

TEST_F(EriPipelineTest, ShardIsCompleteRejectsWrongCount) {
  Params p;
  qc::EriDumpOptions dopt;
  dopt.num_shards = 2;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "eri", dopt);
  const io::ShardLayout layout = io::make_shard_layout(24, 2);
  EXPECT_TRUE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0]));
  EXPECT_FALSE(
      io::shard_is_complete(dir_, "eri", 0, layout.blocks_per_shard[0] + 1));
  EXPECT_FALSE(io::shard_is_complete(dir_, "missing", 0, 1));
}

TEST_F(EriPipelineTest, PipelineMetricsAdvance) {
  const auto counter_value = [](const obs::MetricsSnapshot& snap,
                                std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  };
  const auto before = obs::registry().snapshot();
  Params p;
  VectorSink sink;
  const qc::EriPipelineResult res =
      qc::compress_eri_stream(mol_, opt_, p, sink);
  const auto after = obs::registry().snapshot();
  EXPECT_GT(counter_value(after, obs::kQcPipelineChunks),
            counter_value(before, obs::kQcPipelineChunks));
  EXPECT_GT(res.chunks, 0u);
  EXPECT_GT(res.wall_ns, 0u);
  EXPECT_GT(res.compute_ns, 0u);
  EXPECT_GE(res.overlap_efficiency, 0.0);
  EXPECT_LE(res.overlap_efficiency, 1.0);
  EXPECT_EQ(res.bytes_written, sink.bytes().size());
}

// ------------------------------------------------ multi-producer compute

TEST_F(EriPipelineTest, MultiProducerStreamBytesIdenticalAcrossMatrix) {
  // The chunk stream is claimed dynamically and reordered on the
  // consumer side, so the container bytes must not depend on the
  // producer count, the parallel width inside each producer, or the queue
  // depth -- only the sequential golden bytes exist.
  Params p;
  qc::EriPipelineOptions seq;
  seq.pipelined = false;
  seq.async_io = false;
  const auto golden = stream_bytes(p, seq);
  ASSERT_FALSE(golden.empty());

  const int max_threads = default_threads();
  for (const int threads : {1, max_threads}) {
    set_default_threads(threads);
    for (const std::size_t producers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t depth : {std::size_t{1}, std::size_t{3}}) {
        qc::EriPipelineOptions popt;
        popt.producers = producers;
        popt.queue_depth = depth;
        popt.batch_blocks = 3;  // 24 blocks -> 8 chunks to interleave
        EXPECT_EQ(stream_bytes(p, popt), golden)
            << "threads=" << threads << " producers=" << producers
            << " depth=" << depth;
      }
    }
  }
  set_default_threads(max_threads);
}

TEST_F(EriPipelineTest, MultiProducerReportsPerProducerStats) {
  Params p;
  qc::EriPipelineOptions popt;
  popt.producers = 3;
  popt.batch_blocks = 2;  // 24 blocks -> 12 chunks across 3 producers
  VectorSink sink;
  const qc::EriPipelineResult res =
      qc::compress_eri_stream(mol_, opt_, p, sink, popt);
  ASSERT_EQ(res.producers.size(), 3u);
  std::size_t chunks = 0;
  std::uint64_t busy = 0, stalled = 0;
  for (const qc::EriProducerStats& ps : res.producers) {
    chunks += ps.chunks;
    busy += ps.compute_ns;
    stalled += ps.stall_ns;
  }
  // Every chunk is computed by exactly one producer, and the aggregate
  // stage numbers are the per-producer sums.
  EXPECT_EQ(chunks, res.chunks);
  EXPECT_EQ(res.chunks, 12u);
  EXPECT_EQ(busy, res.compute_ns);
  EXPECT_EQ(stalled, res.compute_stall_ns);
  EXPECT_GT(busy, 0u);

  // The sequential path reports no per-producer breakdown.
  qc::EriPipelineOptions seq;
  seq.pipelined = false;
  VectorSink sink2;
  EXPECT_TRUE(
      qc::compress_eri_stream(mol_, opt_, p, sink2, seq).producers.empty());
  EXPECT_EQ(sink2.bytes(), sink.bytes());
}

TEST_F(EriPipelineTest, MultiProducerDumpShardsByteIdentical) {
  // dump_eri_sharded with N producers writes the same shard files and
  // manifest as the single-producer dump, byte for byte.
  Params p;
  constexpr int kShards = 3;
  qc::EriDumpOptions dopt;
  dopt.num_shards = kShards;
  qc::EriPipelineOptions one;
  one.producers = 1;
  qc::dump_eri_sharded(mol_, opt_, p, dir_, "p1", dopt, one);

  for (const std::size_t producers : {std::size_t{2}, std::size_t{4}}) {
    qc::EriPipelineOptions popt;
    popt.producers = producers;
    const std::string base = "p" + std::to_string(producers);
    const qc::EriDumpResult res =
        qc::dump_eri_sharded(mol_, opt_, p, dir_, base, dopt, popt);
    EXPECT_EQ(res.shards_total, static_cast<std::size_t>(kShards));
    for (int s = 0; s < kShards; ++s) {
      const std::string suffix = "." + std::to_string(s);
      EXPECT_EQ(slurp(dir_ + "/" + base + suffix),
                slurp(dir_ + "/p1" + suffix))
          << "producers=" << producers << " shard " << s;
    }
    EXPECT_EQ(slurp(dir_ + "/" + base + ".manifest"),
              slurp(dir_ + "/p1.manifest"))
        << "producers=" << producers;
  }
}

TEST_F(EriPipelineTest, MoreProducersThanChunksStillCompletes) {
  // Degenerate oversubscription: producers that find the stream already
  // fully claimed must hand their buffer back and exit cleanly.
  Params p;
  qc::EriPipelineOptions popt;
  popt.producers = 6;
  popt.batch_blocks = 12;  // 24 blocks -> only 2 chunks for 6 producers
  qc::EriPipelineOptions seq;
  seq.pipelined = false;
  EXPECT_EQ(stream_bytes(p, popt), stream_bytes(p, seq));
}

// ------------------------------------------------- solvers off the store

TEST(Mp2FromStore, MatchesDenseMp2) {
  qc::Molecule m;
  m.name = "H2O";
  m.atoms = {{"O", 8, {0, 0, 0}},
             {"H", 1, {0, 1.4305, 1.1093}},
             {"H", 1, {0, -1.4305, 1.1093}}};
  const qc::BasisSet basis = qc::make_sto3g_basis(m);
  const qc::EriTensor exact = qc::compute_eri_tensor(basis);
  const qc::ScfResult scf = qc::run_rhf(m, basis, exact);
  ASSERT_TRUE(scf.converged);
  const qc::Mp2Result dense = qc::run_mp2(m, basis, exact, scf);

  Params p;
  p.error_bound = 1e-10;
  const qc::CompressedEriStore store(basis, p);
  const qc::Mp2Result streamed = qc::run_mp2_from_store(m, basis, store, scf);
  EXPECT_LT(dense.correlation_energy, 0.0);
  EXPECT_NEAR(streamed.correlation_energy, dense.correlation_energy, 1e-8);
  EXPECT_NEAR(streamed.total_energy, dense.total_energy, 1e-8);

  // And the full workflow the pipeline closes: SCF + MP2 entirely off
  // the compressed stream.
  const qc::ScfResult scf2 = qc::run_rhf_from_store(m, basis, store);
  ASSERT_TRUE(scf2.converged);
  const qc::Mp2Result mp2 = qc::run_mp2_from_store(m, basis, store, scf2);
  EXPECT_NEAR(mp2.total_energy, dense.total_energy, 1e-6);
}

TEST(Mp2FromStore, RejectsMismatchedInputs) {
  qc::Molecule m;
  m.name = "H2";
  m.atoms = {{"H", 1, {0, 0, 0}}, {"H", 1, {0, 0, 1.4}}};
  const qc::BasisSet basis = qc::make_sto3g_basis(m);
  const qc::EriTensor exact = qc::compute_eri_tensor(basis);
  const qc::ScfResult scf = qc::run_rhf(m, basis, exact);
  Params p;
  const qc::CompressedEriStore store(basis, p);
  qc::ScfResult bad = scf;
  bad.converged = false;
  EXPECT_THROW(qc::run_mp2_from_store(m, basis, store, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace pastri
