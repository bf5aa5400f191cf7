// Allocation accounting for the block codec hot path.  Overriding the
// global operator new in this TU counts every heap allocation the
// process makes; after a warm-up pass that sizes the CodecWorkspace and
// the driver arenas, steady-state compress/decompress must allocate
// nothing per block (workspace loops and a warm parallel_for: exactly
// zero; streaming drivers: amortized container growth only, far below
// one allocation per block).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "core/parallel.h"
#include "core/pastri.h"
#include "core/simd/simd.h"
#include "core/stream.h"
#include "qc/eri_engine.h"
#include "qc/molecule.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// The replacement allocator pairs new with malloc/free on purpose.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pastri {
namespace {

constexpr BlockSpec kSpec{.num_sub_blocks = 36, .sub_block_size = 36};

/// ERI-like blocks: scaled copies of a pattern plus noise large enough
/// to force dense ECQ payloads (the hot decode path).
std::vector<double> make_blocks(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> data(count * kSpec.block_size());
  for (std::size_t b = 0; b < count; ++b) {
    double pattern[36];
    for (double& p : pattern) p = unit(gen);
    for (std::size_t j = 0; j < kSpec.num_sub_blocks; ++j) {
      const double scale = unit(gen);
      for (std::size_t i = 0; i < kSpec.sub_block_size; ++i) {
        data[b * kSpec.block_size() + j * kSpec.sub_block_size + i] =
            scale * pattern[i] + 2e-9 * unit(gen);
      }
    }
  }
  return data;
}

std::size_t allocations_since(std::size_t mark) {
  return g_alloc_count.load(std::memory_order_relaxed) - mark;
}

TEST(AllocFree, CompressBlockSteadyStateAllocatesNothing) {
  const std::size_t n = 64;
  const auto data = make_blocks(n, 11);
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  auto block = [&](std::size_t b) {
    return std::span<const double>(data).subspan(b * kSpec.block_size(),
                                                 kSpec.block_size());
  };
  // Warm pass over every block: sizes the workspace, grows the writer
  // buffer to the largest payload, and builds any lazy statics (metric
  // registry shards, decode LUTs).  The measured second pass is the
  // steady state.
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(block(b), kSpec, params, w, &ws.stats, ws);
  }

  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(block(b), kSpec, params, w, &ws.stats, ws);
    (void)w.finish_view();
  }
  EXPECT_EQ(allocations_since(mark), 0u)
      << "compress_block allocated in steady state";
}

TEST(AllocFree, DecompressBlockSteadyStateAllocatesNothing) {
  const std::size_t n = 64;
  const auto data = make_blocks(n, 12);
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  std::vector<std::vector<std::uint8_t>> payloads(n);
  for (std::size_t b = 0; b < n; ++b) {
    w.restart();
    compress_block(std::span<const double>(data).subspan(
                       b * kSpec.block_size(), kSpec.block_size()),
                   kSpec, params, w, nullptr, ws);
    const auto view = w.finish_view();
    payloads[b].assign(view.begin(), view.end());
  }

  std::vector<double> out(kSpec.block_size());
  for (std::size_t b = 0; b < n; ++b) {  // warm pass
    bitio::BitReader r(payloads[b]);
    decompress_block(r, kSpec, params, out, ws);
  }
  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = 0; b < n; ++b) {
    bitio::BitReader r(payloads[b]);
    decompress_block(r, kSpec, params, out, ws);
  }
  EXPECT_EQ(allocations_since(mark), 0u)
      << "decompress_block allocated in steady state";
}

/// Backends this binary can actually execute (scalar + every supported
/// vector tier); the alloc contract must hold on all of them.
std::vector<simd::Backend> runnable_backends() {
  std::vector<simd::Backend> v{simd::Backend::Scalar};
  for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512,
                          simd::Backend::Neon}) {
    if (simd::backend_supported(b)) v.push_back(b);
  }
  return v;
}

/// Blocks whose ECQ payload is a handful of large outliers in an
/// otherwise exact scaled pattern -- the geometry that makes the
/// planner pick the sparse (index,value) representation, so decode
/// exercises unpack_pairs + scatter_ecq and the workspace sparse_idx /
/// sparse_val arrays.
std::vector<double> make_sparse_blocks(std::size_t count,
                                       std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> data(count * kSpec.block_size());
  for (std::size_t b = 0; b < count; ++b) {
    double pattern[36];
    for (double& p : pattern) p = 1e-6 * (1.0 + 0.5 * unit(gen));
    for (std::size_t j = 0; j < kSpec.num_sub_blocks; ++j) {
      const double scale = 0.25 + 0.5 * (static_cast<double>(j) / 36.0);
      for (std::size_t i = 0; i < kSpec.sub_block_size; ++i) {
        double v = scale * pattern[i];
        if ((j * 36 + i + b) % 331 == 0) v += 1e-3 * unit(gen);
        data[b * kSpec.block_size() + j * kSpec.sub_block_size + i] = v;
      }
    }
  }
  return data;
}

/// Steady-state decompress_block allocates nothing on ANY backend, for
/// dense-ECQ and sparse-ECQ payloads alike (the sparse path's
/// (idx,val) scratch lives in the workspace and is warmed by the first
/// pass, like every other array).
TEST(AllocFree, DecompressBlockAllocFreeOnEveryBackendBothEcqPaths) {
  const std::size_t n = 32;
  Params params;
  CodecWorkspace ws;
  bitio::BitWriter w;

  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& data : {make_blocks(n, 21), make_sparse_blocks(n, 22)}) {
    for (std::size_t b = 0; b < n; ++b) {
      w.restart();
      compress_block(std::span<const double>(data).subspan(
                         b * kSpec.block_size(), kSpec.block_size()),
                     kSpec, params, w, nullptr, ws);
      const auto view = w.finish_view();
      payloads.emplace_back(view.begin(), view.end());
    }
  }

  std::vector<double> out(kSpec.block_size());
  for (simd::Backend backend : runnable_backends()) {
    simd::force_backend(backend);
    for (const auto& payload : payloads) {  // warm pass
      bitio::BitReader r(payload);
      decompress_block(r, kSpec, params, out, ws);
    }
    const std::size_t mark = g_alloc_count.load();
    for (const auto& payload : payloads) {
      bitio::BitReader r(payload);
      decompress_block(r, kSpec, params, out, ws);
    }
    EXPECT_EQ(allocations_since(mark), 0u)
        << "decompress_block allocated in steady state on backend "
        << simd::backend_name(backend);
  }
  simd::refresh_backend_from_env();
}

TEST(AllocFree, StreamWriterSteadyStateBatchesAllocateFarBelowPerBlock) {
  const std::size_t batch = 16;
  const std::size_t n = 8 * batch;
  const std::size_t warm = 2 * batch;
  const auto data = make_blocks(n, 13);
  Params params;
  params.num_threads = 2;

  VectorSink sink;
  StreamWriter writer(sink, kSpec, params,
                      {.batch_blocks = batch, .expected_blocks = n});
  auto block = [&](std::size_t b) {
    return std::span<const double>(data).subspan(b * kSpec.block_size(),
                                                 kSpec.block_size());
  };
  // First batches are the cold path: workspaces, arenas (which may still
  // rebalance across threads on batch two), sink buffer.
  for (std::size_t b = 0; b < warm; ++b) writer.put_block(block(b));

  const std::size_t mark = g_alloc_count.load();
  for (std::size_t b = warm; b < n; ++b) writer.put_block(block(b));
  const std::size_t measured = n - warm;
  const std::size_t allocs = allocations_since(mark);
  // Amortized growth of the sink buffer and the offset table is allowed;
  // per-block payload/scratch allocation is not.
  EXPECT_LT(allocs, measured / 8)
      << allocs << " allocations over " << measured << " blocks";

  writer.finish();
  // The workspace/arena rewrite must not change the container bytes.
  EXPECT_EQ(sink.take(), compress(data, kSpec, params));
}

TEST(AllocFree, StreamConsumerSteadyStateBatchesAllocateFarBelowPerBlock) {
  const std::size_t batch = 16;
  const std::size_t n = 4 * batch;
  const auto data = make_blocks(n, 14);
  Params params;
  params.num_threads = 2;
  const auto stream = compress(data, kSpec, params);

  SpanSource source(stream);
  StreamConsumer consumer(source,
                          {.batch_blocks = batch, .num_threads = 2});
  std::vector<double> out(n * kSpec.block_size());
  // Cold batch: decode buffers, extents, workspaces.
  ASSERT_EQ(consumer.read_blocks(
                std::span<double>(out).first(batch * kSpec.block_size())),
            batch);

  const std::size_t mark = g_alloc_count.load();
  ASSERT_EQ(consumer.read_blocks(
                std::span<double>(out).subspan(batch * kSpec.block_size())),
            n - batch);
  const std::size_t measured = n - batch;
  const std::size_t allocs = allocations_since(mark);
  EXPECT_LT(allocs, measured / 4)
      << allocs << " allocations over " << measured << " blocks";
  // Decode is deterministic: the chunked path must equal the one-shot.
  EXPECT_EQ(out, decompress(stream));
}

/// The consumer chunk loop keeps the amortized-allocation contract on
/// every backend tier (the bulk decode kernels draw all their scratch
/// from the per-thread workspaces).
TEST(AllocFree, StreamConsumerChunkLoopAllocLeanOnEveryBackend) {
  const std::size_t batch = 16;
  const std::size_t n = 4 * batch;
  const auto data = make_blocks(n, 15);
  Params params;
  params.num_threads = 2;
  const auto stream = compress(data, kSpec, params);
  const auto want = decompress(stream);

  for (simd::Backend backend : runnable_backends()) {
    simd::force_backend(backend);
    SpanSource source(stream);
    StreamConsumer consumer(source,
                            {.batch_blocks = batch, .num_threads = 2});
    std::vector<double> out(n * kSpec.block_size());
    ASSERT_EQ(consumer.read_blocks(std::span<double>(out).first(
                  batch * kSpec.block_size())),
              batch);
    const std::size_t mark = g_alloc_count.load();
    ASSERT_EQ(consumer.read_blocks(std::span<double>(out).subspan(
                  batch * kSpec.block_size())),
              n - batch);
    const std::size_t measured = n - batch;
    const std::size_t allocs = allocations_since(mark);
    EXPECT_LT(allocs, measured / 4)
        << allocs << " allocations over " << measured << " blocks on "
        << simd::backend_name(backend);
    EXPECT_EQ(out, want) << simd::backend_name(backend);
  }
  simd::refresh_backend_from_env();
}

/// The ERI generation hot path: once the shell-pair cache is built
/// (plan) and the thread-local workspaces are warm (first pass), the
/// steady-state quartet loop draws everything -- HermiteR tensor,
/// Schwarz scratch, term arenas -- from preallocated storage.  The
/// bound is amortized rather than exactly zero because compute_range
/// allocates its per-tid tallies once per call, and because dynamic
/// scheduling on a loaded host may hand a pool thread its first block of
/// this momentum class only after the warm-up pass, growing that
/// thread's workspace then.
TEST(AllocFree, EriGenerationSteadyStateAllocatesFarBelowPerBlock) {
  const qc::Molecule mol = qc::make_molecule("benzene");
  qc::DatasetOptions opt;
  opt.config = qc::parse_config("(dd|dd)");
  opt.max_blocks = 48;
  const qc::EriBlockGenerator gen(mol, opt);
  const std::size_t n = gen.meta().num_blocks;
  const std::size_t bs = gen.meta().shape.block_size();
  ASSERT_EQ(n, 48u);
  std::vector<double> out(n * bs);

  // Warm pass: sizes each thread's workspace for this momentum class.
  gen.compute_range(0, n, out);

  const std::size_t passes = 4;
  const std::size_t mark = g_alloc_count.load();
  for (std::size_t p = 0; p < passes; ++p) gen.compute_range(0, n, out);
  const std::size_t measured = passes * n;
  const std::size_t allocs = allocations_since(mark);
  EXPECT_LT(allocs, measured / 8)
      << allocs << " allocations over " << measured << " generated blocks";
}

/// The executor under every parallel loop: once its helper threads are
/// started, a 4-wide call allocates nothing -- the loop body is passed
/// by reference, the call's state lives on the caller's stack, and a
/// helper returns itself to the idle list without growing it.
TEST(AllocFree, ParallelForWarmCallAllocatesNothing) {
  std::vector<std::uint64_t> partial(4 * 8);  // one cache line per tid
  const auto body = [&](int tid, std::size_t i) {
    partial[static_cast<std::size_t>(tid) * 8] += i;
  };
  parallel_for(4096, 4, 16, body);  // starts the helpers
  const std::size_t mark = g_alloc_count.load();
  for (int round = 0; round < 16; ++round) parallel_for(4096, 4, 16, body);
  EXPECT_EQ(allocations_since(mark), 0u);
  std::uint64_t sum = 0;
  for (const std::uint64_t s : partial) sum += s;
  EXPECT_EQ(sum, 17u * (4096u * 4095u / 2));
}

}  // namespace
}  // namespace pastri
