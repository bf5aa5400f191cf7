#include "qc/compressed_eri_store.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/parallel.h"
#include "core/stream.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/eri_engine.h"

namespace pastri::qc {
namespace {

/// LRU cache telemetry (obs/metric_names.h), alongside the store's own
/// cache_stats() so a snapshot sees the hits and misses too.
struct StoreMetrics {
  obs::Counter cache_hits = obs::registry().counter(obs::kQcEriCacheHits);
  obs::Counter cache_misses =
      obs::registry().counter(obs::kQcEriCacheMisses);
};

const StoreMetrics& store_metrics() {
  static const StoreMetrics m;
  return m;
}

/// Values per compute batch of the store build: enough quartets to keep
/// a team busy on small classes, a few MB of staging on large blocks.
constexpr std::size_t kBatchValues = std::size_t{1} << 16;
constexpr std::size_t kMinBatchQuartets = 64;

}  // namespace

CompressedEriStore::CompressedEriStore(const BasisSet& basis,
                                       const Params& params) {
  // Resolved before any work, so an out-of-range width is rejected
  // before the engine starts a thread.
  const int threads = resolve_threads(params.num_threads);
  n_ = basis.num_basis_functions();
  shell_offset_.assign(basis.shells.size() + 1, 0);
  shell_l_.resize(basis.shells.size());
  for (std::size_t s = 0; s < basis.shells.size(); ++s) {
    shell_offset_[s + 1] =
        shell_offset_[s] + basis.shells[s].num_components();
    shell_l_[s] = basis.shells[s].l;
  }

  // Pass 1: group quartets by configuration class.  No integrals yet --
  // this only fixes each class's block spec and quartet order.
  const std::size_t ns = basis.shells.size();
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      for (std::size_t c = 0; c < ns; ++c) {
        for (std::size_t d = 0; d < ns; ++d) {
          const std::array<int, 4> cls{shell_l_[a], shell_l_[b],
                                       shell_l_[c], shell_l_[d]};
          ClassData& cd = streams_[cls];
          if (cd.quartets.empty()) {
            cd.spec.num_sub_blocks =
                static_cast<std::size_t>(num_cartesians(cls[0])) *
                num_cartesians(cls[1]);
            cd.spec.sub_block_size =
                static_cast<std::size_t>(num_cartesians(cls[2])) *
                num_cartesians(cls[3]);
          }
          cd.quartets.push_back({a, b, c, d});
        }
      }
    }
  }

  // Pass 2: compute -> compress each class.  The engine computes a
  // fixed-size batch of quartets in parallel, then the batch goes into
  // the class's StreamWriter block by block in quartet order, so the
  // write side never holds a dense per-class tensor (peak memory
  // O(batch)) and the bytes are independent of the team size.
  if (ns * ns * ns * ns > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CompressedEriStore: basis has too many shells");
  }
  const BasisEriEngine engine(basis);
  block_of_.resize(ns * ns * ns * ns);
  std::vector<double> batch;
  for (auto& [cls, cd] : streams_) {
    const std::size_t bs = cd.spec.block_size();
    const std::size_t per_batch =
        std::max(kMinBatchQuartets, kBatchValues / bs);
    // Encode batches match compute batches: one parallel region each
    // per batch, not one encode region per 64 blocks.
    VectorSink sink;
    StreamWriter writer(sink, cd.spec, params,
                        StreamWriterOptions{
                            .batch_blocks = per_batch,
                            .expected_blocks = cd.quartets.size()});
    for (std::size_t q0 = 0; q0 < cd.quartets.size(); q0 += per_batch) {
      const std::size_t n = std::min(per_batch, cd.quartets.size() - q0);
      batch.resize(n * bs);
      engine.compute_quartets(
          std::span<const ShellQuartet>(cd.quartets).subspan(q0, n), batch,
          threads);
      for (std::size_t i = 0; i < n; ++i) {
        writer.put_block(std::span<const double>(batch).subspan(i * bs, bs));
      }
    }
    writer.finish();
    uncompressed_bytes_ += writer.stats().input_bytes;
    cd.stream = sink.take();
    cd.reader = std::make_unique<BlockReader>(cd.stream);
    const auto id = static_cast<std::uint32_t>(classes_.size());
    classes_.push_back(&cd);
    for (std::size_t q = 0; q < cd.quartets.size(); ++q) {
      const auto& [a, b, c, d] = cd.quartets[q];
      block_of_[((a * ns + b) * ns + c) * ns + d] = {
          id, static_cast<std::uint32_t>(q)};
    }
  }
}

std::shared_ptr<const std::vector<double>> CompressedEriStore::shell_block(
    std::size_t p, std::size_t q, std::size_t u, std::size_t v) const {
  const std::size_t ns = shell_l_.size();
  if (p >= ns || q >= ns || u >= ns || v >= ns) {
    throw std::out_of_range("shell_block: shell quartet out of range");
  }
  const QuartetKey key{p, q, u, v};
  if (auto hit = cache_.lookup(key)) {
    store_metrics().cache_hits.inc();
    return hit;
  }
  store_metrics().cache_misses.inc();
  // Decode outside any lock: concurrent misses on distinct quartets
  // decode in parallel (BlockReader reads are const and thread-safe);
  // concurrent misses on the *same* quartet both decode but converge on
  // one shared vector through the cache's content dedup.
  const BlockRef ref = block_of_[((p * ns + q) * ns + u) * ns + v];
  std::vector<double> decoded =
      classes_[ref.cls]->reader->read_block(ref.ordinal);
  return cache_.insert(key, std::move(decoded));
}

EriTensor CompressedEriStore::materialize() const {
  EriTensor eri(n_ * n_ * n_ * n_, 0.0);
  for (const auto& [cls, cd] : streams_) {
    const std::vector<double> values = decompress(cd.stream);
    const std::size_t bs = cd.spec.block_size();
    const std::size_t na = static_cast<std::size_t>(num_cartesians(cls[0]));
    const std::size_t nb = static_cast<std::size_t>(num_cartesians(cls[1]));
    const std::size_t nc = static_cast<std::size_t>(num_cartesians(cls[2]));
    const std::size_t nd = static_cast<std::size_t>(num_cartesians(cls[3]));
    for (std::size_t q = 0; q < cd.quartets.size(); ++q) {
      const auto [sa, sb, sc, sd] = cd.quartets[q];
      const double* blk = values.data() + q * bs;
      std::size_t idx = 0;
      for (std::size_t i = 0; i < na; ++i) {
        for (std::size_t j = 0; j < nb; ++j) {
          for (std::size_t k = 0; k < nc; ++k) {
            for (std::size_t l = 0; l < nd; ++l, ++idx) {
              const std::size_t mu = shell_offset_[sa] + i;
              const std::size_t nu = shell_offset_[sb] + j;
              const std::size_t la = shell_offset_[sc] + k;
              const std::size_t si = shell_offset_[sd] + l;
              eri[((mu * n_ + nu) * n_ + la) * n_ + si] = blk[idx];
            }
          }
        }
      }
    }
  }
  return eri;
}

std::size_t CompressedEriStore::compressed_bytes() const {
  std::size_t total = 0;
  for (const auto& [cls, cd] : streams_) total += cd.stream.size();
  return total;
}

std::size_t CompressedEriStore::uncompressed_bytes() const {
  return uncompressed_bytes_;
}

}  // namespace pastri::qc
