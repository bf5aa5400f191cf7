// compressed_eri_store.h - ERIs held in PaSTRI-compressed form, the
// paper's Fig. 11 infrastructure: "generating the data once, then
// compressing it once by using PaSTRI, and then decompressing it
// whenever it is needed again."
//
// A general basis mixes shell types, so blocks come in several shapes;
// PaSTRI streams are per-BF-configuration (the paper's datasets are
// organized the same way).  The store groups shell quartets by their
// (lA lB | lC lD) class and keeps one compressed stream per class.
// Consumers either materialize the dense tensor once, or -- because the
// indexed container makes every block seekable -- pull single quartet
// blocks on demand through `shell_block`, backed by a small LRU cache,
// so a direct-SCF Fock build can consume compressed integrals
// quartet-by-quartet without ever holding the full tensor.  A flat
// table indexed by ((p*ns + q)*ns + u)*ns + v maps each quartet to its
// (class stream, block) in O(1).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/pastri.h"
#include "core/sharded_cache.h"
#include "qc/scf.h"

namespace pastri::qc {

class CompressedEriStore {
 public:
  /// Compute all shell-quartet blocks of `basis` and compress them,
  /// one PaSTRI stream per quartet class.  A BasisEriEngine (the
  /// cached-pair kernel) computes each class in fixed-size batches of
  /// quartets, in parallel on a team of `params.num_threads` (0 = the
  /// default width, see resolve_threads in core/parallel.h; above
  /// kMaxThreads throws std::invalid_argument before any work); each
  /// batch is then appended to the class's
  /// StreamWriter in quartet order.  The write side holds one batch,
  /// never a dense per-class tensor, and the stored bytes do not depend
  /// on the thread count.
  CompressedEriStore(const BasisSet& basis, const Params& params);

  /// Decompress everything into the dense (mu nu | la si) tensor.
  /// Every value is within the error bound of the exact integral.
  EriTensor materialize() const;

  /// Decompress only the (p q | u v) shell-quartet block (shell
  /// indices, in the basis's shell order).  The returned values are laid
  /// out exactly like compute_eri_block's output for those shells, each
  /// within the error bound of the exact integral.  A sharded LRU cache
  /// makes repeated quartet access cheap; the shared_ptr stays valid
  /// after eviction.  Thread-safe, and scalable across concurrent
  /// readers: the cache lock is held only for the O(1) lookup/insert,
  /// never across the decode, and the key space is mutex-striped
  /// (CacheConfig::num_shards), so warm hits on different quartets do
  /// not contend.  Two threads missing the same quartet may both
  /// decode, but the results are deduplicated by content into one
  /// shared vector, and both misses are counted (hit+miss accounting
  /// stays exact).  Throws std::out_of_range for shell indices outside
  /// the basis.
  std::shared_ptr<const std::vector<double>> shell_block(
      std::size_t p, std::size_t q, std::size_t u, std::size_t v) const;

  /// Replace the cache geometry (total capacity in blocks -- 0 disables
  /// caching -- and the number of mutex-striped shards).
  void set_cache(const CacheConfig& config) { cache_.configure(config); }
  CacheConfig cache_config() const { return cache_.config(); }

  /// Aggregated cache accounting: lifetime hit/miss counters, plus the
  /// bytes and count of *distinct* decoded vectors currently held.
  /// Decoded blocks are deduplicated by content: cache entries whose
  /// values are identical (common for symmetry-equivalent or
  /// pattern-repetitive quartets) share one vector, so
  /// warm-cache memory grows with the number of *distinct* blocks, not
  /// the number of cached quartets.
  CacheStats cache_stats() const { return cache_.stats(); }

  std::size_t compressed_bytes() const;
  std::size_t uncompressed_bytes() const;
  double ratio() const {
    return compressed_bytes()
               ? static_cast<double>(uncompressed_bytes()) /
                     static_cast<double>(compressed_bytes())
               : 0.0;
  }
  std::size_t num_classes() const { return streams_.size(); }
  std::size_t num_shells() const { return shell_l_.size(); }

 private:
  struct ClassData {
    BlockSpec spec;
    std::vector<std::array<std::size_t, 4>> quartets;  ///< shell indices
    std::vector<std::uint8_t> stream;
    /// Seekable view of `stream` (the map node and the vector's buffer
    /// are both stable, so the span inside stays valid).
    std::unique_ptr<BlockReader> reader;
  };

  using QuartetKey = std::array<std::size_t, 4>;
  struct BlockRef {
    std::uint32_t cls = 0;      ///< index into classes_
    std::uint32_t ordinal = 0;  ///< block number within the class stream
  };

  struct QuartetHash {
    std::size_t operator()(const QuartetKey& k) const {
      std::size_t h = 1469598103934665603ull;
      for (const std::size_t v : k) {
        h ^= v;
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  std::size_t n_ = 0;  ///< number of basis functions
  std::vector<std::size_t> shell_offset_;
  std::vector<int> shell_l_;
  std::map<std::array<int, 4>, ClassData> streams_;
  std::vector<const ClassData*> classes_;  ///< streams_ nodes, map order
  std::vector<BlockRef> block_of_;  ///< ((p*ns + q)*ns + u)*ns + v
  std::size_t uncompressed_bytes_ = 0;

  /// Sharded LRU of decoded quartet blocks with content dedup (see
  /// core/sharded_cache.h); the quartet index and the streams are
  /// immutable after construction, so shell_block takes no other lock.
  mutable ShardedBlockCache<QuartetKey, QuartetHash> cache_;
};

}  // namespace pastri::qc
