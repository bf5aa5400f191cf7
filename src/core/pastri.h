// pastri.h - Public API of the PaSTRI compressor.
//
// PaSTRI (Pattern Scaling for Two-electron Repulsion Integrals) is an
// error-bounded lossy compressor for datasets made of fixed-shape blocks
// whose sub-blocks are approximate scalar multiples of one another --
// the latent structure of GAMESS ERI shell blocks (Section III-B of the
// paper), but the codec is generic over any data with that feature.
//
// Typical use:
//
//   pastri::BlockSpec spec{.num_sub_blocks = 36, .sub_block_size = 36};
//   pastri::Params params{.error_bound = 1e-10};
//   auto compressed = pastri::compress(values, spec, params);
//   auto roundtrip  = pastri::decompress(compressed);
//   // |values[i] - roundtrip[i]| <= 1e-10 for every i, guaranteed.
//
// Thread safety: `compress`/`decompress` parallelize over blocks with the
// library's parallel_for (core/parallel.h) and are safe to call
// concurrently on distinct data.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_index.h"
#include "core/block_spec.h"
#include "core/ecq_tree.h"
#include "core/quantize.h"
#include "core/scaling.h"

namespace pastri {

/// Container version bytes (the 5th stream byte).  v2 is the original
/// layout: global header + varint-length prefixed payloads.  v3 appends
/// a per-block offset table and a footer locating it, making every block
/// seekable in O(1).  The compressor writes v3; v2 and v3 decode.
inline constexpr unsigned kStreamVersionUnindexed = 2;
inline constexpr unsigned kStreamVersionIndexed = 3;

/// How the error bound is interpreted.
///
/// `Absolute` is the paper's mode: one absolute bound for the whole
/// stream (GAMESS workloads use 1e-10).  `BlockRelative` is the
/// "extend it to suit more chemistry applications" direction: the bound
/// for each block is `error_bound * max|block|` (snapped down to a power
/// of two so both sides derive it identically), preserving *relative*
/// precision in far-field blocks instead of zeroing them.
enum class BoundMode : std::uint8_t {
  Absolute = 0,
  BlockRelative = 1,
};

/// Compression parameters.  Defaults are the paper's final design:
/// ER scaling, Tree 5 encoding, sparse/dense adaptivity, EB = 1e-10.
struct Params {
  /// Point-wise absolute bound, or the relative factor in BlockRelative
  /// mode.
  double error_bound = 1e-10;
  BoundMode bound_mode = BoundMode::Absolute;
  ScalingMetric metric = ScalingMetric::ER;
  EcqTree tree = EcqTree::Tree5;
  bool allow_sparse = true;  ///< per-block sparse-ECQ representation
  /// Block-parallel width.  0 = default: OMP_NUM_THREADS if set to a
  /// positive integer, else std::thread::hardware_concurrency().  Above
  /// kMaxThreads (512) the drivers throw std::invalid_argument.
  int num_threads = 0;

  void validate() const {
    if (!(error_bound > 0.0)) {
      throw std::invalid_argument("error_bound must be positive");
    }
    if (bound_mode == BoundMode::BlockRelative && !(error_bound < 1.0)) {
      throw std::invalid_argument(
          "relative error bound must be in (0, 1)");
    }
  }
};

/// Storage accounting for one compression run (drives the paper's
/// "PQ+SQ ~= 20-30 %, ECQ ~= 70-80 %, bookkeeping < 0.5 %" breakdown and
/// the Fig. 6 block-type census).
struct Stats {
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  std::size_t header_bits = 0;   ///< global + per-block metadata
  std::size_t pattern_bits = 0;  ///< PQ payload
  std::size_t scale_bits = 0;    ///< SQ payload
  std::size_t ecq_bits = 0;      ///< ECQ payload
  std::size_t num_blocks = 0;
  std::array<std::size_t, 4> blocks_by_type{};
  std::size_t sparse_blocks = 0;
  std::size_t num_outliers = 0;

  double ratio() const {
    return output_bytes ? static_cast<double>(input_bytes) / output_bytes
                        : 0.0;
  }

  /// Flat JSON object.  Both pastri_tool's --metrics=json report and the
  /// obs exporter (obs/export.h) serialize Stats through this one
  /// function, so the two representations can never drift.
  std::string to_json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"input_bytes\":%zu,\"output_bytes\":%zu,\"ratio\":%.6g,"
        "\"header_bits\":%zu,\"pattern_bits\":%zu,\"scale_bits\":%zu,"
        "\"ecq_bits\":%zu,\"num_blocks\":%zu,"
        "\"blocks_by_type\":[%zu,%zu,%zu,%zu],"
        "\"sparse_blocks\":%zu,\"num_outliers\":%zu}",
        input_bytes, output_bytes, ratio(), header_bits, pattern_bits,
        scale_bits, ecq_bits, num_blocks, blocks_by_type[0],
        blocks_by_type[1], blocks_by_type[2], blocks_by_type[3],
        sparse_blocks, num_outliers);
    return buf;
  }
};

/// Stream metadata readable without decompressing.
struct StreamInfo {
  double error_bound = 0.0;
  BoundMode bound_mode = BoundMode::Absolute;
  ScalingMetric metric = ScalingMetric::ER;
  EcqTree tree = EcqTree::Tree5;
  BlockSpec spec;
  std::size_t num_blocks = 0;
  unsigned version = 0;  ///< container version byte (see kStreamVersion*)

  /// Decode-side parameters implied by the header.
  Params to_params() const {
    Params p;
    p.error_bound = error_bound;
    p.bound_mode = bound_mode;
    p.metric = metric;
    p.tree = tree;
    return p;
  }
};

/// Compress `data` (a whole number of blocks).  Throws
/// std::invalid_argument on size mismatch or bad parameters.
std::vector<std::uint8_t> compress(std::span<const double> data,
                                   const BlockSpec& spec,
                                   const Params& params,
                                   Stats* stats = nullptr);

/// Parse the stream header only.
StreamInfo peek_info(std::span<const std::uint8_t> stream);

// ---- Decode entry points ----------------------------------------------
//
// The canonical decode family is StreamInfo-first: probe the header once
// with `peek_info` (or take it from a BlockReader / StreamConsumer you
// already have) and pass it back in, so repeated decodes of the same
// stream never re-parse the header.  The info-less overloads below each
// delegate to their info-first twin after one `peek_info` call -- they
// are thin aliases for one-shot use, not separate code paths.

/// Decompress a full stream produced by `compress` (block-parallel;
/// `num_threads` as in Params::num_threads, 0 = default width).
/// `info` must be this stream's header as parsed by `peek_info`.
/// Throws std::runtime_error on malformed input.
std::vector<double> decompress(std::span<const std::uint8_t> stream,
                               const StreamInfo& info, int num_threads = 0);

/// Thin alias: probes the header, then calls the StreamInfo-first
/// overload.
std::vector<double> decompress(std::span<const std::uint8_t> stream,
                               int num_threads = 0);

// ---- Random access ----------------------------------------------------

/// Seekable view of one compressed stream: parses the header and the
/// block index once (from the v3 footer, or by a single sequential scan
/// for unindexed v2 streams), then decodes arbitrary blocks in O(block)
/// time.  The span must outlive the reader.  All read methods are const
/// and safe to call concurrently.
class BlockReader {
 public:
  /// Throws std::runtime_error on malformed input (bad header, missing
  /// or inconsistent index footer, corrupt offset table).  `num_threads`
  /// bounds read_range's block parallelism (as Params::num_threads,
  /// 0 = default width).
  explicit BlockReader(std::span<const std::uint8_t> stream,
                       int num_threads = 0);

  /// StreamInfo-first constructor: `info` must be this stream's header
  /// as parsed by `peek_info`; only the block index is parsed here.
  BlockReader(std::span<const std::uint8_t> stream, const StreamInfo& info,
              int num_threads = 0);

  const StreamInfo& info() const { return info_; }
  const BlockIndex& index() const { return index_; }
  std::size_t num_blocks() const { return index_.num_blocks(); }

  /// Decode block `block` into `out` (size spec.block_size()).
  void read_block(std::size_t block, std::span<double> out) const;
  std::vector<double> read_block(std::size_t block) const;

  /// Decode blocks [first, first+count) (block-parallel internally).
  std::vector<double> read_range(std::size_t first,
                                 std::size_t count) const;

 private:
  std::span<const std::uint8_t> stream_;
  StreamInfo info_;
  Params params_;
  BlockIndex index_;
};

/// One-shot conveniences over BlockReader, in the same StreamInfo-first
/// family as `decompress`.  For repeated random access into the same
/// stream, construct a BlockReader once instead: these re-parse the
/// index per call.
std::vector<double> decompress_block_at(
    std::span<const std::uint8_t> stream, const StreamInfo& info,
    std::size_t block);
std::vector<double> decompress_range(std::span<const std::uint8_t> stream,
                                     const StreamInfo& info,
                                     std::size_t first, std::size_t count);

/// Thin aliases: probe the header, then call the StreamInfo-first twin.
std::vector<double> decompress_block_at(
    std::span<const std::uint8_t> stream, std::size_t block);
std::vector<double> decompress_range(std::span<const std::uint8_t> stream,
                                     std::size_t first, std::size_t count);

/// The stream's block index (parsed from the v3 footer, or rebuilt by a
/// sequential scan for v2 streams).
BlockIndex read_block_index(std::span<const std::uint8_t> stream);

// ---- Block-level API (building blocks, also used by tests/benches) ----

/// Reusable per-thread scratch for the block codec hot path.  Sized on
/// first use for a given BlockSpec and reused for every block after, so
/// steady-state compress/decompress loops perform zero heap allocations
/// per block.  Each parallel_for tid in the batch drivers owns one; the
/// workspace-less compress_block/decompress_block overloads fall back to
/// a thread-local instance.  Not thread-safe: one workspace per thread.
struct CodecWorkspace {
  PatternSelection selection;             ///< encode: pattern + scales
  QuantizedBlock quantized;               ///< both sides: PQ/SQ/ECQ
  std::vector<double> p_hat;              ///< both: reconstructed pattern
  std::vector<double> s_hat;              ///< encode: reconstructed scales
  std::vector<double> metric_scratch;     ///< encode: select_pattern values
  std::vector<std::uint64_t> sparse_idx;  ///< decode: sparse-ECQ indices
  std::vector<std::int64_t> sparse_val;   ///< decode: sparse-ECQ values
  bitio::BitWriter writer;                ///< drivers: per-block bit staging
  std::vector<std::uint8_t> arena;        ///< drivers: batch payload staging
  Stats stats;                            ///< drivers: per-thread accounting

  /// Size every per-block scratch buffer (encode side and bit staging)
  /// for `spec` up front, so even the first block encoded on this
  /// workspace allocates nothing.
  void reserve(const BlockSpec& spec);
};

/// Compress one block into `w` and account into `stats` (may be null).
void compress_block(std::span<const double> block, const BlockSpec& spec,
                    const Params& params, bitio::BitWriter& w, Stats* stats);

/// Workspace-explicit variant (allocation-free once `ws` is warm).
void compress_block(std::span<const double> block, const BlockSpec& spec,
                    const Params& params, bitio::BitWriter& w, Stats* stats,
                    CodecWorkspace& ws);

/// Decompress one block from `r`.
void decompress_block(bitio::BitReader& r, const BlockSpec& spec,
                      const Params& params, std::span<double> out);

/// Workspace-explicit variant (allocation-free once `ws` is warm).
void decompress_block(bitio::BitReader& r, const BlockSpec& spec,
                      const Params& params, std::span<double> out,
                      CodecWorkspace& ws);

/// Introspection for analysis benches/tests: the full quantized
/// representation of one block under `params` (pattern selection included).
struct BlockAnalysis {
  PatternSelection selection;
  QuantizedBlock quantized;
  bool zero_block = false;   ///< whole block within EB of zero
  bool sparse_chosen = false;
  std::size_t payload_bits = 0;
};
BlockAnalysis analyze_block(std::span<const double> block,
                            const BlockSpec& spec, const Params& params);

}  // namespace pastri
