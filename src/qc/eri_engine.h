// eri_engine.h - Shell-quartet enumeration, Schwarz screening, and
// dataset generation: the GAMESS-side substrate that feeds PaSTRI.
//
// The paper's datasets are streams of shell blocks for one BF
// configuration at a time -- (dd|dd), (ff|ff), hybrids -- sampled down to
// a practical size.  `generate_eri_dataset` reproduces that: it builds
// shells of the requested momenta on the molecule's heavy atoms,
// enumerates all ordered shell quartets, draws a deterministic uniform
// sample, and evaluates each block with the McMurchie-Davidson engine.
// Quartets failing the Schwarz bound are emitted as all-zero blocks,
// matching the paper's "screened elements are represented as zeros".
// `BasisEriEngine` runs the same cached-pair kernel over every quartet
// of a general basis, for the compressed store, the dense tensor and
// direct SCF.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>

#include "qc/basis.h"
#include "qc/dataset.h"
#include "qc/md_eri.h"
#include "qc/molecule.h"

namespace pastri::qc {

struct DatasetOptions {
  /// BF configuration: angular momentum of each of the four shell slots.
  std::array<int, 4> config{2, 2, 2, 2};  // default (dd|dd)

  int contraction = 1;        ///< primitives per shell
  std::uint64_t seed = 12345; ///< sampling seed (deterministic)

  /// Cap on the number of blocks; if `target_bytes` is nonzero it wins.
  std::size_t max_blocks = std::numeric_limits<std::size_t>::max();
  std::size_t target_bytes = 0;

  /// Schwarz product threshold below which a quartet is screened out
  /// (emitted as zeros).  GAMESS uses ~1e-10..1e-12 integral cutoffs.
  double screen_threshold = 1e-12;

  /// If false, screened quartets are dropped from the sample instead of
  /// being stored as zero blocks.
  bool keep_screened = true;

  /// Boys-function path for integral evaluation.  Exact (the default) is
  /// the bit-pinned reference; Table swaps in the tabulated Taylor fast
  /// path (<= ~1e-15 absolute agreement, so generated values -- and thus
  /// compressed bytes -- may differ within that bound).
  BoysMode boys_mode = BoysMode::Exact;
};

/// Parse "(dd|dd)"-style names ("dddd", "(fd|ff)", ...) into a config.
/// Throws std::invalid_argument on malformed names.
std::array<int, 4> parse_config(const std::string& name);

/// Generate a sampled ERI dataset for `mol` under `opt`.
EriDataset generate_eri_dataset(const Molecule& mol,
                                const DatasetOptions& opt);

/// Metadata of a planned generation, known before any block is computed
/// (it is exactly the label/shape/num_blocks the dense dataset would
/// have).  Streaming consumers use `num_blocks` to declare the block
/// count up-front, e.g. to a StreamWriter on a non-seekable sink.
struct EriStreamMeta {
  std::string label;
  BlockShape shape;
  std::size_t num_blocks = 0;
};

/// The planned generation behind `generate_eri_dataset`, reified: plans
/// once (shells, Schwarz screen, deterministic sample), then computes
/// any range of dataset blocks on demand.  The plan is a pure function
/// of (mol, opt), so two generators -- or the same generator across
/// process restarts -- produce identical blocks for identical indices.
/// That random access is what the pipeline's shard-resume path and the
/// fork-based per-rank benchmarks are built on: rank r computes exactly
/// the block range its shard covers, nothing else.
///
/// compute_range() runs a parallel_for internally and is safe to call
/// concurrently from multiple host threads on the same generator: the
/// plan (shells, sample, cached shell-pair data) is immutable after
/// construction and all per-quartet scratch lives in thread-local
/// workspaces.  The multi-producer pipeline partitions one generator's
/// chunk stream across N producer threads on exactly this guarantee.
class EriBlockGenerator {
 public:
  EriBlockGenerator(const Molecule& mol, const DatasetOptions& opt);
  ~EriBlockGenerator();
  EriBlockGenerator(EriBlockGenerator&&) noexcept;
  EriBlockGenerator& operator=(EriBlockGenerator&&) noexcept;
  EriBlockGenerator(const EriBlockGenerator&) = delete;
  EriBlockGenerator& operator=(const EriBlockGenerator&) = delete;

  const EriStreamMeta& meta() const;

  /// Compute dataset blocks [first, first+count) into `out`, which must
  /// hold exactly count * shape.block_size() doubles.  Screened quartets
  /// come out all-zero.  Throws std::out_of_range past num_blocks.
  void compute_range(std::size_t first, std::size_t count,
                     std::span<double> out) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Batched block-callback twin of `generate_eri_dataset`: plans the
/// identical sampled dataset, computes quartet blocks in parallel batches
/// of `batch_blocks` (0 = auto) and delivers each finished batch to
/// `emit` as one contiguous span of whole blocks starting at dataset
/// block `first_block`, in dataset order.  Piping the emitted values
/// into a StreamWriter yields byte-for-byte the stream
/// `compress(generate_eri_dataset(...))` would, while peak memory stays
/// O(batch): the dense ERI tensor is never built.  Returns the metadata.
EriStreamMeta generate_eri_block_batches(
    const Molecule& mol, const DatasetOptions& opt,
    const std::function<void(const EriStreamMeta& meta,
                             std::size_t first_block,
                             std::span<const double> values)>& emit,
    std::size_t batch_blocks = 0);

/// Per-block wrapper over `generate_eri_block_batches` (one callback per
/// block, same order and bytes).  Kept for callers that want block
/// granularity; small-block configs are cheaper through the batched
/// entry point.
EriStreamMeta generate_eri_blocks(
    const Molecule& mol, const DatasetOptions& opt,
    const std::function<void(const EriStreamMeta& meta, std::size_t block,
                             std::span<const double> values)>& emit,
    std::size_t batch_blocks = 0);

/// Shell indices (a, b | c, d) of one quartet of a basis.
using ShellQuartet = std::array<std::size_t, 4>;

/// Whole-basis twin of EriBlockGenerator: every shell quartet of a
/// general (mixed-momentum) basis through the cached-pair kernel.  The
/// ShellPairData of all ns^2 shell pairs is built once; for each quartet
/// total momentum the basis can form, the engine keeps a copy of that
/// table already re-strided for it, so it is immutable after
/// construction and safe for concurrent readers.  Every value is
/// bit-identical to the Shell-level compute_eri_block(A, B, C, D) and
/// schwarz_bound(A, B), which remain only as test and bench oracles.
class BasisEriEngine {
 public:
  explicit BasisEriEngine(const BasisSet& basis);
  ~BasisEriEngine();
  BasisEriEngine(BasisEriEngine&&) noexcept;
  BasisEriEngine& operator=(BasisEriEngine&&) noexcept;
  BasisEriEngine(const BasisEriEngine&) = delete;
  BasisEriEngine& operator=(const BasisEriEngine&) = delete;

  /// Values in quartet q's block (the product of its component counts).
  std::size_t block_size(const ShellQuartet& q) const;

  /// One quartet into `out` (block_size(q) doubles) on the caller's
  /// thread and workspace.  Counts nothing; indices are not checked.
  void compute(const ShellQuartet& q, EriWorkspace& ws,
               std::span<double> out) const;

  /// The blocks of `quartets`, back to back in list order, into `out`
  /// (the sum of their block sizes), one quartet at a time on a dynamic
  /// parallel_for of `num_threads` (0 = the default width, see
  /// resolve_threads in core/parallel.h) using thread-local
  /// workspaces.  Advances the same quartet, Boys and pair-cache-hit
  /// counters as EriBlockGenerator::compute_range.  Throws
  /// std::out_of_range for a shell index outside the basis and
  /// std::invalid_argument when `out` has the wrong size.
  void compute_quartets(std::span<const ShellQuartet> quartets,
                        std::span<double> out, int num_threads = 0) const;

  /// Schwarz bound of every shell pair, indexed a * ns + b, on a
  /// default-width parallel_for.
  std::vector<double> schwarz_bounds() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compute a single shell-quartet block for externally built shells
/// (thin wrapper over compute_eri_block that allocates the output).
std::vector<double> compute_block(const Shell& A, const Shell& B,
                                  const Shell& C, const Shell& D);

/// Throughput measurement helper for Fig. 11: evaluates `blocks` sampled
/// blocks and returns generated MB per second of wall time.
double measure_generation_rate(const Molecule& mol, const DatasetOptions& opt,
                               std::size_t blocks);

}  // namespace pastri::qc
