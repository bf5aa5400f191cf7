#include "qc/eri_engine.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "core/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri::qc {
namespace {

/// Integral-generation telemetry (obs/metric_names.h).  Quartets are
/// counted per batch; the rate gauge holds the latest batch's quartets
/// per second.
struct EngineMetrics {
  obs::Counter quartets = obs::registry().counter(obs::kQcEriQuartets);
  obs::Histogram generate_batch_ns =
      obs::registry().histogram(obs::kQcEriGenerateBatchNs);
  obs::Gauge generate_rate = obs::registry().gauge(obs::kQcEriGenerateRate);
  obs::Counter pair_hits =
      obs::registry().counter(obs::kQcShellPairCacheHits);
  obs::Counter pair_misses =
      obs::registry().counter(obs::kQcShellPairCacheMisses);
  obs::Counter boys_evals = obs::registry().counter(obs::kQcBoysEvals);
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics m;
  return m;
}

/// One reusable quartet workspace per OS thread.  Concurrent
/// parallel_for callers (the multi-producer pipeline) get disjoint pool
/// threads, so they never share one, and the pool keeps its threads, so
/// the workspaces stay warm from one call to the next.
EriWorkspace& tls_workspace() {
  thread_local EriWorkspace ws;
  return ws;
}

/// Per-tid partial sums of a parallel loop, added up after the join
/// (one cache line each, so the tids never share one).
struct alignas(64) Tally {
  std::uint64_t boys = 0;
  std::uint64_t computed = 0;
};

/// Every (a, b) pair of `sa` x `sb`, strided for its Schwarz diagonal,
/// with the bound of each; one parallel task per row.
void build_schwarz_pairs(const std::vector<Shell>& sa,
                         const std::vector<Shell>& sb, BoysMode boys_mode,
                         std::vector<ShellPairData>& pairs,
                         std::vector<double>& bound) {
  pairs.resize(sa.size() * sb.size());
  bound.resize(sa.size() * sb.size());
  parallel_for(sa.size(), resolve_threads(0), 1,
               [&](int, std::size_t a) {
                 EriWorkspace& ws = tls_workspace();
                 ws.boys_mode = boys_mode;
                 for (std::size_t b = 0; b < sb.size(); ++b) {
                   ShellPairData sp(sa[a], sb[b]);
                   sp.set_r_stride(2 * sp.l_sum());
                   bound[a * sb.size() + b] = schwarz_bound(sp, ws);
                   pairs[a * sb.size() + b] = std::move(sp);
                 }
               });
}

/// Sample `k` distinct values from [0, n) deterministically; returned
/// sorted so the dataset block order is stable across runs.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (k >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  // Floyd's algorithm: k iterations, no O(n) storage.
  std::mt19937_64 rng(seed);
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  for (std::size_t j = n - k; j < n; ++j) {
    std::uniform_int_distribution<std::size_t> dist(0, j);
    const std::size_t t = dist(rng);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  out.assign(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// One sampled quartet, post-screening.
struct Item {
  std::size_t i, j, k, l;
  bool screened;
};

/// Everything `generate_eri_dataset` decides before computing a single
/// integral: the shells, the surviving sample, and the dataset metadata.
/// Shared by the dense and the streaming generators so both produce the
/// identical dataset.  Slots are stored as momenta (indices into by_l),
/// not pointers, so the plan is safely movable.
struct EriPlan {
  std::array<BasisSet, kMaxAngularMomentum + 1> by_l;
  std::array<int, 4> slot_l{};
  std::vector<Item> items;
  EriStreamMeta meta;
  BoysMode boys_mode = BoysMode::Exact;

  // Shell-pair cache: every (bra i,j) and (ket k,l) pair's Hermite term
  // data, built once at plan time and reused by every quartet and every
  // Schwarz bound.  Pure configurations share one table (the ket simply
  // indexes bra_pairs), mirroring the q_bra/q_ket sharing below.
  std::vector<ShellPairData> bra_pairs;  // i * |s1| + j
  std::vector<ShellPairData> ket_pairs;  // k * |s3| + l; empty when shared
  bool ket_shares_bra = false;

  const std::vector<Shell>& shells(int s) const {
    return by_l[static_cast<std::size_t>(slot_l[s])].shells;
  }

  const ShellPairData& bra_pair(std::size_t i, std::size_t j) const {
    return bra_pairs[i * shells(1).size() + j];
  }
  const ShellPairData& ket_pair(std::size_t k, std::size_t l) const {
    const std::size_t idx = k * shells(3).size() + l;
    return ket_shares_bra ? bra_pairs[idx] : ket_pairs[idx];
  }
};

EriPlan plan_eri(const Molecule& mol, const DatasetOptions& opt) {
  EriPlan plan;
  {
    std::array<bool, kMaxAngularMomentum + 1> built{};
    for (int i = 0; i < 4; ++i) {
      const int l = opt.config[i];
      if (l < 0 || l > kMaxAngularMomentum) {
        throw std::invalid_argument("configuration momentum out of range");
      }
      if (!built[l]) {
        BasisOptions bo;
        bo.l = l;
        bo.contraction = opt.contraction;
        plan.by_l[static_cast<std::size_t>(l)] = make_basis(mol, bo);
        built[l] = true;
      }
      plan.slot_l[i] = l;
    }
  }
  const auto& s0 = plan.shells(0);
  const auto& s1 = plan.shells(1);
  const auto& s2 = plan.shells(2);
  const auto& s3 = plan.shells(3);
  if (s0.empty() || s1.empty() || s2.empty() || s3.empty()) {
    throw std::invalid_argument("molecule yields no shells for this config");
  }

  plan.meta.shape.n = {
      static_cast<std::uint16_t>(num_cartesians(opt.config[0])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[1])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[2])),
      static_cast<std::uint16_t>(num_cartesians(opt.config[3]))};
  plan.meta.label = mol.name + " " + plan.meta.shape.config_name();

  const std::size_t block_size = plan.meta.shape.block_size();
  std::size_t max_blocks = opt.max_blocks;
  if (opt.target_bytes != 0) {
    max_blocks = std::max<std::size_t>(
        1, opt.target_bytes / (block_size * sizeof(double)));
  }

  const std::size_t total =
      s0.size() * s1.size() * s2.size() * s3.size();
  const auto indices = sample_indices(total, std::min(total, max_blocks),
                                      opt.seed);

  // Build the shell-pair cache and the Schwarz bounds off it in one
  // pass: each pair is constructed exactly once (a cache miss), its
  // bound computed from the cached data, and the pair kept for every
  // quartet that will reference it.  Pure configurations share one
  // table between bra and ket.
  plan.boys_mode = opt.boys_mode;
  const EngineMetrics& metrics = engine_metrics();
  std::vector<double> q_bra;
  build_schwarz_pairs(s0, s1, opt.boys_mode, plan.bra_pairs, q_bra);
  metrics.pair_misses.add(plan.bra_pairs.size());
  std::vector<double> q_ket;
  if (&s2 == &s0 && &s3 == &s1) {
    plan.ket_shares_bra = true;
    q_ket = q_bra;
    metrics.pair_hits.add(plan.bra_pairs.size());
  } else {
    build_schwarz_pairs(s2, s3, opt.boys_mode, plan.ket_pairs, q_ket);
    metrics.pair_misses.add(plan.ket_pairs.size());
  }

  // Decide which sampled quartets survive screening.
  plan.items.reserve(indices.size());
  for (std::size_t flat : indices) {
    Item it;
    it.l = flat % s3.size();
    flat /= s3.size();
    it.k = flat % s2.size();
    flat /= s2.size();
    it.j = flat % s1.size();
    it.i = flat / s1.size();
    it.screened = q_bra[it.i * s1.size() + it.j] *
                      q_ket[it.k * s3.size() + it.l] <
                  opt.screen_threshold;
    if (it.screened && !opt.keep_screened) continue;
    plan.items.push_back(it);
  }
  plan.meta.num_blocks = plan.items.size();

  // Re-linearize the cached term offsets for the quartet total momentum
  // (Schwarz used 2 * pair momentum, which differs for mixed configs).
  // After this the plan is immutable and safe for concurrent readers.
  const int l_total =
      plan.slot_l[0] + plan.slot_l[1] + plan.slot_l[2] + plan.slot_l[3];
  for (ShellPairData& sp : plan.bra_pairs) sp.set_r_stride(l_total);
  for (ShellPairData& sp : plan.ket_pairs) sp.set_r_stride(l_total);
  return plan;
}

}  // namespace

std::array<int, 4> parse_config(const std::string& name) {
  std::string letters;
  for (char c : name) {
    if (c == '(' || c == ')' || c == '|' || c == ' ') continue;
    letters += c;
  }
  if (letters.size() != 4) {
    throw std::invalid_argument("config must name four shells: " + name);
  }
  std::array<int, 4> cfg{};
  for (int i = 0; i < 4; ++i) {
    const int l = shell_momentum(letters[i]);
    if (l < 0) throw std::invalid_argument("bad shell letter in: " + name);
    cfg[i] = l;
  }
  return cfg;
}

EriDataset generate_eri_dataset(const Molecule& mol,
                                const DatasetOptions& opt) {
  // The dense dataset is just compute_range over the whole plan -- one
  // planning pass, then the cached-pair generation path.
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();

  EriDataset ds;
  ds.label = meta.label;
  ds.shape = meta.shape;
  ds.num_blocks = meta.num_blocks;
  ds.values.assign(ds.num_blocks * ds.shape.block_size(), 0.0);
  gen.compute_range(0, ds.num_blocks, ds.values);
  return ds;
}

// ---- EriBlockGenerator --------------------------------------------------

struct EriBlockGenerator::Impl {
  EriPlan plan;
};

EriBlockGenerator::EriBlockGenerator(const Molecule& mol,
                                     const DatasetOptions& opt)
    : impl_(std::make_unique<Impl>(Impl{plan_eri(mol, opt)})) {}

EriBlockGenerator::~EriBlockGenerator() = default;
EriBlockGenerator::EriBlockGenerator(EriBlockGenerator&&) noexcept = default;
EriBlockGenerator& EriBlockGenerator::operator=(
    EriBlockGenerator&&) noexcept = default;

const EriStreamMeta& EriBlockGenerator::meta() const {
  return impl_->plan.meta;
}

void EriBlockGenerator::compute_range(std::size_t first, std::size_t count,
                                      std::span<double> out) const {
  const EriPlan& plan = impl_->plan;
  if (first + count < first || first + count > plan.items.size()) {
    throw std::out_of_range("EriBlockGenerator: block range out of range");
  }
  const std::size_t bs = plan.meta.shape.block_size();
  if (out.size() != count * bs) {
    throw std::invalid_argument(
        "EriBlockGenerator: output span does not match range size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  const EngineMetrics& metrics = engine_metrics();
  const bool timed = metrics.generate_batch_ns.active();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const int team = resolve_threads(0);
  std::vector<Tally> tally(static_cast<std::size_t>(team));
  parallel_for(count, team, 1, [&](int tid, std::size_t b) {
    const Item& it = plan.items[first + b];
    if (it.screened) return;  // stays all-zero
    EriWorkspace& ws = tls_workspace();
    ws.boys_mode = plan.boys_mode;
    const std::uint64_t boys0 = ws.boys_evals;
    compute_eri_block(plan.bra_pair(it.i, it.j), plan.ket_pair(it.k, it.l),
                      ws, out.subspan(b * bs, bs));
    tally[static_cast<std::size_t>(tid)].boys += ws.boys_evals - boys0;
    ++tally[static_cast<std::size_t>(tid)].computed;
  });
  std::uint64_t boys_total = 0;
  std::uint64_t computed = 0;
  for (const Tally& t : tally) {
    boys_total += t.boys;
    computed += t.computed;
  }
  metrics.quartets.add(count);
  metrics.boys_evals.add(boys_total);
  metrics.pair_hits.add(2 * computed);  // bra + ket cache use per quartet
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics.generate_batch_ns.record(static_cast<std::uint64_t>(ns));
    if (ns > 0) {
      metrics.generate_rate.set(static_cast<double>(count) * 1e9 /
                                static_cast<double>(ns));
    }
  }
}

EriStreamMeta generate_eri_block_batches(
    const Molecule& mol, const DatasetOptions& opt,
    const std::function<void(const EriStreamMeta& meta,
                             std::size_t first_block,
                             std::span<const double> values)>& emit,
    std::size_t batch_blocks) {
  // Compute a batch of blocks in parallel into one reusable buffer, then
  // hand the batch to the callback in dataset order -- the emitted
  // sequence is exactly generate_eri_dataset's block order, with
  // O(batch) memory.
  const EriBlockGenerator gen(mol, opt);
  const EriStreamMeta& meta = gen.meta();
  const std::size_t bs = meta.shape.block_size();
  const std::size_t batch = batch_blocks != 0 ? batch_blocks : 64;
  std::vector<double> buf(batch * bs);
  for (std::size_t b0 = 0; b0 < meta.num_blocks; b0 += batch) {
    const std::size_t n = std::min(batch, meta.num_blocks - b0);
    const auto chunk = std::span<double>(buf).first(n * bs);
    gen.compute_range(b0, n, chunk);
    emit(meta, b0, chunk);
  }
  return meta;
}

EriStreamMeta generate_eri_blocks(
    const Molecule& mol, const DatasetOptions& opt,
    const std::function<void(const EriStreamMeta& meta, std::size_t block,
                             std::span<const double> values)>& emit,
    std::size_t batch_blocks) {
  return generate_eri_block_batches(
      mol, opt,
      [&](const EriStreamMeta& meta, std::size_t first_block,
          std::span<const double> values) {
        const std::size_t bs = meta.shape.block_size();
        for (std::size_t b = 0; b * bs < values.size(); ++b) {
          emit(meta, first_block + b, values.subspan(b * bs, bs));
        }
      },
      batch_blocks);
}

// ---- BasisEriEngine -----------------------------------------------------

struct BasisEriEngine::Impl {
  std::size_t ns = 0;
  std::vector<int> shell_l;
  /// by_total[L][a * ns + b]: pair (a, b) re-strided for quartet total
  /// momentum L.  A table exists only for the L some quartet reaches,
  /// and holds only the pairs such a quartet can use (the rest stay
  /// default-constructed).
  std::vector<std::vector<ShellPairData>> by_total;

  const ShellPairData& pair(std::size_t a, std::size_t b, int L) const {
    return by_total[static_cast<std::size_t>(L)][a * ns + b];
  }
  int total_l(const ShellQuartet& q) const {
    return shell_l[q[0]] + shell_l[q[1]] + shell_l[q[2]] + shell_l[q[3]];
  }
};

BasisEriEngine::BasisEriEngine(const BasisSet& basis)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.ns = basis.shells.size();
  const std::size_t ns = im.ns;
  im.shell_l.resize(ns);
  int lmax = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    const int l = basis.shells[s].l;
    if (l < 0 || l > kMaxAngularMomentum) {
      throw std::invalid_argument(
          "BasisEriEngine: shell momentum out of range");
    }
    im.shell_l[s] = l;
    lmax = std::max(lmax, l);
  }

  // Every pair is built exactly once (a cache miss), unstrided.
  std::vector<ShellPairData> base(ns * ns);
  parallel_for(ns, resolve_threads(0), 1, [&](int, std::size_t a) {
    for (std::size_t b = 0; b < ns; ++b) {
      base[a * ns + b] = ShellPairData(basis.shells[a], basis.shells[b]);
    }
  });
  engine_metrics().pair_misses.add(base.size());

  // A pair of momentum p serves the quartets of total momentum p + q
  // for every pair momentum q the basis has: copy it, re-strided, into
  // each of those tables.
  std::vector<bool> has_pair_l(static_cast<std::size_t>(2 * lmax) + 1);
  for (const ShellPairData& sp : base) {
    has_pair_l[static_cast<std::size_t>(sp.l_sum())] = true;
  }
  im.by_total.resize(static_cast<std::size_t>(4 * lmax) + 1);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const int p = base[i].l_sum();
    for (int q = 0; q <= 2 * lmax; ++q) {
      if (!has_pair_l[static_cast<std::size_t>(q)]) continue;
      std::vector<ShellPairData>& table =
          im.by_total[static_cast<std::size_t>(p + q)];
      if (table.empty()) table.resize(ns * ns);
      table[i] = base[i];
      table[i].set_r_stride(p + q);
    }
  }
}

BasisEriEngine::~BasisEriEngine() = default;
BasisEriEngine::BasisEriEngine(BasisEriEngine&&) noexcept = default;
BasisEriEngine& BasisEriEngine::operator=(BasisEriEngine&&) noexcept =
    default;

std::size_t BasisEriEngine::block_size(const ShellQuartet& q) const {
  std::size_t n = 1;
  for (const std::size_t s : q) {
    n *= static_cast<std::size_t>(num_cartesians(impl_->shell_l[s]));
  }
  return n;
}

void BasisEriEngine::compute(const ShellQuartet& q, EriWorkspace& ws,
                             std::span<double> out) const {
  const Impl& im = *impl_;
  const int L = im.total_l(q);
  compute_eri_block(im.pair(q[0], q[1], L), im.pair(q[2], q[3], L), ws, out);
}

void BasisEriEngine::compute_quartets(std::span<const ShellQuartet> quartets,
                                      std::span<double> out,
                                      int num_threads) const {
  const std::size_t n = quartets.size();
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t s : quartets[i]) {
      if (s >= impl_->ns) {
        throw std::out_of_range("BasisEriEngine: shell index out of range");
      }
    }
    offset[i + 1] = offset[i] + block_size(quartets[i]);
  }
  if (out.size() != offset[n]) {
    throw std::invalid_argument(
        "BasisEriEngine: output span does not match the quartets");
  }
  const int team = resolve_threads(num_threads);
  std::vector<Tally> tally(static_cast<std::size_t>(team));
  parallel_for(n, team, 1, [&](int tid, std::size_t k) {
    EriWorkspace& ws = tls_workspace();
    ws.boys_mode = BoysMode::Exact;
    const std::uint64_t boys0 = ws.boys_evals;
    // The kernel accumulates into its output once per primitive
    // quartet; doing that in a private block and copying once keeps
    // neighbouring small blocks of different threads from sharing a
    // cache line through every accumulation.
    thread_local std::vector<double> block;
    block.resize(offset[k + 1] - offset[k]);
    compute(quartets[k], ws, block);
    std::copy(block.begin(), block.end(), out.begin() + offset[k]);
    tally[static_cast<std::size_t>(tid)].boys += ws.boys_evals - boys0;
  });
  std::uint64_t boys_total = 0;
  for (const Tally& t : tally) boys_total += t.boys;
  const EngineMetrics& metrics = engine_metrics();
  metrics.quartets.add(n);
  metrics.boys_evals.add(boys_total);
  metrics.pair_hits.add(2 * n);  // bra + ket cache use per quartet
}

std::vector<double> BasisEriEngine::schwarz_bounds() const {
  const Impl& im = *impl_;
  const std::size_t ns = im.ns;
  std::vector<double> q(ns * ns);
  parallel_for(ns, resolve_threads(0), 1, [&](int, std::size_t a) {
    EriWorkspace& ws = tls_workspace();
    ws.boys_mode = BoysMode::Exact;
    for (std::size_t b = 0; b < ns; ++b) {
      // The (ab|ab) table of total momentum 2 * l_ab has exactly the
      // stride the Schwarz diagonal needs.
      const int L = 2 * (im.shell_l[a] + im.shell_l[b]);
      q[a * ns + b] = schwarz_bound(im.pair(a, b, L), ws);
    }
  });
  return q;
}

std::vector<double> compute_block(const Shell& A, const Shell& B,
                                  const Shell& C, const Shell& D) {
  std::vector<double> out(
      static_cast<std::size_t>(num_cartesians(A.l)) * num_cartesians(B.l) *
      num_cartesians(C.l) * num_cartesians(D.l));
  compute_eri_block(A, B, C, D, out);
  return out;
}

double measure_generation_rate(const Molecule& mol, const DatasetOptions& opt,
                               std::size_t blocks) {
  DatasetOptions o = opt;
  o.max_blocks = blocks;
  o.target_bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const EriDataset ds = generate_eri_dataset(mol, o);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return (static_cast<double>(ds.size_bytes()) / 1e6) / std::max(secs, 1e-9);
}

}  // namespace pastri::qc
