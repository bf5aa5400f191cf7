// Golden pins for the ERI compute stage.  The shell-pair cache, the
// flattened term arenas, the sign-folded coefficients, and the
// workspace-threaded kernels are all refactors of the same FP operations
// in the same order -- so the generated datasets must be BIT-identical
// to the original per-quartet implementation.  These digests were
// captured from the pre-cache engine and must never change on the
// default (exact-Boys) path; any drift means a transformation stopped
// being value-preserving.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "qc/basis.h"
#include "qc/eri_engine.h"
#include "qc/md_eri.h"
#include "qc/molecule.h"
#include "qc/scf.h"
#include "qc/sto3g.h"
#include "test_util.h"

namespace pastri::qc {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t values_digest(const EriDataset& ds) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(ds.values.data());
  return fnv1a({p, ds.values.size() * sizeof(double)});
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(EriGolden, DatasetDigestsMatchSeed) {
  // Benzene, max_blocks = 12, contraction 1..3, four configs covering
  // pure-d, pure-f, and the two hybrid shapes whose schwarz stride
  // differs from the dataset stride (exercising set_r_stride
  // re-linearization).
  struct Case {
    const char* config;
    int contraction;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"(dd|dd)", 1, 0x77204e7a4bce188full},
      {"(dd|dd)", 2, 0x33bde022f7118dafull},
      {"(dd|dd)", 3, 0x18ff57eb77d27186ull},
      {"(ff|ff)", 1, 0x4058ddfa0333887dull},
      {"(ff|ff)", 2, 0x078f941496d46daaull},
      {"(ff|ff)", 3, 0x99979b1667df81ceull},
      {"(df|fd)", 1, 0x1522a9af72408a6aull},
      {"(df|fd)", 2, 0xe6ff6a86bb168768ull},
      {"(df|fd)", 3, 0xff30d3055eada7f0ull},
      {"(dd|ff)", 1, 0xf42239e8339d493cull},
      {"(dd|ff)", 2, 0x679e2a7ea0c88fd7ull},
      {"(dd|ff)", 3, 0xf0b8830ce110ac5dull},
  };
  const Molecule mol = make_molecule("benzene");
  for (const Case& c : cases) {
    DatasetOptions opt;
    opt.config = parse_config(c.config);
    opt.contraction = c.contraction;
    opt.max_blocks = 12;
    const EriDataset ds = generate_eri_dataset(mol, opt);
    EXPECT_EQ(values_digest(ds), c.digest)
        << c.config << " contraction=" << c.contraction;
  }
}

TEST(EriGolden, SchwarzBoundBitsMatchSeed) {
  // schwarz_bound now routes through the pair cache with the stride set
  // for the diagonal quartet (2 * l_sum); the bound must stay bitwise
  // what the uncached engine produced.
  struct Case {
    int l;
    int contraction;
    std::uint64_t q01, q23;
  };
  const Case cases[] = {
      {2, 1, 0x3fdd44ee0f5a050bull, 0x3fdd44ee0f5a050bull},
      {2, 3, 0x3fe60c5367249cbeull, 0x3fe60c5367249cbeull},
      {3, 1, 0x3fd8de084d656813ull, 0x3fd8de084d656813ull},
      {3, 3, 0x3fe507bb5c69568cull, 0x3fe507bb5c69568cull},
  };
  const Molecule mol = make_molecule("benzene");
  for (const Case& c : cases) {
    BasisOptions bo;
    bo.l = c.l;
    bo.contraction = c.contraction;
    const BasisSet bs = make_basis(mol, bo);
    EXPECT_EQ(bits(schwarz_bound(bs.shells[0], bs.shells[1])), c.q01)
        << "l=" << c.l << " c=" << c.contraction;
    EXPECT_EQ(bits(schwarz_bound(bs.shells[2], bs.shells[3])), c.q23)
        << "l=" << c.l << " c=" << c.contraction;
  }
}

TEST(EriGolden, CachedPairPathMatchesShellOverloadBitwise) {
  // Same quartet through (a) the convenience Shell-level overload, (b) a
  // fresh ShellPairData + workspace, and (c) the same pair objects and
  // workspace reused dirty after computing an unrelated quartet at a
  // different total momentum.  All three must agree to the bit.
  const Molecule mol = make_molecule("benzene");
  BasisOptions bo;
  bo.l = 3;
  bo.contraction = 2;
  const BasisSet bs = make_basis(mol, bo);
  const Shell &A = bs.shells[0], &B = bs.shells[1], &C = bs.shells[2],
              &D = bs.shells[3];
  const auto n = [](const Shell& s) {
    return static_cast<std::size_t>((s.l + 1) * (s.l + 2) / 2);
  };
  const std::size_t size = n(A) * n(B) * n(C) * n(D);

  std::vector<double> ref(size, 0.0);
  compute_eri_block(A, B, C, D, std::span<double>(ref));

  ShellPairData bra(A, B), ket(C, D);
  const int l_total = bra.l_sum() + ket.l_sum();
  bra.set_r_stride(l_total);
  ket.set_r_stride(l_total);
  EriWorkspace ws;
  std::vector<double> got(size, 0.0);
  compute_eri_block(bra, ket, ws, std::span<double>(got));
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(bits(got[i]), bits(ref[i])) << "fresh workspace, i=" << i;
  EXPECT_GT(ws.boys_evals, 0u);

  // Dirty the workspace with a lower-momentum quartet (the HermiteR
  // tensor shrinks, then must re-grow without stale data leaking), plus
  // a schwarz call that reuses the diag scratch, then recompute.
  BasisOptions lo;
  lo.l = 2;
  lo.contraction = 1;
  const BasisSet small = make_basis(mol, lo);
  ShellPairData sp(small.shells[0], small.shells[1]);
  sp.set_r_stride(2 * sp.l_sum());
  (void)schwarz_bound(sp, ws);
  sp.set_r_stride(2 * sp.l_sum() + 1);  // different stride, then back
  sp.set_r_stride(2 * sp.l_sum());
  std::vector<double> tiny(sp.ncomp() * sp.ncomp(), 0.0);
  compute_eri_block(sp, sp, ws, std::span<double>(tiny));

  std::fill(got.begin(), got.end(), 0.0);
  compute_eri_block(bra, ket, ws, std::span<double>(got));
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(bits(got[i]), bits(ref[i])) << "dirty workspace, i=" << i;
}

TEST(EriGolden, TabulatedBoysTracksExactPath) {
  // The opt-in fast Boys path is allowed to differ from the exact series
  // -- but only at the ~1e-14 interpolation level, far below any
  // compression error bound the pipeline would apply downstream.
  const Molecule mol = make_molecule("benzene");
  DatasetOptions opt;
  opt.config = parse_config("(ff|ff)");
  opt.contraction = 3;
  opt.max_blocks = 8;
  const EriDataset exact = generate_eri_dataset(mol, opt);
  opt.boys_mode = BoysMode::Table;
  const EriDataset table = generate_eri_dataset(mol, opt);
  ASSERT_EQ(table.values.size(), exact.values.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < exact.values.size(); ++i)
    max_diff = std::max(max_diff, std::abs(table.values[i] - exact.values[i]));
  EXPECT_LT(max_diff, 1e-10);
  EXPECT_GT(max_diff, 0.0);  // it is a genuinely different evaluation path
}

TEST(EriGolden, PairCacheAndBoysCountersAdvance) {
  const auto counter_value = [](const obs::MetricsSnapshot& snap,
                                std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  };
  const auto before = obs::registry().snapshot();
  const Molecule mol = make_molecule("benzene");
  DatasetOptions opt;
  opt.config = parse_config("(dd|dd)");
  opt.max_blocks = 16;
  (void)generate_eri_dataset(mol, opt);
  const auto after = obs::registry().snapshot();

  const std::uint64_t misses =
      counter_value(after, obs::kQcShellPairCacheMisses) -
      counter_value(before, obs::kQcShellPairCacheMisses);
  const std::uint64_t hits = counter_value(after, obs::kQcShellPairCacheHits) -
                             counter_value(before, obs::kQcShellPairCacheHits);
  const std::uint64_t boys = counter_value(after, obs::kQcBoysEvals) -
                             counter_value(before, obs::kQcBoysEvals);
  EXPECT_GT(misses, 0u);
  // Every computed quartet is two cache uses; hits must dwarf the
  // one-time builds for any non-trivial block count.
  EXPECT_GT(hits, misses);
  EXPECT_GT(boys, 0u);
}

// ---- Whole-basis engine vs the Shell-level oracle ---------------------

Molecule water() {
  Molecule m;
  m.name = "H2O";
  m.atoms = {{"O", 8, {0, 0, 0}},
             {"H", 1, {0, 1.4305, 1.1093}},
             {"H", 1, {0, -1.4305, 1.1093}}};
  return m;
}

std::vector<ShellQuartet> all_quartets(std::size_t ns) {
  std::vector<ShellQuartet> q;
  q.reserve(ns * ns * ns * ns);
  for (std::size_t a = 0; a < ns; ++a)
    for (std::size_t b = 0; b < ns; ++b)
      for (std::size_t c = 0; c < ns; ++c)
        for (std::size_t d = 0; d < ns; ++d) q.push_back({a, b, c, d});
  return q;
}

/// Every quartet through the Shell-level compute_eri_block, back to
/// back in list order (parallel over quartets to keep the test quick).
std::vector<double> oracle_blocks(const BasisSet& basis,
                                  const std::vector<ShellQuartet>& quartets) {
  std::vector<std::size_t> offset(quartets.size() + 1, 0);
  for (std::size_t i = 0; i < quartets.size(); ++i) {
    std::size_t n = 1;
    for (const std::size_t s : quartets[i])
      n *= static_cast<std::size_t>(basis.shells[s].num_components());
    offset[i + 1] = offset[i] + n;
  }
  std::vector<double> out(offset.back());
  parallel_for(quartets.size(), resolve_threads(0), 1,
               [&](int, std::size_t k) {
                 const auto& [a, b, c, d] = quartets[k];
                 compute_eri_block(basis.shells[a], basis.shells[b],
                                   basis.shells[c], basis.shells[d],
                                   std::span<double>(out).subspan(
                                       offset[k], offset[k + 1] - offset[k]));
               });
  return out;
}

void expect_bitwise(std::span<const double> got, std::span<const double> want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    mismatches += bits(got[i]) != bits(want[i]);
  EXPECT_EQ(mismatches, 0u) << what;
}

TEST(EriGolden, BasisEngineMatchesShellOracleOnEveryQuartet) {
  const struct {
    const char* name;
    BasisSet basis;
  } cases[] = {{"water STO-3G", make_sto3g_basis(water())},
               {"benzene STO-3G", make_sto3g_basis(make_benzene())},
               {"s/p/d/f", testutil::spdf_basis()}};
  for (const auto& c : cases) {
    const std::size_t ns = c.basis.shells.size();
    const BasisEriEngine engine(c.basis);
    const auto quartets = all_quartets(ns);
    const std::vector<double> want = oracle_blocks(c.basis, quartets);
    std::vector<double> got(want.size());
    engine.compute_quartets(quartets, got);
    expect_bitwise(got, want, c.name);

    // The Schwarz table comes off the same re-strided pairs.
    const std::vector<double> q = engine.schwarz_bounds();
    ASSERT_EQ(q.size(), ns * ns) << c.name;
    for (std::size_t a = 0; a < ns; ++a)
      for (std::size_t b = 0; b < ns; ++b)
        ASSERT_EQ(bits(q[a * ns + b]),
                  bits(schwarz_bound(c.basis.shells[a], c.basis.shells[b])))
            << c.name << " pair " << a << "," << b;
  }
}

TEST(EriGolden, BasisEngineIsThreadCountAndOrderIndependent) {
  // Reversed order, a serial team and a single-quartet call with a
  // dirty caller workspace all give the oracle's bits.
  const BasisSet basis = testutil::spdf_basis();
  const BasisEriEngine engine(basis);
  auto quartets = all_quartets(basis.shells.size());
  std::reverse(quartets.begin(), quartets.end());
  const std::vector<double> want = oracle_blocks(basis, quartets);
  for (const int threads : {1, 3}) {
    std::vector<double> got(want.size());
    engine.compute_quartets(quartets, got, threads);
    expect_bitwise(got, want, threads == 1 ? "1 thread" : "3 threads");
  }
  EriWorkspace ws;
  std::size_t off = 0;
  std::vector<double> one;
  for (const ShellQuartet& q : quartets) {
    one.assign(engine.block_size(q), 0.0);
    engine.compute(q, ws, one);
    expect_bitwise(one, std::span<const double>(want).subspan(off, one.size()),
                   "compute()");
    off += one.size();
  }

  std::vector<double> out(engine.block_size({0, 0, 0, 0}));
  EXPECT_THROW(engine.compute_quartets(
                   std::vector<ShellQuartet>{{0, 0, 0, basis.shells.size()}},
                   out),
               std::out_of_range);
  out.push_back(0.0);
  EXPECT_THROW(engine.compute_quartets(
                   std::vector<ShellQuartet>{{0, 0, 0, 0}}, out),
               std::invalid_argument);
}

TEST(EriGolden, EriTensorMatchesShellOracle) {
  for (const BasisSet& basis :
       {make_sto3g_basis(water()), testutil::spdf_basis()}) {
    const std::size_t ns = basis.shells.size();
    const std::size_t n = basis.num_basis_functions();
    std::vector<std::size_t> offset(ns + 1, 0);
    for (std::size_t s = 0; s < ns; ++s)
      offset[s + 1] = offset[s] + basis.shells[s].num_components();
    const auto quartets = all_quartets(ns);
    const std::vector<double> blocks = oracle_blocks(basis, quartets);
    std::vector<double> want(n * n * n * n);
    const double* v = blocks.data();
    for (const auto& [a, b, c, d] : quartets)
      for (std::size_t i = offset[a]; i < offset[a + 1]; ++i)
        for (std::size_t j = offset[b]; j < offset[b + 1]; ++j)
          for (std::size_t k = offset[c]; k < offset[c + 1]; ++k)
            for (std::size_t l = offset[d]; l < offset[d + 1]; ++l)
              want[((i * n + j) * n + k) * n + l] = *v++;
    expect_bitwise(compute_eri_tensor(basis), want, "compute_eri_tensor");
  }
}

}  // namespace
}  // namespace pastri::qc
