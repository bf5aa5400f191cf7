// kernels_neon.cpp - NEON (AArch64 Advanced SIMD) backend of the codec
// kernel tables.
//
// Advanced SIMD with 2-lane double vectors is baseline on AArch64, so
// no runtime CPU probe is needed beyond the architecture itself; the
// TU still compiles to a scalar alias on every other architecture so
// the symbols exist and dispatch reports the tier unavailable.
// Bit-identity discipline, same as the x86 backends:
//
//   * every float op is lanewise and unfused -- this TU is compiled
//     with -ffp-contract=off (critical on AArch64, where GCC's default
//     -ffp-contract=fast would otherwise fuse mul+add into FMLA and
//     change results in the last ulp);
//   * vrnda rounds half away from zero natively (no rne+correction
//     dance needed), exactly llround's rounding;
//   * scvtf (vcvtq_f64_s64) is the IEEE int64 -> double conversion for
//     the full range, exactly static_cast<double>, so reconstruction
//     needs no width gate;
//   * fcvtzs (vcvtq_s64_f64) truncates exactly for integral |v| < 2^63;
//     saturating or non-finite lanes fall back to the shared scalar
//     round_half_away_i64, keeping the +-2^62 saturation identical.
//
// The bit-unpack decode kernels stay on the shared scalar windowed
// loops: NEON has no gather, and the window already amortizes to ~one
// load per several values -- the decode win on this tier is the
// reconstruct/apply arithmetic.
#include "core/simd/simd.h"

#include "core/simd/kernels_common.h"

#if defined(PASTRI_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace pastri::simd {
namespace {

// |r| below this always round-converts exactly; at or above it the
// scalar path saturates to +-2^62 (kernels_scalar.cpp).
constexpr double kSaturateLimit = 9.2e18;

/// Convert a vrnda-rounded vector to int64; lanes the fast path cannot
/// prove safe (saturating, NaN/Inf) re-run the shared scalar fallback
/// on the unrounded quotient.
inline int64x2_t to_i64(float64x2_t rounded, float64x2_t quot) {
  const uint64x2_t fast =
      vcltq_f64(vabsq_f64(rounded), vdupq_n_f64(kSaturateLimit));
  int64x2_t iv = vcvtq_s64_f64(rounded);
  if ((vgetq_lane_u64(fast, 0) & vgetq_lane_u64(fast, 1)) == 0)
      [[unlikely]] {
    if (vgetq_lane_u64(fast, 0) == 0) {
      iv = vsetq_lane_s64(round_half_away_i64(vgetq_lane_f64(quot, 0)),
                          iv, 0);
    }
    if (vgetq_lane_u64(fast, 1) == 0) {
      iv = vsetq_lane_s64(round_half_away_i64(vgetq_lane_f64(quot, 1)),
                          iv, 1);
    }
  }
  return iv;
}

double abs_max_neon(const double* x, std::size_t n) {
  float64x2_t m = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t a = vabsq_f64(vld1q_f64(x + i));
    // compare+select, not vmaxq: NaN never overwrites the accumulator,
    // matching the scalar `if (a > m) m = a`.
    m = vbslq_f64(vcgtq_f64(a, m), a, m);
  }
  double best = 0.0;
  const double l0 = vgetq_lane_f64(m, 0);
  const double l1 = vgetq_lane_f64(m, 1);
  if (l0 > best) best = l0;
  if (l1 > best) best = l1;
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > best) best = a;
  }
  return best;
}

std::size_t find_first_abs_eq_neon(const double* x, std::size_t n,
                                   double m) {
  const float64x2_t target = vdupq_n_f64(m);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t a = vabsq_f64(vld1q_f64(x + i));
    const uint64x2_t eq = vceqq_f64(a, target);
    if (vgetq_lane_u64(eq, 0) != 0) return i;
    if (vgetq_lane_u64(eq, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a == m) return i;
  }
  return n;
}

bool any_abs_above_neon(const double* x, std::size_t n, double bound) {
  const float64x2_t b = vdupq_n_f64(bound);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t gt = vcgtq_f64(vabsq_f64(vld1q_f64(x + i)), b);
    if ((vgetq_lane_u64(gt, 0) | vgetq_lane_u64(gt, 1)) != 0) return true;
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > bound) return true;
  }
  return false;
}

void quantize_signed_neon(const double* x, std::size_t n, double binsize,
                          unsigned nbits, double recon_binsize,
                          std::int64_t* q, double* recon) {
  const float64x2_t bin = vdupq_n_f64(binsize);
  const float64x2_t rb = vdupq_n_f64(recon_binsize);
  const std::int64_t hi_s = (std::int64_t{1} << (nbits - 1)) - 1;
  const std::int64_t lo_s = -(std::int64_t{1} << (nbits - 1));
  const int64x2_t hi = vdupq_n_s64(hi_s);
  const int64x2_t lo = vdupq_n_s64(lo_s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // div stays div; vrnda is round-half-away natively.
    const float64x2_t quot = vdivq_f64(vld1q_f64(x + i), bin);
    int64x2_t iv = to_i64(vrndaq_f64(quot), quot);
    iv = vbslq_s64(vcgtq_s64(iv, hi), hi, iv);
    iv = vbslq_s64(vcgtq_s64(lo, iv), lo, iv);
    vst1q_s64(q + i, iv);
    // scvtf == static_cast<double> for every value; no width gate.
    vst1q_f64(recon + i, vmulq_f64(vcvtq_f64_s64(iv), rb));
  }
  for (; i < n; ++i) {
    std::int64_t v = round_half_away_i64(x[i] / binsize);
    v = v < lo_s ? lo_s : (v > hi_s ? hi_s : v);
    q[i] = v;
    recon[i] = static_cast<double>(v) * recon_binsize;
  }
}

void ecq_residual_neon(const double* block, std::size_t nsb,
                       std::size_t sbs, const double* p_hat,
                       const double* s_hat, double binsize,
                       std::int64_t* ecq, EcqStats* stats) {
  const float64x2_t bin = vdupq_n_f64(binsize);
  EcqStats st;
  std::size_t zeros = 0;
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = s_hat[j];
    const float64x2_t sv = vdupq_n_f64(s);
    const double* row = block + j * sbs;
    std::int64_t* out = ecq + j * sbs;
    std::size_t i = 0;
    for (; i + 2 <= sbs; i += 2) {
      // mul then sub then div: the scalar op sequence, never an FMA
      // (explicit vmulq/vsubq intrinsics + -ffp-contract=off).
      const float64x2_t approx = vmulq_f64(sv, vld1q_f64(p_hat + i));
      const float64x2_t diff = vsubq_f64(vld1q_f64(row + i), approx);
      const float64x2_t quot = vdivq_f64(diff, bin);
      const int64x2_t e = to_i64(vrndaq_f64(quot), quot);
      vst1q_s64(out + i, e);
      // 2-lane stats: scalar class counting on the stored codes (the
      // arithmetic above is the expensive part on this tier).
      for (int lane = 0; lane < 2; ++lane) {
        const std::int64_t ev = out[i + lane];
        if (ev == 0) {
          ++zeros;
        } else {
          const std::uint64_t mag =
              ev > 0 ? static_cast<std::uint64_t>(ev)
                     : static_cast<std::uint64_t>(-(ev + 1)) + 1;
          if (mag > st.max_magnitude) st.max_magnitude = mag;
          st.num_plus1 += ev == 1;
          st.num_minus1 += ev == -1;
        }
      }
    }
    for (; i < sbs; ++i) {
      const double approx = s * p_hat[i];
      const std::int64_t e =
          round_half_away_i64((row[i] - approx) / binsize);
      out[i] = e;
      if (e == 0) {
        ++zeros;
      } else {
        const std::uint64_t mag =
            e > 0 ? static_cast<std::uint64_t>(e)
                  : static_cast<std::uint64_t>(-(e + 1)) + 1;
        if (mag > st.max_magnitude) st.max_magnitude = mag;
        st.num_plus1 += e == 1;
        st.num_minus1 += e == -1;
      }
    }
  }
  st.num_outliers = nsb * sbs - zeros;
  *stats = st;
}

// ---- Decode kernels ----------------------------------------------------

void reconstruct_neon(const std::int64_t* pq, const std::int64_t* sq,
                      const std::int64_t* ecq, std::size_t nsb,
                      std::size_t sbs, double pattern_binsize,
                      double scale_binsize, double ec_binsize,
                      unsigned bits, unsigned ecb_max, double* p_hat,
                      double* out) {
  // scvtf == static_cast<double> for the whole int64 range: no gate.
  (void)bits;
  (void)ecb_max;
  const float64x2_t pbin = vdupq_n_f64(pattern_binsize);
  const float64x2_t ebin = vdupq_n_f64(ec_binsize);
  std::size_t i = 0;
  for (; i + 2 <= sbs; i += 2) {
    vst1q_f64(p_hat + i,
              vmulq_f64(vcvtq_f64_s64(vld1q_s64(pq + i)), pbin));
  }
  for (; i < sbs; ++i) {
    p_hat[i] = static_cast<double>(pq[i]) * pattern_binsize;
  }
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s_hat = static_cast<double>(sq[j]) * scale_binsize;
    const float64x2_t sv = vdupq_n_f64(s_hat);
    const std::int64_t* erow = ecq + j * sbs;
    double* orow = out + j * sbs;
    std::size_t t = 0;
    for (; t + 2 <= sbs; t += 2) {
      const float64x2_t ed = vcvtq_f64_s64(vld1q_s64(erow + t));
      // mul, mul, add (vaddq, never vfmaq): three separate roundings,
      // matching the scalar loop exactly -- including the ecq == 0
      // term, because -0.0 + 0.0 = +0.0.
      const float64x2_t r = vaddq_f64(
          vmulq_f64(sv, vld1q_f64(p_hat + t)), vmulq_f64(ed, ebin));
      vst1q_f64(orow + t, r);
    }
    for (; t < sbs; ++t) {
      orow[t] = s_hat * p_hat[t] +
                static_cast<double>(erow[t]) * ec_binsize;
    }
  }
}

}  // namespace

const EncodeKernels kNeonKernels = {
    abs_max_neon,      find_first_abs_eq_neon, any_abs_above_neon,
    quantize_signed_neon, ecq_residual_neon,
};

const DecodeKernels kNeonDecode = {
    detail::unpack_signed_scalar, detail::unpack_pairs_scalar,
    detail::scatter_ecq_scalar, reconstruct_neon,
};

bool neon_compiled_in() { return true; }

}  // namespace pastri::simd

#else  // !PASTRI_HAVE_NEON

namespace pastri::simd {

// Not an AArch64 build: alias the scalar tables so the symbols link;
// dispatch reports the backend as unsupported and never selects it on
// merit, but a forced selection still behaves correctly.
const EncodeKernels kNeonKernels = kScalarKernels;
const DecodeKernels kNeonDecode = kScalarDecode;

bool neon_compiled_in() { return false; }

}  // namespace pastri::simd

#endif
