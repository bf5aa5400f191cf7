// kernels_scalar.cpp - Portable backend of the kernel tables.
//
// These loops are the pre-SIMD hot-path code, verbatim in semantics:
// every vector backend is verified bit-identical against them (SimdDiff
// suite), and they are what PASTRI_SIMD=scalar selects on any CPU.
// The decode bodies live in kernels_common.h so the vector TUs can
// reuse them (internal-linkage copies) for tails and width fallbacks.
#include <cmath>

#include "core/simd/kernels_common.h"
#include "core/simd/simd.h"

namespace pastri::simd {

std::int64_t round_half_away_i64(double x) {
  // nearbyint for the saturation probe, llround (round-half-away) for
  // the value -- exactly the quantizer's original round_to_i64, so
  // saturated/pathological lanes are identical on every backend.
  const double r = std::nearbyint(x);
  if (r >= 9.2e18) return std::int64_t{1} << 62;
  if (r <= -9.2e18) return -(std::int64_t{1} << 62);
  return static_cast<std::int64_t>(std::llround(x));
}

namespace {

std::int64_t clamp_signed(std::int64_t v, unsigned bits) {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  return v < lo ? lo : (v > hi ? hi : v);
}

double abs_max_scalar(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::abs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

std::size_t find_first_abs_eq_scalar(const double* x, std::size_t n,
                                     double m) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(x[i]) == m) return i;
  }
  return n;
}

bool any_abs_above_scalar(const double* x, std::size_t n, double bound) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(x[i]) > bound) return true;
  }
  return false;
}

void quantize_signed_scalar(const double* x, std::size_t n, double binsize,
                            unsigned nbits, double recon_binsize,
                            std::int64_t* q, double* recon) {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t v = round_half_away_i64(x[i] / binsize);
    v = clamp_signed(v, nbits);
    q[i] = v;
    recon[i] = static_cast<double>(v) * recon_binsize;
  }
}

void ecq_residual_scalar(const double* block, std::size_t nsb,
                         std::size_t sbs, const double* p_hat,
                         const double* s_hat, double binsize,
                         std::int64_t* ecq, EcqStats* stats) {
  EcqStats st;
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = s_hat[j];
    const double* row = block + j * sbs;
    std::int64_t* out = ecq + j * sbs;
    for (std::size_t i = 0; i < sbs; ++i) {
      const double approx = s * p_hat[i];
      const std::int64_t e = round_half_away_i64((row[i] - approx) / binsize);
      out[i] = e;
      if (e != 0) {
        ++st.num_outliers;
        const std::uint64_t mag =
            e > 0 ? static_cast<std::uint64_t>(e)
                  : static_cast<std::uint64_t>(-(e + 1)) + 1;
        if (mag > st.max_magnitude) st.max_magnitude = mag;
        st.num_plus1 += e == 1;
        st.num_minus1 += e == -1;
      }
    }
  }
  *stats = st;
}

}  // namespace

const EncodeKernels kScalarKernels = {
    abs_max_scalar,      find_first_abs_eq_scalar, any_abs_above_scalar,
    quantize_signed_scalar, ecq_residual_scalar,
};

const DecodeKernels kScalarDecode = {
    detail::unpack_signed_scalar, detail::unpack_pairs_scalar,
    detail::scatter_ecq_scalar, detail::reconstruct_scalar,
};

}  // namespace pastri::simd
