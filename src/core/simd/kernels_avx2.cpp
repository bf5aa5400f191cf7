// kernels_avx2.cpp - AVX2 backend of the encode kernel table.
//
// Compiled with -mavx2 -ffp-contract=off in this TU only (see
// core/CMakeLists.txt); dispatch never selects it unless CPUID reports
// AVX2 at runtime.  Bit-identity discipline:
//
//   * every float op is lanewise and unfused (mul then sub, never FMA;
//     -ffp-contract=off pins this even if the compiler would contract),
//     and division stays division -- no reciprocal multiplication;
//   * max scans use compare+blend, reproducing the scalar
//     `if (a > m) m = a` (NaN never overwrites the accumulator);
//   * round-half-away-from-zero is round-to-nearest-even plus an exact
//     +-1 correction on exact .5 fractions (the difference x - rne(x)
//     is exact for |x| < 2^52, so the correction mask is exact);
//   * double -> int64 uses the 1.5*2^52 magic-bias trick, valid for
//     |v| < 2^51; wider, non-finite, or saturating lanes fall back to
//     the shared scalar round_half_away_i64, so both backends run the
//     same code on every lane the fast path cannot prove safe.
//
// PASTRI_HAVE_AVX2 is defined (by the build) only when the compiler
// accepted -mavx2; otherwise this TU degrades to a scalar alias so the
// symbol exists and dispatch simply reports AVX2 as unavailable.
#include "core/simd/simd.h"

#include "core/simd/kernels_common.h"

#if defined(PASTRI_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace pastri::simd {
namespace {

constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52
constexpr double kConvertLimit = 2251799813685248.0;  // 2^51

inline __m256d abs_pd(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Lanewise round-half-away-from-zero of `x` (already-representable
/// integers pass through; exact .5 fractions move away from zero).
inline __m256d round_half_away_pd(__m256d x) {
  const __m256d r =
      _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d diff = _mm256_sub_pd(x, r);
  const __m256d sign = _mm256_and_pd(x, _mm256_set1_pd(-0.0));
  const __m256d half = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
  const __m256d one = _mm256_or_pd(_mm256_set1_pd(1.0), sign);
  const __m256d fix =
      _mm256_and_pd(one, _mm256_cmp_pd(diff, half, _CMP_EQ_OQ));
  return _mm256_add_pd(r, fix);
}

/// Convert a rounded vector to int64.  `quot` is the unrounded quotient
/// for the out-of-range lane fallback; lanes where |rounded| < 2^51
/// (which excludes NaN/Inf) convert via the magic bias, the rest via
/// the shared scalar path.
inline __m256i to_i64(__m256d rounded, __m256d quot) {
  const __m256d magic = _mm256_set1_pd(kMagic);
  const __m256d fast_mask = _mm256_cmp_pd(
      abs_pd(rounded), _mm256_set1_pd(kConvertLimit), _CMP_LT_OQ);
  __m256i iv = _mm256_sub_epi64(
      _mm256_castpd_si256(_mm256_add_pd(rounded, magic)),
      _mm256_castpd_si256(magic));
  const int fast = _mm256_movemask_pd(fast_mask);
  if (fast != 0xF) [[unlikely]] {
    alignas(32) double q[4];
    alignas(32) std::int64_t v[4];
    _mm256_store_pd(q, quot);
    _mm256_store_si256(reinterpret_cast<__m256i*>(v), iv);
    for (int lane = 0; lane < 4; ++lane) {
      if (!(fast & (1 << lane))) v[lane] = round_half_away_i64(q[lane]);
    }
    iv = _mm256_load_si256(reinterpret_cast<const __m256i*>(v));
  }
  return iv;
}

/// Unsigned 64-bit max (AVX2 has only signed compares; flipping the top
/// bit order-converts).  Magnitudes reach 2^63 -- |INT64_MIN| from
/// saturated/non-finite lanes -- which a signed max would always drop.
inline __m256i max_epu64(__m256i a, __m256i b) {
  const __m256i msb = _mm256_set1_epi64x(
      static_cast<std::int64_t>(0x8000000000000000ull));
  const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, msb),
                                        _mm256_xor_si256(a, msb));
  return _mm256_blendv_epi8(a, b, gt);
}

inline std::uint64_t hmax_epu64(__m256i v) {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  std::uint64_t m = lanes[0];
  for (int i = 1; i < 4; ++i) m = lanes[i] > m ? lanes[i] : m;
  return m;
}

inline std::uint64_t hsum_epi64(__m256i v) {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

double abs_max_avx2(const double* x, std::size_t n) {
  __m256d m = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = abs_pd(_mm256_loadu_pd(x + i));
    m = _mm256_blendv_pd(m, a, _mm256_cmp_pd(a, m, _CMP_GT_OQ));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, m);
  double best = 0.0;
  for (double lane : lanes) {
    if (lane > best) best = lane;
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > best) best = a;
  }
  return best;
}

std::size_t find_first_abs_eq_avx2(const double* x, std::size_t n,
                                   double m) {
  const __m256d target = _mm256_set1_pd(m);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = abs_pd(_mm256_loadu_pd(x + i));
    const int hit =
        _mm256_movemask_pd(_mm256_cmp_pd(a, target, _CMP_EQ_OQ));
    if (hit != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(
                     static_cast<unsigned>(hit)));
    }
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a == m) return i;
  }
  return n;
}

bool any_abs_above_avx2(const double* x, std::size_t n, double bound) {
  const __m256d b = _mm256_set1_pd(bound);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = abs_pd(_mm256_loadu_pd(x + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)) != 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    const double a = x[i] < 0.0 ? -x[i] : x[i];
    if (a > bound) return true;
  }
  return false;
}

void quantize_signed_avx2(const double* x, std::size_t n, double binsize,
                          unsigned nbits, double recon_binsize,
                          std::int64_t* q, double* recon) {
  const __m256d bin = _mm256_set1_pd(binsize);
  const __m256d rb = _mm256_set1_pd(recon_binsize);
  const __m256d magic = _mm256_set1_pd(kMagic);
  const std::int64_t hi_s = (std::int64_t{1} << (nbits - 1)) - 1;
  const std::int64_t lo_s = -(std::int64_t{1} << (nbits - 1));
  const __m256i hi = _mm256_set1_epi64x(hi_s);
  const __m256i lo = _mm256_set1_epi64x(lo_s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d quot = _mm256_div_pd(_mm256_loadu_pd(x + i), bin);
    __m256i iv = to_i64(round_half_away_pd(quot), quot);
    iv = _mm256_blendv_epi8(iv, hi, _mm256_cmpgt_epi64(iv, hi));
    iv = _mm256_blendv_epi8(iv, lo, _mm256_cmpgt_epi64(lo, iv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), iv);
    // |clamped| <= 2^53, but the reverse magic bias needs < 2^51; wide
    // widths (P_b > 52) convert scalar.
    if (nbits <= 52) {
      const __m256d qv = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_add_epi64(iv, _mm256_castpd_si256(magic))),
          magic);
      _mm256_storeu_pd(recon + i, _mm256_mul_pd(qv, rb));
    } else {
      for (int lane = 0; lane < 4; ++lane) {
        recon[i + lane] =
            static_cast<double>(q[i + lane]) * recon_binsize;
      }
    }
  }
  for (; i < n; ++i) {
    std::int64_t v = round_half_away_i64(x[i] / binsize);
    v = v < lo_s ? lo_s : (v > hi_s ? hi_s : v);
    q[i] = v;
    recon[i] = static_cast<double>(v) * recon_binsize;
  }
}

void ecq_residual_avx2(const double* block, std::size_t nsb,
                       std::size_t sbs, const double* p_hat,
                       const double* s_hat, double binsize,
                       std::int64_t* ecq, EcqStats* stats) {
  const __m256d bin = _mm256_set1_pd(binsize);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i plus1 = _mm256_set1_epi64x(1);
  const __m256i minus1 = _mm256_set1_epi64x(-1);
  __m256i zero_cnt = _mm256_setzero_si256();
  __m256i plus_cnt = _mm256_setzero_si256();
  __m256i minus_cnt = _mm256_setzero_si256();
  __m256i max_mag = _mm256_setzero_si256();
  std::size_t tail_zeros = 0;
  EcqStats st;

  for (std::size_t j = 0; j < nsb; ++j) {
    const double s = s_hat[j];
    const __m256d sv = _mm256_set1_pd(s);
    const double* row = block + j * sbs;
    std::int64_t* out = ecq + j * sbs;
    std::size_t i = 0;
    for (; i + 4 <= sbs; i += 4) {
      // mul then sub then div: the scalar op sequence, never an FMA.
      const __m256d approx = _mm256_mul_pd(sv, _mm256_loadu_pd(p_hat + i));
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(row + i), approx);
      const __m256d quot = _mm256_div_pd(diff, bin);
      const __m256i e = to_i64(round_half_away_pd(quot), quot);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), e);
      // Class counters: a true compare lane is -1, so subtracting the
      // mask adds one to that lane's counter.
      zero_cnt = _mm256_sub_epi64(zero_cnt, _mm256_cmpeq_epi64(e, zero));
      plus_cnt = _mm256_sub_epi64(plus_cnt, _mm256_cmpeq_epi64(e, plus1));
      minus_cnt =
          _mm256_sub_epi64(minus_cnt, _mm256_cmpeq_epi64(e, minus1));
      const __m256i sign = _mm256_cmpgt_epi64(zero, e);
      const __m256i mag =
          _mm256_sub_epi64(_mm256_xor_si256(e, sign), sign);
      max_mag = max_epu64(max_mag, mag);
    }
    for (; i < sbs; ++i) {
      const double approx = s * p_hat[i];
      const std::int64_t e = round_half_away_i64((row[i] - approx) / binsize);
      out[i] = e;
      if (e == 0) {
        ++tail_zeros;
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

  const std::size_t zeros = hsum_epi64(zero_cnt) + tail_zeros;
  st.num_outliers = nsb * sbs - zeros;
  st.num_plus1 += hsum_epi64(plus_cnt);
  st.num_minus1 += hsum_epi64(minus_cnt);
  const std::uint64_t vec_mag = hmax_epu64(max_mag);
  if (vec_mag > st.max_magnitude) st.max_magnitude = vec_mag;
  *stats = st;
}

// ---- Decode kernels ----------------------------------------------------

/// How many of the `n` fields starting at `bitpos` (stride `stride`
/// bits) can be served by a full 8-byte load per lane: position p needs
/// (p >> 3) + 8 <= nbytes, i.e. p <= 8*nbytes - 57.  The rest go
/// through the scalar tail, same as BitReader near the stream end.
inline std::size_t gather_safe_count(std::size_t nbytes, std::size_t bitpos,
                                     unsigned stride, std::size_t n) {
  const std::size_t total = 8 * nbytes;
  if (total < bitpos + 57) return 0;
  const std::size_t k = (total - 57 - bitpos) / stride + 1;
  return k < n ? k : n;
}

void unpack_signed_avx2(const std::uint8_t* base, std::size_t nbytes,
                        std::size_t bitpos, unsigned nbits,
                        std::int64_t* out, std::size_t n) {
  const std::size_t fast = gather_safe_count(nbytes, bitpos, nbits, n);
  const __m256i vmask =
      _mm256_set1_epi64x(static_cast<long long>(detail::mask_u64(nbits)));
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<long long>(std::uint64_t{1} << (nbits - 1)));
  const __m256i vseven = _mm256_set1_epi64x(7);
  __m256i vpos = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(bitpos)),
      _mm256_set_epi64x(3ll * nbits, 2ll * nbits, 1ll * nbits, 0));
  const __m256i vstep = _mm256_set1_epi64x(4ll * nbits);
  std::size_t i = 0;
  for (; i + 4 <= fast; i += 4) {
    // One unaligned 64-bit load per lane (gather), then shift out the
    // sub-byte offset -- the vector form of BitReader's word fast path.
    const __m256i vbyte = _mm256_srli_epi64(vpos, 3);
    const __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(base), vbyte, 1);
    const __m256i vbit = _mm256_and_si256(vpos, vseven);
    __m256i v = _mm256_and_si256(_mm256_srlv_epi64(words, vbit), vmask);
    // Two's-complement sign extension: (v ^ signbit) - signbit.
    v = _mm256_sub_epi64(_mm256_xor_si256(v, vsign), vsign);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    vpos = _mm256_add_epi64(vpos, vstep);
  }
  if (i < n) {
    detail::unpack_signed_scalar(base, nbytes, bitpos + i * nbits, nbits,
                                 out + i, n - i);
  }
}

void unpack_pairs_avx2(const std::uint8_t* base, std::size_t nbytes,
                       std::size_t bitpos, unsigned idx_bits,
                       unsigned val_bits, std::uint64_t* idx,
                       std::int64_t* val, std::size_t n) {
  const unsigned rec = idx_bits + val_bits;
  if (rec > 57) {
    // A record no longer fits one shifted word load (possible only for
    // ecb_max near 64); take the scalar two-load path throughout.
    detail::unpack_pairs_scalar(base, nbytes, bitpos, idx_bits, val_bits,
                                idx, val, n);
    return;
  }
  const std::size_t fast = gather_safe_count(nbytes, bitpos, rec, n);
  const __m256i vimask =
      _mm256_set1_epi64x(static_cast<long long>(detail::mask_u64(idx_bits)));
  const __m256i vvmask =
      _mm256_set1_epi64x(static_cast<long long>(detail::mask_u64(val_bits)));
  const __m256i vvsign = _mm256_set1_epi64x(
      static_cast<long long>(std::uint64_t{1} << (val_bits - 1)));
  const __m256i vseven = _mm256_set1_epi64x(7);
  const __m256i vidxsh = _mm256_set1_epi64x(idx_bits);
  __m256i vpos = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(bitpos)),
      _mm256_set_epi64x(3ll * rec, 2ll * rec, 1ll * rec, 0));
  const __m256i vstep = _mm256_set1_epi64x(4ll * rec);
  std::size_t k = 0;
  for (; k + 4 <= fast; k += 4) {
    const __m256i vbyte = _mm256_srli_epi64(vpos, 3);
    const __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(base), vbyte, 1);
    const __m256i vbit = _mm256_and_si256(vpos, vseven);
    const __m256i recbits = _mm256_srlv_epi64(words, vbit);
    const __m256i vi = _mm256_and_si256(recbits, vimask);
    __m256i vv =
        _mm256_and_si256(_mm256_srlv_epi64(recbits, vidxsh), vvmask);
    vv = _mm256_sub_epi64(_mm256_xor_si256(vv, vvsign), vvsign);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + k), vi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(val + k), vv);
    vpos = _mm256_add_epi64(vpos, vstep);
  }
  if (k < n) {
    detail::unpack_pairs_scalar(base, nbytes, bitpos + k * rec, idx_bits,
                                val_bits, idx + k, val + k, n - k);
  }
}

bool scatter_ecq_avx2(std::int64_t* ecq, std::size_t n,
                      const std::uint64_t* idx, const std::int64_t* val,
                      std::size_t nol) {
  // Validate all indices up front (vector compare; indices come from
  // <= 57-bit fields, so a signed compare against n is exact), then
  // zero-fill and scatter.  AVX2 has no scatter instruction, so the
  // stores stay scalar -- the win is the validation and the fill.
  const __m256i vlimit = _mm256_set1_epi64x(static_cast<long long>(n) - 1);
  __m256i bad = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 4 <= nol; k += 4) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
    bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(vi, vlimit));
  }
  if (!_mm256_testz_si256(bad, bad)) return false;
  for (; k < nol; ++k) {
    if (idx[k] >= n) return false;
  }
  std::memset(ecq, 0, n * sizeof(std::int64_t));
  for (std::size_t t = 0; t < nol; ++t) {
    ecq[idx[t]] = val[t];
  }
  return true;
}

void reconstruct_avx2(const std::int64_t* pq, const std::int64_t* sq,
                      const std::int64_t* ecq, std::size_t nsb,
                      std::size_t sbs, double pattern_binsize,
                      double scale_binsize, double ec_binsize,
                      unsigned bits, unsigned ecb_max, double* p_hat,
                      double* out) {
  if (bits > 52 || ecb_max > 52) {
    // The reverse magic bias is exact only for 52-bit two's-complement
    // inputs; wider codes reconstruct through the scalar kernel, which
    // is identical by definition.
    detail::reconstruct_scalar(pq, sq, ecq, nsb, sbs, pattern_binsize,
                               scale_binsize, ec_binsize, bits, ecb_max,
                               p_hat, out);
    return;
  }
  const __m256d magic = _mm256_set1_pd(kMagic);
  const __m256i magici = _mm256_castpd_si256(magic);
  const __m256d pbin = _mm256_set1_pd(pattern_binsize);
  const __m256d ebin = _mm256_set1_pd(ec_binsize);
  std::size_t i = 0;
  for (; i + 4 <= sbs; i += 4) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pq + i));
    const __m256d pv = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(iv, magici)), magic);
    _mm256_storeu_pd(p_hat + i, _mm256_mul_pd(pv, pbin));
  }
  for (; i < sbs; ++i) {
    p_hat[i] = static_cast<double>(pq[i]) * pattern_binsize;
  }
  for (std::size_t j = 0; j < nsb; ++j) {
    // One scale per row: scalar convert (exact for any width), then
    // broadcast.
    const double s_hat = static_cast<double>(sq[j]) * scale_binsize;
    const __m256d sv = _mm256_set1_pd(s_hat);
    const std::int64_t* erow = ecq + j * sbs;
    double* orow = out + j * sbs;
    std::size_t t = 0;
    for (; t + 4 <= sbs; t += 4) {
      const __m256i ev =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(erow + t));
      const __m256d ed = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_add_epi64(ev, magici)), magic);
      // mul, mul, add: three separate roundings, never an FMA (this TU
      // is -ffp-contract=off), matching the scalar loop exactly --
      // including the ecq == 0 term, because -0.0 + 0.0 = +0.0.
      const __m256d r =
          _mm256_add_pd(_mm256_mul_pd(sv, _mm256_loadu_pd(p_hat + t)),
                        _mm256_mul_pd(ed, ebin));
      _mm256_storeu_pd(orow + t, r);
    }
    for (; t < sbs; ++t) {
      orow[t] = s_hat * p_hat[t] +
                static_cast<double>(erow[t]) * ec_binsize;
    }
  }
}

}  // namespace

const EncodeKernels kAvx2Kernels = {
    abs_max_avx2,      find_first_abs_eq_avx2, any_abs_above_avx2,
    quantize_signed_avx2, ecq_residual_avx2,
};

const DecodeKernels kAvx2Decode = {
    unpack_signed_avx2, unpack_pairs_avx2, scatter_ecq_avx2,
    reconstruct_avx2,
};

bool avx2_compiled_in() { return true; }

}  // namespace pastri::simd

#else  // !PASTRI_HAVE_AVX2

namespace pastri::simd {

// No AVX2 at compile time: alias the scalar tables so the symbols
// link; dispatch reports the backend as unsupported and never selects
// it on merit, but a forced selection still behaves correctly.
const EncodeKernels kAvx2Kernels = kScalarKernels;
const DecodeKernels kAvx2Decode = kScalarDecode;

bool avx2_compiled_in() { return false; }

}  // namespace pastri::simd

#endif
