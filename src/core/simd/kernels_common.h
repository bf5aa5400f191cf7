// kernels_common.h - Shared scalar bodies for the decode kernel table.
//
// Every backend TU includes this header for its scalar reference loops:
// the scalar backend publishes them directly, the vector backends call
// them for stream tails (where a full-width word load would run past
// the payload) and for bit widths outside their exact-conversion range.
//
// Everything here is `static` on purpose: each backend TU is compiled
// with its own architecture flags (-mavx2, -mavx512f, ...), so these
// helpers must have internal linkage -- a linker merging an AVX-512
// compiled copy into the scalar path would crash older CPUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/simd/simd.h"

namespace pastri::simd::detail {

[[maybe_unused]] static constexpr std::uint64_t mask_u64(unsigned nbits) {
  return nbits >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << nbits) - 1;
}

[[maybe_unused]] static std::int64_t sign_extend_u64(std::uint64_t raw,
                                                     unsigned nbits) {
  if (nbits < 64 && nbits > 0 &&
      (raw & (std::uint64_t{1} << (nbits - 1)))) {
    raw |= ~((std::uint64_t{1} << nbits) - 1);
  }
  return static_cast<std::int64_t>(raw);
}

/// Load `nbits` (<= 57) at absolute bit `pos`, tail-safe exactly like
/// BitReader::peek_bits: bytes past the end of the span read as zero
/// (the caller's require_bits proved the *value* bits are in range;
/// only over-read padding may fall off the end).
[[maybe_unused]] static std::uint64_t peek_at(const std::uint8_t* base,
                                              std::size_t nbytes,
                                              std::size_t pos,
                                              unsigned nbits) {
  const std::size_t byte = pos >> 3;
  const unsigned bit = static_cast<unsigned>(pos & 7);
  std::uint64_t word = 0;
  if (byte + 8 <= nbytes) {
    std::memcpy(&word, base + byte, 8);  // little-endian hosts
  } else if (byte < nbytes) {
    std::memcpy(&word, base + byte, nbytes - byte);
  }
  word >>= bit;
  return word & mask_u64(nbits);
}

/// peek_at for widths up to 64 (sparse-ECQ values can be 63 bits wide):
/// two part-loads stitched like BitReader::take_bits.
[[maybe_unused]] static std::uint64_t peek_wide_at(const std::uint8_t* base,
                                                   std::size_t nbytes,
                                                   std::size_t pos,
                                                   unsigned nbits) {
  if (nbits <= 57) return peek_at(base, nbytes, pos, nbits);
  const std::uint64_t lo = peek_at(base, nbytes, pos, 32);
  const std::uint64_t hi = peek_at(base, nbytes, pos + 32, nbits - 32);
  return lo | (hi << 32);
}

/// Scalar unpack_signed: the windowed loop of BitReader::read_signed_run
/// re-rooted at (base, nbytes, bitpos) -- value-identical to it.
[[maybe_unused]] static void unpack_signed_scalar(
    const std::uint8_t* base, std::size_t nbytes, std::size_t bitpos,
    unsigned nbits, std::int64_t* out, std::size_t n) {
  std::uint64_t window = 0;
  unsigned valid = 0;
  std::size_t pos = bitpos;
  std::size_t i = 0;
  for (; i < n; ++i) {
    if (valid < nbits) {
      const std::size_t byte = pos >> 3;
      if (byte + 8 > nbytes) break;  // tail: peek path below
      std::uint64_t word;
      std::memcpy(&word, base + byte, 8);  // little-endian hosts
      const unsigned bit = static_cast<unsigned>(pos & 7);
      window = word >> bit;
      valid = 64 - bit;  // >= 57 >= nbits
    }
    out[i] = sign_extend_u64(window & mask_u64(nbits), nbits);
    window >>= nbits;
    valid -= nbits;
    pos += nbits;
  }
  for (; i < n; ++i) {
    out[i] = sign_extend_u64(peek_at(base, nbytes, pos, nbits), nbits);
    pos += nbits;
  }
}

/// Scalar unpack_pairs: (unsigned index, signed value) records back to
/// back.  One peek per record when both fields fit a single window.
[[maybe_unused]] static void unpack_pairs_scalar(
    const std::uint8_t* base, std::size_t nbytes, std::size_t bitpos,
    unsigned idx_bits, unsigned val_bits, std::uint64_t* idx,
    std::int64_t* val, std::size_t n) {
  const unsigned rec = idx_bits + val_bits;
  std::size_t pos = bitpos;
  if (rec <= 57) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t word = peek_at(base, nbytes, pos, rec);
      idx[k] = word & mask_u64(idx_bits);
      val[k] = sign_extend_u64(word >> idx_bits, val_bits);
      pos += rec;
    }
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = peek_at(base, nbytes, pos, idx_bits);
      pos += idx_bits;
      val[k] = sign_extend_u64(peek_wide_at(base, nbytes, pos, val_bits),
                               val_bits);
      pos += val_bits;
    }
  }
}

[[maybe_unused]] static bool scatter_ecq_scalar(std::int64_t* ecq,
                                                std::size_t n,
                                                const std::uint64_t* idx,
                                                const std::int64_t* val,
                                                std::size_t nol) {
  for (std::size_t k = 0; k < nol; ++k) {
    if (idx[k] >= n) return false;
  }
  std::memset(ecq, 0, n * sizeof(std::int64_t));
  for (std::size_t k = 0; k < nol; ++k) {
    ecq[idx[k]] = val[k];
  }
  return true;
}

/// Scalar reconstruct: the canonical dequantize loop.  p_hat is hoisted
/// out of the row loop (the per-(j,i) multiply of the original loop is
/// deterministic, so computing double(pq[i]) * pattern_binsize once per
/// i yields the identical double every row).
[[maybe_unused]] static void reconstruct_scalar(
    const std::int64_t* pq, const std::int64_t* sq, const std::int64_t* ecq,
    std::size_t nsb, std::size_t sbs, double pattern_binsize,
    double scale_binsize, double ec_binsize, unsigned bits,
    unsigned ecb_max, double* p_hat, double* out) {
  (void)bits;
  (void)ecb_max;
  for (std::size_t i = 0; i < sbs; ++i) {
    p_hat[i] = static_cast<double>(pq[i]) * pattern_binsize;
  }
  for (std::size_t j = 0; j < nsb; ++j) {
    const double s_hat = static_cast<double>(sq[j]) * scale_binsize;
    const std::int64_t* erow = ecq + j * sbs;
    double* orow = out + j * sbs;
    for (std::size_t i = 0; i < sbs; ++i) {
      // mul, mul, add -- three separate roundings, no FMA (this TU is
      // built with -ffp-contract=off; see core/CMakeLists.txt).
      orow[i] = s_hat * p_hat[i] +
                static_cast<double>(erow[i]) * ec_binsize;
    }
  }
}

}  // namespace pastri::simd::detail
