// format_detail.h - Internal stream-format constants and global-header
// and index-footer (de)serialization shared by the one-shot
// (compressor.cpp) and streaming (stream.cpp) drivers.  Not part of the
// public API.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitio/bit_reader.h"
#include "bitio/bit_writer.h"
#include "bitio/varint.h"
#include "core/block_index.h"
#include "core/pastri.h"

namespace pastri::detail {

inline constexpr std::uint32_t kMagic = 0x52545350;  // "PSTR"

/// Container versions.  v2 is the original layout (header + varint-length
/// prefixed payloads, nothing else); v3 appends the per-block offset
/// table plus a footer locating it.  Both decode; writers emit v3.
inline constexpr std::uint8_t kVersionUnindexed = kStreamVersionUnindexed;
inline constexpr std::uint8_t kVersion = kStreamVersionIndexed;

inline void write_global_header(bitio::BitWriter& w, const BlockSpec& spec,
                                const Params& params,
                                std::uint64_t num_blocks) {
  w.write_bits(kMagic, 32);
  w.write_bits(kVersion, 8);
  w.write_raw(params.error_bound);
  w.write_bits(static_cast<std::uint64_t>(params.bound_mode), 8);
  w.write_bits(static_cast<std::uint64_t>(params.metric), 8);
  w.write_bits(static_cast<std::uint64_t>(params.tree), 8);
  w.write_bits(spec.num_sub_blocks, 32);
  w.write_bits(spec.sub_block_size, 32);
  w.write_bits(num_blocks, 64);
}

inline StreamInfo read_global_header(bitio::BitReader& r) {
  if (r.read_bits(32) != kMagic) {
    throw std::runtime_error("PaSTRI: bad stream magic");
  }
  const std::uint64_t version = r.read_bits(8);
  if (version != kVersion && version != kVersionUnindexed) {
    throw std::runtime_error("PaSTRI: unsupported stream version " +
                             std::to_string(version));
  }
  StreamInfo info;
  info.version = static_cast<unsigned>(version);
  info.error_bound = r.read_raw<double>();
  info.bound_mode = static_cast<BoundMode>(r.read_bits(8));
  info.metric = static_cast<ScalingMetric>(r.read_bits(8));
  info.tree = static_cast<EcqTree>(r.read_bits(8));
  info.spec.num_sub_blocks = r.read_bits(32);
  info.spec.sub_block_size = r.read_bits(32);
  info.num_blocks = r.read_bits(64);
  info.spec.validate();
  if (!(info.error_bound > 0.0)) {
    throw std::runtime_error("PaSTRI: bad error bound in header");
  }
  return info;
}

/// Size in bits of the global header (all fields are byte multiples, so
/// block payloads start byte-aligned).
inline constexpr std::size_t kGlobalHeaderBits =
    32 + 8 + 64 + 8 + 8 + 8 + 32 + 32 + 64;
inline constexpr std::size_t kGlobalHeaderBytes = kGlobalHeaderBits / 8;

/// Byte offset of the num_blocks u64 inside the global header -- the one
/// field a streaming writer may not know until finish(), back-filled via
/// ByteSink::patch when the count was not declared up-front.
inline constexpr std::size_t kHeaderNumBlocksOffset =
    (32 + 8 + 64 + 8 + 8 + 8 + 32 + 32) / 8;

/// Upper bound on one block's payload bytes: a valid block never exceeds
/// ~16 bytes per value plus per-sub-block metadata.  Decoders reject a
/// larger declared length as corruption; encoders size their bit staging
/// by it so no block ever grows the buffer.
inline std::size_t max_block_payload_bytes(const BlockSpec& spec) {
  const std::size_t bs = spec.block_size();
  if (bs > (std::numeric_limits<std::size_t>::max() >> 5)) {
    return std::numeric_limits<std::size_t>::max();
  }
  return 16 * bs + 7 * (spec.num_sub_blocks + spec.sub_block_size) + 64;
}

// ---- v3 index footer ----------------------------------------------------
//
// Fixed-size trailer at the very end of an indexed container:
//   u64 index_offset   absolute byte offset of the offset table
//   u64 num_blocks     must match the global header
//   u32 kIndexFooterMagic ("PIDX")
// Reading it needs only the stream length, so a consumer can seek
// straight to the table without touching any payload bytes.

inline constexpr std::uint32_t kIndexFooterMagic = 0x58444950;  // "PIDX"
inline constexpr std::size_t kIndexFooterBytes = 8 + 8 + 4;

struct IndexFooter {
  std::uint64_t index_offset = 0;
  std::uint64_t num_blocks = 0;
};

inline void write_index_footer(bitio::BitWriter& w, const IndexFooter& f) {
  w.write_bits(f.index_offset, 64);
  w.write_bits(f.num_blocks, 64);
  w.write_bits(kIndexFooterMagic, 32);
}

/// Parse a footer from its raw bytes.  `tail` must be exactly the last
/// kIndexFooterBytes of a stream of `stream_size` bytes (callers with a
/// whole stream in memory use read_index_footer below; the IO layer
/// reads just the tail from disk).
inline IndexFooter parse_index_footer(std::span<const std::uint8_t> tail,
                                      std::size_t stream_size) {
  if (tail.size() != kIndexFooterBytes ||
      stream_size < kGlobalHeaderBytes + kIndexFooterBytes) {
    throw std::runtime_error("PaSTRI: stream too short for index footer");
  }
  bitio::BitReader r(tail);
  IndexFooter f;
  f.index_offset = r.read_bits(64);
  f.num_blocks = r.read_bits(64);
  if (r.read_bits(32) != kIndexFooterMagic) {
    throw std::runtime_error("PaSTRI: bad index footer magic");
  }
  if (f.index_offset < kGlobalHeaderBytes ||
      f.index_offset > stream_size - kIndexFooterBytes) {
    throw std::runtime_error("PaSTRI: index offset out of range");
  }
  return f;
}

inline IndexFooter read_index_footer(std::span<const std::uint8_t> stream) {
  if (stream.size() < kGlobalHeaderBytes + kIndexFooterBytes) {
    throw std::runtime_error("PaSTRI: stream too short for index footer");
  }
  return parse_index_footer(
      stream.subspan(stream.size() - kIndexFooterBytes), stream.size());
}

}  // namespace pastri::detail
