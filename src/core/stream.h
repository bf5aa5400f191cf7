// stream.h - Bounded-memory streaming compression and decompression.
//
// GAMESS-style producers emit ERI shell blocks one quartet at a time and
// consumers read them back each SCF iteration; holding the whole dataset
// in memory on both sides defeats the purpose of compression for the
// largest systems.  The classes here provide the out-of-core pipeline
// with O(chunk) peak memory on both ends:
//
//   * `StreamWriter` accepts blocks (or arbitrarily sliced value chunks)
//     incrementally, encodes them in block-parallel batches, writes the
//     container bytes to a `ByteSink` as each batch completes, and keeps
//     only the per-block payload sizes (the delta-varint offset table)
//     buffered until `finish()` emits the table and the PIDX footer.
//
//   * `StreamConsumer` pulls compressed bytes from a `ByteSource` in
//     fixed-size chunks and decodes blocks in block-parallel batches,
//     so the whole compressed stream never needs to be materialized --
//     it works on a pipe.
//
// The produced bytes are exactly the `pastri::compress` format (the
// one-shot drivers are thin wrappers over these classes), so streaming
// and one-shot APIs interoperate both ways, bit-identically.
//
// `StreamCompressor` / `StreamDecompressor` remain as the original
// buffer-at-once conveniences, now implemented on top of the writer.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>

#include "core/pastri.h"

namespace pastri {

// ---- Byte transport -----------------------------------------------------

/// Output abstraction of `StreamWriter`.  Offsets passed to `patch` are
/// container-absolute: 0 is the first byte of the stream's global header.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Append bytes at the current end of the sink.
  virtual void write(std::span<const std::uint8_t> bytes) = 0;

  /// Whether `patch` is available.  Writers that do not know the block
  /// count up-front need it to back-fill the header at finish().
  virtual bool can_patch() const { return false; }

  /// Overwrite previously written bytes at container offset `offset`.
  /// Default: throws std::logic_error.
  virtual void patch(std::size_t offset,
                     std::span<const std::uint8_t> bytes);
};

/// In-memory sink; the container starts at byte 0 of the buffer.
class VectorSink final : public ByteSink {
 public:
  void write(std::span<const std::uint8_t> bytes) override;
  bool can_patch() const override { return true; }
  void patch(std::size_t offset,
             std::span<const std::uint8_t> bytes) override;

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sink over a std::ostream.  Seekability is probed once (tellp); on a
/// non-seekable stream (pipe, stdout) `can_patch` is false and writers
/// must declare the block count up-front.  `container_base` is the
/// stream position of the container's first byte -- defaulted to the
/// position at construction, passed explicitly when resuming a container
/// that started earlier in the file.
class OstreamSink final : public ByteSink {
 public:
  explicit OstreamSink(std::ostream& os);
  OstreamSink(std::ostream& os, std::size_t container_base);

  void write(std::span<const std::uint8_t> bytes) override;
  bool can_patch() const override { return seekable_; }
  void patch(std::size_t offset,
             std::span<const std::uint8_t> bytes) override;

 private:
  std::ostream& os_;
  std::size_t base_ = 0;
  bool seekable_ = false;
};

/// Asynchronous io stage: decouples the encode stage from the sink it
/// feeds.  write()/patch() enqueue coalesced chunks onto a bounded queue
/// that a background drain thread applies to the wrapped sink in order,
/// so the caller (typically a StreamWriter flushing a batch) returns to
/// encoding while the bytes hit the disk -- the "io" stage of the fused
/// compute->compress->io pipeline.  Because the queue preserves op order
/// (patches included), the bytes reaching the inner sink are exactly the
/// bytes a direct caller would have written: the container is
/// byte-identical with the async stage on or off.
///
/// Backpressure: the queue holds at most `queue_depth` chunks of
/// ~`chunk_bytes` each, so a slow sink stalls the encoder instead of
/// buffering the stream; the stall is visible in backpressure_wait_ns().
///
/// Error contract: a sink failure on the drain thread is captured and
/// rethrown from the next write()/patch()/flush() call; subsequent
/// queued ops are discarded.  Call flush() before reading the file back
/// -- the destructor drains but swallows errors (it must not throw).
/// One writer thread at a time; the drain thread is internal.
class AsyncSink final : public ByteSink {
 public:
  struct Options {
    std::size_t queue_depth = 4;           ///< chunks in flight (>= 1)
    std::size_t chunk_bytes = 256 * 1024;  ///< coalescing granularity
  };

  explicit AsyncSink(ByteSink& inner);
  AsyncSink(ByteSink& inner, const Options& opt);
  ~AsyncSink() override;
  AsyncSink(const AsyncSink&) = delete;
  AsyncSink& operator=(const AsyncSink&) = delete;

  void write(std::span<const std::uint8_t> bytes) override;
  bool can_patch() const override;
  void patch(std::size_t offset,
             std::span<const std::uint8_t> bytes) override;

  /// Barrier: every op enqueued so far has been applied to the inner
  /// sink.  Rethrows the first drain-thread error, if any.
  void flush();

  /// Stall/busy accounting for pipeline telemetry (stable after flush):
  /// time the writer spent blocked on a full queue, time the drain
  /// thread spent waiting for work, and time it spent inside the inner
  /// sink's write/patch.
  std::uint64_t backpressure_wait_ns() const;
  std::uint64_t idle_wait_ns() const;
  std::uint64_t apply_ns() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Input abstraction of `StreamConsumer`.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Read up to out.size() bytes; returns the count read (0 = EOF).
  virtual std::size_t read(std::span<std::uint8_t> out) = 0;
};

/// Source over an in-memory span (must outlive the source).
class SpanSource final : public ByteSource {
 public:
  explicit SpanSource(std::span<const std::uint8_t> data) : data_(data) {}
  std::size_t read(std::span<std::uint8_t> out) override;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Source over a std::istream (works on pipes/stdin).
class IstreamSource final : public ByteSource {
 public:
  explicit IstreamSource(std::istream& is) : is_(is) {}
  std::size_t read(std::span<std::uint8_t> out) override;

 private:
  std::istream& is_;
};

// ---- Streaming compression ---------------------------------------------

/// Sentinel for "block count not known until finish()".
inline constexpr std::uint64_t kUnknownBlockCount = ~std::uint64_t{0};

struct StreamWriterOptions {
  /// Blocks per encode batch -- the depth of the bounded producer/worker
  /// queue and the writer's peak block memory.  0 = auto: enough blocks
  /// to keep every worker busy, capped at a few MB of staging.
  std::size_t batch_blocks = 0;

  /// Total block count declared up-front.  When known, the header is
  /// written final immediately and any sink works; when left at
  /// kUnknownBlockCount the sink must support patch() so the count can
  /// be back-filled at finish().
  std::uint64_t expected_blocks = kUnknownBlockCount;
};

/// Incremental compressor with O(batch) memory.
///
/// State machine: open --put_block/put_values*--> open --finish--> done.
/// Blocks are encoded in parallel inside each batch but serialized to
/// the sink strictly in append order, so the container bytes are
/// identical to the one-shot `compress` of the concatenated blocks --
/// independent of thread count, batch size, or chunk slicing.  After
/// `finish()` the writer is finished: further appends throw
/// std::logic_error.
class StreamWriter {
 public:
  /// Start a fresh (v3) container.  Throws std::invalid_argument on bad
  /// spec/params, std::logic_error when the block count is unknown and
  /// the sink cannot patch.
  StreamWriter(ByteSink& sink, const BlockSpec& spec, const Params& params,
               const StreamWriterOptions& opt = {});

  /// Resume an existing indexed container whose header yielded `info`
  /// and whose offset table parsed to `index`: the sink must be
  /// positioned at index.payload_end() (the old table and footer are
  /// overwritten) and must support patch().  `params` controls the
  /// encoding of appended blocks; its bound/metric/tree must equal the
  /// header's or decoding would diverge (throws std::invalid_argument).
  StreamWriter(ByteSink& sink, const StreamInfo& info, const Params& params,
               const BlockIndex& index,
               const StreamWriterOptions& opt = {});

  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Append one block (size must equal spec.block_size()).
  void put_block(std::span<const double> block);

  /// Append an arbitrary slice of values; chunk boundaries need not
  /// align to blocks (a partial tail is carried over).  finish() throws
  /// if the total appended is not a whole number of blocks.
  void put_values(std::span<const double> values);

  /// Blocks appended so far (including any not yet flushed to the sink,
  /// and pre-existing blocks of a resumed container).
  std::size_t blocks_appended() const;

  /// Values buffered from a put_values tail that has not completed a
  /// block yet (0 when aligned).
  std::size_t pending_values() const { return tail_.size(); }

  /// Flush the last batch, emit the offset table and footer, back-fill
  /// the header block count if it was unknown.  Returns the total
  /// container size in bytes.
  std::size_t finish();

  /// Accounting (num_blocks/input_bytes update per append; payload and
  /// bookkeeping bit counters as batches flush; output_bytes at
  /// finish()).  For a fresh writer the post-finish stats are identical
  /// to what `compress` reports for the same data.
  const Stats& stats() const { return stats_; }

 private:
  void flush_batch_();

  /// Where one block's encoded payload lives: byte range `[off, off+len)`
  /// of the encoding worker's arena (`workspaces_[tid]`).  The
  /// serializer walks these in append order, so the container bytes are
  /// scheduling-independent even though payloads are scattered across
  /// per-thread arenas.
  struct PayloadRef {
    std::size_t tid = 0;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  ByteSink& sink_;
  BlockSpec spec_;
  Params params_;
  std::uint64_t expected_blocks_ = kUnknownBlockCount;
  bool patch_header_ = false;
  bool finished_ = false;
  std::size_t resumed_blocks_ = 0;

  std::size_t batch_capacity_ = 0;   // blocks per batch
  std::vector<double> batch_;        // staged raw blocks
  std::size_t batch_count_ = 0;      // blocks currently staged
  std::vector<double> tail_;         // partial block from put_values

  /// Per-worker codec scratch + payload arenas, sized for the spec and
  /// the first batch's payload bytes on the first flush and reused for
  /// every batch after (steady-state flushes perform no heap allocation;
  /// tests/test_alloc_free.cpp pins this).
  std::vector<CodecWorkspace> workspaces_;

  std::vector<PayloadRef> refs_;     // per staged block, append order

  std::vector<std::size_t> sizes_;   // payload bytes per block (the table)
  std::size_t bytes_emitted_ = 0;    // container bytes written so far
  Stats stats_;
};

// ---- Streaming decompression -------------------------------------------

struct StreamConsumerOptions {
  /// Read granularity from the source in bytes.  0 = auto (1 MiB).  The
  /// internal buffer grows beyond this only if a single block payload is
  /// larger than the chunk.
  std::size_t chunk_bytes = 0;

  /// Blocks per decode batch (block-parallel).  0 = auto.
  std::size_t batch_blocks = 0;

  /// Threads for batch decode, as Params::num_threads (0 = default).
  int num_threads = 0;
};

/// Chunked decoder: pulls compressed bytes on demand and decodes blocks
/// in order with O(chunk + batch) memory.  Reads legacy (v2) and indexed
/// (v3) streams -- the sequential payload walk needs no index, and the
/// trailing index bytes are simply never requested from the source (it
/// works on a pipe).
class StreamConsumer {
 public:
  /// Reads and parses the global header immediately; throws
  /// std::runtime_error on malformed input.
  explicit StreamConsumer(ByteSource& source,
                          const StreamConsumerOptions& opt = {});

  const StreamInfo& info() const { return info_; }
  std::size_t blocks_remaining() const { return remaining_; }

  /// Decode up to out.size()/block_size whole blocks into the front of
  /// `out`; returns the number of blocks decoded (0 = stream exhausted).
  /// Throws std::runtime_error on truncated/corrupt payload bytes.
  std::size_t read_blocks(std::span<double> out);

  /// Fill `out` (any size, need not align to blocks) with the next
  /// decoded values; returns the count written (0 = exhausted).
  std::size_t read_values(std::span<double> out);

 private:
  void refill_();
  void ensure_(std::size_t n);
  std::size_t decode_batch_(std::span<double> out, std::size_t max_blocks);

  /// One whole payload gathered in buf_: `[pos_ + off, pos_ + off + len)`.
  struct Extent {
    std::size_t off = 0;
    std::size_t len = 0;
  };

  ByteSource& source_;
  StreamInfo info_;
  Params params_;
  std::size_t remaining_ = 0;
  std::size_t batch_blocks_ = 0;
  std::size_t max_payload_ = 0;  // sanity cap on one block's payload

  // Reused across batches so steady-state decode allocates nothing.
  std::vector<CodecWorkspace> workspaces_;  // one per decode worker
  std::vector<Extent> extents_;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // next unconsumed byte in buf_
  std::size_t end_ = 0;  // valid bytes in buf_
  bool eof_ = false;

  std::vector<double> carry_;     // partially consumed decoded block
  std::size_t carry_pos_ = 0;
};

// ---- Buffer-at-once conveniences (original streaming API) --------------

/// Compress blocks one at a time; `finish()` yields a stream readable by
/// `decompress` / `StreamConsumer`.  Thin wrapper over StreamWriter with
/// an in-memory sink (the whole output is buffered -- use StreamWriter
/// directly for bounded memory).
class StreamCompressor {
 public:
  StreamCompressor(const BlockSpec& spec, const Params& params);
  ~StreamCompressor();

  /// Compress and buffer one block (size must equal spec.block_size()).
  void append_block(std::span<const double> block);

  /// Number of blocks appended so far.
  std::size_t blocks_appended() const;

  /// Finalize and return the complete stream.  The compressor can be
  /// reused afterwards (it resets to empty).
  std::vector<std::uint8_t> finish();

  /// Accounting so far (input/output byte totals are updated at finish).
  const Stats& stats() const;

 private:
  void ensure_writer_();

  BlockSpec spec_;
  Params params_;
  std::unique_ptr<VectorSink> sink_;
  std::unique_ptr<StreamWriter> writer_;
  Stats stats_;
};

/// Iterate blocks of an in-memory compressed stream without
/// decompressing it all (wrapper over StreamConsumer + SpanSource).
class StreamDecompressor {
 public:
  /// Parses the header immediately; throws on malformed input.
  /// The span must outlive the decompressor.
  explicit StreamDecompressor(std::span<const std::uint8_t> stream);

  const StreamInfo& info() const { return consumer_.info(); }

  /// Blocks remaining to read.
  std::size_t blocks_remaining() const {
    return consumer_.blocks_remaining();
  }

  /// Decompress the next block into `out` (size spec.block_size()).
  /// Returns false when the stream is exhausted.
  bool next_block(std::span<double> out);

 private:
  std::unique_ptr<SpanSource> source_;
  StreamConsumer consumer_;
};

}  // namespace pastri
