// stream.cpp - Streaming drivers: StreamWriter (batch-parallel encode,
// in-order serialization, O(batch) memory) and StreamConsumer (chunked
// pull decode), plus the byte transports and the original buffer-at-once
// wrappers.  The one-shot compress/decompress in compressor.cpp are thin
// wrappers over these, which keeps the two paths bit-identical.
#include "core/stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/pipeline.h"

#include "bitio/varint.h"
#include "core/format_detail.h"
#include "core/parallel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace pastri {

// ---- Byte transport -----------------------------------------------------

void ByteSink::patch(std::size_t, std::span<const std::uint8_t>) {
  throw std::logic_error("ByteSink: this sink does not support patch()");
}

void VectorSink::write(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void VectorSink::patch(std::size_t offset,
                       std::span<const std::uint8_t> bytes) {
  if (offset + bytes.size() < offset || offset + bytes.size() > buf_.size()) {
    throw std::logic_error("VectorSink: patch outside written bytes");
  }
  std::memcpy(buf_.data() + offset, bytes.data(), bytes.size());
}

OstreamSink::OstreamSink(std::ostream& os) : os_(os) {
  const auto pos = os_.tellp();
  seekable_ = pos != std::ostream::pos_type(-1);
  base_ = seekable_ ? static_cast<std::size_t>(pos) : 0;
}

OstreamSink::OstreamSink(std::ostream& os, std::size_t container_base)
    : os_(os), base_(container_base) {
  seekable_ = os_.tellp() != std::ostream::pos_type(-1);
}

void OstreamSink::write(std::span<const std::uint8_t> bytes) {
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!os_) throw std::runtime_error("OstreamSink: write failed");
}

void OstreamSink::patch(std::size_t offset,
                        std::span<const std::uint8_t> bytes) {
  if (!seekable_) {
    throw std::logic_error("OstreamSink: stream is not seekable");
  }
  const auto end = os_.tellp();
  os_.seekp(static_cast<std::streamoff>(base_ + offset));
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  os_.seekp(end);
  if (!os_) throw std::runtime_error("OstreamSink: patch failed");
}

// ---- AsyncSink ----------------------------------------------------------

struct AsyncSink::Impl {
  /// One unit of drain-thread work.  Write ops carry coalesced bytes;
  /// patch ops carry the offset.  Order on the queue == order applied,
  /// which is what makes a queued patch meaningful: by the time it runs,
  /// every byte it overwrites has already reached the inner sink.
  struct Op {
    enum class Kind { kWrite, kPatch } kind = Kind::kWrite;
    std::size_t offset = 0;  // patch only
    std::vector<std::uint8_t> bytes;
  };

  explicit Impl(ByteSink& inner, const Options& opt)
      : inner(inner),
        chunk_bytes(std::max<std::size_t>(1, opt.chunk_bytes)),
        queue(opt.queue_depth) {
    pending.reserve(chunk_bytes);
    worker = std::thread([this] { drain_(); });
  }

  ~Impl() {
    try {
      flush_pending_();  // best effort; a drain error is already lost
    } catch (...) {
    }
    queue.close();
    if (worker.joinable()) worker.join();
  }

  void enqueue_(Op op) {
    rethrow_();
    ++enqueued;
    if (!queue.push(std::move(op))) {
      // Closed mid-run: only happens after a drain error set `error`.
      --enqueued;
      rethrow_();
      throw std::logic_error("AsyncSink: sink already shut down");
    }
  }

  void flush_pending_() {
    if (pending.empty()) return;
    Op op;
    op.kind = Op::Kind::kWrite;
    op.bytes = std::move(pending);
    pending = {};
    pending.reserve(chunk_bytes);
    enqueue_(std::move(op));
  }

  /// Wait until applied == enqueued, then surface any drain error.
  void barrier_() {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cv.wait(lk, [&] {
      return applied.load(std::memory_order_acquire) ==
             enqueued;
    });
    lk.unlock();
    rethrow_();
  }

  void rethrow_() {
    if (!error_set.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lk(error_mu);
    if (error) std::rethrow_exception(error);
  }

  void drain_() {
    Op op;
    while (queue.pop(op)) {
      if (!error_set.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        try {
          if (op.kind == Op::Kind::kWrite) {
            inner.write(op.bytes);
          } else {
            inner.patch(op.offset, op.bytes);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lk(error_mu);
            error = std::current_exception();
          }
          error_set.store(true, std::memory_order_release);
          // Keep draining (dropping ops) so a blocked writer wakes up
          // and sees the error instead of deadlocking on a full queue.
        }
        apply_ns_total += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      {
        std::lock_guard<std::mutex> lk(done_mu);
        applied.fetch_add(1, std::memory_order_release);
      }
      done_cv.notify_all();
    }
  }

  ByteSink& inner;
  const std::size_t chunk_bytes;
  BoundedQueue<Op> queue;
  std::vector<std::uint8_t> pending;  // writer-side coalescing buffer
  std::size_t enqueued = 0;           // writer thread only
  std::atomic<std::size_t> applied{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex error_mu;
  std::exception_ptr error;
  std::atomic<bool> error_set{false};
  std::uint64_t apply_ns_total = 0;  // drain thread; read after flush()
  std::thread worker;
};

AsyncSink::AsyncSink(ByteSink& inner) : AsyncSink(inner, Options{}) {}

AsyncSink::AsyncSink(ByteSink& inner, const Options& opt)
    : impl_(std::make_unique<Impl>(inner, opt)) {}

AsyncSink::~AsyncSink() = default;

void AsyncSink::write(std::span<const std::uint8_t> bytes) {
  impl_->rethrow_();
  impl_->pending.insert(impl_->pending.end(), bytes.begin(), bytes.end());
  if (impl_->pending.size() >= impl_->chunk_bytes) impl_->flush_pending_();
}

bool AsyncSink::can_patch() const { return impl_->inner.can_patch(); }

void AsyncSink::patch(std::size_t offset,
                      std::span<const std::uint8_t> bytes) {
  // Flush the coalescing buffer first so the patch lands after the
  // bytes it targets, exactly as it would on the inner sink directly.
  impl_->flush_pending_();
  Impl::Op op;
  op.kind = Impl::Op::Kind::kPatch;
  op.offset = offset;
  op.bytes.assign(bytes.begin(), bytes.end());
  impl_->enqueue_(std::move(op));
}

void AsyncSink::flush() {
  impl_->flush_pending_();
  impl_->barrier_();
}

std::uint64_t AsyncSink::backpressure_wait_ns() const {
  return impl_->queue.producer_wait_ns();
}

std::uint64_t AsyncSink::idle_wait_ns() const {
  return impl_->queue.consumer_wait_ns();
}

std::uint64_t AsyncSink::apply_ns() const { return impl_->apply_ns_total; }

std::size_t SpanSource::read(std::span<std::uint8_t> out) {
  const std::size_t n = std::min(out.size(), data_.size() - pos_);
  if (n > 0) std::memcpy(out.data(), data_.data() + pos_, n);
  pos_ += n;
  return n;
}

std::size_t IstreamSource::read(std::span<std::uint8_t> out) {
  is_.read(reinterpret_cast<char*>(out.data()),
           static_cast<std::streamsize>(out.size()));
  return static_cast<std::size_t>(is_.gcount());
}

// ---- StreamWriter -------------------------------------------------------

namespace {

/// Blocks per batch: enough to occupy every worker, capped so the raw
/// staging buffer stays a few MB however large the blocks are.
std::size_t auto_batch_blocks(const BlockSpec& spec, int num_threads) {
  const std::size_t bs = std::max<std::size_t>(1, spec.block_size());
  const std::size_t want = std::max<std::size_t>(
      64, 16 * static_cast<std::size_t>(num_threads));
  const std::size_t mem_cap =
      std::max<std::size_t>(1, (std::size_t{8} << 20) / (bs * sizeof(double)));
  return std::min(want, mem_cap);
}

/// Batch-pipeline telemetry (obs/metric_names.h).  One update per batch,
/// not per block, so the cost is invisible next to the encode itself.
struct StreamMetrics {
  obs::Histogram encode_batch_ns =
      obs::registry().histogram(obs::kStreamEncodeBatchNs);
  obs::Histogram decode_batch_ns =
      obs::registry().histogram(obs::kStreamDecodeBatchNs);
  obs::Histogram encode_batch_blocks =
      obs::registry().histogram(obs::kStreamEncodeBatchBlocks);
  obs::Histogram decode_batch_blocks =
      obs::registry().histogram(obs::kStreamDecodeBatchBlocks);
  obs::Counter raw_bytes_in = obs::registry().counter(obs::kStreamRawBytesIn);
  obs::Counter compressed_bytes_out =
      obs::registry().counter(obs::kStreamCompressedBytesOut);
  obs::Counter compressed_bytes_in =
      obs::registry().counter(obs::kStreamCompressedBytesIn);
  obs::Counter raw_bytes_out =
      obs::registry().counter(obs::kStreamRawBytesOut);
  obs::Gauge compression_ratio =
      obs::registry().gauge(obs::kStreamCompressionRatio);
};

const StreamMetrics& stream_metrics() {
  static const StreamMetrics m;
  return m;
}

/// Add the per-block counters produced by compress_block (the size
/// totals are maintained by the writer itself).
void merge_block_stats(Stats& into, const Stats& from) {
  into.pattern_bits += from.pattern_bits;
  into.scale_bits += from.scale_bits;
  into.ecq_bits += from.ecq_bits;
  into.header_bits += from.header_bits;
  into.sparse_blocks += from.sparse_blocks;
  into.num_outliers += from.num_outliers;
  for (int t = 0; t < 4; ++t) into.blocks_by_type[t] += from.blocks_by_type[t];
}

}  // namespace

StreamWriter::StreamWriter(ByteSink& sink, const BlockSpec& spec,
                           const Params& params,
                           const StreamWriterOptions& opt)
    : sink_(sink),
      spec_(spec),
      params_(params),
      expected_blocks_(opt.expected_blocks) {
  spec_.validate();
  params_.validate();
  patch_header_ = expected_blocks_ == kUnknownBlockCount;
  if (patch_header_ && !sink_.can_patch()) {
    throw std::logic_error(
        "StreamWriter: sink cannot patch the header; declare "
        "expected_blocks up-front for non-seekable sinks");
  }
  const int nthreads = resolve_threads(params_.num_threads);
  batch_capacity_ =
      opt.batch_blocks ? opt.batch_blocks : auto_batch_blocks(spec_, nthreads);
  batch_.resize(batch_capacity_ * spec_.block_size());

  bitio::BitWriter w;
  detail::write_global_header(w, spec_, params_,
                              patch_header_ ? 0 : expected_blocks_);
  const auto header = w.take();
  sink_.write(header);
  bytes_emitted_ = header.size();
  stats_.header_bits = 8 * header.size();
}

StreamWriter::StreamWriter(ByteSink& sink, const StreamInfo& info,
                           const Params& params, const BlockIndex& index,
                           const StreamWriterOptions& opt)
    : sink_(sink), spec_(info.spec), params_(params) {
  spec_.validate();
  params_.validate();
  if (info.version < kStreamVersionIndexed) {
    throw std::runtime_error(
        "StreamWriter: cannot append to an unindexed (v2) container");
  }
  if (params_.error_bound != info.error_bound ||
      params_.bound_mode != info.bound_mode ||
      params_.metric != info.metric || params_.tree != info.tree) {
    throw std::invalid_argument(
        "StreamWriter: append params disagree with the container header");
  }
  if (index.num_blocks() != info.num_blocks) {
    throw std::runtime_error(
        "StreamWriter: index block count disagrees with the header");
  }
  if (!sink_.can_patch()) {
    throw std::logic_error(
        "StreamWriter: appending requires a patchable sink (the header "
        "block count changes at finish)");
  }
  expected_blocks_ = kUnknownBlockCount;
  patch_header_ = true;
  resumed_blocks_ = index.num_blocks();
  sizes_.reserve(resumed_blocks_);
  for (std::size_t b = 0; b < resumed_blocks_; ++b) {
    sizes_.push_back(index.extent(b).length);
  }
  bytes_emitted_ = index.num_blocks() == 0 ? detail::kGlobalHeaderBytes
                                           : index.payload_end();
  const int nthreads = resolve_threads(params_.num_threads);
  batch_capacity_ =
      opt.batch_blocks ? opt.batch_blocks : auto_batch_blocks(spec_, nthreads);
  batch_.resize(batch_capacity_ * spec_.block_size());
  stats_.num_blocks = resumed_blocks_;
}

StreamWriter::~StreamWriter() = default;

std::size_t StreamWriter::blocks_appended() const {
  return sizes_.size() + batch_count_;
}

void StreamWriter::put_block(std::span<const double> block) {
  if (finished_) {
    throw std::logic_error("StreamWriter: put after finish()");
  }
  const std::size_t bs = spec_.block_size();
  if (block.size() != bs) {
    throw std::invalid_argument("StreamWriter: block size mismatch");
  }
  std::memcpy(batch_.data() + batch_count_ * bs, block.data(),
              bs * sizeof(double));
  ++batch_count_;
  stats_.input_bytes += bs * sizeof(double);
  stats_.num_blocks = sizes_.size() + batch_count_;
  if (batch_count_ == batch_capacity_) flush_batch_();
}

void StreamWriter::put_values(std::span<const double> values) {
  const std::size_t bs = spec_.block_size();
  if (!tail_.empty()) {
    const std::size_t take = std::min(bs - tail_.size(), values.size());
    tail_.insert(tail_.end(), values.begin(), values.begin() + take);
    values = values.subspan(take);
    if (tail_.size() == bs) {
      put_block(tail_);
      tail_.clear();
    }
  }
  while (values.size() >= bs) {
    put_block(values.first(bs));
    values = values.subspan(bs);
  }
  if (!values.empty()) {
    if (finished_) throw std::logic_error("StreamWriter: put after finish()");
    tail_.assign(values.begin(), values.end());
  }
}

void StreamWriter::flush_batch_() {
  const std::size_t n = batch_count_;
  if (n == 0) return;
  const StreamMetrics& metrics = stream_metrics();
  obs::ScopedTimer batch_timer(metrics.encode_batch_ns);
  metrics.encode_batch_blocks.record(n);
  const std::size_t bs = spec_.block_size();
  const int nthreads = resolve_threads(params_.num_threads);

  // Workers encode the staged blocks independently into their own
  // workspace (bit staging + payload arena, reused batch to batch); the
  // serializer below then writes them in append order, so the container
  // bytes cannot depend on scheduling.  Any worker may draw a whole
  // batch (a batch is often a single dynamic chunk), so every slot is
  // sized for the spec before its first block: a worker that sat out the
  // early batches must not allocate when it finally gets one.
  const bool first_flush = workspaces_.empty();
  if (workspaces_.size() < static_cast<std::size_t>(nthreads)) {
    workspaces_.resize(static_cast<std::size_t>(nthreads));
    for (CodecWorkspace& ws : workspaces_) ws.reserve(spec_);
  }
  for (int t = 0; t < nthreads; ++t) {
    workspaces_[t].arena.clear();   // capacity retained
    workspaces_[t].stats = Stats{};  // merged into stats_ after the join
  }
  refs_.resize(n);
  parallel_for(n, nthreads, 16, [&](int tid, std::size_t b) {
    CodecWorkspace& ws = workspaces_[static_cast<std::size_t>(tid)];
    ws.writer.restart();
    compress_block(std::span<const double>(batch_).subspan(b * bs, bs),
                   spec_, params_, ws.writer, &ws.stats, ws);
    const auto payload = ws.writer.finish_view();
    refs_[b] = {static_cast<std::size_t>(tid), ws.arena.size(),
                payload.size()};
    ws.arena.insert(ws.arena.end(), payload.begin(), payload.end());
  });
  for (int t = 0; t < nthreads; ++t) {
    merge_block_stats(stats_, workspaces_[t].stats);
  }
  if (first_flush) {
    // Room for a whole batch's payloads in every arena, for the same
    // reason: steady-state batches then reuse this capacity.
    std::size_t batch_payload = 0;
    for (std::size_t b = 0; b < n; ++b) batch_payload += refs_[b].len;
    for (CodecWorkspace& ws : workspaces_) ws.arena.reserve(batch_payload);
  }

  std::size_t emitted = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const PayloadRef& ref = refs_[b];
    const auto payload = std::span<const std::uint8_t>(
        workspaces_[ref.tid].arena).subspan(ref.off, ref.len);
    std::uint8_t varint[10];
    std::size_t width = 0;
    std::uint64_t v = payload.size();
    while (v >= 0x80) {
      varint[width++] = static_cast<std::uint8_t>((v & 0x7F) | 0x80);
      v >>= 7;
    }
    varint[width++] = static_cast<std::uint8_t>(v);
    sink_.write({varint, width});
    sink_.write(payload);
    sizes_.push_back(payload.size());
    bytes_emitted_ += width + payload.size();
    emitted += width + payload.size();
    stats_.header_bits += 8 * width;
  }
  batch_count_ = 0;
  metrics.raw_bytes_in.add(n * bs * sizeof(double));
  metrics.compressed_bytes_out.add(emitted);
  if (bytes_emitted_ > 0) {
    metrics.compression_ratio.set(
        static_cast<double>(stats_.input_bytes) /
        static_cast<double>(bytes_emitted_));
  }
}

std::size_t StreamWriter::finish() {
  if (finished_) throw std::logic_error("StreamWriter: already finished");
  if (!tail_.empty()) {
    throw std::invalid_argument(
        "PaSTRI: data size is not a whole number of blocks");
  }
  flush_batch_();
  const std::uint64_t num_blocks = sizes_.size();
  if (expected_blocks_ != kUnknownBlockCount &&
      num_blocks != expected_blocks_) {
    throw std::runtime_error(
        "StreamWriter: appended block count differs from expected_blocks");
  }

  const BlockIndex index =
      BlockIndex::from_payload_sizes(detail::kGlobalHeaderBytes, sizes_);
  const std::size_t index_offset = bytes_emitted_;
  bitio::BitWriter w;
  index.serialize(w);
  detail::write_index_footer(w, {index_offset, num_blocks});
  const auto tail = w.take();
  sink_.write(tail);
  bytes_emitted_ += tail.size();
  stats_.header_bits += 8 * tail.size();

  // Back-fill the header block count if it was not known up-front (a
  // fresh count of zero, or an unchanged resumed count, needs no patch).
  const std::uint64_t header_field =
      patch_header_ ? resumed_blocks_ : expected_blocks_;
  if (num_blocks != header_field) {
    std::uint8_t le[8];
    std::memcpy(le, &num_blocks, 8);  // little-endian hosts only
    sink_.patch(detail::kHeaderNumBlocksOffset, le);
  }
  finished_ = true;
  stats_.num_blocks = num_blocks;
  stats_.output_bytes = bytes_emitted_;
  return bytes_emitted_;
}

// ---- StreamConsumer -----------------------------------------------------

StreamConsumer::StreamConsumer(ByteSource& source,
                               const StreamConsumerOptions& opt)
    : source_(source) {
  const std::size_t chunk =
      opt.chunk_bytes ? opt.chunk_bytes : (std::size_t{1} << 20);
  buf_.resize(std::max<std::size_t>(chunk, detail::kGlobalHeaderBytes));
  ensure_(detail::kGlobalHeaderBytes);
  bitio::BitReader r(
      std::span<const std::uint8_t>(buf_).subspan(
          pos_, detail::kGlobalHeaderBytes));
  info_ = detail::read_global_header(r);
  pos_ += detail::kGlobalHeaderBytes;
  params_ = info_.to_params();
  params_.num_threads = opt.num_threads;
  remaining_ = info_.num_blocks;

  const int nthreads = resolve_threads(params_.num_threads);
  batch_blocks_ = opt.batch_blocks
                      ? opt.batch_blocks
                      : auto_batch_blocks(info_.spec, nthreads);
  // Sanity cap on a single payload's declared length: a larger length
  // varint is corruption, not data -- reject before allocating buffer
  // space for it.
  max_payload_ = detail::max_block_payload_bytes(info_.spec);
}

void StreamConsumer::refill_() {
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == buf_.size()) return;
  const std::size_t got =
      source_.read(std::span<std::uint8_t>(buf_).subspan(end_));
  if (got == 0) {
    eof_ = true;
    return;
  }
  end_ += got;
}

void StreamConsumer::ensure_(std::size_t n) {
  if (n > buf_.size()) {
    // One payload larger than the read chunk: compact, then grow.
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    buf_.resize(n);
  }
  while (end_ - pos_ < n && !eof_) refill_();
  if (end_ - pos_ < n) {
    throw std::runtime_error("PaSTRI: truncated stream");
  }
}

std::size_t StreamConsumer::decode_batch_(std::span<double> out,
                                          std::size_t max_blocks) {
  const StreamMetrics& metrics = stream_metrics();
  obs::ScopedTimer batch_timer(metrics.decode_batch_ns);
  // Gather whole payloads into the buffer without consuming them, so the
  // batch can be decoded in parallel straight out of the buffer.  All
  // offsets are relative to pos_, which refill_/ensure_ preserve.
  extents_.clear();  // capacity retained batch to batch
  std::size_t cur = 0;
  while (extents_.size() < max_blocks) {
    std::uint64_t len = 0;
    unsigned shift = 0;
    std::size_t i = 0;
    for (;;) {
      ensure_(cur + i + 1);
      const std::uint8_t byte = buf_[pos_ + cur + i];
      ++i;
      len |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("PaSTRI: corrupt block length");
      }
    }
    if (len > max_payload_) {
      throw std::runtime_error("PaSTRI: corrupt block length");
    }
    ensure_(cur + i + static_cast<std::size_t>(len));
    extents_.push_back({cur + i, static_cast<std::size_t>(len)});
    cur += i + static_cast<std::size_t>(len);
  }

  const std::size_t bs = info_.spec.block_size();
  const std::size_t n = extents_.size();
  const int nthreads = resolve_threads(params_.num_threads);
  if (workspaces_.size() < static_cast<std::size_t>(nthreads)) {
    workspaces_.resize(static_cast<std::size_t>(nthreads));
  }

  parallel_for(n, nthreads, 16, [&](int tid, std::size_t b) {
    const Extent& e = extents_[b];
    bitio::BitReader r(
        std::span<const std::uint8_t>(buf_).subspan(pos_ + e.off, e.len));
    decompress_block(r, info_.spec, params_, out.subspan(b * bs, bs),
                     workspaces_[static_cast<std::size_t>(tid)]);
  });
  pos_ += cur;
  remaining_ -= n;
  metrics.decode_batch_blocks.record(n);
  metrics.compressed_bytes_in.add(cur);
  metrics.raw_bytes_out.add(n * bs * sizeof(double));
  return n;
}

std::size_t StreamConsumer::read_blocks(std::span<double> out) {
  const std::size_t bs = info_.spec.block_size();
  const std::size_t want = std::min(out.size() / bs, remaining_);
  std::size_t done = 0;
  while (done < want) {
    done += decode_batch_(out.subspan(done * bs),
                          std::min(batch_blocks_, want - done));
  }
  return done;
}

std::size_t StreamConsumer::read_values(std::span<double> out) {
  const std::size_t bs = info_.spec.block_size();
  std::size_t written = 0;
  if (carry_pos_ < carry_.size()) {
    const std::size_t take =
        std::min(out.size(), carry_.size() - carry_pos_);
    std::memcpy(out.data(), carry_.data() + carry_pos_,
                take * sizeof(double));
    carry_pos_ += take;
    written += take;
  }
  const std::size_t aligned = ((out.size() - written) / bs) * bs;
  if (aligned > 0 && remaining_ > 0) {
    written += bs * read_blocks(out.subspan(written, aligned));
  }
  if (written < out.size() && remaining_ > 0) {
    carry_.resize(bs);
    carry_pos_ = 0;
    read_blocks(carry_);
    const std::size_t take = out.size() - written;
    std::memcpy(out.data() + written, carry_.data(),
                take * sizeof(double));
    carry_pos_ = take;
    written += take;
  }
  return written;
}

// ---- Buffer-at-once wrappers -------------------------------------------

StreamCompressor::StreamCompressor(const BlockSpec& spec,
                                   const Params& params)
    : spec_(spec), params_(params) {
  spec_.validate();
  params_.validate();
}

StreamCompressor::~StreamCompressor() = default;

void StreamCompressor::ensure_writer_() {
  if (writer_) return;
  sink_ = std::make_unique<VectorSink>();
  writer_ = std::make_unique<StreamWriter>(*sink_, spec_, params_);
  stats_ = Stats{};
}

void StreamCompressor::append_block(std::span<const double> block) {
  ensure_writer_();
  writer_->put_block(block);
}

std::size_t StreamCompressor::blocks_appended() const {
  return writer_ ? writer_->blocks_appended() : 0;
}

const Stats& StreamCompressor::stats() const {
  return writer_ ? writer_->stats() : stats_;
}

std::vector<std::uint8_t> StreamCompressor::finish() {
  ensure_writer_();
  writer_->finish();
  stats_ = writer_->stats();
  writer_.reset();
  auto out = sink_->take();
  sink_.reset();
  return out;
}

StreamDecompressor::StreamDecompressor(std::span<const std::uint8_t> stream)
    : source_(std::make_unique<SpanSource>(stream)), consumer_(*source_) {}

bool StreamDecompressor::next_block(std::span<double> out) {
  if (out.size() != consumer_.info().spec.block_size()) {
    throw std::invalid_argument("StreamDecompressor: block size mismatch");
  }
  if (consumer_.blocks_remaining() == 0) return false;
  return consumer_.read_blocks(out) == 1;
}

}  // namespace pastri
