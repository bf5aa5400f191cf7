// bench_parallel_scaling - Block-level parallel scaling of PaSTRI
// (Section IV-C: "PaSTRI is highly parallelizable ... each block can be
// compressed and decompressed completely independent from each other").
// Sweeps thread counts over both the one-shot drivers and the
// bounded-memory streaming pipeline (StreamWriter / StreamConsumer); on
// a single-core host the table shows flat times, on a multicore host
// near-linear speedup.  The streaming pipeline must stay within a few
// percent of batch -- it is the same encoder behind a chunked driver --
// and its bytes must be identical at every thread count.
//
// Results are also written to BENCH_parallel_scaling.json (one object per
// thread count) so the numbers are scriptable.
#include <fstream>

#include "bench_common.h"
#include "core/parallel.h"
#include "core/stream.h"
#include "obs/metrics.h"

using namespace pastri;

int main() {
  bench::print_header("Ablation -- block-parallel scaling",
                      "Section IV-C (parallelizability)");

  const auto ds = bench::load_bench_dataset({"glutamine", "(dd|dd)", 1500,
                                             250, 6000});
  const BlockSpec bs = bench::block_spec_of(ds);
  const double mb = static_cast<double>(ds.size_bytes()) / 1e6;
  const int hw = default_threads();
  std::printf("dataset %.1f MB; hardware threads available: %d\n\n", mb,
              hw);

  std::printf("%-9s %12s %12s %12s %12s %12s\n", "threads", "comp MB/s",
              "decomp MB/s", "strm-c MB/s", "strm-d MB/s", "obs ovh %");
  std::ofstream json(bench::artifact_path("BENCH_parallel_scaling.json"));
  json << "[\n";
  std::vector<std::uint8_t> reference;
  bool first = true;
  for (int threads : {1, 2, 4, 8}) {
    Params p;
    p.num_threads = threads;
    std::vector<std::uint8_t> stream;
    const double ct = bench::best_time_seconds(
        [&] { stream = compress(ds.values, bs, p); }, 3);

    // Same compress with the telemetry registry disabled: the delta is
    // the total cost of the always-on instrumentation (budget: < 2%,
    // DESIGN.md section 8).  Report-only -- timing noise on loaded hosts
    // must not flip a correctness bench.
    obs::registry().set_enabled(false);
    const double ct_off = bench::best_time_seconds(
        [&] { stream = compress(ds.values, bs, p); }, 3);
    obs::registry().set_enabled(true);
    const double overhead_pct = (ct - ct_off) / ct_off * 100.0;

    std::vector<double> back;
    const double dt = bench::best_time_seconds(
        [&] { back = decompress(stream, threads); }, 3);

    // Streaming pipeline, chunked on both ends (1 MiB value slices in,
    // 1 MiB compressed chunks out) -- the bounded-memory path a
    // compute -> compress producer or a pipe consumer takes.
    const std::size_t slice = (std::size_t{1} << 20) / sizeof(double);
    std::vector<std::uint8_t> streamed;
    const double sct = bench::best_time_seconds(
        [&] {
          VectorSink sink;
          StreamWriter w(sink, bs, p);
          for (std::size_t at = 0; at < ds.values.size(); at += slice) {
            const std::size_t n =
                std::min(slice, ds.values.size() - at);
            w.put_values(
                std::span<const double>(ds.values).subspan(at, n));
          }
          w.finish();
          streamed = sink.take();
        },
        3);
    std::vector<double> sback(ds.values.size());
    const double sdt = bench::best_time_seconds(
        [&] {
          SpanSource src(streamed);
          StreamConsumer c(
              src, StreamConsumerOptions{.num_threads = threads});
          std::size_t got = 0;
          while (got < sback.size()) {
            const std::size_t n = c.read_values(
                std::span<double>(sback).subspan(
                    got, std::min<std::size_t>(slice,
                                               sback.size() - got)));
            if (n == 0) break;
            got += n;
          }
        },
        3);

    std::printf("%-9d %12.1f %12.1f %12.1f %12.1f %12.2f\n", threads,
                mb / ct, mb / dt, mb / sct, mb / sdt, overhead_pct);
    if (!first) json << ",\n";
    first = false;
    json << "  {\"threads\": " << threads << ", \"compress_mbps\": "
         << mb / ct << ", \"decompress_mbps\": " << mb / dt
         << ", \"stream_compress_mbps\": " << mb / sct
         << ", \"stream_decompress_mbps\": " << mb / sdt
         << ", \"metrics_overhead_pct\": " << overhead_pct << "}";

    if (streamed != stream) {
      std::printf("ERROR: streaming bytes differ from batch!\n");
      return 1;
    }
    if (sback != back) {
      std::printf("ERROR: streaming decode differs from batch!\n");
      return 1;
    }
    if (reference.empty()) {
      reference = stream;
    } else if (stream != reference) {
      std::printf("ERROR: stream differs across thread counts!\n");
      return 1;
    }
  }
  json << "\n]\n";
  bench::print_rule();
  std::printf("compressed bytes are identical at every thread count and "
              "between the batch\nand streaming pipelines (block "
              "independence); JSON in BENCH_parallel_scaling.json.\n");
  return 0;
}
