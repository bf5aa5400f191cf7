// bench_storage_breakdown - Reproduces the Section V-B storage analysis:
// "PQ and SQ constitute around 20-30% of PaSTRI's output data size,
// whereas ECQ constitutes around 70-80%. A tiny portion, typically less
// than 0.5%, consists of other bookkeeping bits."
#include "bench_common.h"

using namespace pastri;

int main() {
  bench::print_header("Storage breakdown of PaSTRI output",
                      "Section V-B (PQ/SQ vs ECQ vs bookkeeping)");

  std::printf("%-22s %8s %8s %8s %8s %10s\n", "dataset", "PQ %",
              "SQ %", "ECQ %", "book %", "ratio");
  Stats pooled;
  for (const auto& spec : bench::paper_datasets()) {
    const auto ds = bench::load_bench_dataset(spec);
    Params p;
    p.error_bound = 1e-10;
    Stats st;
    compress(ds.values, bench::block_spec_of(ds), p, &st);
    const double total = 8.0 * st.output_bytes;
    std::printf("%-22s %8.1f %8.1f %8.1f %8.2f %10.2f\n",
                ds.label.c_str(), 100.0 * st.pattern_bits / total,
                100.0 * st.scale_bits / total, 100.0 * st.ecq_bits / total,
                100.0 * st.header_bits / total, st.ratio());
    pooled.input_bytes += st.input_bytes;
    pooled.output_bytes += st.output_bytes;
    pooled.pattern_bits += st.pattern_bits;
    pooled.scale_bits += st.scale_bits;
    pooled.ecq_bits += st.ecq_bits;
    pooled.header_bits += st.header_bits;
  }
  const double total = 8.0 * pooled.output_bytes;
  bench::print_rule();
  std::printf("%-22s %8.1f %8.1f %8.1f %8.2f %10.2f\n", "Pooled",
              100.0 * pooled.pattern_bits / total,
              100.0 * pooled.scale_bits / total,
              100.0 * pooled.ecq_bits / total,
              100.0 * pooled.header_bits / total, pooled.ratio());
  std::printf("\npaper shape: ECQ dominates (70-80%%), PQ+SQ 20-30%%, "
              "bookkeeping well under 1%%.\n");
  std::printf("note: per-block varint length fields count as "
              "bookkeeping here.\n");
  return 0;
}
