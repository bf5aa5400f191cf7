// bench_pipeline.cpp - The fused compute->compress->io pipeline,
// measured end to end.  Grows bench_fig10's modelled parallel-filesystem
// numbers into a real multi-process dump/load experiment:
//
//   1. Single-process dump: the sequential baseline (compute, then
//      encode, then write, one stage at a time on one thread) against
//      the staged pipeline (producer thread + async io drain), with the
//      shard files compared byte for byte -- the pipeline knobs must
//      never change the bytes.  Stage busy/stall times and the overlap
//      efficiency go on the record, so a single-core host that cannot
//      show real overlap is visible as such rather than flattering.
//
//   2. Multi-process file-per-process dump/load (the paper's Bebop
//      experiment, for real): spawn one rank per shard -- this binary
//      re-executed with `--rank R --ranks N`, so each rank starts a
//      clean process (and thread pool) like an MPI rank -- each rank
//      plans the same deterministic dataset, computes exactly its
//      shard's block range with EriBlockGenerator, and streams it
//      through its own ShardWriter -- no coordination beyond the layout
//      formula.  The parent writes the manifest, byte-checks the shards
//      against the single-process dump, and times the full load back.
//
//   3. The workflow the pipeline exists for: generate -> compress ->
//      solve, running direct SCF and MP2 entirely off the compressed
//      store (run_rhf_from_store + run_mp2_from_store) and comparing
//      against the dense-tensor reference energies.
//
// Emits BENCH_pipeline.json at the repo root; --smoke shrinks the run
// for CI.  The exit status is nonzero when any byte comparison fails:
// pipelined vs sequential, or a multi-process dump vs the in-process one.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "io/compressed_file.h"
#include "qc/direct_scf.h"
#include "qc/eri_pipeline.h"
#include "qc/mp2.h"
#include "qc/sto3g.h"

namespace {

using namespace pastri;

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>());
}

bool same_shard_files(const std::string& dir, const std::string& a,
                      const std::string& b, int shards) {
  for (int s = 0; s < shards; ++s) {
    const std::string suffix = "." + std::to_string(s);
    if (slurp(dir + "/" + a + suffix) != slurp(dir + "/" + b + suffix))
      return false;
  }
  return true;
}

struct DumpTimings {
  double seq_s = 0.0;
  double pipe_s = 0.0;
  qc::EriPipelineResult pipe;
};

/// One dataset dumped both ways, byte-checked, best-of-N timed.
DumpTimings time_dump(const qc::Molecule& mol, const qc::DatasetOptions& opt,
                      const Params& p, const std::string& dir, int shards,
                      int reps) {
  DumpTimings t;
  qc::EriDumpOptions dopt;
  dopt.num_shards = shards;

  qc::EriPipelineOptions seq;
  seq.pipelined = false;
  seq.async_io = false;
  t.seq_s = bench::best_time_seconds(
      [&] { qc::dump_eri_sharded(mol, opt, p, dir, "seq", dopt, seq); },
      reps);

  qc::EriPipelineOptions pipe;  // defaults: producer thread + async io
  t.pipe_s = bench::best_time_seconds(
      [&] {
        t.pipe = qc::dump_eri_sharded(mol, opt, p, dir, "pipe", dopt, pipe)
                     .pipeline;
      },
      reps);
  return t;
}

const char* const kDir = "/tmp/pastri_bench_pipeline";

/// The dumped dataset; a pure function of the mode, so the parent and
/// every re-executed rank plan the identical blocks.
qc::DatasetOptions dump_options(bool smoke) {
  qc::DatasetOptions opt;
  opt.config = qc::parse_config("(dd|dd)");
  opt.max_blocks = smoke ? 64 : 512;
  opt.seed = 20180901;
  return opt;
}

/// Rank body for the file-per-process dump: compute and stream exactly
/// shard `rank`'s block range, then exit.  Everything is re-planned from
/// (mol, opt) inside the rank process -- no shared state with the
/// parent, exactly like an MPI rank on its own node.
int run_rank(const qc::Molecule& mol, const qc::DatasetOptions& opt,
             const Params& p, const std::string& dir,
             const std::string& basename, int rank, int shards) {
  try {
    const qc::EriBlockGenerator gen(mol, opt);
    const qc::EriStreamMeta& meta = gen.meta();
    const io::ShardLayout layout =
        io::make_shard_layout(meta.num_blocks, shards);
    const std::size_t first = io::shard_first_block(layout, rank);
    const std::size_t count = layout.blocks_per_shard[rank];
    const std::size_t bs = meta.shape.block_size();
    const BlockSpec spec{meta.shape.num_sub_blocks(),
                         meta.shape.sub_block_size()};
    io::ShardWriter writer(dir, basename, rank, spec, p, count);
    std::vector<double> chunk;
    const std::size_t batch = 16;
    for (std::size_t b = 0; b < count; b += batch) {
      const std::size_t n = std::min(batch, count - b);
      chunk.resize(n * bs);
      gen.compute_range(first + b, n, chunk);
      writer.put_values(chunk);
    }
    writer.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank %d failed: %s\n", rank, e.what());
    return 1;
  }
}

/// Spawn `ranks` processes (one shard each), each this binary re-run
/// with `--rank R --ranks N --base NAME`, wait for all, write the
/// manifest.  A rank never inherits the parent's threads: a fork()ed
/// child of a process whose parallel_for pool has started would wait
/// forever for helpers that fork did not copy.  Returns wall seconds, or
/// a negative value on failure.
double multiprocess_dump(const std::string& basename,
                         const qc::EriStreamMeta& meta, int ranks,
                         bool smoke) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (int r = 0; r < ranks; ++r) {
    std::vector<std::string> args = {"bench_pipeline", "--rank",
                                     std::to_string(r), "--ranks",
                                     std::to_string(ranks), "--base",
                                     basename};
    if (smoke) args.push_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      break;
    }
    pids.push_back(pid);
  }
  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!ok || static_cast<int>(pids.size()) != ranks) return -1.0;
  io::write_dataset_manifest(kDir, basename, meta.label, meta.shape,
                             meta.num_blocks,
                             io::make_shard_layout(meta.num_blocks, ranks));
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::quick_mode();
  int rank = -1, rank_count = 0;
  std::string rank_base;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--rank") == 0 && has_value) {
      rank = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ranks") == 0 && has_value) {
      rank_count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--base") == 0 && has_value) {
      rank_base = argv[++i];
    }
  }
  const qc::Molecule mol = qc::make_molecule("benzene");
  const qc::DatasetOptions opt = dump_options(smoke);
  const Params p;
  if (rank >= 0) {
    if (rank >= rank_count || rank_base.empty()) {
      std::fprintf(stderr, "usage: bench_pipeline [--smoke] "
                           "[--rank R --ranks N --base NAME]\n");
      return 2;
    }
    return run_rank(mol, opt, p, kDir, rank_base, rank, rank_count);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  bench::print_header(
      "Fused compute->compress->io pipeline (dump/load, multi-process)",
      "CLUSTER'18 Bebop file-per-process experiment; arXiv:2303.13632 "
      "fused datapath");
  std::printf("host hardware_concurrency: %u%s\n\n", hw,
              hw <= 1 ? "  (single core: no parallel speedup possible; "
                        "stage overlap reported honestly)"
                      : "");

  const std::string dir = kDir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const int reps = smoke ? 1 : 3;
  const int shards = 4;

  // -- 1. sequential vs pipelined single-process dump ------------------
  const DumpTimings t = time_dump(mol, opt, p, dir, shards, reps);
  const bool identical = same_shard_files(dir, "seq", "pipe", shards);
  const double speedup = t.pipe_s > 0 ? t.seq_s / t.pipe_s : 0.0;
  std::printf("single-process dump, %zu blocks, %d shards\n",
              t.pipe.meta.num_blocks, shards);
  std::printf("  sequential  %8.3f s\n", t.seq_s);
  std::printf("  pipelined   %8.3f s   (%.2fx, bytes %s)\n", t.pipe_s,
              speedup, identical ? "identical" : "DIFFER");
  std::printf("  stage busy  compute %.3f / encode %.3f / io %.3f s\n",
              t.pipe.compute_ns / 1e9, t.pipe.encode_ns / 1e9,
              t.pipe.io_ns / 1e9);
  std::printf("  stalls      compute %.3f / encode %.3f / io %.3f s\n",
              t.pipe.compute_stall_ns / 1e9, t.pipe.encode_stall_ns / 1e9,
              t.pipe.io_stall_ns / 1e9);
  std::printf("  overlap efficiency %.0f%%\n\n",
              100.0 * t.pipe.overlap_efficiency);

  // -- 2. file-per-process dump + load (one process per rank) ----------
  const qc::EriBlockGenerator gen(mol, opt);
  const qc::EriStreamMeta meta = gen.meta();
  struct MpRow {
    int ranks;
    double dump_s, load_s;
    bool identical;
  };
  std::vector<MpRow> mp;
  std::printf("file-per-process dump/load (one process per rank)\n");
  bool all_identical = identical;
  for (const int ranks : {1, 2, 4}) {
    const std::string base = "mp" + std::to_string(ranks);
    const double dump_s = multiprocess_dump(base, meta, ranks, smoke);
    if (dump_s < 0) {
      std::fprintf(stderr, "multi-process dump failed at %d ranks\n", ranks);
      return 1;
    }
    qc::EriDataset back;
    const double load_s = bench::best_time_seconds(
        [&] { back = io::read_compressed_dataset(dir, base); }, reps);
    // Ranks must reproduce the exact bytes of the in-process dump with
    // the same shard count (deterministic plan + layout formula).
    bool same = true;
    if (ranks == shards) same = same_shard_files(dir, base, "pipe", shards);
    mp.push_back({ranks, dump_s, load_s, same});
    all_identical = all_identical && same;
    const double mb =
        static_cast<double>(meta.num_blocks * meta.shape.block_size() *
                            sizeof(double)) /
        1e6;
    std::printf("  %d ranks: dump %7.3f s, load %7.3f s (%.1f MB raw%s)\n",
                ranks, dump_s, load_s, mb,
                same ? "" : ", bytes DIFFER from in-process dump");
  }
  std::printf("\n");

  // -- 3. generate -> compress -> solve off the stream -----------------
  qc::Molecule h2o;
  h2o.name = "H2O";
  h2o.atoms = {{"O", 8, {0, 0, 0}},
               {"H", 1, {0, 1.4305, 1.1093}},
               {"H", 1, {0, -1.4305, 1.1093}}};
  const qc::BasisSet basis = qc::make_sto3g_basis(h2o);
  const qc::EriTensor exact = qc::compute_eri_tensor(basis);
  const qc::ScfResult ref_scf = qc::run_rhf(h2o, basis, exact);
  const qc::Mp2Result ref_mp2 = qc::run_mp2(h2o, basis, exact, ref_scf);

  Params sp;
  sp.error_bound = 1e-10;
  const qc::CompressedEriStore store(basis, sp);
  qc::ScfResult scf;
  const double scf_s = bench::time_seconds(
      [&] { scf = qc::run_rhf_from_store(h2o, basis, store); });
  qc::Mp2Result mp2;
  const double mp2_s = bench::time_seconds(
      [&] { mp2 = qc::run_mp2_from_store(h2o, basis, store, scf); });
  std::printf("solve off the compressed store (H2O/STO-3G, EB=1e-10)\n");
  std::printf("  SCF  %7.3f s  E = %+.10f  (dense %+.10f)\n", scf_s,
              scf.total_energy, ref_scf.total_energy);
  std::printf("  MP2  %7.3f s  E = %+.10f  (dense %+.10f)\n", mp2_s,
              mp2.total_energy, ref_mp2.total_energy);

  // -- artifact --------------------------------------------------------
  // Smoke runs (CI, `ctest -L Perf`) keep the checked-in default-mode
  // numbers intact.
  const std::string out = bench::artifact_path("BENCH_pipeline.json");
  std::FILE* f = smoke ? nullptr : std::fopen(out.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n  \"mode\": \"%s\",\n",
                 smoke ? "smoke" : "default");
    std::fprintf(f, "  \"host\": {\"hardware_concurrency\": %u},\n", hw);
    if (hw <= 1) {
      std::fprintf(
          f,
          "  \"note\": \"single-core host: the producer/encoder/io "
          "threads time-slice one core, so pipelined wall time cannot "
          "beat sequential here; byte identity and stage accounting are "
          "the meaningful results\",\n");
    }
    std::fprintf(f,
                 "  \"dump\": {\"blocks\": %zu, \"shards\": %d, "
                 "\"sequential_s\": %.4f, \"pipelined_s\": %.4f, "
                 "\"speedup\": %.3f, \"bytes_identical\": %s,\n",
                 t.pipe.meta.num_blocks, shards, t.seq_s, t.pipe_s, speedup,
                 identical ? "true" : "false");
    std::fprintf(f,
                 "           \"compute_s\": %.4f, \"encode_s\": %.4f, "
                 "\"io_s\": %.4f, \"compute_stall_s\": %.4f, "
                 "\"encode_stall_s\": %.4f, \"io_stall_s\": %.4f, "
                 "\"overlap_efficiency\": %.3f},\n",
                 t.pipe.compute_ns / 1e9, t.pipe.encode_ns / 1e9,
                 t.pipe.io_ns / 1e9, t.pipe.compute_stall_ns / 1e9,
                 t.pipe.encode_stall_ns / 1e9, t.pipe.io_stall_ns / 1e9,
                 t.pipe.overlap_efficiency);
    std::fprintf(f, "  \"file_per_process\": [\n");
    for (std::size_t i = 0; i < mp.size(); ++i) {
      std::fprintf(f,
                   "    {\"ranks\": %d, \"dump_s\": %.4f, \"load_s\": "
                   "%.4f, \"bytes_identical\": %s}%s\n",
                   mp[i].ranks, mp[i].dump_s, mp[i].load_s,
                   mp[i].identical ? "true" : "false",
                   i + 1 < mp.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"solve_from_store\": {\"scf_s\": %.4f, \"mp2_s\": "
                 "%.4f, \"scf_energy\": %.10f, \"mp2_total_energy\": "
                 "%.10f, \"dense_scf_energy\": %.10f, "
                 "\"dense_mp2_total_energy\": %.10f}\n}\n",
                 scf_s, mp2_s, scf.total_energy, mp2.total_energy,
                 ref_scf.total_energy, ref_mp2.total_energy);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
  }

  std::filesystem::remove_all(dir);
  // Every byte comparison above gates the exit status: pipelined vs
  // sequential, and each multi-process dump vs the in-process one.
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: shard bytes differ (see above)\n");
  }
  return all_identical ? 0 : 1;
}
