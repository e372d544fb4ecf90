// entropydb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload against the library, checks every output, and prints
// as its last stdout line one JSON object: correct, attempted, failed and
// the metrics (end-to-end ones untraced, per-layer ones traced).
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

// Every per-layer metric BENCHMARK.json lists; a traced run prints each.
// A workload that does not run a layer reports it as 0 (e.g. server.* on
// particles-summary). flights-serve also prints its serve-only layers
// (codec, cache probe, batching, hit wait, join).
const char* const kPerLayer[][2] = {
    {"server.cache_hit_ratio", "ratio"},
    {"server.wait_us.miss", "us"},
    {"query.parse_us", "us"},
    {"engine.answer_us.count", "us"},
    {"engine.answer_us.sum", "us"},
    {"engine.answer_us.avg", "us"},
    {"engine.answer_us.quantile", "us"},
    {"engine.answer_us.topk", "us"},
    {"engine.shards_scanned", "count"},
    {"engine.shards_pruned", "count"},
    {"engine.sample_share", "ratio"},
    {"engine.merge_us", "us"},
    {"engine.open_ms", "ms"},
    {"engine.append_batch_s", "s"},
    {"engine.compaction_plan_ms", "ms"},
    {"engine.compaction_rows", "count"},
    {"maxent.eval_us", "us"},
    {"maxent.fit_s", "s"},
    {"maxent.solver_iterations", "count"},
    {"maxent.statistics", "count"},
    {"stats.pair_rank_s", "s"},
    {"stats.select_s", "s"},
    {"sampling.estimate_us", "us"},
    {"storage.csv_parse_s", "s"},
    {"storage.clone_s", "s"},
    {"storage.publish_s", "s"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"storage.syncs_per_append", "count"},
    {"storage.bytes_read_on_open", "bytes"},
    {"storage.save_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// Pins the process, and every thread it starts later, to the highest CPU
/// it may run on. On a shared VM a thread that wakes another on an idle
/// vCPU waits for the host to schedule that vCPU, a delay that follows
/// the other tenants' load rather than the program; on one CPU a wire
/// request's hops between client, session and dispatcher threads are
/// plain context switches. The library's pool still starts one thread per
/// online CPU; they share the one CPU, so parallel steps are timed as
/// their total work. Returns the CPU, or -1 if pinning failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: entropydb_perfbench --workload "
               "flights-serve|flights-ingest|particles-summary --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.process_start = perfbench::Clock::now();
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else {
      return Usage();
    }
  }
  void (*run)(const perfbench::RunOptions&, perfbench::Report*) = nullptr;
  if (workload == "flights-serve") run = perfbench::RunFlightsServe;
  if (workload == "flights-ingest") run = perfbench::RunFlightsIngest;
  if (workload == "particles-summary") run = perfbench::RunParticlesSummary;
  if (run == nullptr || argc % 2 != 1) return Usage();

  namespace fs = std::filesystem;
  // Scratch state lives in the working directory (the checkout root), one
  // fresh directory per process, removed at exit.
  opts.work_dir = (fs::absolute(".bench_run") /
                   (workload + "-" + std::to_string(::getpid())))
                      .string();
  fs::remove_all(opts.work_dir);
  fs::create_directories(opts.work_dir);
  fs::create_directories(".bench_out");
  opts.trace_path = (fs::absolute(".bench_out") /
                     ("trace-" + workload + "-seed" +
                      std::to_string(opts.seed) + ".jsonl"))
                        .string();

  perfbench::Report report;
  report.Info("cpu", PinToOneCpu());
  run(opts, &report);
  fs::remove_all(opts.work_dir);

  if (opts.trace) {
    for (const auto& m : kPerLayer) {
      if (!report.Has(m[0])) report.Set(m[0], 0.0, m[1]);
    }
  }
  std::fprintf(stderr, "info: %s\n", report.InfoJson().c_str());
  std::printf("%s\n", report.ResultJson().c_str());
  return 0;
}
