// Compaction (engine/compaction.h): append N batches to a sharded store,
// measure merged-query latency on the batch-bloated store, compact, and
// measure again — the PR 8 claim that folding the accumulated shard_b*
// batch shards back into full-size shards recovers the per-query routing
// cost, while leaving every merged answer within the 1e-9 merge bar.
// Compaction wall time is reported alongside, since the whole point of
// the LSM-style split is paying it off the query path.
//
// Before benchmarks run, a verification pass gates the PR's claims:
//   * every battery query's merged COUNT on the compacted store must be
//     within 1e-9 (relative) of the uncompacted store's answer, and
//   * the selective workload must be faster on the compacted store (it
//     fans out over FEWER shards — fewer model evaluations per query).
// --compact_out FILE writes the measurements as JSON for the CI gate
// (tools/check_perf_gate.py --compact). The bench exits non-zero if an
// enforced bar fails.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

namespace fs = std::filesystem;

constexpr size_t kBaseShards = 4;
constexpr size_t kBatches = 12;
constexpr uint32_t kDomain0 = 12;
constexpr uint32_t kDomain1 = 8;

std::shared_ptr<Table> CompactionTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {kDomain0, kDomain1};
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < sizes.size(); ++a) {
    specs.push_back(AttributeSpec{"A" + std::to_string(a),
                                  AttributeType::kInteger, sizes[a]});
  }
  TableBuilder b(Schema{std::move(specs)});
  for (size_t a = 0; a < sizes.size(); ++a) {
    b.SetDomain(static_cast<AttrId>(a), Domain::Binned(0, sizes[a], sizes[a]));
  }
  Rng rng(seed);
  std::vector<Code> row(2);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<Code>(rng.Uniform(kDomain0));
    row[1] = rng.NextBernoulli(0.7)
                 ? static_cast<Code>(row[0] % kDomain1)
                 : static_cast<Code>(rng.Uniform(kDomain1));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

/// The 1e-9 merge bar needs per-shard models that reproduce their shard
/// distributions EXACTLY (the compaction_test.cc argument): one summary
/// covering every pair cell, a solver driven far past default tolerance,
/// and no sample companions (hybrid routing to a re-drawn sample would
/// shift answers across the rebuild).
StoreOptions ShardStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 1;
  opts.total_budget = 2 * kDomain0 * kDomain1;
  opts.heuristic = SelectionHeuristic::kLargeSingleCell;
  opts.summary.solver.max_iterations = 6000;
  opts.summary.solver.tolerance = 1e-12;
  return opts;
}

std::string BatchCsv(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string csv = "A0,A1\n";
  for (size_t r = 0; r < rows; ++r) {
    const Code a = static_cast<Code>(rng.Uniform(kDomain0));
    const Code b = rng.NextBernoulli(0.7)
                       ? static_cast<Code>(a % kDomain1)
                       : static_cast<Code>(rng.Uniform(kDomain1));
    csv += std::to_string(a) + "," + std::to_string(b) + "\n";
  }
  return csv;
}

struct CompactionFixture {
  std::string dir;
  size_t base_rows = 0;
  size_t batch_rows = 0;
  // Loaded snapshots of the SAME store before/after compaction, so both
  // sides answer from identical code paths (Load + merged fan-out).
  std::shared_ptr<ShardedStore> pre;
  std::shared_ptr<ShardedStore> post;
  size_t pre_shards = 0;
  size_t post_shards = 0;
  double compact_seconds = 0.0;
  std::vector<CountingQuery> selective;

  static CompactionFixture& Get() {
    static CompactionFixture* f = [] {
      auto* fx = new CompactionFixture();
      const BenchScale scale = ReadScale();
      fx->base_rows = std::max<size_t>(60'000, scale.flights_rows / 8);
      fx->batch_rows = std::max<size_t>(2'000, fx->base_rows / 30);
      fx->dir = (fs::temp_directory_path() / "entropydb_bench_compaction")
                    .string();
      fs::remove_all(fx->dir);

      ShardedOptions sopts;
      sopts.num_shards = kBaseShards;
      sopts.scheme = PartitionScheme::kAttribute;
      sopts.partition_attr = 0;
      sopts.store = ShardStoreOptions();
      auto built =
          ShardedStore::Build(*CompactionTable(fx->base_rows, 8311), sopts);
      if (!built.ok() || !(*built)->Save(fx->dir).ok()) {
        std::fprintf(stderr, "fixture build failed\n");
        std::exit(1);
      }
      for (size_t b = 0; b < kBatches; ++b) {
        auto report = AppendBatch(fx->dir, BatchCsv(fx->batch_rows, 8400 + b),
                                  ShardStoreOptions());
        if (!report.ok()) {
          std::fprintf(stderr, "append failed: %s\n",
                       report.status().ToString().c_str());
          std::exit(1);
        }
      }
      auto pre = ShardedStore::Load(fx->dir);
      if (!pre.ok()) {
        std::fprintf(stderr, "pre load failed\n");
        std::exit(1);
      }
      fx->pre = *pre;
      fx->pre_shards = fx->pre->num_shards();

      CompactionOptions copts;
      copts.store = ShardStoreOptions();
      copts.max_batch_shards = 2;
      // Split so replacement shards track the base shards' size instead
      // of collapsing all batches into one jumbo shard.
      copts.split_threshold = fx->base_rows / kBaseShards;
      Timer timer;
      auto report = RunCompaction(fx->dir, copts);
      fx->compact_seconds = timer.ElapsedSeconds();
      if (!report.ok() || !report->ran) {
        std::fprintf(stderr, "compaction did not run\n");
        std::exit(1);
      }
      auto post = ShardedStore::Load(fx->dir);
      if (!post.ok()) {
        std::fprintf(stderr, "post load failed\n");
        std::exit(1);
      }
      fx->post = *post;
      fx->post_shards = fx->post->num_shards();

      Rng rng(8513);
      for (size_t i = 0; i < 64; ++i) {
        CountingQuery q(2);
        q.Where(0, AttrPredicate::Point(
                       static_cast<Code>(rng.Uniform(kDomain0))));
        if (rng.NextBernoulli(0.5)) {
          q.Where(1, AttrPredicate::Point(
                         static_cast<Code>(rng.Uniform(kDomain1))));
        }
        fx->selective.push_back(q);
      }
      return fx;
    }();
    return *f;
  }
};

/// Largest relative pre-vs-post COUNT divergence over the workload.
double MergeMaxRelErr() {
  auto& f = CompactionFixture::Get();
  double worst = 0.0;
  for (const CountingQuery& q : f.selective) {
    auto a = bench::CountOf(*f.pre, q);
    auto b = bench::CountOf(*f.post, q);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "answer failed during verification\n");
      std::exit(1);
    }
    const double rel = std::fabs(a->expectation - b->expectation) /
                       std::max(1.0, std::fabs(a->expectation));
    if (rel > worst) worst = rel;
  }
  return worst;
}

/// Best-of-3 mean ns/query for a store snapshot over the workload.
double MeasureNsPerQuery(const ShardedStore& store) {
  auto& f = CompactionFixture::Get();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    for (const CountingQuery& q : f.selective) {
      auto est = bench::CountOf(store, q);
      benchmark::DoNotOptimize(est);
    }
    const double ns = timer.ElapsedSeconds() * 1e9 / f.selective.size();
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

void BM_MergedCount(benchmark::State& state) {
  auto& f = CompactionFixture::Get();
  const ShardedStore& store = state.range(0) != 0 ? *f.post : *f.pre;
  size_t i = 0;
  for (auto _ : state) {
    auto est = bench::CountOf(store, f.selective[i % f.selective.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergedCount)->ArgNames({"compacted"})->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  ::entropydb::bench::ApplyQuickFlag(&argc, argv);

  // Consume --compact_out FILE before google-benchmark sees argv.
  std::string compact_out;
  int out_i = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compact_out") == 0 && i + 1 < argc) {
      compact_out = argv[++i];
    } else {
      argv[out_i++] = argv[i];
    }
  }
  argc = out_i;

  auto& f = CompactionFixture::Get();
  const double merge_err = MergeMaxRelErr();
  const double pre_ns = MeasureNsPerQuery(*f.pre);
  const double post_ns = MeasureNsPerQuery(*f.post);
  const bool merged_ok = merge_err <= 1e-9;
  // Fewer shards = fewer per-query model evaluations: enforceable on any
  // core count, like the pruning bar.
  const bool faster = post_ns < pre_ns;

  std::printf("compaction (%zu base rows + %zu x %zu batch rows):\n",
              f.base_rows, kBatches, f.batch_rows);
  std::printf("  shards %zu -> %zu, compaction wall %.2fs\n", f.pre_shards,
              f.post_shards, f.compact_seconds);
  std::printf("  merge max rel err %.3g (bar 1e-9): %s\n", merge_err,
              merged_ok ? "ok" : "FAIL");
  std::printf("  selective %8.0f ns/query -> %8.0f ns/query (%.2fx): %s\n",
              pre_ns, post_ns, pre_ns / std::max(post_ns, 1.0),
              faster ? "ok" : "FAIL");

  if (!compact_out.empty()) {
    FILE* out = std::fopen(compact_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write --compact_out file: %s\n",
                   compact_out.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"base_rows\": %zu,\n"
                 "  \"batches\": %zu,\n"
                 "  \"batch_rows\": %zu,\n"
                 "  \"pre_shards\": %zu,\n"
                 "  \"post_shards\": %zu,\n"
                 "  \"compact_seconds\": %.3f,\n"
                 "  \"merge_max_rel_err\": %.3g,\n"
                 "  \"pre_ns\": %.1f,\n"
                 "  \"post_ns\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 f.base_rows, kBatches, f.batch_rows, f.pre_shards,
                 f.post_shards, f.compact_seconds, merge_err, pre_ns, post_ns,
                 pre_ns / std::max(post_ns, 1.0),
                 (merged_ok && faster) ? "true" : "false");
    // A truncated gate file (full disk surfaces at flush/close) must fail
    // HERE, not as a JSON parse error in the gate step downstream.
    if (std::ferror(out) != 0 || std::fclose(out) != 0) {
      std::fprintf(stderr, "write failure on --compact_out file: %s\n",
                   compact_out.c_str());
      return 1;
    }
  }
  fs::remove_all(f.dir);
  if (!merged_ok || !faster) return 1;

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
