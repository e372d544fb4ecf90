// flights-ingest: a smaller sharded flights root takes a fixed sequence of
// CSV batches through AppendVersion, compacting whenever
// `entropydb_build --append` would auto-compact, while a live server
// answers reads beside the writes.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace entropydb;

namespace {

constexpr size_t kBaseRows = 60'000;
constexpr size_t kShards = 4;
constexpr size_t kBatches = 8;
constexpr size_t kBatchRows = 10'000;

StoreOptions IngestStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 600;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.02;
  return opts;
}

/// A read issued on a freshly published version.
struct Read {
  std::string text;
  bool scored = false;
  PointQuery::Class cls = PointQuery::Class::kHeavy;
  double exact = 0;
  bool total = false;  // COUNT(*) with no filter: must equal the row count.
};

/// The fixed reads after `rows` rows have been published: COUNT(*),
/// heavy, light and nonexistent point COUNTs, and one of every other
/// single-relation kind.
std::vector<Read> ReadsFor(const Relation& all, size_t rows, Rng& rng) {
  std::vector<Read> reads;
  Read total;
  total.text = "COUNT(*)";
  total.total = true;
  total.exact = static_cast<double>(rows);
  reads.push_back(total);
  for (auto [a, b] : {std::pair{1, 2}, std::pair{1, 4}, std::pair{2, 3}}) {
    Hist2 h = ExactHist2(all, a, b);
    std::fill(h.cells.begin(), h.cells.end(), 0);
    AddRows(all, 0, rows, &h);
    for (auto [cls, n] : {std::pair{PointQuery::Class::kHeavy, 16},
                          std::pair{PointQuery::Class::kLight, 16},
                          std::pair{PointQuery::Class::kNone, 1}}) {
      for (PointQuery& p : DrawPointQueries(all, h, cls, n, rng)) {
        Read r;
        r.text = p.text;
        r.scored = cls != PointQuery::Class::kNone;
        r.cls = cls;
        r.exact = static_cast<double>(p.exact);
        reads.push_back(std::move(r));
      }
    }
  }
  const std::string o = all.ValueText(1, static_cast<Code>(rng.Below(20)));
  const Code lo = static_cast<Code>(rng.Below(30));
  const std::string range = "distance BETWEEN " + all.ValueText(4, lo) +
                            " AND " + all.ValueText(4, lo + 20);
  for (const std::string& text :
       {"COUNT(*) WHERE origin = " + o + " AND " + range,
        "SUM(distance) WHERE origin = " + o, "AVG(fl_time) WHERE " + range,
        "QUANTILE(distance, 0.5) WHERE origin = " + o,
        "TOPK(dest, 5) WHERE origin = " + o}) {
    Read r;
    r.text = text;
    reads.push_back(std::move(r));
  }
  return reads;
}

Request Query(const std::string& text) {
  Request r;
  r.type = CommandType::kQuery;
  r.query = text;
  return r;
}

Request Open(uint64_t version) {
  Request r;
  r.type = CommandType::kOpen;
  r.version = version;
  return r;
}

double Elapsed(Clock::time_point since) {
  return SecondsBetween(since, Clock::now());
}

/// Per-layer figures of the traced rounds.
struct Layers {
  std::vector<double> clone_s, append_batch_s, publish_s, plan_ms, open_ms,
      csv_parse_s, select_s, fit_s, iterations, statistics, parse_us,
      wait_us, bytes_read, written_ratio, scanned, pruned, merge_us, eval_us,
      sample_us;
  double shard_answers = 0, sample_answers = 0;
  std::map<std::string, std::vector<double>> answer_us;
  double compaction_rows = 0, compactions = 0;
  double bytes_written = 0, user_bytes = 0, syncs = 0, appends = 0;
  double hits = 0, misses = 0;
};

}  // namespace

void RunFlightsIngest(const RunOptions& opts, Report* report) {
  // ---------------------------------------------------------- inputs
  Rng rng(opts.seed);
  // Base rows followed by the batches' rows: one generator, so batches
  // stay within the base domains.
  const Relation all = GenerateFlights(kBaseRows + kBatches * kBatchRows,
                                       opts.seed);
  Relation base = all;
  for (auto& col : base.cols) col.resize(kBaseRows);
  std::vector<std::string> batches;
  for (size_t k = 0; k < kBatches; ++k) {
    const size_t begin = kBaseRows + k * kBatchRows;
    batches.push_back(all.Csv(begin, begin + kBatchRows));
  }
  // reads[k]: the reads after k batches (k = 0 is the base version).
  std::vector<std::vector<Read>> reads;
  for (size_t k = 0; k <= kBatches; ++k) {
    reads.push_back(ReadsFor(all, kBaseRows + k * kBatchRows, rng));
  }
  const std::shared_ptr<Table> base_table = base.ToTable();

  // ---------------------------------------------------------- set-up
  // The library's cold work before the first timed operation: build,
  // save and publish the base root, then (in round 0) start the server
  // and connect.
  const Clock::time_point setup_start = Clock::now();
  const std::string base_root = opts.work_dir + "/ingest_base";
  const StoreOptions store_opts = IngestStoreOptions();
  {
    ShardedOptions shopts;
    shopts.num_shards = kShards;
    shopts.scheme = PartitionScheme::kAttribute;
    shopts.partition_attr = 1;  // origin
    shopts.store = store_opts;
    auto store = Must(ShardedStore::Build(*base_table, shopts),
                      "base store build");
    auto vs = Must(VersionSet::Open(base_root, Env::Default()), "version set");
    const uint64_t id = vs->BeginVersion();
    Must(store->Save(vs->VersionDir(id)), "base store save");
    Must(vs->Publish(id), "publish v1");
  }
  CompactionOptions copts;  // entropydb_build --append's defaults
  copts.store = store_opts;

  Tracer off(false), on(true);
  CountingEnv counting;
  Layers layers;
  // Wire answers of round 0, by publish and read: later rounds repeat the
  // same operations from the same base and must answer identically.
  std::vector<std::vector<std::string>> first_answers;
  // Every untraced round measures the host first, outside the timed work.
  HostReference host;
  std::vector<double> append_s, compact_s, pin_ms, cold_us, hit_us, round_s,
      root_bytes, traced_cold_us;
  // The untraced rounds among the traced ones, which the tracing overhead
  // is measured against (the host's speed drifts over a run).
  std::vector<double> baseline_cold_us;
  Accuracy acc;
  double setup_s = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));

  // ---------------------------------------------------------- rounds
  const size_t min_rounds = opts.trace ? 2 : 1;
  for (size_t round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    // A traced run alternates untraced and traced rounds (the untraced
    // ones are the baseline its overhead is measured against) and traces
    // at most kTracedRounds rounds, which bounds the span file.
    const bool traced =
        opts.trace && round % 2 == 1 && round / 2 < kTracedRounds;
    Tracer* tracer = traced ? &on : &off;
    Env* env = traced ? static_cast<Env*>(&counting) : Env::Default();
    // Every round starts from the same base: a hard-linked copy is safe
    // because published version files are never rewritten.
    const std::string root = opts.work_dir + "/ingest_" + std::to_string(round);
    fs::copy(base_root, root,
             fs::copy_options::recursive | fs::copy_options::create_hard_links);
    QueryServer::Options sopts;
    sopts.path = root;
    auto server = Must(QueryServer::Start(sopts), "server start");
    auto connect = [&] {
      return Must(WireClient::Connect("127.0.0.1", server->port()), "connect");
    };
    // live: never sends OPEN or VERSION; reader: pins each new version;
    // prev: pins the version before it.
    WireClient live = connect(), reader = connect(), prev = connect();
    if (round == 0) setup_s = SecondsBetween(setup_start, Clock::now());
    if (!traced) host.Measure();

    double timed = 0;
    size_t publish = 0;
    auto timed_call = [&](WireClient& c, const Request& req,
                          std::vector<std::string>* lines, double* us) {
      const Clock::time_point a = Clock::now();
      auto resp = c.Call(req);
      const double s = Elapsed(a);
      timed += s;
      if (us != nullptr) *us = 1e6 * s;
      bool cached = false;
      ++report->attempted;
      if (!resp.ok() || !SplitResponse(*resp, lines, &cached)) {
        report->CheckFailed("request failed: " + req.query);
        return false;
      }
      return true;
    };
    // After every publish: (1) a live probe, (2) OPEN the new version and
    // its fresh reads, (3) the previous version's reads again, pinned.
    uint64_t version = 1, previous = 0;
    size_t prev_k = 0;
    std::vector<std::string> prev_lines;
    auto after_publish = [&](size_t k, double expected_total,
                             double previous_total) {
      std::vector<std::string> lines;
      if (previous != 0 && timed_call(live, Query("COUNT(*)"), &lines, nullptr)) {
        // An unpinned read must see the new version. After a compaction
        // the row count is unchanged, so a stale answer cannot show there.
        const double est = std::stod(lines[0].substr(9));
        if (est == expected_total) {
        } else if (est == previous_total) {
          ++report->failed;  // stale: the live session missed the publish
        } else {
          report->CheckFailed("live probe answered " + lines[0]);
        }
      }
      double us = 0;
      if (timed_call(reader, Open(version), &lines, &us)) {
        if (lines.empty() || lines[0] != "version " + std::to_string(version)) {
          report->CheckFailed("OPEN answered the wrong version");
        }
      }
      if (!traced) pin_ms.push_back(us / 1000);
      std::shared_ptr<EntropyEngine> engine;
      if (round == 0 || traced) {
        // The benchmark's own engine on the same version directory.
        const uint64_t read0 = counting.bytes_read;
        ScopedSpan span(tracer, "engine.open", -1, publish);
        engine = Must(EntropyEngine::Open(root + "/v" + std::to_string(version),
                                          {}, env),
                      "engine open");
        const double open_us = span.Close();
        if (traced) {
          layers.open_ms.push_back(open_us / 1000);
          layers.bytes_read.push_back(
              static_cast<double>(counting.bytes_read - read0));
        }
      }
      std::vector<std::string> fresh;
      for (size_t i = 0; i < reads[k].size(); ++i) {
        const Read& r = reads[k][i];
        if (!timed_call(reader, Query(r.text), &lines, &us)) continue;
        std::string text;
        for (const std::string& l : lines) text += l + "\n";
        fresh.push_back(text);
        (traced ? traced_cold_us : cold_us).push_back(us);
        if (opts.trace && !traced && round <= 2 * kTracedRounds) {
          baseline_cold_us.push_back(us);
        }
        if (r.total && std::stod(lines[0].substr(9)) != expected_total) {
          report->CheckFailed("COUNT(*) on v" + std::to_string(version) +
                              " is not the row count: " + lines[0]);
        }
        if (engine != nullptr) {
          // In-process replay: parse, then the engine's answer.
          ScopedSpan replay(tracer, "replay", -1, publish);
          ScopedSpan parse(tracer, "query.parse", replay.id(), publish);
          auto p = Must(ParseQuery(r.text, engine->attr_names(),
                                   engine->domains()),
                        "parse");
          const double parse_us = parse.Close();
          const AggregateQuery q = ToAggregate(p, *engine);
          std::string kind = AggregateKindName(q.kind);
          for (char& ch : kind) ch = static_cast<char>(std::tolower(ch));
          ScopedSpan answer(tracer, "engine.answer." + kind, replay.id(),
                            publish);
          const QueryResult res = Must(engine->Answer(q), "answer");
          const double answer_us = answer.Close();
          if (traced) {
            layers.parse_us.push_back(parse_us);
            layers.answer_us[kind].push_back(answer_us);
            layers.wait_us.push_back(us - parse_us - answer_us);
            layers.scanned.push_back(res.route.shards_scanned);
            layers.pruned.push_back(res.route.shards_pruned);
            if (q.kind == AggregateKind::kCount ||
                q.kind == AggregateKind::kSum ||
                q.kind == AggregateKind::kAvg) {
              const SourceReplay src =
                  ReplaySources(*engine, q, tracer, replay.id(), publish);
              layers.merge_us.push_back(answer_us - src.total_us());
              layers.eval_us.insert(layers.eval_us.end(),
                                    src.eval_us.begin(), src.eval_us.end());
              layers.sample_us.insert(layers.sample_us.end(),
                                      src.sample_us.begin(),
                                      src.sample_us.end());
              if (q.kind != AggregateKind::kAvg) {
                layers.shard_answers +=
                    src.eval_us.size() + src.sample_us.size();
                layers.sample_answers += src.sample_us.size();
              }
            }
          }
          replay.Close();
          std::string want;
          for (const std::string& l : RenderResult(res)) want += l + "\n";
          if (want != text) {
            report->CheckFailed("wire answer differs from the engine's on v" +
                                std::to_string(version) + ": " + r.text);
          }
          const double count =
              Must(engine->Answer(AggregateQuery::Count(p.where)), "count")
                  .estimate.expectation;
          const std::string why = CheckProperties(res, count);
          if (!why.empty()) report->CheckFailed(why + ": " + r.text);
          if (round == 0 && r.scored) {
            acc.Add(r.cls, res.estimate.expectation, r.exact);
          }
        }
      }
      if (round == 0) {
        first_answers.push_back(fresh);
      } else if (fresh != first_answers[publish]) {
        report->CheckFailed("round answers differ from round 0 on v" +
                            std::to_string(version));
      }
      if (previous != 0) {
        if (timed_call(prev, Open(previous), &lines, nullptr)) {
          std::vector<std::string> again;
          for (const Read& r : reads[prev_k]) {
            if (!timed_call(prev, Query(r.text), &lines, &us)) continue;
            std::string text;
            for (const std::string& l : lines) text += l + "\n";
            again.push_back(text);
            if (!traced) hit_us.push_back(us);
          }
          if (again != prev_lines) {
            report->CheckFailed("pinned answers on v" +
                                std::to_string(previous) +
                                " changed after a publish");
          }
        }
      }
      prev_lines = fresh;
      prev_k = k;
      ++publish;
    };

    after_publish(0, kBaseRows, kBaseRows);
    for (size_t k = 1; k <= kBatches; ++k) {
      const double total = kBaseRows + k * kBatchRows;
      const double before = total - kBatchRows;
      // --------------------------------------------------- append
      Clock::time_point a = Clock::now();
      if (!traced) {
        auto rep = Must(AppendVersion(root, batches[k - 1], store_opts),
                        "append");
        const double s = Elapsed(a);
        timed += s;
        append_s.push_back(s);
        previous = version;
        version = rep.version;
      } else {
        // AppendVersion's steps, each through its own public call.
        const uint64_t w0 = counting.bytes_written, s0 = counting.syncs;
        ScopedSpan append(tracer, "append", -1, k);
        auto vs = Must(VersionSet::Open(root, env), "version set");
        const uint64_t id = vs->BeginVersion();
        {
          ScopedSpan s(tracer, "storage.clone", append.id(), k);
          Must(vs->CloneCurrentTo(id), "clone");
          layers.clone_s.push_back(1e-6 * s.Close());
        }
        {
          ScopedSpan s(tracer, "engine.append_batch", append.id(), k);
          Must(AppendBatch(vs->VersionDir(id), batches[k - 1], store_opts,
                           env),
               "append batch");
          layers.append_batch_s.push_back(1e-6 * s.Close());
        }
        {
          ScopedSpan s(tracer, "storage.publish", append.id(), k);
          Must(vs->Publish(id), "publish");
          layers.publish_s.push_back(1e-6 * s.Close());
        }
        timed += 1e-6 * append.Close();
        layers.bytes_written +=
            static_cast<double>(counting.bytes_written - w0);
        layers.written_ratio.push_back(
            static_cast<double>(counting.bytes_written - w0) /
            batches[k - 1].size());
        layers.syncs += static_cast<double>(counting.syncs - s0);
        layers.user_bytes += static_cast<double>(batches[k - 1].size());
        layers.appends += 1;
        previous = version;
        version = id;
        // The build-side steps AppendBatch runs on the batch, replayed:
        // parse it against shard 0, select each inherited pair's
        // statistics, fit the summary.
        ScopedSpan build(tracer, "append.build_replay", -1, k);
        const std::string dir = vs->VersionDir(id);
        auto manifest = Must(ShardedStore::ReadManifest(dir), "manifest");
        auto shard0 = Must(
            SourceStore::Load(dir + "/" + manifest.shard_dirs.front()),
            "shard 0");
        std::shared_ptr<Table> table;
        {
          ScopedSpan s(tracer, "storage.csv_parse", build.id(), k);
          table = Must(ParseIngestBatch(*shard0, batches[k - 1], k),
                       "parse batch");
          layers.csv_parse_s.push_back(1e-6 * s.Close());
        }
        const std::vector<ScoredPair> pairs = InheritedPairs(*shard0);
        std::vector<MultiDimStatistic> stats;
        {
          ScopedSpan s(tracer, "stats.select", build.id(), k);
          for (const ScoredPair& p : pairs) {
            auto sel = StatisticSelector(store_opts.heuristic)
                           .Select(*table, p.a, p.b,
                                   store_opts.total_budget / pairs.size());
            stats.insert(stats.end(), sel.begin(), sel.end());
          }
          layers.select_s.push_back(1e-6 * s.Close());
        }
        {
          ScopedSpan s(tracer, "maxent.fit", build.id(), k);
          auto summary = Must(
              EntropySummary::Build(*table, stats, store_opts.summary), "fit");
          layers.fit_s.push_back(1e-6 * s.Close());
          layers.iterations.push_back(
              static_cast<double>(summary->solver_report().iterations));
          layers.statistics.push_back(static_cast<double>(stats.size()));
        }
      }
      ++report->attempted;
      after_publish(k, total, before);

      // ----------------------------------------------- compaction
      if (traced) {
        auto vs = Must(VersionSet::Open(root, env), "version set");
        ScopedSpan s(tracer, "engine.compaction_plan", -1, k);
        Must(CompactionPlanner::Plan(vs->CurrentDir(), copts, env), "plan");
        layers.plan_ms.push_back(1e-3 * s.Close());
      }
      a = Clock::now();
      auto rep = Must(CompactVersion(root, copts, {}, env), "compact");
      const double s = Elapsed(a);
      timed += s;
      ++report->attempted;
      if (rep.version != 0) {
        if (!traced) compact_s.push_back(s);
        if (traced) {
          layers.compaction_rows += static_cast<double>(rep.compaction.rows);
          layers.compactions += 1;
        }
        previous = version;
        version = rep.version;
        after_publish(k, total, total);
      }
    }
    if (traced) {
      auto stats = Must(live.Call(StatsRequest()), "STATS");
      for (const std::string& l : stats.lines) {
        if (l.rfind("cache_hits ", 0) == 0) layers.hits += std::stod(l.substr(11));
        if (l.rfind("cache_misses ", 0) == 0) {
          layers.misses += std::stod(l.substr(13));
        }
      }
    } else {
      round_s.push_back(timed);
      root_bytes.push_back(static_cast<double>(BytesUnder(root)));
    }
    live.Close();
    reader.Close();
    prev.Close();
    server->Stop();
    fs::remove_all(root);
  }

  acc.Finish(report);
  report->Info("append_s", Median(append_s));
  report->Info("compact_s", Median(compact_s));
  report->Info("pin_ms", Median(pin_ms));
  report->Info("cold_read_p50_us", Median(cold_us));
  report->Info("pinned_hit_p50_us", Median(hit_us));
  report->Info("rounds", static_cast<double>(round_s.size()));
  report->Info("reference_ms", 1e3 * host.MedianSeconds());
  report->Info("setup_s_measured", setup_s);
  report->Info("round_s_measured", Median(round_s));
  if (!opts.trace) {
    // Times scaled to the reference host; see HostReference.
    const double scale = host.Scale();
    report->Set("setup_s", scale * setup_s, "s");
    report->Set("round_s", scale * Median(round_s), "s");
    report->Set("read_us", scale * Median(cold_us), "us");
    report->Set("count_rel_err", acc.Error(), "ratio");
    report->Set("store_bytes", Median(root_bytes), "bytes");
    return;
  }
  // Bytes written per CSV byte by the first and the last append of a
  // round: the whole ingest.wal is copied into every new version.
  report->Info("written_per_user_byte_first", layers.written_ratio.front());
  report->Info("written_per_user_byte_last",
               layers.written_ratio[kBatches - 1]);
  report->Set("server.cache_hit_ratio",
              layers.hits / std::max(1.0, layers.hits + layers.misses),
              "ratio");
  report->Set("server.wait_us.miss", Median(layers.wait_us), "us");
  report->Set("query.parse_us", Median(layers.parse_us), "us");
  for (const char* kind : {"count", "sum", "avg", "quantile", "topk"}) {
    report->Set(std::string("engine.answer_us.") + kind,
                Median(layers.answer_us[kind]), "us");
  }
  report->Set("engine.shards_scanned", Mean(layers.scanned), "count");
  report->Set("engine.shards_pruned", Mean(layers.pruned), "count");
  report->Set("engine.sample_share",
              layers.sample_answers / std::max(1.0, layers.shard_answers),
              "ratio");
  report->Set("engine.merge_us", Median(layers.merge_us), "us");
  report->Set("maxent.eval_us", Median(layers.eval_us), "us");
  report->Set("sampling.estimate_us", Median(layers.sample_us), "us");
  report->Set("engine.open_ms", Median(layers.open_ms), "ms");
  report->Set("engine.append_batch_s", Median(layers.append_batch_s), "s");
  report->Set("engine.compaction_plan_ms", Median(layers.plan_ms), "ms");
  report->Set("engine.compaction_rows",
              layers.compaction_rows / std::max(1.0, layers.compactions),
              "count");
  report->Set("maxent.fit_s", Median(layers.fit_s), "s");
  report->Set("maxent.solver_iterations", Median(layers.iterations), "count");
  report->Set("maxent.statistics", Median(layers.statistics), "count");
  report->Set("stats.select_s", Median(layers.select_s), "s");
  report->Set("storage.csv_parse_s", Median(layers.csv_parse_s), "s");
  report->Set("storage.clone_s", Median(layers.clone_s), "s");
  report->Set("storage.publish_s", Median(layers.publish_s), "s");
  report->Set("storage.bytes_written_per_user_byte",
              layers.bytes_written / std::max(1.0, layers.user_bytes),
              "ratio");
  report->Set("storage.syncs_per_append",
              layers.syncs / std::max(1.0, layers.appends), "count");
  report->Set("storage.bytes_read_on_open", Median(layers.bytes_read),
              "bytes");
  report->Set("trace.overhead_pct",
              100.0 * (Median(traced_cold_us) / Median(baseline_cold_us) - 1.0),
              "%");
  on.Write(opts.trace_path);
}

}  // namespace perfbench
