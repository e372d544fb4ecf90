// particles-summary: the `entropydb_build --pairs auto` pipeline through
// the library, from a particles CSV to a verified .edb, then the paper's
// point queries in process on the single-summary engine.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

using namespace entropydb;

namespace {

constexpr size_t kRowsPerSnapshot = 30'000;
// `entropydb_build --pairs auto --ba 5 --budget 1000`: five pairs chosen
// by attribute cover, 1,000 2-D statistics per pair, composite heuristic.
// Five pairs chain most attributes into one polynomial, so the fit, the
// open and each answer are a visible share of a round beside the parse.
constexpr size_t kPairs = 5;
constexpr size_t kBudgetPerPair = 1000;
// Point COUNTs per pair and class (heavy, light, nonexistent).
constexpr size_t kPointsPerPair = 100;

Schema ParticlesSchema(const Relation& rel) {
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < rel.arity(); ++a) {
    specs.push_back(
        AttributeSpec{rel.names[a], rel.types[a], rel.domains[a].size()});
  }
  return Schema{std::move(specs)};
}

/// Per-layer figures of the traced rounds.
struct Layers {
  std::vector<double> csv_s, rank_s, select_s, fit_s, iterations, statistics,
      save_s, open_ms, bytes_read, parse_us, answer_us, eval_us, merge_us,
      point_us;
};

/// One `entropydb_build --pairs auto` pipeline: ReadCsv, pair ranking,
/// statistic selection, fit, save and a verified open. Traced rounds
/// record each step's time in `layers`.
struct Pipeline {
  std::shared_ptr<Table> table;
  std::shared_ptr<EntropyEngine> engine;
};
Pipeline RunPipeline(const Schema& schema, const std::string& csv_path,
                     const std::string& edb_path, Tracer* tracer, Env* env,
                     const CountingEnv& counting, Layers* layers) {
  Pipeline out;
  const bool traced = tracer->enabled();
  auto step = [&](Clock::time_point since, std::vector<double>* layer,
                  double scale) {
    if (traced) layer->push_back(scale * SecondsBetween(since, Clock::now()));
  };
  ScopedSpan build(tracer, "build", -1, 0);
  {
    ScopedSpan s(tracer, "storage.csv_parse", build.id(), 0);
    const Clock::time_point t0 = Clock::now();
    out.table = Must(ReadCsv(schema, csv_path), "read csv");
    step(t0, &layers->csv_s, 1);
  }
  std::vector<ScoredPair> ranked;
  {
    ScopedSpan s(tracer, "stats.pair_rank", build.id(), 0);
    const Clock::time_point t0 = Clock::now();
    ranked = PairSelector::RankPairs(*out.table);
    step(t0, &layers->rank_s, 1);
  }
  std::vector<MultiDimStatistic> stats;
  {
    ScopedSpan s(tracer, "stats.select", build.id(), 0);
    const Clock::time_point t0 = Clock::now();
    const StatisticSelector selector(SelectionHeuristic::kComposite);
    for (const ScoredPair& p :
         PairSelector::Choose(ranked, kPairs, PairStrategy::kAttributeCover)) {
      auto sel = selector.Select(*out.table, p.a, p.b, kBudgetPerPair);
      stats.insert(stats.end(), sel.begin(), sel.end());
    }
    step(t0, &layers->select_s, 1);
  }
  std::shared_ptr<EntropySummary> summary;
  {
    ScopedSpan s(tracer, "maxent.fit", build.id(), 0);
    const Clock::time_point t0 = Clock::now();
    summary = Must(EntropySummary::Build(*out.table, stats), "fit");
    step(t0, &layers->fit_s, 1);
    if (traced) {
      layers->iterations.push_back(
          static_cast<double>(summary->solver_report().iterations));
      layers->statistics.push_back(static_cast<double>(stats.size()));
    }
  }
  {
    ScopedSpan s(tracer, "storage.save", build.id(), 0);
    const Clock::time_point t0 = Clock::now();
    Must(summary->Save(edb_path, env), "save");
    step(t0, &layers->save_s, 1);
  }
  build.Close();
  const uint64_t read0 = counting.bytes_read;
  {
    ScopedSpan s(tracer, "engine.open", -1, 0);
    const Clock::time_point t0 = Clock::now();
    out.engine = Must(EntropyEngine::Open(edb_path, {}, env), "open");
    step(t0, &layers->open_ms, 1e3);
  }
  if (traced) {
    layers->bytes_read.push_back(
        static_cast<double>(counting.bytes_read - read0));
  }
  return out;
}

}  // namespace

void RunParticlesSummary(const RunOptions& opts, Report* report) {
  // ---------------------------------------------------------- inputs
  Rng rng(opts.seed);
  const Relation rel = GenerateParticles(kRowsPerSnapshot, opts.seed);
  const std::string csv_text = rel.Csv(0, rel.rows());
  const std::string csv_path = opts.work_dir + "/particles.csv";
  const std::string edb_path = opts.work_dir + "/particles.edb";
  const Schema schema = ParticlesSchema(rel);
  // The paper's point queries on the correlated pairs, at heavy, light and
  // nonexistent value combinations.
  std::vector<PointQuery> points;
  for (auto [a, b] : {std::pair{0, 5}, std::pair{1, 6}, std::pair{2, 3},
                      std::pair{0, 7}, std::pair{0, 1}, std::pair{3, 4}}) {
    const Hist2 h = ExactHist2(rel, a, b);
    for (auto cls : {PointQuery::Class::kHeavy, PointQuery::Class::kLight,
                     PointQuery::Class::kNone}) {
      for (PointQuery& p : DrawPointQueries(rel, h, cls, kPointsPerPair,
                                            rng)) {
        points.push_back(std::move(p));
      }
    }
  }
  for (size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.Below(i)]);
  }

  // ---------------------------------------------------------- set-up
  // The library's cold work before the first timed operation: write the
  // CSV and build the first summary from it.
  Tracer off(false), on(true);
  CountingEnv counting;
  Layers layers;
  double setup_s = 0;
  const Clock::time_point setup_start = Clock::now();
  Must(Env::Default()->WriteFile(csv_path, csv_text, false), "write csv");
  {
    const Pipeline first = RunPipeline(schema, csv_path, edb_path, &off,
                                       Env::Default(), counting, &layers);
    setup_s = SecondsBetween(setup_start, Clock::now());
    ++report->attempted;
    // ReadCsv must read back exactly the generated codes.
    for (size_t a = 0; a < rel.arity(); ++a) {
      for (size_t r = 0; r < rel.rows(); ++r) {
        if (first.table->at(r, static_cast<AttrId>(a)) != rel.cols[a][r]) {
          report->CheckFailed("ReadCsv changed a code of " + rel.names[a]);
          break;
        }
      }
    }
  }
  const double summary_bytes = static_cast<double>(BytesUnder(edb_path));

  // ---------------------------------------------------------- rounds
  // Each round runs the pipeline again, then the point queries on its
  // engine. Every untraced round measures the host first, outside the
  // timed work.
  HostReference host;
  // baseline_us: the untraced rounds among the traced ones, which the
  // tracing overhead is measured against (the host's speed drifts over a
  // run, so later rounds are no baseline).
  std::vector<double> round_s, point_us, baseline_us;
  std::vector<std::string> first_answers;
  Accuracy acc;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
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
    if (!traced) host.Measure();
    const Clock::time_point r0 = Clock::now();
    const std::shared_ptr<EntropyEngine> engine =
        RunPipeline(schema, csv_path, edb_path, tracer, env, counting,
                    &layers)
            .engine;
    ++report->attempted;

    // ------------------------------------------------ point queries
    std::vector<std::string> answers;
    for (size_t i = 0; i < points.size(); ++i) {
      ScopedSpan request(tracer, "point", -1, i);
      const Clock::time_point a = Clock::now();
      ScopedSpan parse(tracer, "query.parse", request.id(), i);
      auto parsed = ParseQuery(points[i].text, engine->attr_names(),
                               engine->domains());
      const double p_us = parse.Close();
      Result<QueryResult> result = Status::InvalidArgument("unparsed");
      if (parsed.ok()) {
        ScopedSpan answer(tracer, "engine.answer.count", request.id(), i);
        result = engine->Answer(AggregateQuery::Count(parsed->where));
        const double a_us = answer.Close();
        if (traced) {
          layers.parse_us.push_back(p_us);
          layers.answer_us.push_back(a_us);
        }
      }
      const double us = 1e6 * SecondsBetween(a, Clock::now());
      request.Close();
      ++report->attempted;
      if (traced) {
        layers.point_us.push_back(us);
      } else {
        point_us.push_back(us);
        if (opts.trace && round <= 2 * kTracedRounds) {
          baseline_us.push_back(us);
        }
      }
      if (!result.ok()) {
        report->CheckFailed("point query failed: " + points[i].text);
        answers.emplace_back();
        continue;
      }
      answers.push_back(RenderResult(*result)[0]);
      if (traced) {
        // The single summary behind the facade, called directly.
        ScopedSpan eval(tracer, "maxent.eval", -1, i);
        Must(engine->primary().Answer(AggregateQuery::Count(parsed->where)),
             "summary answer");
        layers.eval_us.push_back(eval.Close());
        layers.merge_us.push_back(layers.answer_us.back() -
                                  layers.eval_us.back());
      }
      if (round == 0) {
        if (!CheckProperties(*result, 0).empty()) {
          report->CheckFailed("property: " + points[i].text);
        }
        acc.Add(points[i].cls, result->estimate.expectation,
                points[i].exact);
      }
    }
    if (!traced) round_s.push_back(SecondsBetween(r0, Clock::now()));
    auto total = Must(engine->Answer(AggregateQuery::Count(CountingQuery(
                          engine->num_attributes()))),
                      "COUNT(*)");
    if (total.estimate.expectation != static_cast<double>(rel.rows())) {
      report->CheckFailed("COUNT(*) is not the row count");
    }
    if (round == 0) {
      first_answers = answers;
    } else if (answers != first_answers) {
      report->CheckFailed("round answers differ from round 0");
    }
  }

  acc.Finish(report);
  report->Info("rounds", static_cast<double>(round_s.size()));
  report->Info("reference_ms", 1e3 * host.MedianSeconds());
  report->Info("setup_s_measured", setup_s);
  report->Info("round_s_measured", Median(round_s));
  report->Info("point_p50_us_measured", Median(point_us));
  if (!opts.trace) {
    // Times scaled to the reference host; see HostReference.
    const double scale = host.Scale();
    report->Set("setup_s", scale * setup_s, "s");
    report->Set("round_s", scale * Median(round_s), "s");
    report->Set("read_us", scale * Median(point_us), "us");
    report->Set("count_rel_err", acc.Error(), "ratio");
    report->Set("store_bytes", summary_bytes, "bytes");
    return;
  }
  report->Set("query.parse_us", Median(layers.parse_us), "us");
  report->Set("engine.answer_us.count", Median(layers.answer_us), "us");
  report->Set("engine.merge_us", Median(layers.merge_us), "us");
  report->Set("engine.open_ms", Median(layers.open_ms), "ms");
  report->Set("maxent.eval_us", Median(layers.eval_us), "us");
  report->Set("maxent.fit_s", Median(layers.fit_s), "s");
  report->Set("maxent.solver_iterations", Median(layers.iterations), "count");
  report->Set("maxent.statistics", Median(layers.statistics), "count");
  report->Set("stats.pair_rank_s", Median(layers.rank_s), "s");
  report->Set("stats.select_s", Median(layers.select_s), "s");
  report->Set("storage.csv_parse_s", Median(layers.csv_s), "s");
  report->Set("storage.save_s", Median(layers.save_s), "s");
  report->Set("storage.bytes_read_on_open", Median(layers.bytes_read),
              "bytes");
  report->Set("trace.overhead_pct",
              100.0 * (Median(layers.point_us) / Median(baseline_us) - 1.0),
              "%");
  on.Write(opts.trace_path);
}

}  // namespace perfbench
