// Interactive-data-exploration walkthrough on the flights workload — the
// scenario from the paper's introduction: an analyst browses aggregates at
// "human speed" against the summary instead of the base table, drilling
// from a coarse overview into a rare slice, with confidence intervals.
//
// Run:  ./build/examples/flights_exploration

#include <cstdio>

#include "entropydb.h"

using namespace entropydb;

namespace {

void Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) Fail(r.status());
  return std::move(r).ValueOrDie();
}

}  // namespace

int main() {
  // -- offline: build the summary once --------------------------------
  FlightsConfig cfg;
  cfg.num_rows = 400'000;
  cfg.seed = 42;
  auto table_ptr = Unwrap(FlightsGenerator::Generate(cfg));
  const Table& table = *table_ptr;

  AttrId origin = Unwrap(table.schema().IndexOf("origin"));
  AttrId dest = Unwrap(table.schema().IndexOf("dest"));
  AttrId dist = Unwrap(table.schema().IndexOf("distance"));
  AttrId time = Unwrap(table.schema().IndexOf("fl_time"));

  StatisticSelector selector(SelectionHeuristic::kComposite);
  std::vector<MultiDimStatistic> stats;
  for (auto [a, b] : {std::pair{origin, dist}, std::pair{dest, dist},
                      std::pair{time, dist}}) {
    auto s = selector.Select(table, a, b, 260);
    stats.insert(stats.end(), s.begin(), s.end());
  }
  Timer build_timer;
  auto summary = Unwrap(EntropySummary::Build(table, stats));
  // Serve it through the engine facade, as a deployment would.
  auto engine = EntropyEngine::FromSummary(summary);
  std::printf("summary built in %.2fs (%zu iterations, %zu groups)\n",
              build_timer.ElapsedSeconds(),
              summary->solver_report().iterations,
              summary->polynomial().NumGroups());

  ExactEvaluator exact(table);
  const double n = summary->n();

  // -- step 1: overview — busiest origins ------------------------------
  std::printf("\nStep 1: top origins (GROUP BY origin ORDER BY cnt DESC "
              "LIMIT 5)\n");
  std::vector<std::vector<Code>> origin_keys;
  for (Code o = 0; o < table.domain(origin).size(); ++o) {
    origin_keys.push_back({o});
  }
  auto groups = Unwrap(engine->AnswerGroupBy(
      {origin}, origin_keys, CountingQuery(table.num_attributes())));
  std::vector<std::pair<double, Code>> ranked;
  for (const auto& [key, est] : groups) {
    ranked.emplace_back(est.expectation, key[0]);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("  %-8s %12s %12s %12s\n", "origin", "estimate", "true",
              "95% CI +/-");
  for (int i = 0; i < 5; ++i) {
    auto [est, code] = ranked[i];
    CountingQuery q(table.num_attributes());
    q.Where(origin, AttrPredicate::Point(code));
    const auto& e = groups.at({code});
    std::printf("  %-8s %12.0f %12llu %12.0f\n",
                table.domain(origin).LabelFor(code).c_str(), est,
                static_cast<unsigned long long>(exact.Count(q)),
                1.96 * e.StdDev());
  }

  // -- step 2: drill into the busiest origin's route lengths -----------
  Code top_origin = ranked[0].second;
  std::printf("\nStep 2: distance profile of flights from %s\n",
              table.domain(origin).LabelFor(top_origin).c_str());
  struct Band {
    const char* label;
    double lo, hi;
  } bands[] = {{"short   (<500mi)", 0, 499},
               {"medium  (500-1200mi)", 500, 1199},
               {"long    (1200-2000mi)", 1200, 1999},
               {"verylong(>2000mi)", 2000, 2915}};
  for (const auto& band : bands) {
    auto q = Unwrap(QueryBuilder(table)
                        .WhereCode("origin", top_origin)
                        .WhereBetween("distance", band.lo, band.hi)
                        .Build());
    auto est = Unwrap(engine->Answer(AggregateQuery::Count(q))).estimate;
    std::printf("  %-22s est %9.0f   true %9llu\n", band.label,
                est.expectation,
                static_cast<unsigned long long>(exact.Count(q)));
  }

  // -- step 3: a rare slice — where sampling would go blind -------------
  std::printf("\nStep 3: rare slice — very long flights out of a small "
              "airport\n");
  // Pick a light-hitter origin.
  auto hist = exact.Histogram1D(origin);
  Code small_origin = 0;
  uint64_t best = UINT64_MAX;
  for (Code o = 0; o < hist.size(); ++o) {
    if (hist[o] > 0 && hist[o] < best) {
      best = hist[o];
      small_origin = o;
    }
  }
  auto rare_q = Unwrap(QueryBuilder(table)
                           .WhereCode("origin", small_origin)
                           .WhereBetween("distance", 1500, 2915)
                           .Build());
  auto rare_est =
      Unwrap(engine->Answer(AggregateQuery::Count(rare_q))).estimate;
  auto uni = Unwrap(UniformSampler::Create(table, 0.01, 9));
  double sample_est = SampleEstimator(uni).Count(rare_q).expectation;
  auto [ci_lo, ci_hi] = rare_est.ConfidenceInterval(1.96, n);
  std::printf("  origin %s has only %llu flights in total\n",
              table.domain(origin).LabelFor(small_origin).c_str(),
              static_cast<unsigned long long>(best));
  std::printf("  EntropyDB: %.1f (95%% CI [%.1f, %.1f]) | 1%% sample: %.1f "
              "| true: %llu\n",
              rare_est.expectation, ci_lo, ci_hi, sample_est,
              static_cast<unsigned long long>(exact.Count(rare_q)));
  std::printf(
      "\nUnlike the sample, the summary can always say *something* about a\n"
      "rare region — the MaxEnt model infers mass from the statistics it "
      "holds.\n");
  return 0;
}
