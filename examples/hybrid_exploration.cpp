// Hybrid serving: one store, two estimator families. A maxent summary
// models the (origin, dest) correlation; a stratified sample rides along
// in the same store directory-shaped object. The router answers each query
// from whichever source expects the lower variance (docs/ESTIMATORS.md):
// rare stratification-aligned slices go to the sample (it holds those rows
// verbatim), broad aggregates go to the summary (expansion weights make
// the sample noisy there).
//
// Run:  ./build/example_hybrid_exploration

#include <cstdio>

#include "entropydb.h"

using namespace entropydb;

namespace {

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

void DescribeRoute(const EntropyEngine& engine, const RouteDecision& dec) {
  if (dec.from_sample) {
    // One shard (a monolithic store): its decision is the engine's.
    const SourceStore& store = engine.sharded()->shard(0);
    std::printf("    -> sample %zu (%s): variance %.3g beat the summary's "
                "%.3g\n",
                dec.sample_index,
                store.sample_entry(dec.sample_index).sample->name.c_str(),
                dec.sample_variance, dec.summary_variance);
  } else {
    std::printf("    -> summary %zu%s: variance %.3g (best sample offered "
                "%.3g)\n",
                dec.index, dec.fallback ? " [fallback]" : "",
                dec.summary_variance, dec.sample_variance);
  }
}

}  // namespace

int main() {
  FlightsConfig cfg;
  cfg.num_rows = 200'000;
  cfg.seed = 42;
  auto table_ptr = Unwrap(FlightsGenerator::Generate(cfg));
  const Table& table = *table_ptr;
  AttrId origin = Unwrap(table.schema().IndexOf("origin"));
  AttrId dest = Unwrap(table.schema().IndexOf("dest"));

  // A hybrid store: top-correlated pairs get summaries AND stratified
  // sample companions, drawn on the same pairs.
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 800;
  opts.num_stratified_samples = 2;
  opts.sample_fraction = 0.01;
  auto store = Unwrap(SourceStore::Build(table, opts));
  auto engine = EntropyEngine::FromStore(store);
  std::printf("hybrid store: %zu summaries + %zu samples over n = %.0f\n\n",
              engine->num_summaries(), engine->num_samples(), engine->n());

  ExactEvaluator exact(table);

  // 1. A rare route: the stratified sample holds every existing stratum,
  //    so selective strata queries are near-exact there and the router
  //    prefers the sample's lower variance.
  std::printf("rare-value COUNTs (selective strata):\n");
  int shown = 0;
  for (const auto& [key, count] : exact.GroupByCount({origin, dest})) {
    if (count == 0 || count > 4 || shown >= 3) continue;
    CountingQuery q(table.num_attributes());
    q.Where(origin, AttrPredicate::Point(key[0]))
        .Where(dest, AttrPredicate::Point(key[1]));
    RouteDecision dec;
    auto est = Unwrap(engine->Answer(AggregateQuery::Count(q), &dec)).estimate;
    std::printf("  %s -> %s: true %llu, estimate %.2f\n",
                table.domain(origin).LabelFor(key[0]).c_str(),
                table.domain(dest).LabelFor(key[1]).c_str(),
                static_cast<unsigned long long>(count), est.expectation);
    DescribeRoute(*engine, dec);
    ++shown;
  }

  // 2. A broad aggregate: expansion weights make the sample's variance
  //    large on wide filters, so the summary keeps the query.
  std::printf("\nbroad aggregate (SUM of distance-bucket midpoints):\n");
  AttrId distance = Unwrap(table.schema().IndexOf("distance"));
  const Domain& dd = table.domain(distance);
  std::vector<double> weights(dd.size());
  for (Code v = 0; v < dd.size(); ++v) {
    weights[v] = dd.RepresentativeFor(v).as_double();
  }
  CountingQuery broad(table.num_attributes());
  broad.Where(origin, AttrPredicate::Point(0));
  RouteDecision dec;
  auto sum = Unwrap(
      engine->Answer(AggregateQuery::Sum(distance, weights, broad), &dec));
  std::printf("  SUM(distance) WHERE origin = %s: estimate %.3g\n",
              table.domain(origin).LabelFor(0).c_str(),
              sum.estimate.expectation);
  DescribeRoute(*engine, dec);

  // 3. A value the sample never saw: its miss floor keeps the variance
  //    finite but large, so the router falls back to the summary instead
  //    of trusting a silent zero.
  std::printf("\nnonexistent route (sample saw no matching row):\n");
  for (Code o = 0; o < table.domain(origin).size(); ++o) {
    bool done = false;
    for (Code d = 0; d < table.domain(dest).size() && !done; ++d) {
      CountingQuery q(table.num_attributes());
      q.Where(origin, AttrPredicate::Point(o))
          .Where(dest, AttrPredicate::Point(d));
      if (exact.Count(q) != 0) continue;
      RouteDecision dec2;
      auto est =
          Unwrap(engine->Answer(AggregateQuery::Count(q), &dec2)).estimate;
      std::printf("  %s -> %s: true 0, estimate %.2f\n",
                  table.domain(origin).LabelFor(o).c_str(),
                  table.domain(dest).LabelFor(d).c_str(), est.expectation);
      DescribeRoute(*engine, dec2);
      done = true;
    }
    if (done) break;
  }
  return 0;
}
