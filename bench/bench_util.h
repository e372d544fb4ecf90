#ifndef ENTROPYDB_BENCH_BENCH_UTIL_H_
#define ENTROPYDB_BENCH_BENCH_UTIL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "entropydb.h"

namespace entropydb {
namespace bench {

/// COUNT(*) through a source's unified aggregate surface (EntropyEngine,
/// ShardedStore, QueryRouter, ...), reduced to its estimate. Extra
/// arguments (route decision outputs) pass through to Answer.
template <typename Source, typename... Route>
Result<QueryEstimate> CountOf(const Source& source, const CountingQuery& q,
                              Route... route) {
  ASSIGN_OR_RETURN(QueryResult r,
                   source.Answer(AggregateQuery::Count(q), route...));
  return r.estimate;
}

/// Scale knobs shared by the figure benches. The paper ran on the full BTS
/// feed with budget B = 3000 on a 120-CPU machine; we default to a scaled
/// workload that reproduces every trend in minutes on one core. Override
/// via environment variable ENTROPYDB_BENCH_SCALE (1 = default, 2+ = closer
/// to paper scale).
struct BenchScale {
  size_t flights_rows = 400'000;
  size_t particle_rows_per_snapshot = 150'000;
  /// Per-pair 2-D budget for the Ent1&2 / Ent3&4 methods (paper: 1500).
  size_t bs_two_pair = 400;
  /// Per-pair budget for Ent1&2&3 (paper: 1000).
  size_t bs_three_pair = 260;
  /// Sampling fraction (paper: 1%).
  double sample_fraction = 0.01;
};

/// Reads the scale factor from the environment.
BenchScale ReadScale();

/// Consumes a leading `--quick` flag (if present): removes it from argv and
/// shrinks the workload scale via ENTROPYDB_BENCH_SCALE (unless the caller
/// already set one) so CI smoke runs finish in seconds.
void ApplyQuickFlag(int* argc, char** argv);

/// The four attribute pairs of Fig 4 resolved against a flights table:
/// 1 = (origin, distance), 2 = (dest, distance), 3 = (fl_time, distance),
/// 4 = (origin, dest).
struct FlightsPairs {
  AttrId date, origin, dest, time, distance;
  std::pair<AttrId, AttrId> pair(int which) const;
};
FlightsPairs ResolveFlightsPairs(const Table& table);

/// A named query-answering method (MaxEnt summary or sample) — the rows of
/// Fig 5/6/7.
struct Method {
  std::string name;
  std::function<double(const CountingQuery&)> answer;
};

/// Builds the paper's four MaxEnt configurations (Fig 4): No2D, Ent1&2,
/// Ent3&4, Ent1&2&3 — COMPOSITE statistics with the given per-pair budgets.
struct FlightsSummaries {
  std::shared_ptr<EntropySummary> no2d;
  std::shared_ptr<EntropySummary> ent12;
  std::shared_ptr<EntropySummary> ent34;
  std::shared_ptr<EntropySummary> ent123;
};
Result<FlightsSummaries> BuildFlightsSummaries(const Table& table,
                                               const BenchScale& scale);

/// Wraps a summary / sample estimator as a Method.
Method SummaryMethod(std::string name,
                     std::shared_ptr<EntropySummary> summary);
Method SampleMethod(std::string name,
                    std::shared_ptr<WeightedSample> sample);

/// Average symmetric error of `method` over the workload points (estimates
/// rounded to integer counts, as the paper does for rare-value detection).
double AvgErrorOn(const Method& method, size_t num_attrs,
                  const std::vector<AttrId>& attrs,
                  const std::vector<QueryPoint>& points);

/// F-measure of `method` on light + nonexistent points.
double FMeasureOn(const Method& method, size_t num_attrs,
                  const std::vector<AttrId>& attrs,
                  const std::vector<QueryPoint>& light,
                  const std::vector<QueryPoint>& nulls);

/// Mean per-query wall time (seconds).
double AvgQuerySeconds(const Method& method, size_t num_attrs,
                       const std::vector<AttrId>& attrs,
                       const std::vector<QueryPoint>& points);

/// Copies the chosen attributes of a table into a narrower table (used by
/// the Fig 2 bench, which works on the 3-attribute flights projection).
std::shared_ptr<Table> ProjectTable(const Table& table,
                                    const std::vector<AttrId>& attrs);

/// Prints a labelled horizontal rule.
void PrintHeader(const std::string& title);

}  // namespace bench
}  // namespace entropydb

/// BENCHMARK_MAIN() replacement that understands --quick (see
/// ApplyQuickFlag). Used by the benches CI runs on every push.
#define ENTROPYDB_BENCH_MAIN()                                          \
  int main(int argc, char** argv) {                                     \
    ::entropydb::bench::ApplyQuickFlag(&argc, argv);                    \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }

#endif  // ENTROPYDB_BENCH_BENCH_UTIL_H_
