#ifndef ENTROPYDB_QUERY_AGGREGATE_H_
#define ENTROPYDB_QUERY_AGGREGATE_H_

#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "query/counting_query.h"
#include "storage/domain.h"

namespace entropydb {

/// \brief A probabilistic query answer: expectation plus dispersion.
///
/// Under the solved MaxEnt model the n tuples are i.i.d. draws from the
/// tuple distribution (the partition function factorizes as Z = P^n,
/// Lemma 3.1), so any counting query is Binomial(n, p) with
/// p = P[mask] / P. That yields the closed-form variance the paper lists as
/// its single-statistic formula (Sec 7). Sample-backed sources fill the
/// same struct with Horvitz-Thompson moments (docs/ESTIMATORS.md).
struct QueryEstimate {
  double expectation = 0.0;
  double variance = 0.0;

  double StdDev() const;
  /// Central `z`-sigma interval, clamped to [0, n].
  std::pair<double, double> ConfidenceInterval(double z, double n) const;
  /// Expectation rounded to the nearest integer count (the paper rounds
  /// sub-0.5 estimates to zero when detecting nonexistent values, Sec 4.3).
  double RoundedCount() const;
};

/// The aggregate a query computes. COUNT/SUM/AVG answer from any
/// EstimateSource; QUANTILE/TOPK derive from summary marginals at the
/// engine facade; the JOIN kinds fuse TWO engines' models on a shared
/// attribute (maxent/join_fusion.h).
enum class AggregateKind {
  kCount,
  kSum,
  kAvg,
  kQuantile,
  kTopK,
  kJoinCount,
  kJoinSum,
};

const char* AggregateKindName(AggregateKind kind);

/// \brief One typed aggregate query: the single argument every answer
/// surface — QueryAnswerer, EntropySummary, EstimateSource, QueryRouter,
/// ShardedStore, EntropyEngine — takes.
///
/// Build instances through the factories; unused fields keep their
/// defaults and are ignored by the kind's dispatcher. `weights` carries
/// one entry per value of `agg_attr` (bucket representatives — see
/// BucketWeights) for every kind that aggregates a value: SUM/AVG weight
/// sums, QUANTILE value representatives, JOIN_SUM the summed attribute.
struct AggregateQuery {
  AggregateKind kind = AggregateKind::kCount;
  /// The conjunctive filter over the (left, for joins) relation.
  CountingQuery where;
  /// Aggregated attribute (SUM/AVG/QUANTILE/TOPK; JOIN_SUM: left-side
  /// summed attribute).
  AttrId agg_attr = 0;
  /// Per-value weights of `agg_attr` (see BucketWeights). QUANTILE reads
  /// them as the value representative of each bucket.
  std::vector<double> weights;
  /// Quantile rank in (0, 1) (QUANTILE only).
  double q = 0.5;
  /// Number of largest group-by cells to report (TOPK only).
  size_t k = 1;

  // -- Join fields (kJoinCount / kJoinSum only) --------------------------
  /// Left / right relation's join attribute; their domains must agree in
  /// size (codes are fused positionally).
  AttrId join_attr = 0;
  AttrId right_join_attr = 0;
  /// The conjunctive filter over the right relation.
  CountingQuery right_where;

  static AggregateQuery Count(CountingQuery where);
  static AggregateQuery Sum(AttrId a, std::vector<double> weights,
                            CountingQuery where);
  static AggregateQuery Avg(AttrId a, std::vector<double> weights,
                            CountingQuery where);
  static AggregateQuery Quantile(AttrId a, std::vector<double> reps, double q,
                                 CountingQuery where);
  static AggregateQuery TopK(AttrId a, size_t k, CountingQuery where);
  static AggregateQuery JoinCount(AttrId left_join, AttrId right_join,
                                  CountingQuery left_where,
                                  CountingQuery right_where);
  static AggregateQuery JoinSum(AttrId sum_attr, std::vector<double> weights,
                                AttrId left_join, AttrId right_join,
                                CountingQuery left_where,
                                CountingQuery right_where);
};

/// Why a query landed on the source it did — surfaced by the query tool's
/// --store mode and asserted by the routing tests.
struct RouteDecision {
  /// Chosen summary entry; when `from_sample` is true this is the summary
  /// RUNNER-UP the winning sample was compared against.
  size_t index = 0;
  /// Modeled pairs of the chosen entry fully inside the query's constrained
  /// attribute set.
  size_t covered_pairs = 0;
  /// Entries that tied on maximal coverage (candidates the variance rule
  /// then decided between).
  size_t candidates = 1;
  /// True when NO entry covered a pair: summary routing fell back to the
  /// widest summary.
  bool fallback = false;
  /// The chosen source's estimate variance (the routing objective).
  double expected_variance = 0.0;

  // -- Hybrid stage (summary vs. sample), see docs/ESTIMATORS.md ---------
  // COUNT routing always fills these; aggregate routing (SUM) fills them
  // with the FILTER COUNT's variances — the shared objective — and only
  // when the store holds samples (they keep their defaults when the
  // hybrid stage is skipped).
  /// True when a sample source won the variance comparison: the answer
  /// came from store sample `sample_index`.
  bool from_sample = false;
  /// Winning sample (valid only when `from_sample`).
  size_t sample_index = 0;
  /// The best summary candidate's expected variance (stage-2 winner).
  double summary_variance = 0.0;
  /// The best sample's expected variance; +infinity when the store holds
  /// no samples (the comparison then never picks a sample).
  double sample_variance = std::numeric_limits<double>::infinity();

  // -- Shard pruning (engine/sharded_store.h, storage/zone_map.h) --------
  // Only sharded answering fills these. Per-shard decision slots carry
  // `pruned`; the facade-level decision EntropyEngine returns carries the
  // aggregate counters.
  /// True when the shard's zone map proved the query cannot match: the
  /// shard was skipped and contributed an exact {0, 0} to the merge.
  bool pruned = false;
  /// The attribute whose zone map proved the miss (valid when `pruned`).
  AttrId pruned_attr = 0;
  /// Shards skipped / actually answered for this query (facade-level
  /// aggregate; both 0 on non-sharded paths).
  size_t shards_pruned = 0;
  size_t shards_scanned = 0;
};

/// One group-by cell a TOPK answer reports: the value code plus its
/// estimated count.
struct GroupCell {
  Code code = 0;
  QueryEstimate estimate;
};

/// \brief The unified answer every Answer(AggregateQuery) surface returns.
///
/// `estimate` is always the headline answer (the COUNT, the SUM, the AVG
/// ratio, the quantile's value, the largest TOPK cell, the fused join
/// estimate). The remaining fields are kind-dependent extras:
///
///  * COUNT/SUM/AVG fill the SUM/COUNT moment legs plus their covariance
///    (`has_moments`) — the raw material cross-shard merging needs to keep
///    the delta-method AVG variance exact across shards
///    (docs/ESTIMATORS.md "Cross-shard merging").
///  * QUANTILE fills `bound_lo`/`bound_hi` (`has_bound`): the typed
///    value-space error bound from inverting the CDF at the z-shifted
///    cumulative counts.
///  * TOPK fills `cells`, largest estimated cell first (ties by code
///    ascending), each with its own variance as the per-cell error bound.
///  * Every routed path fills `route`.
struct QueryResult {
  QueryEstimate estimate;

  /// SUM / COUNT moment legs and their covariance Cov(S, C) under the
  /// answering source's law (multinomial for summaries, Horvitz-Thompson
  /// for samples). For COUNT the count leg simply repeats `estimate`.
  QueryEstimate sum;
  QueryEstimate count;
  double sum_count_cov = 0.0;
  bool has_moments = false;

  /// Typed error bound in value space (QUANTILE).
  double bound_lo = 0.0;
  double bound_hi = 0.0;
  bool has_bound = false;

  /// TOPK cells, largest first.
  std::vector<GroupCell> cells;

  /// How the query routed (facade-level aggregate for sharded engines).
  RouteDecision route;
};

/// The delta-method AVG over SUM/COUNT moment legs: R = S / C with
///   Var R = (Var S - 2 R Cov(S, C) + R^2 Var C) / C^2,
/// the covariance kept rather than assumed away (docs/ESTIMATORS.md).
/// {0, 0} when the count leg is not positive. A single model's AVG and a
/// cross-shard merge both call this, so a one-shard AVG is bitwise the
/// model's own.
QueryEstimate DeltaMethodRatio(const QueryEstimate& sum,
                               const QueryEstimate& count,
                               double sum_count_cov);

/// Bucket-representative weights for aggregating over `dom`: the label
/// order index for categorical attributes, the bucket representative
/// (midpoint) for numeric ones — the one rule entropydb_query and the
/// server share.
std::vector<double> BucketWeights(const Domain& dom);

}  // namespace entropydb

#endif  // ENTROPYDB_QUERY_AGGREGATE_H_
