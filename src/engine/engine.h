#ifndef ENTROPYDB_ENGINE_ENGINE_H_
#define ENTROPYDB_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/sharded_store.h"
#include "maxent/summary.h"
#include "query/aggregate.h"

namespace entropydb {

/// \brief Monotonic engine-level counters, snapshot by
/// EntropyEngine::stats().
///
/// Feeds the server's STATS command (docs/SERVING.md). Increments are
/// relaxed atomics on the answer paths, so concurrent answering never
/// serializes on bookkeeping; a snapshot is therefore approximate across
/// in-flight queries, which is all an operations counter needs.
struct EngineStats {
  /// Single-query Answer calls (any aggregate kind, joins, group-bys).
  uint64_t queries = 0;
  /// AnswerAll invocations (one per micro-batch).
  uint64_t batches = 0;
  /// Queries answered inside those batches.
  uint64_t batched_queries = 0;
};

/// \brief The serving facade: one query surface over ONE store shape — a
/// ShardedStore of S >= 1 row-shards, each a SourceStore of K >= 1
/// sources (maxent summaries plus sample companions; see
/// engine/sharded_store.h). A lone summary is the 1 x 1 case (one entry,
/// no modeled pairs, so routing always falls back to it) and a monolithic
/// store directory the S = 1 case; answering never branches on which.
///
/// Tools, examples, and benchmarks talk to this instead of hand-wiring a
/// summary, so switching a deployment from one summary file to a
/// multi-source or sharded store directory is a path change:
///
///   auto engine = EntropyEngine::Open(path);   // file or store directory
///   auto res = (*engine)->Answer(AggregateQuery::Count(query));
///
/// Every COUNT/SUM/AVG fans out to every unpruned shard (the best source
/// is picked PER SHARD by that shard's QueryRouter) and the per-shard
/// moments merge additively from zero — so with one shard every estimate,
/// variance, bound, and cell is bitwise the router's (and, for a lone
/// summary, the summary's) own. Point estimates, variances, and the
/// SUM/COUNT covariance are additive across disjoint row partitions, so
/// the merged AVG keeps the full delta-method variance.
///
/// The ONE query entry point is Answer(AggregateQuery): COUNT and SUM
/// route across summaries AND samples per QueryRouter's hybrid rules
/// (coverage -> summary variance -> summary-vs-sample variance; see
/// docs/ESTIMATORS.md); AVG and the group-bys are summary-only (samples
/// have no batched-derivative path); QUANTILE and TOPK derive here at the
/// facade from the merged group-by marginal (maxent/quantile.h). The JOIN
/// kinds fuse TWO engines' models on a shared attribute — see AnswerJoin
/// and maxent/join_fusion.h. All entry points are safe to call
/// concurrently; per-summary throughput scales on the answerer's
/// workspace pool.
///
/// Every answer's RouteDecision carries the facade counters
/// (shards_pruned / shards_scanned); when exactly one shard was scanned it
/// also carries that shard's own routing decision (which source, coverage,
/// the hybrid comparison).
class EntropyEngine {
 public:
  /// Wraps a single summary as the 1 x 1 store.
  static std::shared_ptr<EntropyEngine> FromSummary(
      std::shared_ptr<EntropySummary> summary);
  /// Wraps a store as the S = 1 sharded store.
  static std::shared_ptr<EntropyEngine> FromStore(
      std::shared_ptr<SourceStore> store);
  /// Wraps a sharded store.
  static std::shared_ptr<EntropyEngine> FromSharded(
      std::shared_ptr<ShardedStore> sharded);
  /// Opens a persisted engine: a file loads as a 1 x 1 store, a mono
  /// store directory (MANIFEST v4 mono) as S = 1, a sharded directory
  /// (MANIFEST v4 sharded) as itself. A *versioned root* (a directory
  /// holding a CURRENT pointer — see storage/version_set.h) resolves to
  /// its current version's store directory first, so callers point at the
  /// root and transparently read whatever version is live; to time-travel,
  /// open a retained "root/v<id>" directly. Checksums are verified unless
  /// `opts.verify_checksums` is off; all I/O goes through `env`.
  static Result<std::shared_ptr<EntropyEngine>> Open(const std::string& path,
                                                     SummaryOptions opts = {},
                                                     Env* env = Env::Default());

  /// Number of row-shards S.
  size_t num_shards() const { return store_->num_shards(); }
  /// Number of summary sources, summed across shards.
  size_t num_summaries() const;
  /// Number of sample sources, summed across shards.
  size_t num_samples() const;
  /// The backing store (never null).
  const ShardedStore* sharded() const { return store_.get(); }
  /// The first shard's widest (fallback) summary — for a lone summary,
  /// that summary.
  const EntropySummary& primary() const;

  /// Attribute names shared by every source.
  const std::vector<std::string>& attr_names() const {
    return store_->attr_names();
  }
  /// Active-domain descriptors shared by every source (may be empty for
  /// summaries built from a bare registry).
  const std::vector<Domain>& domains() const { return store_->domains(); }
  bool has_domains() const { return store_->has_domains(); }
  /// Relation cardinality n: the total across shards.
  double n() const { return store_->n(); }
  /// Relation arity m.
  size_t num_attributes() const { return store_->num_attributes(); }

  /// The unified aggregate surface: COUNT/SUM/AVG routed per the class
  /// comment, QUANTILE/TOPK derived from the merged group-by marginal.
  /// JOIN kinds need a right-side engine — use AnswerJoin; here they are
  /// kInvalidArgument. The result's `route` always carries the decision
  /// (see the class comment); `decision` (optional) receives the same
  /// value.
  Result<QueryResult> Answer(const AggregateQuery& q,
                             RouteDecision* decision = nullptr) const;

  /// Fused-join estimates (kJoinCount / kJoinSum): this engine serves the
  /// LEFT relation (q.where, q.join_attr, and for JOIN_SUM q.agg_attr /
  /// q.weights), `right` the right relation (q.right_where,
  /// q.right_join_attr). Each side contributes its filtered join-attribute
  /// marginal from its own routed model; the fusion is the first-order
  /// delta estimate of maxent/join_fusion.h. The two join attributes'
  /// domains must agree in size (codes are matched positionally — fuse
  /// relations encoded against the same dictionary).
  Result<QueryResult> AnswerJoin(const AggregateQuery& q,
                                 const EntropyEngine& right,
                                 RouteDecision* decision = nullptr) const;

  /// Batched COUNT(*) workload, fanned across the thread pool; slot i
  /// matches qs[i] and equals the serial Answer(AggregateQuery::Count)
  /// answer.
  Result<std::vector<QueryEstimate>> AnswerAll(
      const std::vector<CountingQuery>& qs,
      std::vector<RouteDecision>* decisions = nullptr) const;

  /// Whole-attribute group-by (one batched derivative pass per shard) —
  /// summary-routed.
  Result<std::vector<QueryEstimate>> AnswerGroupByAttribute(
      AttrId a, const CountingQuery& base,
      RouteDecision* decision = nullptr) const;
  /// Point group-by over explicit keys — summary-routed.
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
      RouteDecision* decision = nullptr) const;

  /// Snapshot of the engine-level counters (see EngineStats).
  EngineStats stats() const;

 private:
  explicit EntropyEngine(std::shared_ptr<ShardedStore> store)
      : store_(std::move(store)) {}

  /// The merged whole-attribute marginal the group-by, quantile, and join
  /// surfaces share.
  Result<std::vector<QueryEstimate>> GroupByMarginal(
      AttrId a, const CountingQuery& base, RouteDecision* decision) const;

  std::shared_ptr<ShardedStore> store_;

  // Answer methods are const; the counters are observability, not state.
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> batched_queries_{0};
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_ENGINE_H_
