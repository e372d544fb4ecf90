#include "engine/engine.h"

#include <filesystem>

#include "maxent/join_fusion.h"
#include "maxent/quantile.h"
#include "storage/version_set.h"

namespace entropydb {

namespace {

/// The facade-level decision over per-shard decisions: the pruned/scanned
/// counters, plus the scanned shard's own decision when exactly one shard
/// answered (always the case for S = 1).
RouteDecision FacadeDecision(const std::vector<RouteDecision>& per_shard) {
  RouteDecision out;
  const RouteDecision* only = nullptr;
  size_t pruned = 0;
  size_t scanned = 0;
  for (const RouteDecision& d : per_shard) {
    if (d.pruned) {
      ++pruned;
    } else {
      only = &d;
      ++scanned;
    }
  }
  if (scanned == 1) out = *only;
  out.shards_pruned = pruned;
  out.shards_scanned = scanned;
  return out;
}

}  // namespace

std::shared_ptr<EntropyEngine> EntropyEngine::FromSummary(
    std::shared_ptr<EntropySummary> summary) {
  // One entry with no modeled pairs: routing always falls back to it.
  auto store = SourceStore::FromEntries({StoreEntry{std::move(summary), {}}});
  return FromStore(std::move(store).ValueOrDie());
}

std::shared_ptr<EntropyEngine> EntropyEngine::FromStore(
    std::shared_ptr<SourceStore> store) {
  auto sharded = ShardedStore::FromShards({std::move(store)},
                                          PartitionScheme::kRoundRobin);
  return FromSharded(std::move(sharded).ValueOrDie());
}

std::shared_ptr<EntropyEngine> EntropyEngine::FromSharded(
    std::shared_ptr<ShardedStore> sharded) {
  return std::shared_ptr<EntropyEngine>(new EntropyEngine(std::move(sharded)));
}

Result<std::shared_ptr<EntropyEngine>> EntropyEngine::Open(
    const std::string& path, SummaryOptions opts, Env* env) {
  if (!std::filesystem::is_directory(path)) {
    ASSIGN_OR_RETURN(std::shared_ptr<EntropySummary> summary,
                     EntropySummary::Load(path, opts, env));
    return FromSummary(std::move(summary));
  }
  if (VersionSet::IsVersionedRoot(path, env)) {
    // Resolve the atomic CURRENT pointer to the live version's store
    // directory; opening the root after a publish sees the new version,
    // while an engine already opened on the previous one keeps serving
    // its (immutable) files.
    VersionSet::Options vopts;
    vopts.verify_checksums = opts.verify_checksums;
    ASSIGN_OR_RETURN(std::unique_ptr<VersionSet> versions,
                     VersionSet::Open(path, env, vopts));
    if (versions->current() == 0) {
      return Status::FailedPrecondition(
          "versioned root has no published version: " + path);
    }
    return Open(versions->CurrentDir(), opts, env);
  }
  if (ShardedStore::IsShardedDir(path, env)) {
    ASSIGN_OR_RETURN(std::shared_ptr<ShardedStore> sharded,
                     ShardedStore::Load(path, opts, env));
    return FromSharded(std::move(sharded));
  }
  ASSIGN_OR_RETURN(std::shared_ptr<SourceStore> store,
                   SourceStore::Load(path, opts, env));
  return FromStore(std::move(store));
}

size_t EntropyEngine::num_summaries() const {
  size_t total = 0;
  for (size_t s = 0; s < store_->num_shards(); ++s) {
    total += store_->shard(s).size();
  }
  return total;
}

size_t EntropyEngine::num_samples() const {
  size_t total = 0;
  for (size_t s = 0; s < store_->num_shards(); ++s) {
    total += store_->shard(s).num_samples();
  }
  return total;
}

const EntropySummary& EntropyEngine::primary() const {
  const SourceStore& first = store_->shard(0);
  return first.summary(first.widest());
}

EngineStats EntropyEngine::stats() const {
  EngineStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  return s;
}

Result<QueryResult> EntropyEngine::Answer(const AggregateQuery& q,
                                          RouteDecision* decision) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  QueryResult out;
  switch (q.kind) {
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      std::vector<RouteDecision> per_shard;
      ASSIGN_OR_RETURN(out, store_->Answer(q, &per_shard));
      out.route = FacadeDecision(per_shard);
      break;
    }
    case AggregateKind::kQuantile:
    case AggregateKind::kTopK: {
      RouteDecision dec;
      ASSIGN_OR_RETURN(std::vector<QueryEstimate> cells,
                       GroupByMarginal(q.agg_attr, q.where, &dec));
      if (q.kind == AggregateKind::kQuantile) {
        ASSIGN_OR_RETURN(out, QuantileFromMarginal(cells, q.weights, q.q, n()));
      } else {
        ASSIGN_OR_RETURN(out, TopKFromMarginal(cells, q.k));
      }
      dec.summary_variance = out.estimate.variance;
      out.route = dec;
      break;
    }
    case AggregateKind::kJoinCount:
    case AggregateKind::kJoinSum:
      return Status::InvalidArgument(
          "join queries fuse two engines — use AnswerJoin with the "
          "right-side engine");
  }
  out.route.expected_variance = out.estimate.variance;
  if (decision != nullptr) *decision = out.route;
  return out;
}

Result<QueryResult> EntropyEngine::AnswerJoin(const AggregateQuery& q,
                                              const EntropyEngine& right,
                                              RouteDecision* decision) const {
  if (q.kind != AggregateKind::kJoinCount &&
      q.kind != AggregateKind::kJoinSum) {
    return Status::InvalidArgument(
        std::string("AnswerJoin answers join kinds only, not ") +
        AggregateKindName(q.kind));
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (q.join_attr >= num_attributes() ||
      q.right_join_attr >= right.num_attributes()) {
    return Status::OutOfRange("join attribute out of range");
  }
  RouteDecision dec;
  // Each side contributes its filtered join-attribute marginal from its
  // own routed model (merged additively across shards); the fusion itself
  // is pure marginal algebra.
  ASSIGN_OR_RETURN(std::vector<QueryEstimate> left_cells,
                   GroupByMarginal(q.join_attr, q.where, &dec));
  ASSIGN_OR_RETURN(
      std::vector<QueryEstimate> right_cells,
      right.GroupByMarginal(q.right_join_attr, q.right_where, nullptr));
  JoinSideMarginal right_marg;
  right_marg.n = right.n();
  right_marg.mass.reserve(right_cells.size());
  for (const QueryEstimate& c : right_cells) {
    right_marg.mass.push_back(c.expectation);
  }

  QueryResult out;
  if (q.kind == AggregateKind::kJoinCount) {
    JoinSideMarginal left_marg;
    left_marg.n = n();
    left_marg.mass.reserve(left_cells.size());
    for (const QueryEstimate& c : left_cells) {
      left_marg.mass.push_back(c.expectation);
    }
    ASSIGN_OR_RETURN(out, FuseJoinCount(left_marg, right_marg));
  } else {
    if (q.agg_attr >= num_attributes()) {
      return Status::OutOfRange("aggregate attribute out of range");
    }
    const size_t width = primary().registry().domain_size(q.agg_attr);
    if (q.weights.size() != width) {
      return Status::InvalidArgument(
          "weight vector must have one entry per value of the attribute");
    }
    // The left (join-code, value) grid: one point group-by over the two
    // attributes, every code combination as a key. s_j = sum_v w_v c_jv
    // then feeds the fusion.
    const std::vector<AttrId> attrs = {q.join_attr, q.agg_attr};
    std::vector<std::vector<Code>> keys;
    keys.reserve(left_cells.size() * width);
    for (Code j = 0; j < left_cells.size(); ++j) {
      for (Code v = 0; v < width; ++v) {
        keys.push_back({j, v});
      }
    }
    ASSIGN_OR_RETURN(auto grid_map,
                     store_->AnswerGroupBy(attrs, keys, q.where));
    std::vector<std::vector<double>> grid(left_cells.size(),
                                          std::vector<double>(width, 0.0));
    for (const auto& [key, est] : grid_map) {
      grid[key[0]][key[1]] = est.expectation;
    }
    ASSIGN_OR_RETURN(out, FuseJoinSum(n(), grid, q.weights, right_marg));
  }
  dec.expected_variance = out.estimate.variance;
  dec.summary_variance = out.estimate.variance;
  out.route = dec;
  if (decision != nullptr) *decision = dec;
  return out;
}

Result<std::vector<QueryEstimate>> EntropyEngine::AnswerAll(
    const std::vector<CountingQuery>& qs,
    std::vector<RouteDecision>* decisions) const {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_queries_.fetch_add(qs.size(), std::memory_order_relaxed);
  std::vector<std::vector<RouteDecision>> per_shard;
  ASSIGN_OR_RETURN(
      std::vector<QueryEstimate> out,
      store_->AnswerAll(qs, decisions != nullptr ? &per_shard : nullptr));
  if (decisions != nullptr) {
    decisions->resize(qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      (*decisions)[i] = FacadeDecision(per_shard[i]);
      (*decisions)[i].expected_variance = out[i].variance;
    }
  }
  return out;
}

Result<std::vector<QueryEstimate>> EntropyEngine::GroupByMarginal(
    AttrId a, const CountingQuery& base, RouteDecision* decision) const {
  if (decision == nullptr) return store_->AnswerGroupByAttribute(a, base);
  std::vector<RouteDecision> per_shard;
  auto out = store_->AnswerGroupByAttribute(a, base, &per_shard);
  *decision = FacadeDecision(per_shard);
  return out;
}

Result<std::vector<QueryEstimate>> EntropyEngine::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base, RouteDecision* decision) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  return GroupByMarginal(a, base, decision);
}

Result<std::map<std::vector<Code>, QueryEstimate>> EntropyEngine::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
    RouteDecision* decision) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (decision == nullptr) return store_->AnswerGroupBy(attrs, keys, base);
  std::vector<RouteDecision> per_shard;
  auto out = store_->AnswerGroupBy(attrs, keys, base, &per_shard);
  *decision = FacadeDecision(per_shard);
  return out;
}

}  // namespace entropydb
