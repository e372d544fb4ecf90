#include "engine/query_router.h"

#include "common/thread_pool.h"

namespace entropydb {

std::vector<size_t> QueryRouter::CoveringEntries(
    const std::vector<uint8_t>& constrained, size_t* covered) const {
  size_t best = 0;
  std::vector<size_t> out;
  for (size_t k = 0; k < store_->size(); ++k) {
    size_t cover = 0;
    for (const ScoredPair& p : store_->entry(k).pairs) {
      if (constrained[p.a] && constrained[p.b]) ++cover;
    }
    if (cover > best) {
      best = cover;
      out.clear();
    }
    if (cover == best && cover > 0) out.push_back(k);
  }
  *covered = best;
  if (out.empty()) out.push_back(store_->widest());
  return out;
}

size_t QueryRouter::RouteEntry(
    const CountingQuery& q, const std::vector<AttrId>& extra_attrs,
    RouteDecision* decision,
    std::optional<QueryEstimate>* filter_count) const {
  if (decision != nullptr) *decision = RouteDecision{};
  if (q.num_attributes() != store_->num_attributes()) {
    // Arity errors surface from the chosen summary's own validation.
    return store_->widest();
  }
  std::vector<uint8_t> constrained = q.ConstrainedMask();
  for (AttrId a : extra_attrs) {
    if (a < constrained.size()) constrained[a] = 1;
  }
  size_t covered = 0;
  std::vector<size_t> candidates = CoveringEntries(constrained, &covered);
  size_t index = candidates.front();
  if (candidates.size() > 1) {
    // Tie-break like the counting path does, using the filter count's
    // variance as the routing objective (the aggregate itself would cost
    // a batched derivative pass per candidate).
    double best_var = 0.0;
    bool have = false;
    for (size_t k : candidates) {
      auto est = store_->summary(k).Answer(q);
      if (!est.ok()) continue;
      if (!have || est->variance < best_var) {
        best_var = est->variance;
        index = k;
        have = true;
        if (filter_count != nullptr) *filter_count = *est;
      }
    }
  }
  if (decision != nullptr) {
    decision->index = index;
    decision->covered_pairs = covered;
    decision->candidates = candidates.size();
    decision->fallback = covered == 0;
  }
  return index;
}

Result<bool> QueryRouter::BestSample(const CountingQuery& q, size_t* index,
                                     QueryEstimate* est) const {
  bool have = false;
  for (size_t s = 0; s < store_->num_samples(); ++s) {
    auto cand = store_->sample_source(s).Answer(q);
    if (!cand.ok()) {
      // An arity mismatch means this companion simply cannot serve the
      // query — an expected probe miss, skip it. Anything else (a corrupt
      // companion failing at answer time) must surface, not silently
      // shrink the candidate set.
      if (cand.status().IsInvalidArgument()) continue;
      return cand.status();
    }
    if (!have || cand->variance < est->variance) {
      *est = *cand;
      *index = s;
      have = true;
    }
  }
  return have;
}

Result<bool> QueryRouter::HybridChallenge(const CountingQuery& q,
                                          const QueryEstimate& summary_cnt,
                                          RouteDecision* decision,
                                          size_t* sample_index,
                                          QueryEstimate* sample_est) const {
  if (decision != nullptr) {
    decision->summary_variance = summary_cnt.variance;
    decision->sample_variance = std::numeric_limits<double>::infinity();
    decision->from_sample = false;
  }
  size_t index = 0;
  QueryEstimate est;
  ASSIGN_OR_RETURN(const bool have, BestSample(q, &index, &est));
  if (!have) return false;
  const bool from_sample = est.variance < summary_cnt.variance;
  if (decision != nullptr) {
    decision->sample_variance = est.variance;
    decision->from_sample = from_sample;
    decision->sample_index = index;
  }
  if (sample_index != nullptr) *sample_index = index;
  if (sample_est != nullptr) *sample_est = est;
  return from_sample;
}

Result<QueryEstimate> QueryRouter::Answer(const CountingQuery& q,
                                          RouteDecision* decision) const {
  if (q.num_attributes() != store_->num_attributes()) {
    return Status::InvalidArgument("query arity does not match the store");
  }
  size_t covered = 0;
  std::vector<size_t> candidates =
      CoveringEntries(q.ConstrainedMask(), &covered);

  // Stage 2: among tied candidates, the lowest-variance estimate wins
  // (first wins ties, keeping routing deterministic). The returned
  // estimate is exactly the chosen summary's own answer.
  QueryEstimate best_est;
  size_t best_index = candidates.front();
  bool have = false;
  for (size_t k : candidates) {
    ASSIGN_OR_RETURN(QueryEstimate est, store_->summary(k).Answer(q));
    if (!have || est.variance < best_est.variance) {
      best_est = est;
      best_index = k;
      have = true;
    }
  }

  // Stage 3 (hybrid): the best sample companion challenges the summary
  // winner; strictly lower expected variance takes the query.
  QueryEstimate sample_est;
  size_t sample_index = 0;
  ASSIGN_OR_RETURN(
      const bool from_sample,
      HybridChallenge(q, best_est, decision, &sample_index, &sample_est));

  if (decision != nullptr) {
    decision->index = best_index;
    decision->covered_pairs = covered;
    decision->candidates = candidates.size();
    decision->fallback = covered == 0;
    decision->expected_variance =
        from_sample ? sample_est.variance : best_est.variance;
  }
  return from_sample ? sample_est : best_est;
}

Result<QueryResult> QueryRouter::Answer(const AggregateQuery& q,
                                        RouteDecision* decision) const {
  RouteDecision dec;
  switch (q.kind) {
    case AggregateKind::kCount: {
      // COUNT runs the counting pipeline verbatim, so the aggregate
      // surface is bitwise the batcher's answer for the same filter.
      ASSIGN_OR_RETURN(QueryEstimate est, Answer(q.where, &dec));
      QueryResult out;
      out.estimate = est;
      out.count = est;
      out.has_moments = true;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    case AggregateKind::kSum: {
      std::optional<QueryEstimate> routed_cnt;
      const size_t index = RouteEntry(q.where, {q.agg_attr}, &dec, &routed_cnt);
      const EntropySummary& s = store_->summary(index);
      // Hybrid stage for SUM: stage-3 comparison on the filter count's
      // variance (the shared routing objective), then answer the
      // aggregate from the winner. The tie-break may have evaluated the
      // winner's count already; reuse it.
      if (store_->num_samples() > 0 &&
          q.where.num_attributes() == store_->num_attributes()) {
        auto cnt = routed_cnt.has_value() ? Result<QueryEstimate>(*routed_cnt)
                                          : s.Answer(q.where);
        if (cnt.ok()) {
          size_t sample_index = 0;
          ASSIGN_OR_RETURN(
              const bool from_sample,
              HybridChallenge(q.where, *cnt, &dec, &sample_index, nullptr));
          if (from_sample) {
            ASSIGN_OR_RETURN(QueryResult out,
                             store_->sample_source(sample_index).Answer(q));
            dec.expected_variance = out.estimate.variance;
            out.route = dec;
            if (decision != nullptr) *decision = dec;
            return out;
          }
        }
      }
      ASSIGN_OR_RETURN(QueryResult out, s.Answer(q));
      dec.expected_variance = out.estimate.variance;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    case AggregateKind::kAvg: {
      // Summary-only: samples have no batched ratio path.
      const size_t index = RouteEntry(q.where, {q.agg_attr}, &dec);
      ASSIGN_OR_RETURN(QueryResult out, store_->summary(index).Answer(q));
      dec.expected_variance = out.estimate.variance;
      out.route = dec;
      if (decision != nullptr) *decision = dec;
      return out;
    }
    default:
      return Status::NotSupported(
          std::string("aggregate kind ") + AggregateKindName(q.kind) +
          " is derived at the engine facade, not routed over one store");
  }
}

Result<std::vector<QueryEstimate>> QueryRouter::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base, RouteDecision* decision) const {
  return store_->summary(RouteEntry(base, {a}, decision))
      .AnswerGroupByAttribute(a, base);
}

Result<std::map<std::vector<Code>, QueryEstimate>> QueryRouter::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
    RouteDecision* decision) const {
  return store_->summary(RouteEntry(base, attrs, decision))
      .AnswerGroupBy(attrs, keys, base);
}

Result<std::vector<QueryEstimate>> QueryRouter::AnswerAll(
    const std::vector<CountingQuery>& qs,
    std::vector<RouteDecision>* decisions) const {
  const size_t count = qs.size();
  std::vector<QueryEstimate> out(count);
  if (decisions != nullptr) decisions->assign(count, RouteDecision{});
  std::vector<Status> statuses(count, Status::OK());
  // Disjoint output slots: the fan-out answers exactly what the serial
  // loop would, and the pooled workspaces underneath keep per-summary
  // evaluation concurrent rather than serialized.
  ParallelFor(count, 2, [&](size_t i) {
    RouteDecision dec;
    auto est = Answer(qs[i], &dec);
    if (!est.ok()) {
      statuses[i] = est.status();
      return;
    }
    out[i] = *est;
    if (decisions != nullptr) (*decisions)[i] = dec;
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return out;
}

}  // namespace entropydb
