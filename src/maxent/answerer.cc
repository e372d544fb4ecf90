#include "maxent/answerer.h"

#include <algorithm>
#include <cmath>

namespace entropydb {

QueryAnswerer::QueryAnswerer(const VariableRegistry& reg,
                             const CompressedPolynomial& poly,
                             const ModelState& state)
    : reg_(reg), poly_(poly), state_(state), pool_(poly, state) {
  full_value_ = pool_.full_value();
}

Result<QueryEstimate> QueryAnswerer::Answer(const CountingQuery& q) const {
  if (q.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  QueryMask mask = QueryMask::FromQuery(q, reg_.domain_sizes());
  WorkspacePool::Lease lease = pool_.Acquire();
  const double masked = poly_.MaskedEvaluate(state_, mask, lease.get()).value;
  const double p = std::clamp(masked / full_value_, 0.0, 1.0);
  QueryEstimate est;
  est.expectation = reg_.n() * p;
  est.variance = reg_.n() * p * (1.0 - p);
  return est;
}

Result<QueryResult> QueryAnswerer::Answer(const AggregateQuery& q) const {
  QueryResult out;
  if (q.kind == AggregateKind::kCount) {
    ASSIGN_OR_RETURN(out.estimate, Answer(q.where));
    // The count leg repeats the estimate so moment merging is uniform
    // across kinds; the (absent) sum leg and covariance stay zero.
    out.count = out.estimate;
    out.has_moments = true;
    out.route.expected_variance = out.estimate.variance;
    out.route.summary_variance = out.estimate.variance;
    return out;
  }
  if (q.kind != AggregateKind::kSum && q.kind != AggregateKind::kAvg) {
    return Status::NotSupported(
        std::string("aggregate kind ") + AggregateKindName(q.kind) +
        " is derived at the engine facade, not answered by one model");
  }
  const AttrId a = q.agg_attr;
  if (a >= reg_.num_attributes()) {
    return Status::OutOfRange("aggregate attribute out of range");
  }
  if (q.weights.size() != reg_.domain_size(a)) {
    return Status::InvalidArgument(
        "weight vector must have one entry per value of the attribute");
  }
  // One batched pass for the per-value counts; the matching total C comes
  // from Answer(where) so the ratio's denominator (and the count leg) is
  // the same estimate a plain COUNT reports.
  ASSIGN_OR_RETURN(std::vector<QueryEstimate> counts,
                   AnswerGroupByAttribute(a, q.where));
  ASSIGN_OR_RETURN(out.count, Answer(q.where));

  // Multinomial cell moments over the matching values:
  //   Var S  = n (sum w^2 p - (sum w p)^2)
  //   Var C  = n P (1 - P)
  //   Cov    = n (sum w p) (1 - P)
  const double n = reg_.n();
  double swp = 0.0, sw2p = 0.0;
  for (Code v = 0; v < q.weights.size(); ++v) {
    const double pv = counts[v].expectation / n;
    out.sum.expectation += q.weights[v] * counts[v].expectation;
    swp += q.weights[v] * pv;
    sw2p += q.weights[v] * q.weights[v] * pv;
  }
  out.sum.variance = std::max(0.0, n * (sw2p - swp * swp));
  const double big_p = std::clamp(out.count.expectation / n, 0.0, 1.0);
  const double mean_wp = out.sum.expectation / n;  // sum_v w_v p_v
  out.sum_count_cov = n * mean_wp * (1.0 - big_p);
  out.has_moments = true;

  if (q.kind == AggregateKind::kSum) {
    out.estimate = out.sum;
  } else {
    out.estimate = DeltaMethodRatio(out.sum, out.count, out.sum_count_cov);
  }
  out.route.expected_variance = out.estimate.variance;
  out.route.summary_variance = out.estimate.variance;
  return out;
}

Result<std::vector<QueryEstimate>> QueryAnswerer::AnswerGroupByAttribute(
    AttrId a, const CountingQuery& base) const {
  if (base.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  if (a >= reg_.num_attributes()) {
    return Status::OutOfRange("group-by attribute out of range");
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  // Mask with the base filter but leave attribute `a` unconstrained: the
  // per-value masked cofactors then split the filtered mass by value.
  CountingQuery relaxed = base;
  relaxed.Where(a, AttrPredicate::Any());
  QueryMask mask = QueryMask::FromQuery(relaxed, reg_.domain_sizes());
  std::vector<double> cof;
  {
    // The derivative pass consumes the masked evaluation's workspace
    // residue, so both run under one lease.
    WorkspacePool::Lease lease = pool_.Acquire();
    const auto eval = poly_.MaskedEvaluate(state_, mask, lease.get());
    cof = poly_.MaskedAlphaDerivatives(state_, eval, a, lease.get());
  }

  const AttrPredicate& pred = base.predicate(a);
  const double n = reg_.n();
  std::vector<QueryEstimate> out(reg_.domain_size(a));
  for (Code v = 0; v < reg_.domain_size(a); ++v) {
    QueryEstimate est;
    if (pred.Matches(v)) {
      const double p =
          std::clamp(state_.alpha[a][v] * cof[v] / full_value_, 0.0, 1.0);
      est.expectation = n * p;
      est.variance = n * p * (1.0 - p);
    }
    out[v] = est;
  }
  return out;
}

Result<std::map<std::vector<Code>, QueryEstimate>> QueryAnswerer::AnswerGroupBy(
    const std::vector<AttrId>& attrs,
    const std::vector<std::vector<Code>>& keys,
    const CountingQuery& base) const {
  if (base.num_attributes() != reg_.num_attributes()) {
    return Status::InvalidArgument("query arity does not match the summary");
  }
  for (AttrId a : attrs) {
    if (a >= reg_.num_attributes()) {
      return Status::OutOfRange("group-by attribute out of range");
    }
  }
  if (!(full_value_ > 0.0)) {
    return Status::FailedPrecondition("summary is not solved (P <= 0)");
  }
  // One masked evaluation with every group-by attribute relaxed serves all
  // keys; each key only re-walks the components its attributes touch, with
  // point lookups substituted for that attribute's range sums.
  CountingQuery relaxed = base;
  for (AttrId a : attrs) relaxed.Where(a, AttrPredicate::Any());
  QueryMask mask = QueryMask::FromQuery(relaxed, reg_.domain_sizes());
  // The per-key point overrides consume the masked evaluation's workspace
  // residue, so the whole batch runs under one lease.
  WorkspacePool::Lease lease = pool_.Acquire();
  const auto eval = poly_.MaskedEvaluate(state_, mask, lease.get());

  const double n = reg_.n();
  std::map<std::vector<Code>, QueryEstimate> out;
  for (const auto& key : keys) {
    if (key.size() != attrs.size()) {
      return Status::InvalidArgument("group-by key arity mismatch");
    }
    QueryEstimate est;
    // A key cell contributes only if it lies in the domain AND satisfies
    // the base filter on its own attribute — relaxing above widened the
    // mask, so the filter must be re-applied per cell (the same contract
    // AnswerGroupByAttribute keeps via pred.Matches).
    bool in_domain = true;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (key[i] >= reg_.domain_size(attrs[i]) ||
          !base.predicate(attrs[i]).Matches(key[i])) {
        in_domain = false;
      }
    }
    if (in_domain) {
      const double masked =
          poly_.PointOverrideValue(state_, eval, attrs, key, lease.get());
      const double p = std::clamp(masked / full_value_, 0.0, 1.0);
      est.expectation = n * p;
      est.variance = n * p * (1.0 - p);
    }
    out.emplace(key, est);
  }
  return out;
}

}  // namespace entropydb
