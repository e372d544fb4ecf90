#include "query/aggregate.h"

#include <algorithm>
#include <cmath>

namespace entropydb {

double QueryEstimate::StdDev() const { return std::sqrt(variance); }

std::pair<double, double> QueryEstimate::ConfidenceInterval(double z,
                                                            double n) const {
  double half = z * StdDev();
  return {std::max(0.0, expectation - half), std::min(n, expectation + half)};
}

double QueryEstimate::RoundedCount() const { return std::round(expectation); }

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kQuantile:
      return "QUANTILE";
    case AggregateKind::kTopK:
      return "TOPK";
    case AggregateKind::kJoinCount:
      return "JOIN_COUNT";
    case AggregateKind::kJoinSum:
      return "JOIN_SUM";
  }
  return "?";
}

AggregateQuery AggregateQuery::Count(CountingQuery where) {
  AggregateQuery q;
  q.kind = AggregateKind::kCount;
  q.where = std::move(where);
  return q;
}

AggregateQuery AggregateQuery::Sum(AttrId a, std::vector<double> weights,
                                   CountingQuery where) {
  AggregateQuery q;
  q.kind = AggregateKind::kSum;
  q.agg_attr = a;
  q.weights = std::move(weights);
  q.where = std::move(where);
  return q;
}

AggregateQuery AggregateQuery::Avg(AttrId a, std::vector<double> weights,
                                   CountingQuery where) {
  AggregateQuery q = Sum(a, std::move(weights), std::move(where));
  q.kind = AggregateKind::kAvg;
  return q;
}

AggregateQuery AggregateQuery::Quantile(AttrId a, std::vector<double> reps,
                                        double rank, CountingQuery where) {
  AggregateQuery q;
  q.kind = AggregateKind::kQuantile;
  q.agg_attr = a;
  q.weights = std::move(reps);
  q.q = rank;
  q.where = std::move(where);
  return q;
}

AggregateQuery AggregateQuery::TopK(AttrId a, size_t k, CountingQuery where) {
  AggregateQuery q;
  q.kind = AggregateKind::kTopK;
  q.agg_attr = a;
  q.k = k;
  q.where = std::move(where);
  return q;
}

AggregateQuery AggregateQuery::JoinCount(AttrId left_join, AttrId right_join,
                                         CountingQuery left_where,
                                         CountingQuery right_where) {
  AggregateQuery q;
  q.kind = AggregateKind::kJoinCount;
  q.join_attr = left_join;
  q.right_join_attr = right_join;
  q.where = std::move(left_where);
  q.right_where = std::move(right_where);
  return q;
}

AggregateQuery AggregateQuery::JoinSum(AttrId sum_attr,
                                       std::vector<double> weights,
                                       AttrId left_join, AttrId right_join,
                                       CountingQuery left_where,
                                       CountingQuery right_where) {
  AggregateQuery q = JoinCount(left_join, right_join, std::move(left_where),
                               std::move(right_where));
  q.kind = AggregateKind::kJoinSum;
  q.agg_attr = sum_attr;
  q.weights = std::move(weights);
  return q;
}

QueryEstimate DeltaMethodRatio(const QueryEstimate& sum,
                               const QueryEstimate& count,
                               double sum_count_cov) {
  QueryEstimate out;
  if (count.expectation > 0.0) {
    const double c = count.expectation;
    const double r = sum.expectation / c;
    out.expectation = r;
    const double num =
        sum.variance - 2.0 * r * sum_count_cov + r * r * count.variance;
    out.variance = std::max(0.0, num / (c * c));
  }
  return out;
}

std::vector<double> BucketWeights(const Domain& dom) {
  std::vector<double> weights(dom.size());
  for (Code v = 0; v < dom.size(); ++v) {
    weights[v] = dom.is_categorical()
                     ? static_cast<double>(v)
                     : dom.RepresentativeFor(v).as_double();
  }
  return weights;
}

}  // namespace entropydb
