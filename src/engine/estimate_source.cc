#include "engine/estimate_source.h"

namespace entropydb {

SampleSource::SampleSource(std::shared_ptr<const WeightedSample> sample)
    : sample_(std::move(sample)), estimator_(*sample_) {}

Result<QueryEstimate> SampleSource::Answer(const CountingQuery& q) const {
  if (q.num_attributes() != num_attributes()) {
    return Status::InvalidArgument("query arity does not match the sample");
  }
  return estimator_.Count(q);
}

Result<QueryResult> SampleSource::Answer(const AggregateQuery& q) const {
  if (q.where.num_attributes() != num_attributes()) {
    return Status::InvalidArgument("query arity does not match the sample");
  }
  if (q.kind == AggregateKind::kCount) {
    QueryResult out;
    out.estimate = estimator_.Count(q.where);
    out.count = out.estimate;
    out.has_moments = true;
    out.route.expected_variance = out.estimate.variance;
    return out;
  }
  if (q.kind != AggregateKind::kSum) {
    return Status::NotSupported(
        std::string("aggregate kind ") + AggregateKindName(q.kind) +
        " does not answer from a sample source");
  }
  if (q.agg_attr >= num_attributes() ||
      q.weights.size() != sample_->rows->domain(q.agg_attr).size()) {
    return Status::InvalidArgument("bad aggregate attribute or weights");
  }
  // One matching-row pass fills both legs AND the covariance; the sum leg
  // is bitwise what the dedicated Sum accumulator reports.
  QueryResult out = estimator_.Moments(q.agg_attr, q.weights, q.where);
  out.estimate = out.sum;
  out.route.expected_variance = out.estimate.variance;
  return out;
}

}  // namespace entropydb
