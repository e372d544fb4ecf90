#ifndef ENTROPYDB_ENGINE_ESTIMATE_SOURCE_H_
#define ENTROPYDB_ENGINE_ESTIMATE_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "maxent/summary.h"
#include "query/aggregate.h"
#include "query/counting_query.h"
#include "sampling/sample.h"
#include "sampling/sample_estimator.h"

namespace entropydb {

/// \brief One answerable backend behind the hybrid router: anything that can
/// turn a query into an estimate PLUS an expected variance.
///
/// The paper's central evaluation (Figs. 5-6) pits maxent summaries against
/// stratified/uniform samples; this interface is what lets the serving
/// engine hold BOTH kinds behind one surface and route each query to
/// whichever source expects the lower variance (see engine/query_router.h
/// and docs/ESTIMATORS.md for the per-source variance formulas).
///
/// The surface is the unified aggregate API: ONE Answer(AggregateQuery)
/// entry point for every kind a single source can serve (COUNT/SUM, and
/// AVG for summaries), plus the bare counting primitive the router's hot
/// path and the batcher fan out on. Results carry the SUM/COUNT moment
/// legs and their covariance so cross-shard merging stays exact.
///
/// SampleSource implements it for samples; summaries are served by
/// EntropySummary's own Answer overloads, which have the same shape.
/// Implementations are immutable after construction and safe to call
/// concurrently; the routed answer is always the chosen source's own answer
/// bit for bit.
class EstimateSource {
 public:
  /// Which estimator family a source belongs to — surfaced in routing
  /// decisions and by `entropydb_query --store`.
  enum class Kind { kSummary, kSample };

  virtual ~EstimateSource() = default;

  /// The source's estimator family.
  virtual Kind kind() const = 0;
  /// Display name, e.g. "maxent(origin,dest)" or "Strat(origin,dest)".
  virtual const std::string& name() const = 0;
  /// Arity of the relation this source summarizes.
  virtual size_t num_attributes() const = 0;
  /// COUNT(*) estimate with expected variance — the routing primitive.
  virtual Result<QueryEstimate> Answer(const CountingQuery& q) const = 0;
  /// The unified aggregate surface. Summaries answer COUNT/SUM/AVG;
  /// samples answer COUNT/SUM (with Horvitz-Thompson moment legs) and
  /// report kNotSupported for AVG. QUANTILE/TOPK/JOIN kinds derive at the
  /// engine facade and are kNotSupported on every single source.
  virtual Result<QueryResult> Answer(const AggregateQuery& q) const = 0;
};

/// \brief EstimateSource over a weighted row sample: Horvitz-Thompson
/// estimates with the sample-variance formulas of
/// sampling/sample_estimator.h (finite even when no sampled row matches).
class SampleSource : public EstimateSource {
 public:
  /// Wraps a sample; the display name is taken from the sample itself.
  explicit SampleSource(std::shared_ptr<const WeightedSample> sample);

  Kind kind() const override { return Kind::kSample; }
  const std::string& name() const override { return sample_->name; }
  size_t num_attributes() const override {
    return sample_->rows ? sample_->rows->num_attributes() : 0;
  }
  Result<QueryEstimate> Answer(const CountingQuery& q) const override;
  Result<QueryResult> Answer(const AggregateQuery& q) const override;

  /// The wrapped sample.
  const WeightedSample& sample() const { return *sample_; }
  std::shared_ptr<const WeightedSample> sample_ptr() const {
    return sample_;
  }

 private:
  std::shared_ptr<const WeightedSample> sample_;
  SampleEstimator estimator_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_ESTIMATE_SOURCE_H_
