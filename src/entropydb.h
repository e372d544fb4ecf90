#ifndef ENTROPYDB_ENTROPYDB_H_
#define ENTROPYDB_ENTROPYDB_H_

/// \file entropydb.h
/// \brief Umbrella header for the EntropyDB library — probabilistic database
/// summarization for interactive data exploration (Orr, Balazinska, Suciu;
/// VLDB 2017).
///
/// Typical use — the engine facade serves ONE store shape, S >= 1 row
/// shards of K >= 1 sources (maxent summaries + sample companions), behind
/// one query surface; a single summary is the 1 x 1 case and a routed
/// store the S = 1 case:
/// \code
///   using namespace entropydb;
///   auto table = FlightsGenerator::Generate({.num_rows = 500000});
///   StoreOptions opts;
///   opts.num_summaries = 3;    // top-3 correlated pairs, built in parallel
///   opts.total_budget = 1500;  // 2-D statistics split across them
///   opts.num_stratified_samples = 2;  // hybrid: samples ride along
///   auto store = SourceStore::Build(**table, opts);
///   auto engine = EntropyEngine::FromStore(*store);
///   auto q = QueryBuilder(**table)
///                .WhereEquals("origin", Value(std::string("S3")))
///                .WhereBetween("distance", 500, 1000)
///                .Build();
///   RouteDecision why;
///   auto result = engine->Answer(AggregateQuery::Count(*q), &why);
///   // why.from_sample tells you which estimator family won;
///   // docs/ESTIMATORS.md derives the variance comparison. The same
///   // Answer surface takes Sum/Avg/Quantile/TopK; AnswerJoin fuses two
///   // engines' models on a shared attribute.
/// \endcode
///
/// Single-summary path (the original seed API): EntropySummary::Build +
/// Answer, or EntropyEngine::FromSummary (or Open on a .edb file) for the
/// same facade over the 1 x 1 store.

#include "common/env.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "engine/compaction.h"
#include "engine/engine.h"
#include "engine/estimate_source.h"
#include "engine/ingest.h"
#include "engine/query_router.h"
#include "engine/sharded_store.h"
#include "engine/source_store.h"
#include "engine/versioned.h"
#include "maxent/answerer.h"
#include "maxent/budget_advisor.h"
#include "maxent/dense_model.h"
#include "maxent/gradient_solver.h"
#include "maxent/polynomial.h"
#include "maxent/solver.h"
#include "maxent/summary.h"
#include "maxent/variable_registry.h"
#include "maxent/workspace_pool.h"
#include "query/counting_query.h"
#include "query/exact_evaluator.h"
#include "query/linear_query.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "sampling/sample.h"
#include "sampling/sample_estimator.h"
#include "sampling/sample_index.h"
#include "sampling/sample_io.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/kd_tree.h"
#include "stats/pair_selector.h"
#include "stats/selector.h"
#include "stats/statistic.h"
#include "storage/csv.h"
#include "storage/partitioner.h"
#include "storage/table.h"
#include "storage/table_builder.h"
#include "storage/version_set.h"
#include "storage/wal.h"
#include "storage/zone_map.h"
#include "workload/flights.h"
#include "workload/metrics.h"
#include "workload/particles.h"
#include "workload/query_workload.h"

#endif  // ENTROPYDB_ENTROPYDB_H_
