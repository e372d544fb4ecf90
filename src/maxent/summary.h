#ifndef ENTROPYDB_MAXENT_SUMMARY_H_
#define ENTROPYDB_MAXENT_SUMMARY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "maxent/answerer.h"
#include "maxent/polynomial.h"
#include "maxent/solver.h"
#include "maxent/variable_registry.h"
#include "storage/table.h"

namespace entropydb {

/// Build-time knobs for a summary (the struct is also threaded through
/// every Load path, so it carries the open-time knobs too).
struct SummaryOptions {
  SolverOptions solver;
  PolynomialOptions polynomial;
  /// Verify the CRC32C footer of every artifact read during a load
  /// (summaries, samples, manifests). On by default; bench_durability
  /// turns it off to measure the checksum overhead on open. The footer
  /// itself is required either way: a file without one is kCorruption.
  bool verify_checksums = true;
};

/// \brief The EntropyDB data summary: the compressed MaxEnt polynomial with
/// solved parameters, ready to answer linear counting queries.
///
/// This is the system's primary public entry point:
///
///   auto summary = EntropySummary::Build(*table, stats);
///   auto est = summary->Answer(query);
///   est->expectation;   // approximate COUNT(*)
///
/// Building extracts the complete 1-D statistics from the table, compresses
/// the polynomial (Theorem 4.1) and fits the model (Algorithm 1). The
/// summary afterwards never touches the base data — its size is governed by
/// the statistic budget, not the relation (Sec 4.1).
///
/// Construction (including Load) eagerly warms the query answerer's
/// workspace pool — the unmasked polynomial value plus per-group factor
/// caches, computed once and shared immutably by every pooled workspace —
/// so the first query is as fast as every later one; see
/// docs/PERFORMANCE.md for the evaluation engine's cost model. Queries are
/// safe to issue concurrently from any number of threads and scale with
/// cores: each claims a pooled workspace lock-free (see
/// maxent/workspace_pool.h), and estimates are bitwise-stable regardless
/// of interleaving. For serving several summaries behind one endpoint, see
/// the engine layer (engine/source_store.h, engine/query_router.h).
class EntropySummary {
 public:
  /// Builds a summary of `table` given the chosen multi-dimensional
  /// statistics (possibly empty for a 1-D-only summary).
  static Result<std::shared_ptr<EntropySummary>> Build(
      const Table& table, std::vector<MultiDimStatistic> mds,
      SummaryOptions opts = {});

  /// Builds from an explicit registry (targets already known) — the path
  /// used by deserialization and by tests.
  static Result<std::shared_ptr<EntropySummary>> FromRegistry(
      VariableRegistry reg, SummaryOptions opts = {},
      std::vector<std::string> attr_names = {},
      std::vector<Domain> domains = {});

  /// Approximate COUNT(*) with variance for a conjunctive query.
  Result<QueryEstimate> Answer(const CountingQuery& q) const {
    return answerer_->Answer(q);
  }

  /// The unified aggregate surface (COUNT/SUM/AVG; see
  /// QueryAnswerer::Answer(const AggregateQuery&) for the moment model
  /// every result carries).
  Result<QueryResult> Answer(const AggregateQuery& q) const {
    return answerer_->Answer(q);
  }

  /// Point group-by estimates (see QueryAnswerer::AnswerGroupBy).
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys,
      const CountingQuery& base) const {
    return answerer_->AnswerGroupBy(attrs, keys, base);
  }

  /// Estimates for every value of one attribute in a single batched pass
  /// (see QueryAnswerer::AnswerGroupByAttribute).
  Result<std::vector<QueryEstimate>> AnswerGroupByAttribute(
      AttrId a, const CountingQuery& base) const {
    return answerer_->AnswerGroupByAttribute(a, base);
  }

  double n() const { return reg_.n(); }
  size_t num_attributes() const { return reg_.num_attributes(); }
  /// The warmed query answerer (e.g. to read FullPolynomialValue, or to
  /// construct additional per-thread answerers against state()).
  const QueryAnswerer& answerer() const { return *answerer_; }
  const VariableRegistry& registry() const { return reg_; }
  const CompressedPolynomial& polynomial() const { return poly_; }
  const ModelState& state() const { return state_; }
  const SolverReport& solver_report() const { return report_; }
  const std::vector<std::string>& attr_names() const { return attr_names_; }

  /// Per-attribute active-domain descriptors, carried from the source table
  /// (empty when built from a bare registry). When present they are
  /// serialized with the summary so raw-value queries — "origin = 'S3'",
  /// "distance BETWEEN 100 AND 500" — can be answered from the summary file
  /// alone (see query/parser.h and the entropydb_query tool).
  const std::vector<Domain>& domains() const { return domains_; }
  bool has_domains() const { return !domains_.empty(); }

  /// Serializes the summary (statistics + solved parameters) to a text
  /// file with a CRC32C footer (format v2), synced to stable storage
  /// before returning; Load restores it without re-solving. All I/O goes
  /// through `env` (Env::Default() in production; FaultInjectionEnv in
  /// the crash-safety suites).
  Status Save(const std::string& path, Env* env = Env::Default()) const;
  /// Restores a saved v2 summary, which must carry a valid checksum
  /// footer and a domains record (kCorruption otherwise).
  /// opts.verify_checksums = false skips the CRC computation but still
  /// requires the footer.
  static Result<std::shared_ptr<EntropySummary>> Load(
      const std::string& path, SummaryOptions opts = {},
      Env* env = Env::Default());

 private:
  EntropySummary(VariableRegistry reg, CompressedPolynomial poly,
                 ModelState state, SolverReport report,
                 std::vector<std::string> attr_names,
                 std::vector<Domain> domains)
      : reg_(std::move(reg)),
        poly_(std::move(poly)),
        state_(std::move(state)),
        report_(std::move(report)),
        attr_names_(std::move(attr_names)),
        domains_(std::move(domains)) {
    answerer_ = std::make_unique<QueryAnswerer>(reg_, poly_, state_);
  }

  VariableRegistry reg_;
  CompressedPolynomial poly_;
  ModelState state_;
  SolverReport report_;
  std::vector<std::string> attr_names_;
  std::vector<Domain> domains_;
  std::unique_ptr<QueryAnswerer> answerer_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_MAXENT_SUMMARY_H_
