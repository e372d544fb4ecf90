#ifndef ENTROPYDB_ENGINE_SOURCE_STORE_H_
#define ENTROPYDB_ENGINE_SOURCE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "engine/estimate_source.h"
#include "maxent/budget_advisor.h"
#include "maxent/summary.h"
#include "sampling/sample.h"
#include "stats/pair_selector.h"
#include "stats/selector.h"
#include "storage/table.h"

namespace entropydb {

/// Build-time knobs for a multi-source store.
struct StoreOptions {
  /// Number of summaries K; each models one of the top-K ranked attribute
  /// pairs (attribute-cover order, the paper's recommended strategy).
  /// Capped at the number of available pairs.
  size_t num_summaries = 3;
  /// Total 2-D statistic budget B, split evenly: each summary's pair gets
  /// B / K statistics.
  size_t total_budget = 1200;
  /// When true, BudgetAdvisor::Advise decides BOTH how many pairs to model
  /// (K = best candidate's Ba) and which ones, overriding `num_summaries`.
  /// Costs several trial summary builds (Sec 4.3 breadth-vs-depth search).
  bool use_budget_advisor = false;
  /// 2-D statistic selection heuristic per pair.
  SelectionHeuristic heuristic = SelectionHeuristic::kComposite;
  /// Attributes to exclude from pairing (e.g. near-uniform ones).
  std::vector<AttrId> exclude;
  /// When non-empty, model exactly these pairs (one summary each) and skip
  /// pair ranking and the advisor entirely. This is how a sharded build
  /// (engine/sharded_store.h) ranks pairs ONCE on the full relation and
  /// then builds every shard on the same pairs — per-shard ranking would
  /// both waste an O(rows x m^2) scan per shard and let shards disagree on
  /// which correlations the store models.
  std::vector<ScoredPair> forced_pairs;
  /// Solver / polynomial knobs, shared by every summary build.
  SummaryOptions summary;

  // -- Sample companions (the paper's Sec 6.2 baselines, servable) -------
  /// Number of stratified samples to build alongside the summaries, one per
  /// top-ranked pair in the same rank order the summaries use (capped at
  /// the number of chosen pairs). 0 keeps the store summary-only.
  size_t num_stratified_samples = 0;
  /// Also build one uniform Bernoulli sample over the whole relation.
  bool uniform_sample = false;
  /// Sampling fraction shared by every sample companion (paper: 1%).
  double sample_fraction = 0.01;
  /// RNG seed for the sample draws (deterministic builds).
  uint64_t sample_seed = 1031;
  /// Build a row-group index (sampling/sample_index.h) for every sample
  /// companion, so selective queries touch matching row groups instead of
  /// scanning the whole sample. Indexed and unindexed evaluation are
  /// bitwise identical — this knob trades index memory/build time for
  /// route-time latency only. Indexes are built in parallel and persisted
  /// in the .eds files Save writes.
  bool sample_index = true;
};

/// One summary of the store plus the attribute pairs it models — the
/// routing metadata QueryRouter keys on.
struct StoreEntry {
  std::shared_ptr<EntropySummary> summary;
  std::vector<ScoredPair> pairs;
};

/// One sample of the store plus its stratification pairs (empty for a
/// uniform sample) — the same routing metadata shape as StoreEntry.
struct SampleEntry {
  std::shared_ptr<const WeightedSample> sample;
  std::vector<ScoredPair> pairs;
};

/// \brief Owns the heterogeneous estimate sources of one relation: K
/// EntropySummaries (each modeling the 2-D statistics of one
/// highly-correlated attribute pair) PLUS any number of weighted sample
/// companions (stratified / uniform, Sec 6.2's baselines). A router can
/// then answer every query from the source that covers it best — summary
/// or sample, whichever expects the lower variance (docs/ESTIMATORS.md).
///
/// Build ranks pairs by bias-corrected Cramér's V, picks the top K by
/// attribute cover (or lets BudgetAdvisor choose the breadth-vs-depth
/// split), and solves the K summaries IN PARALLEL on the shared thread
/// pool — summary builds are independent, and nested solver fan-outs
/// degrade inline on worker threads (see common/thread_pool.h). Sample
/// companions are drawn after the pair ranking, stratified on the same
/// top-ranked pairs.
///
/// Sample companions carry a row-group index (sampling/sample_index.h,
/// StoreOptions::sample_index) built in parallel at Build time; Save
/// persists it in the .eds files and Load restores it inside the parallel
/// load fan-out.
///
/// Save/Load persist the whole store as a directory (one checksummed
/// MANIFEST v4 plus one .edb file per summary and one .eds file per
/// sample), restoring without re-solving or re-sampling; loads are
/// parallel. All sources share the relation's attribute schema; queries
/// are position-compatible across the store. A store is one shard of the
/// engine's S x K shape (engine/sharded_store.h): EntropyEngine serves a
/// mono directory as the S = 1 case and a lone summary as one entry with
/// no pairs.
class SourceStore {
 public:
  static Result<std::shared_ptr<SourceStore>> Build(const Table& table,
                                                    StoreOptions opts = {});

  /// The pair-selection step of Build, exposed so a sharded build
  /// (engine/sharded_store.h) can run it ONCE on the full relation and
  /// force the result into every shard: forced pairs win, else the
  /// advisor (when enabled), else rank-and-choose by attribute cover.
  /// Validates every chosen pair against the table's arity.
  static Result<std::vector<ScoredPair>> ResolvePairs(
      const Table& table, const StoreOptions& opts);

  /// Number of summary entries.
  size_t size() const { return entries_.size(); }
  const StoreEntry& entry(size_t k) const { return entries_[k]; }
  const EntropySummary& summary(size_t k) const {
    return *entries_[k].summary;
  }
  std::shared_ptr<EntropySummary> summary_ptr(size_t k) const {
    return entries_[k].summary;
  }

  /// Number of sample companions (0 for a summary-only store).
  size_t num_samples() const { return samples_.size(); }
  const SampleEntry& sample_entry(size_t s) const { return samples_[s]; }
  /// The servable EstimateSource over sample `s`.
  const SampleSource& sample_source(size_t s) const {
    return *sample_sources_[s];
  }

  /// Index of the fallback summary for queries no summary covers: the
  /// entry whose pairs span the most attributes, ties broken toward the
  /// most correlated (lowest index).
  size_t widest() const { return widest_; }

  // Schema accessors, identical across sources (validated on Build/Load).
  const std::vector<std::string>& attr_names() const {
    return entries_.front().summary->attr_names();
  }
  const std::vector<Domain>& domains() const {
    return entries_.front().summary->domains();
  }
  bool has_domains() const {
    return entries_.front().summary->has_domains();
  }
  double n() const { return entries_.front().summary->n(); }
  size_t num_attributes() const {
    return entries_.front().summary->num_attributes();
  }

  /// Atomically persists the store at directory `dir`: the contents
  /// (`MANIFEST` v4 plus `summary_<k>.edb` per summary and
  /// `sample_<s>.eds` per sample, every file checksummed and synced) are
  /// staged into a `<dir>.tmp-<nonce>` sibling and published at `dir` in
  /// one rename — a crash at any point leaves `dir` as exactly the old
  /// store or the new one, never a mix.
  Status Save(const std::string& dir, Env* env = Env::Default()) const;
  /// The non-atomic half of Save: writes and syncs the store's files
  /// directly into `dir` (created if missing) with no staging. Exposed so
  /// a sharded save can stage its WHOLE tree once and publish once;
  /// everyone else wants Save.
  Status SaveContents(const std::string& dir, Env* env) const;
  /// Restores a saved store without re-solving (sources load in
  /// parallel). Requires a checksummed MANIFEST v4 mono record (a sharded
  /// one is kInvalidArgument, a missing footer kCorruption).
  /// Garbage-collects stale staging directories a crashed save left next
  /// to `dir`.
  static Result<std::shared_ptr<SourceStore>> Load(const std::string& dir,
                                                   SummaryOptions opts = {},
                                                   Env* env = Env::Default());

  /// Assembles a summary-only store from already-built summaries (also
  /// handy for tests). Entries must be non-empty and agree on the
  /// attribute schema.
  static Result<std::shared_ptr<SourceStore>> FromEntries(
      std::vector<StoreEntry> entries);

  /// Assembles a store from already-built summaries AND samples (the path
  /// Load uses). At least one summary is required — the router's fallback
  /// is always a summary; samples must share the summaries' arity.
  static Result<std::shared_ptr<SourceStore>> FromParts(
      std::vector<StoreEntry> entries, std::vector<SampleEntry> samples);

 private:
  SourceStore(std::vector<StoreEntry> entries,
              std::vector<SampleEntry> samples);

  std::vector<StoreEntry> entries_;
  std::vector<SampleEntry> samples_;
  std::vector<std::shared_ptr<SampleSource>> sample_sources_;
  size_t widest_ = 0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_SOURCE_STORE_H_
