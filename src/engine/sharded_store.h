#ifndef ENTROPYDB_ENGINE_SHARDED_STORE_H_
#define ENTROPYDB_ENGINE_SHARDED_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_router.h"
#include "engine/source_store.h"
#include "storage/partitioner.h"
#include "storage/zone_map.h"

namespace entropydb {

/// Build-time knobs for a sharded store.
struct ShardedOptions {
  /// Number of row-shards S (>= 1; 1 is the monolithic layout inside the
  /// sharded format, handy as a scaling baseline).
  size_t num_shards = 4;
  /// How rows are assigned to shards (storage/partitioner.h).
  PartitionScheme scheme = PartitionScheme::kRoundRobin;
  /// Seed for PartitionScheme::kHash.
  uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
  /// Routing attribute for PartitionScheme::kAttribute (ignored by the
  /// other schemes). Attribute partitioning gives each shard a contiguous
  /// slice of this attribute's domain, which is what makes the per-shard
  /// zone maps maximally selective.
  AttrId partition_attr = 0;
  /// Per-shard build knobs, applied to every shard's SourceStore::Build:
  /// each shard models its own row partition with the FULL budget/sample
  /// settings (sharding scales data size, it does not dilute per-shard
  /// fidelity). Pair ranking runs ONCE on the full relation and is forced
  /// into every shard (StoreOptions::forced_pairs), so all shards model
  /// the same attribute pairs; sample seeds are offset per shard so
  /// companion draws decorrelate.
  StoreOptions store;
};

/// \brief The one store shape every engine serves: S >= 1 disjoint
/// row-shards, each a SourceStore of K >= 1 sources (maxent summaries plus
/// sample companions), answered by fanning a query out to every shard and
/// merging the per-shard estimates. A monolithic store is the S = 1 case
/// and a lone summary the 1 x 1 case (EntropyEngine::Open builds both).
///
/// The layering is deliberately bolt-on (the OrpheusDB pattern): nothing
/// below this class knows about shards. Build partitions the base table
/// (storage/partitioner.h), ranks attribute pairs once globally, then
/// builds the S SourceStores IN PARALLEL on the shared pool — per-shard
/// builds are independent, and their own internal fan-outs degrade inline
/// on worker threads. Every shard keeps the base schema and domains, so
/// one CountingQuery is position-compatible with all of them.
///
/// Merge rule (docs/ARCHITECTURE.md): the shards partition the rows, so a
/// COUNT/SUM decomposes as the sum of per-shard answers, and because each
/// shard's model is fit independently the per-shard estimators are
/// independent random variables — point estimates AND variances are both
/// additive. Each shard routes its sub-query through its own QueryRouter
/// (coverage -> variance -> hybrid summary-vs-sample), so the best source
/// is chosen PER SHARD: a rare slice can be served by shard 2's stratified
/// sample and shard 3's summary in the same merged answer. The merge
/// starts from zero, so with one shard every answer is bitwise that
/// shard's router's.
///
/// Persistence is a MANIFEST v4 directory: the manifest records the
/// scheme, the shard list, and the ingest journal's sealed-batch count
/// (`wal_sealed`, see engine/ingest.h); each shard is a self-contained
/// store subdirectory. Save stages the WHOLE tree into a `<dir>.tmp-*`
/// sibling and publishes it in one rename, so a crash never exposes a
/// mixed-shard store.
class ShardedStore {
 public:
  /// Partitions `table` and builds every shard's sources in parallel.
  static Result<std::shared_ptr<ShardedStore>> Build(const Table& table,
                                                     ShardedOptions opts = {});

  /// Assembles a sharded store from already-built per-shard stores (the
  /// path Load uses). Shards must be non-empty and agree on arity and
  /// per-attribute domain sizes. `zone_maps` is empty (no pruning) or one
  /// entry per shard — a null entry means that shard is never pruned; a
  /// non-null one must agree with the shard's arity and domain sizes.
  static Result<std::shared_ptr<ShardedStore>> FromShards(
      std::vector<std::shared_ptr<SourceStore>> shards,
      PartitionScheme scheme,
      std::vector<std::shared_ptr<const ZoneMap>> zone_maps = {},
      AttrId partition_attr = 0);

  size_t num_shards() const { return shards_.size(); }
  const SourceStore& shard(size_t s) const { return *shards_[s]; }
  std::shared_ptr<SourceStore> shard_ptr(size_t s) const {
    return shards_[s];
  }
  /// Shard s's hybrid router (what every Answer* path fans out to).
  const QueryRouter& router(size_t s) const { return routers_[s]; }
  PartitionScheme scheme() const { return scheme_; }
  /// Routing attribute (meaningful under PartitionScheme::kAttribute).
  AttrId partition_attr() const { return partition_attr_; }
  /// Compaction generation the loaded manifest carried (0 for a store no
  /// compaction ever ran on, and for in-memory stores).
  uint64_t compaction_gen() const { return compaction_gen_; }
  /// Shard s's zone map; null when the shard carries none (a store
  /// assembled from in-memory shards, or a deleted zone-map file degraded
  /// at load) — such shards are never pruned.
  std::shared_ptr<const ZoneMap> zone_map(size_t s) const {
    return zone_maps_[s];
  }

  /// Runtime toggle for zone-map consultation (default on). Turning it
  /// off forces TRUE full fan-out — the reference the pruning benches and
  /// bitwise-identity tests compare against.
  void set_zone_map_pruning(bool on) { prune_ = on; }
  bool zone_map_pruning() const { return prune_; }

  // Schema accessors, identical across shards (validated on FromShards).
  const std::vector<std::string>& attr_names() const {
    return shards_.front()->attr_names();
  }
  const std::vector<Domain>& domains() const {
    return shards_.front()->domains();
  }
  bool has_domains() const { return shards_.front()->has_domains(); }
  size_t num_attributes() const { return shards_.front()->num_attributes(); }
  /// TOTAL relation cardinality: the sum of per-shard n.
  double n() const { return total_n_; }

  /// The unified aggregate surface, merged across shards. COUNT and SUM
  /// are additive: estimates, variances, BOTH moment legs, and the
  /// SUM/COUNT covariance all sum over the disjoint row partitions
  /// (independently fit models make the per-shard estimators independent).
  /// AVG merges the per-shard moment legs the same way and then applies
  /// ONE delta method (DeltaMethodRatio) to the merged moments —
  /// covariance term included, so the cross-shard ratio variance matches
  /// the unsharded formula (docs/ESTIMATORS.md "Cross-shard merging").
  /// QUANTILE/TOPK/JOIN derive at the engine facade from the merged
  /// group-by marginals — kNotSupported here. `per_shard` (optional)
  /// receives shard s's own routing decision in slot s — the "per-shard
  /// route printing" surface of entropydb_query.
  Result<QueryResult> Answer(
      const AggregateQuery& q,
      std::vector<RouteDecision>* per_shard = nullptr) const;

  /// Merged whole-attribute group-by: per-value counts are additive across
  /// shards exactly like plain COUNTs. `per_shard` as for Answer.
  Result<std::vector<QueryEstimate>> AnswerGroupByAttribute(
      AttrId a, const CountingQuery& base,
      std::vector<RouteDecision>* per_shard = nullptr) const;

  /// Merged point group-by over explicit keys (additive per key).
  Result<std::map<std::vector<Code>, QueryEstimate>> AnswerGroupBy(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys, const CountingQuery& base,
      std::vector<RouteDecision>* per_shard = nullptr) const;

  /// Batched COUNT workload: the shards x queries grid fans out flat on
  /// the ParallelFor pool (each cell is one shard answering one query into
  /// a disjoint slot), then per-query merges run serially in shard order —
  /// so slot i is bitwise Answer(AggregateQuery::Count(qs[i])). `per_shard`
  /// (optional) gets decisions[i][s] = shard s's decision on qs[i].
  Result<std::vector<QueryEstimate>> AnswerAll(
      const std::vector<CountingQuery>& qs,
      std::vector<std::vector<RouteDecision>>* per_shard = nullptr) const;

  /// The persisted routing metadata of a sharded directory, exposed so
  /// the ingest path (engine/ingest.h) can append shards and advance the
  /// sealed-batch cursor without reloading every shard.
  struct Manifest {
    PartitionScheme scheme = PartitionScheme::kRoundRobin;
    /// Routing attribute, persisted in the scheme token ("attr:<id>")
    /// when scheme is kAttribute.
    AttrId partition_attr = 0;
    std::vector<std::string> shard_dirs;
    /// Number of leading WAL records already sealed into shards; replay
    /// starts after them (0 for a store with no ingest history).
    uint64_t wal_sealed = 0;
    /// Shard dirs (a subset of `shard_dirs`) that carry a ZONEMAP file;
    /// shards not listed are never pruned.
    std::vector<std::string> zonemap_dirs;
    /// Monotone compaction generation: 0 for a store no compaction ever
    /// ran on; RunCompaction (engine/compaction.h) bumps it by one at
    /// each commit and names the shards it publishes after it
    /// ("shard_c<gen>_<j>").
    uint64_t compaction_gen = 0;
    /// Per-shard row counts aligned with `shard_dirs`: either empty
    /// (unknown) or exactly one entry per shard. The compaction planner's
    /// oversize trigger reads these without loading any shard; Save,
    /// ingest sealing, and compaction all maintain them.
    std::vector<uint64_t> shard_rows;
  };

  /// Reads `dir/MANIFEST`: a checksummed v4-sharded record (a missing
  /// footer is kCorruption, a mono manifest kInvalidArgument).
  static Result<Manifest> ReadManifest(const std::string& dir,
                                       Env* env = Env::Default(),
                                       bool verify_checksums = true);
  /// Atomically replaces `dir/MANIFEST` with a checksummed v4 record of
  /// `m`: written to a tmp name, synced, renamed into place, directory
  /// synced. This single flip is what makes an ingest seal atomic — the
  /// new shard list and the advanced wal_sealed cursor become visible
  /// together or not at all.
  static Status WriteManifest(const std::string& dir, const Manifest& m,
                              Env* env = Env::Default());

  /// Atomically persists the store at `dir`: the whole tree (v4 MANIFEST
  /// plus one self-contained store subdirectory per shard, written in
  /// parallel) is staged into a `<dir>.tmp-<nonce>` sibling and published
  /// in one rename.
  Status Save(const std::string& dir, Env* env = Env::Default()) const;
  /// Restores a v4-sharded directory (shards load in parallel; `opts` is
  /// passed through to every summary load). Rejects mono manifests —
  /// SourceStore::Load owns those (EntropyEngine::Open wraps them). Stale
  /// staging directories next to `dir` are garbage-collected, and so is
  /// every `shard_*` entry inside `dir` the manifest does not reference:
  /// a crashed ingest seal or compaction strands half-built shards, and
  /// a crash between a compaction's manifest flip and its cleanup leaves
  /// replaced ones — either way the orphans' rows are journal-backed
  /// (or about to be rebuilt from the journal), so removal never loses
  /// data.
  static Result<std::shared_ptr<ShardedStore>> Load(const std::string& dir,
                                                    SummaryOptions opts = {},
                                                    Env* env = Env::Default());

  /// True when `dir` holds a v4-sharded manifest — the dispatch test
  /// EntropyEngine::Open uses.
  static bool IsShardedDir(const std::string& dir,
                           Env* env = Env::Default());

 private:
  ShardedStore(std::vector<std::shared_ptr<SourceStore>> shards,
               PartitionScheme scheme,
               std::vector<std::shared_ptr<const ZoneMap>> zone_maps,
               AttrId partition_attr);

  /// True when shard `s`'s zone map proves `q` cannot match it (the skip
  /// test every Answer* path runs); then also marks shard s's slot of the
  /// optional per-shard decisions as pruned, with the proving attribute.
  bool Skip(size_t s, const CountingQuery& q,
            std::vector<RouteDecision>* per_shard) const;

  std::vector<std::shared_ptr<SourceStore>> shards_;
  std::vector<QueryRouter> routers_;
  /// One slot per shard; null = never pruned.
  std::vector<std::shared_ptr<const ZoneMap>> zone_maps_;
  PartitionScheme scheme_ = PartitionScheme::kRoundRobin;
  AttrId partition_attr_ = 0;
  uint64_t compaction_gen_ = 0;
  bool prune_ = true;
  double total_n_ = 0.0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_SHARDED_STORE_H_
