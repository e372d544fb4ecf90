// Command-line query shell over a persisted summary or summary store — no
// base data needed.
//
//   entropydb_query --summary flights.edb
//       --query "COUNT(*) WHERE origin = S3 AND distance BETWEEN 100 AND 500"
//
//   entropydb_query --store flights.store
//       --query "COUNT(*) WHERE origin = S3 AND dest = S7"
//
// Every path opens as the engine's one store shape (S shards x K sources;
// a .edb file is the 1 x 1 case, a mono store directory S = 1) and every
// query routes through each shard's hybrid QueryRouter, printing which
// source — summary or sample — answered and why (coverage, the
// summary-vs-sample variance comparison, fallback). A sharded directory
// prints ONE route line PER SHARD: the fan-out picks the best source
// independently inside every shard before the estimates merge.
// Without --query, reads one query per line from stdin (a tiny REPL).
//
// The dialect covers COUNT/SUM/AVG plus QUANTILE(attr, q) and
// TOPK(attr, k). With --join PATH a second (RIGHT) relation loads and the
// shell switches to the two-relation dialect:
//
//   entropydb_query --store flights.store --join carriers.store \
//       --query "COUNT(*) ON carrier WHERE left.distance BETWEEN 100 AND 500"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "entropydb.h"

using namespace entropydb;

namespace {

/// One route line for a decision made against one shard's `store`.
/// `label` prefixes the line — "routed" when there is one shard, "shard K"
/// for per-shard printing.
void PrintStoreRoute(const std::vector<std::string>& names,
                     const SourceStore& store, const RouteDecision& dec,
                     const std::string& label) {
  if (dec.pruned) {
    std::fprintf(stderr,
                 "  %s: pruned — zone map on %s proves no row can match\n",
                 label.c_str(), names[dec.pruned_attr].c_str());
    return;
  }
  if (dec.from_sample) {
    const SampleEntry& entry = store.sample_entry(dec.sample_index);
    std::fprintf(stderr,
                 "  %s: sample %zu %s — sample variance %.3g beats "
                 "summary %zu's %.3g\n",
                 label.c_str(), dec.sample_index, entry.sample->name.c_str(),
                 dec.sample_variance, dec.index, dec.summary_variance);
    return;
  }
  const StoreEntry& entry = store.entry(dec.index);
  std::string pairs;
  for (const ScoredPair& p : entry.pairs) {
    if (!pairs.empty()) pairs += ", ";
    pairs += "(" + names[p.a] + ", " + names[p.b] + ")";
  }
  if (dec.fallback) {
    std::fprintf(stderr,
                 "  %s: summary %zu %s — fallback (no summary models "
                 "the constrained pairs)\n",
                 label.c_str(), dec.index, pairs.c_str());
  } else {
    std::fprintf(stderr,
                 "  %s: summary %zu %s — covers %zu pair%s"
                 " (%zu candidate%s, variance %.3g)\n",
                 label.c_str(), dec.index, pairs.c_str(), dec.covered_pairs,
                 dec.covered_pairs == 1 ? "" : "s", dec.candidates,
                 dec.candidates == 1 ? "" : "s", dec.expected_variance);
  }
  if (store.num_samples() > 0 &&
      dec.sample_variance < std::numeric_limits<double>::infinity()) {
    // The comparison objective is the COUNT variance on both sides (for
    // aggregates dec.expected_variance is the aggregate's own variance,
    // which is not what the router compared).
    std::fprintf(stderr,
                 "          (summary kept it: count variance %.3g vs best "
                 "sample %.3g)\n",
                 dec.summary_variance, dec.sample_variance);
  }
}

/// One route line per shard: the whole point of per-shard routing is that
/// the best source can differ shard to shard.
void PrintShardRoutes(const EntropyEngine& engine,
                      const std::vector<RouteDecision>& decs) {
  for (size_t s = 0; s < decs.size(); ++s) {
    PrintStoreRoute(engine.attr_names(), engine.sharded()->shard(s), decs[s],
                    decs.size() == 1 ? "routed" : "shard " + std::to_string(s));
  }
  // The per-query pruning summary: how much of the fan-out the zone maps
  // saved, and which attribute did the proving.
  size_t pruned = 0;
  AttrId pruned_attr = 0;
  for (const RouteDecision& d : decs) {
    if (d.pruned && pruned++ == 0) pruned_attr = d.pruned_attr;
  }
  if (pruned > 0) {
    std::fprintf(stderr, "  pruned %zu/%zu shards via zone map on %s\n",
                 pruned, decs.size(),
                 engine.attr_names()[pruned_attr].c_str());
  }
}

/// One shard's sources: its summaries with their modeled pairs (the
/// fallback marked), then its sample companions.
void PrintSources(const std::vector<std::string>& names,
                  const SourceStore& store, const char* indent) {
  for (size_t k = 0; k < store.size(); ++k) {
    std::fprintf(stderr, "%ssummary %zu:", indent, k);
    for (const ScoredPair& p : store.entry(k).pairs) {
      std::fprintf(stderr, " (%s, %s) V=%.3f", names[p.a].c_str(),
                   names[p.b].c_str(), p.cramers_v);
    }
    std::fprintf(stderr, "%s\n", k == store.widest() ? "  [fallback]" : "");
  }
  for (size_t s = 0; s < store.num_samples(); ++s) {
    const SampleEntry& e = store.sample_entry(s);
    std::fprintf(stderr, "%ssample %zu: %s,", indent, s,
                 e.sample->name.c_str());
    // Stratification pairs from the manifest metadata (uniform samples
    // carry none).
    for (const ScoredPair& p : e.pairs) {
      std::fprintf(stderr, " stratified on (%s, %s) V=%.3f,",
                   names[p.a].c_str(), names[p.b].c_str(), p.cramers_v);
    }
    std::fprintf(stderr, " %zu rows (fraction %.3g)\n", e.sample->size(),
                 e.sample->fraction);
  }
}

int RunOne(const EntropyEngine& engine, const std::string& text) {
  auto parsed = ParseQuery(text, engine.attr_names(), engine.domains());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  // Bucket-representative weights (midpoints / label order index for
  // categorical attributes) — the same rule the server applies.
  const AttrId agg = parsed->agg_attr;
  AggregateQuery query;
  switch (parsed->aggregate) {
    case ParsedQuery::Aggregate::kCount:
      query = AggregateQuery::Count(parsed->where);
      break;
    case ParsedQuery::Aggregate::kSum:
      query = AggregateQuery::Sum(agg, BucketWeights(engine.domains()[agg]),
                                  parsed->where);
      break;
    case ParsedQuery::Aggregate::kAvg:
      query = AggregateQuery::Avg(agg, BucketWeights(engine.domains()[agg]),
                                  parsed->where);
      break;
    case ParsedQuery::Aggregate::kQuantile:
      query = AggregateQuery::Quantile(agg,
                                       BucketWeights(engine.domains()[agg]),
                                       parsed->quantile, parsed->where);
      break;
    case ParsedQuery::Aggregate::kTopK:
      query = AggregateQuery::TopK(agg, parsed->top_k, parsed->where);
      break;
  }
  Timer timer;
  RouteDecision dec;
  // COUNT/SUM/AVG answer through the store directly so the per-shard
  // routing decisions are available for printing; QUANTILE/TOPK derive at
  // the engine facade, whose decision is the shard's own when one shard
  // was scanned.
  std::vector<RouteDecision> shard_decs;
  const bool per_shard = query.kind == AggregateKind::kCount ||
                         query.kind == AggregateKind::kSum ||
                         query.kind == AggregateKind::kAvg;
  auto res = per_shard ? engine.sharded()->Answer(query, &shard_decs)
                       : engine.Answer(query, &dec);
  if (!res.ok()) {
    std::fprintf(stderr, "answer: %s\n", res.status().ToString().c_str());
    return 1;
  }
  const double ms = timer.ElapsedMillis();
  switch (parsed->aggregate) {
    case ParsedQuery::Aggregate::kCount: {
      auto [lo, hi] = res->estimate.ConfidenceInterval(1.96, engine.n());
      std::printf("%.1f    (95%% CI [%.1f, %.1f], %.2f ms)\n",
                  res->estimate.expectation, lo, hi, ms);
      break;
    }
    case ParsedQuery::Aggregate::kSum:
    case ParsedQuery::Aggregate::kAvg:
      std::printf("%.3f    (+/- %.3f, %.2f ms)\n",
                  res->estimate.expectation, 1.96 * res->estimate.StdDev(),
                  ms);
      break;
    case ParsedQuery::Aggregate::kQuantile:
      std::printf("%.3f    (95%% bound [%.3f, %.3f], %.2f ms)\n",
                  res->estimate.expectation, res->bound_lo, res->bound_hi,
                  ms);
      break;
    case ParsedQuery::Aggregate::kTopK: {
      const Domain& dom = engine.domains()[agg];
      std::printf("top %zu of %s (%.2f ms):\n", res->cells.size(),
                  engine.attr_names()[agg].c_str(), ms);
      for (const GroupCell& cell : res->cells) {
        std::printf("  %-16s %.1f    (+/- %.1f)\n",
                    dom.LabelFor(cell.code).c_str(),
                    cell.estimate.expectation,
                    1.96 * cell.estimate.StdDev());
      }
      break;
    }
  }
  if (per_shard) {
    PrintShardRoutes(engine, shard_decs);
  } else if (engine.num_shards() == 1) {
    PrintStoreRoute(engine.attr_names(), engine.sharded()->shard(0), dec,
                    "routed");
  }
  return 0;
}

/// --join mode: this engine is the LEFT relation, `right` the RIGHT; the
/// fused estimate comes from EntropyEngine::AnswerJoin (docs/ESTIMATORS.md
/// "Join fusion").
int RunOneJoin(const EntropyEngine& left, const EntropyEngine& right,
               const std::string& text) {
  auto parsed = ParseJoinQuery(text, left.attr_names(), left.domains(),
                               right.attr_names(), right.domains());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  AggregateQuery query =
      parsed->aggregate == ParsedJoinQuery::Aggregate::kCount
          ? AggregateQuery::JoinCount(parsed->left_join, parsed->right_join,
                                      parsed->left_where, parsed->right_where)
          : AggregateQuery::JoinSum(
                parsed->agg_attr,
                BucketWeights(left.domains()[parsed->agg_attr]),
                parsed->left_join, parsed->right_join, parsed->left_where,
                parsed->right_where);
  Timer timer;
  auto res = left.AnswerJoin(query, right);
  if (!res.ok()) {
    std::fprintf(stderr, "answer: %s\n", res.status().ToString().c_str());
    return 1;
  }
  std::printf("%.1f    (+/- %.1f, %.2f ms)\n", res->estimate.expectation,
              1.96 * res->estimate.StdDev(), timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("summary") && !args.count("store")) {
    std::fprintf(stderr,
                 "usage: entropydb_query (--summary FILE | --store DIR) "
                 "[--join PATH] [--query Q]\n");
    return 2;
  }
  const std::string path =
      args.count("store") ? args["store"] : args["summary"];
  auto engine = EntropyEngine::Open(path);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // --join switches the shell to the two-relation dialect: the main path
  // is the LEFT relation, --join names the RIGHT.
  std::shared_ptr<EntropyEngine> right;
  if (args.count("join")) {
    auto opened = EntropyEngine::Open(args["join"]);
    if (!opened.ok()) {
      std::fprintf(stderr, "load join relation: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    right = *opened;
    if (!right->has_domains()) {
      std::fprintf(stderr,
                   "join relation has no domain metadata; rebuild it with "
                   "entropydb_build\n");
      return 1;
    }
  }
  if (!(*engine)->has_domains()) {
    std::fprintf(stderr,
                 "summary has no domain metadata; rebuild it with "
                 "entropydb_build\n");
    return 1;
  }
  const EntropyEngine& eng = **engine;
  const ShardedStore& store = *eng.sharded();
  std::string scheme_desc = PartitionSchemeName(store.scheme());
  if (store.scheme() == PartitionScheme::kAttribute) {
    scheme_desc += ":" + eng.attr_names()[store.partition_attr()];
  }
  size_t with_zone_maps = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    with_zone_maps += store.zone_map(s) != nullptr ? 1 : 0;
  }
  std::fprintf(stderr,
               "loaded store: %zu shard%s (%s partitioning, %zu with zone "
               "maps, compaction generation %llu), %zu summaries + %zu "
               "samples total, n = %.0f\n",
               store.num_shards(), store.num_shards() == 1 ? "" : "s",
               scheme_desc.c_str(), with_zone_maps,
               static_cast<unsigned long long>(store.compaction_gen()),
               eng.num_summaries(), eng.num_samples(), eng.n());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const SourceStore& shard = store.shard(s);
    if (store.num_shards() > 1) {
      std::fprintf(stderr, "  shard %zu: %zu summaries + %zu samples, "
                   "n = %.0f\n",
                   s, shard.size(), shard.num_samples(), shard.n());
    }
    PrintSources(eng.attr_names(), shard,
                 store.num_shards() > 1 ? "    " : "  ");
  }

  if (args.count("query")) {
    return right != nullptr ? RunOneJoin(**engine, *right, args["query"])
                            : RunOne(**engine, args["query"]);
  }
  std::string line;
  int rc = 0;
  while (std::getline(std::cin, line)) {
    if (std::string(StripWhitespace(line)).empty()) continue;
    rc = right != nullptr ? RunOneJoin(**engine, *right, line)
                          : RunOne(**engine, line);
  }
  return rc;
}
