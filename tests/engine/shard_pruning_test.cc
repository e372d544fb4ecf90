// Zone-map shard pruning: pruned fan-outs must stay BITWISE identical to
// the full fan-out across every partition scheme and answer surface
// (COUNT/SUM/AVG/group-by/batched), pruning must actually fire on
// selective attribute-partitioned queries, legacy v3 manifests must load
// without zone maps and never prune, and ingest-sealed shards must carry
// zone maps of their own.

#include <cstdint>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

/// 4 attributes with a wide routing attribute up front: domain 12 so 4
/// attribute-shards own contiguous 3-code slices.
std::shared_ptr<Table> PruningTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(4));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(12));
    row[1] = rng.NextBernoulli(0.8) ? (row[0] / 2)
                                    : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.7) ? (row[2] % 5)
                                    : static_cast<Code>(rng.Uniform(5));
  }
  return testutil::MakeTable({12, 6, 5, 5}, rows);
}

ShardedOptions SmallShardedOptions(PartitionScheme scheme) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.scheme = scheme;
  opts.partition_attr = 0;
  opts.store.num_summaries = 2;
  opts.store.total_budget = 40;
  opts.store.summary.solver.max_iterations = 120;
  opts.store.num_stratified_samples = 1;
  opts.store.uniform_sample = true;
  opts.store.sample_fraction = 0.05;
  return opts;
}

/// Random conjunctions biased toward selective attribute-0 constraints so
/// attribute-partitioned stores actually get to prune.
std::vector<CountingQuery> FuzzQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  const std::vector<uint32_t> dom = {12, 6, 5, 5};
  std::vector<CountingQuery> out;
  for (size_t i = 0; i < count; ++i) {
    CountingQuery q(4);
    for (AttrId a = 0; a < 4; ++a) {
      switch (rng.Uniform(5)) {
        case 0:
        case 1:
          q.Where(a,
                  AttrPredicate::Point(static_cast<Code>(rng.Uniform(dom[a]))));
          break;
        case 2: {
          Code lo = static_cast<Code>(rng.Uniform(dom[a]));
          Code hi = static_cast<Code>(rng.Uniform(dom[a]));
          if (hi < lo) std::swap(lo, hi);
          q.Where(a, AttrPredicate::Range(lo, hi));
          break;
        }
        case 3:
          q.Where(a, AttrPredicate::InSet(
                         {static_cast<Code>(rng.Uniform(dom[a])),
                          static_cast<Code>(rng.Uniform(dom[a]))}));
          break;
        default:
          break;  // ANY
      }
    }
    out.push_back(q);
  }
  return out;
}

TEST(ShardPruningTest, PrunedAnswersBitwiseEqualFullFanOutAcrossSchemes) {
  auto table = PruningTable(2400, 307);
  const PartitionScheme schemes[] = {PartitionScheme::kRoundRobin,
                                     PartitionScheme::kHash,
                                     PartitionScheme::kAttribute};
  for (PartitionScheme scheme : schemes) {
    auto sharded = ShardedStore::Build(*table, SmallShardedOptions(scheme));
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    std::vector<double> weights((*sharded)->domains()[2].size());
    for (size_t v = 0; v < weights.size(); ++v) weights[v] = 0.5 + 1.5 * v;

    size_t pruned_total = 0;
    for (const CountingQuery& q : FuzzQueries(80, 311)) {
      (*sharded)->set_zone_map_pruning(true);
      std::vector<RouteDecision> decs;
      auto cnt_on = testutil::CountOf(**sharded, q, &decs);
      auto sum_on = (*sharded)->Answer(AggregateQuery::Sum(2, weights, q));
      auto avg_on = (*sharded)->Answer(AggregateQuery::Avg(2, weights, q));
      (*sharded)->set_zone_map_pruning(false);
      auto cnt_off = testutil::CountOf(**sharded, q);
      auto sum_off = (*sharded)->Answer(AggregateQuery::Sum(2, weights, q));
      auto avg_off = (*sharded)->Answer(AggregateQuery::Avg(2, weights, q));
      ASSERT_TRUE(cnt_on.ok() && cnt_off.ok());
      ASSERT_TRUE(sum_on.ok() && sum_off.ok());
      ASSERT_TRUE(avg_on.ok() && avg_off.ok());
      // Bitwise, not approximate: a pruned shard contributes an exact
      // {0.0, 0.0}, so skipping it cannot move the merge by even an ulp.
      EXPECT_EQ(cnt_on->expectation, cnt_off->expectation);
      EXPECT_EQ(cnt_on->variance, cnt_off->variance);
      EXPECT_EQ(sum_on->estimate.expectation, sum_off->estimate.expectation);
      EXPECT_EQ(sum_on->estimate.variance, sum_off->estimate.variance);
      EXPECT_EQ(avg_on->estimate.expectation, avg_off->estimate.expectation);
      EXPECT_EQ(avg_on->estimate.variance, avg_off->estimate.variance);
      for (const RouteDecision& d : decs) pruned_total += d.pruned ? 1 : 0;
    }
    // Attribute partitioning concentrates each code in one shard, so the
    // attr-0-constrained fuzz queries must prune somewhere.
    if (scheme == PartitionScheme::kAttribute) {
      EXPECT_GT(pruned_total, 0u);
    }
  }
}

TEST(ShardPruningTest, AttributePointQueryPrunesAllButTheOwnerShard) {
  auto table = PruningTable(2400, 331);
  auto sharded = ShardedStore::Build(
      *table, SmallShardedOptions(PartitionScheme::kAttribute));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ((*sharded)->partition_attr(), 0u);
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_NE((*sharded)->zone_map(s), nullptr);
  }

  // Code 7 lives in shard 7 * 4 / 12 = 2 and nowhere else.
  CountingQuery q(4);
  q.Where(0, AttrPredicate::Point(7));
  std::vector<RouteDecision> decs;
  auto merged = testutil::CountOf(**sharded, q, &decs);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(decs.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(decs[s].pruned, s != 2u) << "shard " << s;
    if (decs[s].pruned) EXPECT_EQ(decs[s].pruned_attr, 0u);
  }
  // The merge reduces to the owner shard alone — bitwise.
  auto owner = (*sharded)->router(2).Answer(q);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(merged->expectation, owner->expectation);
  EXPECT_EQ(merged->variance, owner->variance);
}

TEST(ShardPruningTest, GroupByAnswersBitwiseEqualUnderPruning) {
  auto table = PruningTable(2000, 337);
  auto sharded = ShardedStore::Build(
      *table, SmallShardedOptions(PartitionScheme::kAttribute));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  CountingQuery base(4);
  base.Where(0, AttrPredicate::Point(4));  // one shard owns it

  (*sharded)->set_zone_map_pruning(true);
  auto grouped_on = (*sharded)->AnswerGroupByAttribute(1, base);
  std::vector<std::vector<Code>> keys;
  for (Code v1 = 0; v1 < 6; ++v1) {
    for (Code v2 = 0; v2 < 5; ++v2) keys.push_back({v1, v2});
  }
  auto point_on = (*sharded)->AnswerGroupBy({1, 2}, keys, base);
  (*sharded)->set_zone_map_pruning(false);
  auto grouped_off = (*sharded)->AnswerGroupByAttribute(1, base);
  auto point_off = (*sharded)->AnswerGroupBy({1, 2}, keys, base);

  ASSERT_TRUE(grouped_on.ok() && grouped_off.ok());
  ASSERT_EQ(grouped_on->size(), grouped_off->size());
  for (size_t v = 0; v < grouped_on->size(); ++v) {
    EXPECT_EQ((*grouped_on)[v].expectation, (*grouped_off)[v].expectation);
    EXPECT_EQ((*grouped_on)[v].variance, (*grouped_off)[v].variance);
  }
  ASSERT_TRUE(point_on.ok() && point_off.ok());
  ASSERT_EQ(point_on->size(), keys.size());
  ASSERT_EQ(point_off->size(), keys.size());
  for (const auto& [key, est] : *point_on) {
    auto it = point_off->find(key);
    ASSERT_NE(it, point_off->end());
    EXPECT_EQ(est.expectation, it->second.expectation);
    EXPECT_EQ(est.variance, it->second.variance);
  }
}

TEST(ShardPruningTest, AnswerAllPrunesCellsAndStaysBitwiseIdentical) {
  auto table = PruningTable(1800, 347);
  auto sharded = ShardedStore::Build(
      *table, SmallShardedOptions(PartitionScheme::kAttribute));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto qs = FuzzQueries(40, 349);

  (*sharded)->set_zone_map_pruning(true);
  std::vector<std::vector<RouteDecision>> decisions;
  auto on = (*sharded)->AnswerAll(qs, &decisions);
  (*sharded)->set_zone_map_pruning(false);
  auto off = (*sharded)->AnswerAll(qs);
  ASSERT_TRUE(on.ok() && off.ok());
  ASSERT_EQ(on->size(), qs.size());

  size_t pruned_cells = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ((*on)[i].expectation, (*off)[i].expectation);
    EXPECT_EQ((*on)[i].variance, (*off)[i].variance);
    for (const RouteDecision& d : decisions[i]) {
      pruned_cells += d.pruned ? 1 : 0;
    }
  }
  EXPECT_GT(pruned_cells, 0u);
}

TEST(ShardPruningTest, SaveLoadPreservesZoneMapsAndPartitionAttr) {
  auto table = PruningTable(2000, 353);
  auto built = ShardedStore::Build(
      *table, SmallShardedOptions(PartitionScheme::kAttribute));
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_shard_pruning_roundtrip")
          .string();
  fs::remove_all(dir);
  ASSERT_TRUE((*built)->Save(dir).ok());

  auto loaded = ShardedStore::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->scheme(), PartitionScheme::kAttribute);
  EXPECT_EQ((*loaded)->partition_attr(), 0u);
  for (size_t s = 0; s < (*loaded)->num_shards(); ++s) {
    ASSERT_NE((*loaded)->zone_map(s), nullptr) << "shard " << s;
  }
  // The persisted manifest lists every shard's zone map.
  auto m = ShardedStore::ReadManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->zonemap_dirs.size(), m->shard_dirs.size());
  EXPECT_EQ(m->partition_attr, 0u);

  // The loaded store prunes exactly like the in-memory one.
  CountingQuery q(4);
  q.Where(0, AttrPredicate::Point(1));
  std::vector<RouteDecision> built_decs, loaded_decs;
  auto a = testutil::CountOf(**built, q, &built_decs);
  auto b = testutil::CountOf(**loaded, q, &loaded_decs);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(built_decs.size(), loaded_decs.size());
  for (size_t s = 0; s < built_decs.size(); ++s) {
    EXPECT_EQ(built_decs[s].pruned, loaded_decs[s].pruned);
  }
  EXPECT_NEAR(a->expectation, b->expectation,
              1e-12 * (1.0 + std::abs(a->expectation)));
  fs::remove_all(dir);
}

TEST(ShardPruningTest, IngestSealedShardsCarryZoneMaps) {
  // 5-attribute fixture matching the ingest CSV schema.
  Rng rng(367);
  std::vector<std::vector<Code>> rows(1600, std::vector<Code>(5));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.85) ? row[0]
                                     : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.85) ? row[2]
                                     : static_cast<Code>(rng.Uniform(5));
    row[4] = static_cast<Code>(rng.Uniform(4));
  }
  auto table = testutil::MakeTable({6, 6, 5, 5, 4}, rows);

  ShardedOptions sopts;
  sopts.num_shards = 2;
  sopts.store.num_summaries = 2;
  sopts.store.total_budget = 40;
  sopts.store.summary.solver.max_iterations = 120;
  sopts.store.num_stratified_samples = 1;
  sopts.store.uniform_sample = true;
  sopts.store.sample_fraction = 0.2;
  auto built = ShardedStore::Build(*table, sopts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_shard_pruning_ingest").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*built)->Save(dir).ok());

  // A batch whose attribute 4 only ever takes the value 3: the sealed
  // shard's zone map must prove every other code absent.
  std::string csv = "A0,A1,A2,A3,A4\n";
  Rng batch_rng(373);
  for (size_t i = 0; i < 200; ++i) {
    csv += std::to_string(batch_rng.Uniform(6)) + "," +
           std::to_string(batch_rng.Uniform(6)) + "," +
           std::to_string(batch_rng.Uniform(5)) + "," +
           std::to_string(batch_rng.Uniform(5)) + ",3\n";
  }
  auto report = AppendBatch(dir, csv, sopts.store);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sealed, 1u);

  auto m = ShardedStore::ReadManifest(dir);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->shard_dirs.size(), 3u);
  EXPECT_EQ(m->zonemap_dirs.size(), 3u);

  auto loaded = ShardedStore::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->num_shards(), 3u);
  ASSERT_NE((*loaded)->zone_map(2), nullptr);
  EXPECT_TRUE((*loaded)->zone_map(2)->Contains(4, 3));
  EXPECT_FALSE((*loaded)->zone_map(2)->Contains(4, 0));

  // The ingested shard is pruned for codes its batch never contained,
  // bitwise-identically to the full fan-out.
  CountingQuery q(5);
  q.Where(4, AttrPredicate::Point(0));
  std::vector<RouteDecision> decs;
  auto on = testutil::CountOf(**loaded, q, &decs);
  (*loaded)->set_zone_map_pruning(false);
  auto off = testutil::CountOf(**loaded, q);
  ASSERT_TRUE(on.ok() && off.ok());
  ASSERT_EQ(decs.size(), 3u);
  EXPECT_TRUE(decs[2].pruned);
  EXPECT_EQ(decs[2].pruned_attr, 4u);
  EXPECT_EQ(on->expectation, off->expectation);
  EXPECT_EQ(on->variance, off->variance);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entropydb
