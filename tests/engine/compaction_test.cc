// Compaction fidelity (engine/compaction.h): randomized append-then-
// compact sequences across all three partition schemes must leave every
// merged answer path — COUNT, SUM, AVG, group-bys, AnswerAll — within the
// 1e-9 merge bar of the uncompacted store, keep zone-map pruning exact on
// the compacted shards, and rebuild deterministically under the
// documented per-shard sample-seed rule.
//
// The invariance argument needs per-shard models that reproduce their
// shard distributions EXACTLY, so the fixture uses 2-attribute tables
// with a budget covering every pair cell (kLargeSingleCell emits all of
// them) and a solver driven far past the default tolerance: each shard's
// estimate is then n_s * p_s with p_s the shard's own empirical
// fraction, and the additive merge telescopes to the same total for ANY
// disjoint partition of the same rows. Merged VARIANCES are NOT
// partition-invariant (sum n_s p_s (1 - p_s) depends on the split), so
// variances are pinned against an independently constructed expected
// store instead.

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/compaction.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"
#include "storage/partitioner.h"
#include "storage/wal.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

constexpr double kMergeBar = 1e-9;

StoreOptions ExactStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 1;
  opts.total_budget = 64;  // >= the 4 * 3 = 12 pair cells: exact model
  opts.heuristic = SelectionHeuristic::kLargeSingleCell;
  opts.summary.solver.max_iterations = 6000;
  opts.summary.solver.tolerance = 1e-12;
  return opts;
}

std::shared_ptr<Table> BaseTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(2));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(4));
    row[1] = rng.NextBernoulli(0.7) ? static_cast<Code>(row[0] % 3)
                                    : static_cast<Code>(rng.Uniform(3));
  }
  return testutil::MakeTable({4, 3}, rows);
}

std::string BatchCsv(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string csv = "A0,A1\n";
  for (size_t i = 0; i < rows; ++i) {
    const Code a = static_cast<Code>(rng.Uniform(4));
    const Code b = rng.NextBernoulli(0.7) ? static_cast<Code>(a % 3)
                                          : static_cast<Code>(rng.Uniform(3));
    csv += std::to_string(a) + "," + std::to_string(b) + "\n";
  }
  return csv;
}

/// The query battery every invariance check runs: unconstrained, point,
/// range, set, and doubly-constrained shapes over both attributes.
std::vector<CountingQuery> Battery() {
  std::vector<CountingQuery> qs;
  qs.emplace_back(2);
  for (Code c = 0; c < 4; ++c) {
    qs.push_back(CountingQuery(2).Where(0, AttrPredicate::Point(c)));
  }
  qs.push_back(CountingQuery(2).Where(1, AttrPredicate::Point(2)));
  qs.push_back(CountingQuery(2).Where(0, AttrPredicate::Range(1, 2)));
  qs.push_back(CountingQuery(2).Where(0, AttrPredicate::InSet({0, 3})));
  qs.push_back(CountingQuery(2)
                   .Where(0, AttrPredicate::Point(2))
                   .Where(1, AttrPredicate::Range(0, 1)));
  return qs;
}

/// Every merged answer path over the battery, flattened into one vector
/// so pre/post comparison is a single loop.
std::vector<QueryEstimate> Snapshot(const ShardedStore& store) {
  std::vector<QueryEstimate> out;
  const std::vector<CountingQuery> qs = Battery();
  for (const CountingQuery& q : qs) {
    auto c = testutil::CountOf(store, q);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    out.push_back(c.ok() ? *c : QueryEstimate{});
  }
  const std::vector<double> weights = {1.0, 5.0, 9.0, 13.0};
  auto sum = store.Answer(AggregateQuery::Sum(0, weights, qs[5]));
  EXPECT_TRUE(sum.ok()) << sum.status().ToString();
  out.push_back(sum.ok() ? sum->estimate : QueryEstimate{});
  auto avg = store.Answer(AggregateQuery::Avg(0, weights, qs[6]));
  EXPECT_TRUE(avg.ok()) << avg.status().ToString();
  out.push_back(avg.ok() ? avg->estimate : QueryEstimate{});
  auto by_attr = store.AnswerGroupByAttribute(1, qs[1]);
  EXPECT_TRUE(by_attr.ok()) << by_attr.status().ToString();
  if (by_attr.ok()) out.insert(out.end(), by_attr->begin(), by_attr->end());
  auto by_keys = store.AnswerGroupBy({0, 1}, {{0, 0}, {2, 1}, {3, 2}},
                                     CountingQuery(2));
  EXPECT_TRUE(by_keys.ok()) << by_keys.status().ToString();
  if (by_keys.ok()) {
    for (const auto& [key, est] : *by_keys) out.push_back(est);
  }
  auto all = store.AnswerAll(qs);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  if (all.ok()) out.insert(out.end(), all->begin(), all->end());
  return out;
}

void ExpectEstimatesMatch(const std::vector<QueryEstimate>& pre,
                          const std::vector<QueryEstimate>& post) {
  ASSERT_EQ(pre.size(), post.size());
  for (size_t i = 0; i < pre.size(); ++i) {
    EXPECT_NEAR(pre[i].expectation, post[i].expectation,
                kMergeBar * std::max(1.0, std::fabs(pre[i].expectation)))
        << "estimate " << i;
  }
}

struct SchemeCase {
  PartitionScheme scheme;
  AttrId partition_attr;
  const char* name;
};

class CompactionTest : public ::testing::TestWithParam<SchemeCase> {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("entropydb_compaction_test_" +
             std::string(GetParam().name) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.scheme = GetParam().scheme;
    sopts.partition_attr = GetParam().partition_attr;
    sopts.store = ExactStoreOptions();
    auto built = ShardedStore::Build(*BaseTable(600, 11), sopts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Save(dir_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  void Append(size_t rows, uint64_t seed) {
    auto report = AppendBatch(dir_, BatchCsv(rows, seed),
                              ExactStoreOptions());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  std::string dir_;
};

TEST_P(CompactionTest, PlannerTriggersAndReports) {
  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 2;

  // Fresh store: no batch-lineage shards at all.
  auto plan = CompactionPlanner::Plan(dir_, copts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->triggered);
  EXPECT_TRUE(plan->candidates.empty());

  Append(90, 21);
  Append(70, 22);
  plan = CompactionPlanner::Plan(dir_, copts);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->triggered) << plan->reason;
  EXPECT_EQ(plan->candidates.size(), 2u);
  EXPECT_EQ(plan->total_rows, 160u);

  // A third batch tips the count trigger; the plan names every
  // batch-lineage dir and the next generation.
  Append(110, 23);
  plan = CompactionPlanner::Plan(dir_, copts);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->triggered);
  EXPECT_EQ(plan->candidates.size(), 3u);
  EXPECT_EQ(plan->total_rows, 270u);
  EXPECT_EQ(plan->generation, 1u);
  EXPECT_EQ(plan->output_shards, 1u);  // no split threshold

  // The oversize trigger reads the manifest's per-shard row counts.
  CompactionOptions split = copts;
  split.max_batch_shards = 10;
  split.split_threshold = 100;
  plan = CompactionPlanner::Plan(dir_, split);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->triggered);  // shard_b2 holds 110 > 100 rows
  EXPECT_EQ(plan->output_shards, 3u);  // ceil(270 / 100)

  // An untriggered RunCompaction leaves the store untouched.
  CompactionOptions lax;
  lax.max_batch_shards = 10;
  lax.store = ExactStoreOptions();
  auto report = RunCompaction(dir_, lax);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ran);
  auto m = ShardedStore::ReadManifest(dir_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_dirs.size(), 5u);
  EXPECT_EQ(m->compaction_gen, 0u);
}

TEST_P(CompactionTest, AnswersInvariantAcrossCompaction) {
  Append(90, 31);
  Append(70, 32);
  Append(110, 33);

  auto pre_store = ShardedStore::Load(dir_);
  ASSERT_TRUE(pre_store.ok()) << pre_store.status().ToString();
  const double pre_n = (*pre_store)->n();
  const std::vector<QueryEstimate> pre = Snapshot(**pre_store);

  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 2;
  copts.split_threshold = 150;
  auto report = RunCompaction(dir_, copts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ran);
  EXPECT_EQ(report->rows, 270u);
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(report->replaced_shards.size(), 3u);
  EXPECT_GE(report->new_shards.size(), 1u);
  EXPECT_LE(report->new_shards.size(), 2u);  // ceil(270 / 150), or fewer

  auto post_store = ShardedStore::Load(dir_);
  ASSERT_TRUE(post_store.ok()) << post_store.status().ToString();
  EXPECT_DOUBLE_EQ((*post_store)->n(), pre_n);
  EXPECT_EQ((*post_store)->compaction_gen(), 1u);
  // The replaced dirs are gone; only base + generation-1 shards remain.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.rfind("shard_b", 0), 0u) << name << " not GC'd";
  }
  ExpectEstimatesMatch(pre, Snapshot(**post_store));

  // The engine facade opens the compacted store like any other.
  auto opened = EntropyEngine::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->num_shards(), (*post_store)->num_shards());
  EXPECT_DOUBLE_EQ((*opened)->n(), pre_n);
}

TEST_P(CompactionTest, SecondCycleRecompactsCompactedShards) {
  Append(90, 41);
  Append(70, 42);
  Append(110, 43);
  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 2;
  ASSERT_TRUE(RunCompaction(dir_, copts)->ran);

  // More appends on the compacted store, then a second pass: shard_c1_*
  // is itself batch-lineage and must fold into generation 2.
  Append(60, 44);
  Append(40, 45);

  auto pre_store = ShardedStore::Load(dir_);
  ASSERT_TRUE(pre_store.ok());
  const std::vector<QueryEstimate> pre = Snapshot(**pre_store);

  CompactionOptions force = copts;
  force.force = true;
  auto report = RunCompaction(dir_, force);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ran);
  EXPECT_EQ(report->generation, 2u);
  EXPECT_EQ(report->rows, 370u);
  bool replaced_c1 = false;
  for (const std::string& d : report->replaced_shards) {
    replaced_c1 |= d.rfind("shard_c1_", 0) == 0;
  }
  EXPECT_TRUE(replaced_c1);

  auto post_store = ShardedStore::Load(dir_);
  ASSERT_TRUE(post_store.ok());
  EXPECT_EQ((*post_store)->compaction_gen(), 2u);
  ExpectEstimatesMatch(pre, Snapshot(**post_store));
}

TEST_P(CompactionTest, CompactedStoreMatchesDeterministicRebuild) {
  Append(90, 51);
  Append(70, 52);
  Append(110, 53);

  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 2;
  copts.split_threshold = 150;
  auto report = RunCompaction(dir_, copts);
  ASSERT_TRUE(report.ok() && report->ran);

  auto post_store = ShardedStore::Load(dir_);
  ASSERT_TRUE(post_store.ok());

  // Reconstruct the replacement shards from the documented rule alone:
  // journal rows in seal order, the store's own partition scheme, and
  // sample_seed += (gen << 32) + (j << 20). Estimates AND variances of
  // the merged answers must agree — variance has no partition-invariance
  // argument, so THIS is the check that pins it.
  auto m = ShardedStore::ReadManifest(dir_);
  ASSERT_TRUE(m.ok());
  auto shard0 = SourceStore::Load((fs::path(dir_) / "shard_0").string());
  ASSERT_TRUE(shard0.ok());
  auto wal =
      ReadWal(Env::Default(), (fs::path(dir_) / kIngestWalName).string());
  ASSERT_TRUE(wal.ok());
  TableBuilder builder(Schema{{AttributeSpec{"A0", AttributeType::kInteger, 4},
                               AttributeSpec{"A1", AttributeType::kInteger,
                                             3}}});
  builder.SetDomain(0, (*shard0)->domains()[0]);
  builder.SetDomain(1, (*shard0)->domains()[1]);
  for (uint64_t i = 0; i < m->wal_sealed; ++i) {
    auto batch = ParseIngestBatch(**shard0, wal->records[i], i);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
      builder.AppendEncodedRow({(*batch)->at(r, 0), (*batch)->at(r, 1)});
    }
  }
  auto rows = builder.Finish();
  ASSERT_TRUE(rows.ok());

  PartitionOptions popts;
  popts.num_shards = report->new_shards.size();
  popts.scheme = GetParam().scheme;
  popts.partition_attr = GetParam().partition_attr;
  auto parts = TablePartitioner::Partition(**rows, popts);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();

  std::vector<std::shared_ptr<SourceStore>> expected;
  expected.push_back(*shard0);
  auto shard1 = SourceStore::Load((fs::path(dir_) / "shard_1").string());
  ASSERT_TRUE(shard1.ok());
  expected.push_back(*shard1);
  for (size_t j = 0; j < parts->size(); ++j) {
    StoreOptions per_shard = ExactStoreOptions();
    per_shard.forced_pairs = InheritedPairs(**shard0);
    per_shard.use_budget_advisor = false;
    per_shard.sample_seed +=
        (report->generation << 32) + (static_cast<uint64_t>(j) << 20);
    auto built = SourceStore::Build(*(*parts)[j], per_shard);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    expected.push_back(*built);
  }
  auto expected_store = ShardedStore::FromShards(
      std::move(expected), GetParam().scheme, {}, GetParam().partition_attr);
  ASSERT_TRUE(expected_store.ok()) << expected_store.status().ToString();

  for (const CountingQuery& q : Battery()) {
    auto got = testutil::CountOf(**post_store, q);
    auto want = testutil::CountOf(**expected_store, q);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_NEAR(got->expectation, want->expectation,
                kMergeBar * std::max(1.0, std::fabs(want->expectation)));
    EXPECT_NEAR(got->variance, want->variance,
                kMergeBar * std::max(1.0, std::fabs(want->variance)));
  }
}

TEST_P(CompactionTest, ZoneMapPruningStaysExactOnCompactedShards) {
  Append(90, 61);
  Append(70, 62);
  Append(110, 63);
  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 2;
  copts.split_threshold = 150;
  ASSERT_TRUE(RunCompaction(dir_, copts)->ran);

  auto loaded = ShardedStore::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  // Every shard of the compacted store carries a zone map (base shards
  // keep theirs, compaction writes fresh ones).
  for (size_t s = 0; s < (*loaded)->num_shards(); ++s) {
    EXPECT_NE((*loaded)->zone_map(s), nullptr) << "shard " << s;
  }
  // Pruned and full-fan-out answers are bitwise identical: a pruned
  // shard's zone map PROVES zero matches, so skipping it changes nothing.
  for (const CountingQuery& q : Battery()) {
    (*loaded)->set_zone_map_pruning(true);
    auto pruned = testutil::CountOf(**loaded, q);
    (*loaded)->set_zone_map_pruning(false);
    auto full = testutil::CountOf(**loaded, q);
    ASSERT_TRUE(pruned.ok() && full.ok());
    EXPECT_EQ(pruned->expectation, full->expectation);
    EXPECT_EQ(pruned->variance, full->variance);
  }
}

/// Randomized sequences: interleave appends and threshold-triggered
/// compactions, checking the battery after every compaction against the
/// state just before it.
TEST_P(CompactionTest, FuzzAppendCompactSequences) {
  Rng rng(0xC0DEC + static_cast<uint64_t>(GetParam().scheme));
  CompactionOptions copts;
  copts.store = ExactStoreOptions();
  copts.max_batch_shards = 1;
  copts.split_threshold = 120;
  uint64_t expected_gen = 0;
  for (int step = 0; step < 6; ++step) {
    Append(40 + rng.Uniform(80), 700 + step);
    auto plan = CompactionPlanner::Plan(dir_, copts);
    ASSERT_TRUE(plan.ok());
    if (!plan->triggered) continue;

    auto pre_store = ShardedStore::Load(dir_);
    ASSERT_TRUE(pre_store.ok());
    const double pre_n = (*pre_store)->n();
    const std::vector<QueryEstimate> pre = Snapshot(**pre_store);

    auto report = RunCompaction(dir_, copts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->ran);
    EXPECT_EQ(report->generation, ++expected_gen);

    auto post_store = ShardedStore::Load(dir_);
    ASSERT_TRUE(post_store.ok());
    EXPECT_DOUBLE_EQ((*post_store)->n(), pre_n);
    ExpectEstimatesMatch(pre, Snapshot(**post_store));
  }
  EXPECT_GE(expected_gen, 2u);  // the sequence really exercised cycles
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CompactionTest,
    ::testing::Values(SchemeCase{PartitionScheme::kRoundRobin, 0, "rr"},
                      SchemeCase{PartitionScheme::kHash, 0, "hash"},
                      SchemeCase{PartitionScheme::kAttribute, 0, "attr"}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace entropydb
