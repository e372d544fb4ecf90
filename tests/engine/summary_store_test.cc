// Summary-only SourceStore: parallel top-K pair builds and directory
// persistence.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/source_store.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

/// Two strong, attribute-disjoint correlations — (0,1) and (2,3) — plus an
/// independent trailing attribute, so pair ranking has an unambiguous
/// top 2 and routing tests can aim queries at either correlation.
std::shared_ptr<Table> TwoPairTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(5));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.85) ? row[0]
                                     : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.85) ? row[2]
                                     : static_cast<Code>(rng.Uniform(5));
    row[4] = static_cast<Code>(rng.Uniform(4));
  }
  return testutil::MakeTable({6, 6, 5, 5, 4}, rows);
}

StoreOptions SmallStoreOptions(size_t k) {
  StoreOptions opts;
  opts.num_summaries = k;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  return opts;
}

std::set<AttrId> PairSpan(const StoreEntry& e) {
  std::set<AttrId> span;
  for (const ScoredPair& p : e.pairs) {
    span.insert(p.a);
    span.insert(p.b);
  }
  return span;
}

TEST(SummaryStoreTest, BuildsOneSummaryPerTopPair) {
  auto table = TwoPairTable(1500, 41);
  auto store = SourceStore::Build(*table, SmallStoreOptions(2));
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->size(), 2u);
  // The two modeled pairs are exactly the two planted correlations.
  std::set<std::set<AttrId>> spans{PairSpan((*store)->entry(0)),
                                   PairSpan((*store)->entry(1))};
  EXPECT_TRUE(spans.count({0, 1}));
  EXPECT_TRUE(spans.count({2, 3}));
  // Every summary shares the relation schema and answers queries.
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ((*store)->summary(k).num_attributes(), 5u);
    CountingQuery q(5);
    q.Where(0, AttrPredicate::Point(1));
    auto est = (*store)->summary(k).Answer(q);
    ASSERT_TRUE(est.ok());
    EXPECT_GT(est->expectation, 0.0);
  }
}

TEST(SummaryStoreTest, CapsKAtAvailablePairs) {
  auto table = TwoPairTable(600, 43);
  auto store = SourceStore::Build(*table, SmallStoreOptions(50));
  ASSERT_TRUE(store.ok());
  // Attribute cover over 5 attributes yields at most 2 disjoint-ish pairs
  // plus coverage-classed extras; K is whatever the selector produced, and
  // every entry must carry exactly one pair.
  EXPECT_LE((*store)->size(), 10u);
  for (size_t k = 0; k < (*store)->size(); ++k) {
    EXPECT_EQ((*store)->entry(k).pairs.size(), 1u);
  }
}

TEST(SummaryStoreTest, SaveLoadRoundTripPreservesAnswers) {
  auto table = TwoPairTable(1200, 47);
  auto built = SourceStore::Build(*table, SmallStoreOptions(2));
  ASSERT_TRUE(built.ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_store_test").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*built)->Save(dir).ok());
  auto loaded = SourceStore::Load(dir);
  ASSERT_TRUE(loaded.ok());

  ASSERT_EQ((*loaded)->size(), (*built)->size());
  EXPECT_EQ((*loaded)->widest(), (*built)->widest());
  for (size_t k = 0; k < (*built)->size(); ++k) {
    EXPECT_EQ(PairSpan((*loaded)->entry(k)), PairSpan((*built)->entry(k)));
  }

  // Loading restores without re-solving: answers agree to serialization
  // precision (%.17g round-trips doubles exactly).
  std::vector<CountingQuery> probes;
  for (Code v = 0; v < 4; ++v) {
    CountingQuery q(5);
    q.Where(0, AttrPredicate::Point(v)).Where(1, AttrPredicate::Point(v));
    probes.push_back(q);
    CountingQuery r(5);
    r.Where(2, AttrPredicate::Range(0, v)).Where(4, AttrPredicate::Point(1));
    probes.push_back(r);
  }
  for (size_t k = 0; k < (*built)->size(); ++k) {
    for (const auto& q : probes) {
      auto a = (*built)->summary(k).Answer(q);
      auto b = (*loaded)->summary(k).Answer(q);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_NEAR(a->expectation, b->expectation,
                  1e-12 * (1.0 + a->expectation));
    }
  }
  fs::remove_all(dir);
}

TEST(SummaryStoreTest, LoadRejectsMissingAndCorruptStores) {
  EXPECT_FALSE(SourceStore::Load("/nonexistent/store/dir").ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_bad_store").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/MANIFEST") << "NOT_A_STORE\n";
  auto bad = SourceStore::Load(dir);
  EXPECT_FALSE(bad.ok());
  fs::remove_all(dir);
}

TEST(SummaryStoreTest, FromEntriesValidates) {
  EXPECT_TRUE(SourceStore::FromEntries({}).status().IsInvalidArgument());
  EXPECT_TRUE(SourceStore::FromEntries({StoreEntry{}})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace entropydb
