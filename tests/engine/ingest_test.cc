// WAL-backed ingest (engine/ingest.h): appended batches become fresh
// shards, merged estimates track the grown relation, malformed batches
// are rejected before they reach the journal, and the sealed-batch
// cursor in the manifest stays consistent with the journal.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"
#include "storage/wal.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

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

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.2;
  return opts;
}

std::string BatchCsv(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string csv = "A0,A1,A2,A3,A4\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(5)) + "," +
           std::to_string(rng.Uniform(5)) + "," +
           std::to_string(rng.Uniform(4)) + "\n";
  }
  return csv;
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.store = SmallStoreOptions();
    auto built = ShardedStore::Build(*TwoPairTable(1600, 191), sopts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    dir_ = (fs::temp_directory_path() /
            ("entropydb_ingest_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    ASSERT_TRUE((*built)->Save(dir_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(IngestTest, AppendGrowsTheStore) {
  auto report = AppendBatch(dir_, BatchCsv(200, 401), SmallStoreOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->journaled, 1u);
  EXPECT_EQ(report->sealed, 1u);
  EXPECT_EQ(report->recovered, 0u);

  auto opened = EntropyEngine::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->num_shards(), 3u);
  EXPECT_EQ((*opened)->n(), 1800.0);

  // The merged unconstrained COUNT tracks the grown relation.
  CountingQuery q(5);
  auto est = testutil::CountOf(**opened, q);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->expectation, 1800.0, 0.02 * 1800.0);
}

TEST_F(IngestTest, SecondAppendAdvancesTheCursor) {
  ASSERT_TRUE(AppendBatch(dir_, BatchCsv(200, 403), SmallStoreOptions()).ok());
  auto second = AppendBatch(dir_, BatchCsv(150, 405), SmallStoreOptions());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->sealed, 1u);

  auto m = ShardedStore::ReadManifest(dir_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->wal_sealed, 2u);
  ASSERT_EQ(m->shard_dirs.size(), 4u);
  EXPECT_EQ(m->shard_dirs[2], "shard_b0");
  EXPECT_EQ(m->shard_dirs[3], "shard_b1");

  auto wal = ReadWal(Env::Default(),
                     (fs::path(dir_) / kIngestWalName).string());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records.size(), 2u);

  auto opened = EntropyEngine::Open(dir_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->n(), 1950.0);
}

TEST_F(IngestTest, MalformedBatchIsRejectedBeforeJournaling) {
  // Wrong header arity: rejected up front, journal stays empty, store
  // untouched — no poison-pill record that every later replay chokes on.
  auto bad = AppendBatch(dir_, "A0,A1\n1,2\n", SmallStoreOptions());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto wal = ReadWal(Env::Default(),
                     (fs::path(dir_) / kIngestWalName).string());
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->records.empty());

  auto opened = EntropyEngine::Open(dir_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->num_shards(), 2u);
  EXPECT_EQ((*opened)->n(), 1600.0);

  // Header-only and wrongly named headers are rejected the same way.
  EXPECT_FALSE(AppendBatch(dir_, "A0,A1,A2,A3,A4\n", SmallStoreOptions())
                   .ok());
  EXPECT_FALSE(AppendBatch(dir_, "X0,A1,A2,A3,A4\n1,1,1,1,1\n",
                           SmallStoreOptions())
                   .ok());
  // A good batch afterwards still lands cleanly.
  auto good = AppendBatch(dir_, BatchCsv(200, 407), SmallStoreOptions());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->sealed, 1u);
}

TEST_F(IngestTest, AppendToMonoStoreFails) {
  auto mono = SourceStore::Build(*TwoPairTable(800, 193),
                                 SmallStoreOptions());
  ASSERT_TRUE(mono.ok());
  const std::string mono_dir = dir_ + "_mono";
  fs::remove_all(mono_dir);
  ASSERT_TRUE((*mono)->Save(mono_dir).ok());
  // Ingest appends shards; a monolithic store has no shard list to extend.
  EXPECT_FALSE(
      AppendBatch(mono_dir, BatchCsv(50, 409), SmallStoreOptions()).ok());
  fs::remove_all(mono_dir);
}

}  // namespace
}  // namespace entropydb
