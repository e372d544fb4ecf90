// The row-group index behind indexed sample evaluation: structural
// invariants, bitwise identity of indexed vs. scan Count/Sum (randomized
// predicates over stratified + uniform samples), .eds v2 round trips,
// v1 rebuild-on-load compat, and routing-decision identity between an
// indexed and an unindexed store.

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/query_router.h"
#include "engine/source_store.h"
#include "sampling/sample_estimator.h"
#include "sampling/sample_index.h"
#include "sampling/sample_io.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

/// A random conjunctive query mixing ANY / point / range / set predicates.
CountingQuery RandomQuery(Rng& rng, const Table& t) {
  CountingQuery q(t.num_attributes());
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    const uint32_t dom = t.domain(a).size();
    switch (rng.Uniform(5)) {
      case 0: {  // point
        q.Where(a, AttrPredicate::Point(static_cast<Code>(rng.Uniform(dom))));
        break;
      }
      case 1: {  // range
        Code lo = static_cast<Code>(rng.Uniform(dom));
        Code hi = static_cast<Code>(rng.Uniform(dom));
        if (hi < lo) std::swap(lo, hi);
        q.Where(a, AttrPredicate::Range(lo, hi));
        break;
      }
      case 2: {  // set
        std::vector<Code> codes;
        const size_t k = 1 + rng.Uniform(3);
        for (size_t i = 0; i < k; ++i) {
          codes.push_back(static_cast<Code>(rng.Uniform(dom)));
        }
        q.Where(a, AttrPredicate::InSet(std::move(codes)));
        break;
      }
      default:
        break;  // ANY
    }
  }
  return q;
}

/// The same sample with and without its index attached.
std::pair<WeightedSample, WeightedSample> IndexedAndScan(
    const WeightedSample& drawn) {
  WeightedSample indexed = drawn;
  indexed.index = SampleIndex::Build(*indexed.rows);
  WeightedSample scan = drawn;
  scan.index = nullptr;
  return {std::move(indexed), std::move(scan)};
}

TEST(SampleIndexTest, BuildGroupsEveryRowAscendingByCode) {
  auto table = testutil::RandomTable({6, 5, 9}, 3000, 811);
  auto index = SampleIndex::Build(*table);
  ASSERT_EQ(index->num_attributes(), 3u);
  ASSERT_EQ(index->num_rows(), table->num_rows());
  for (AttrId a = 0; a < 3; ++a) {
    const SampleIndex::AttrIndex& idx = index->attr(a);
    ASSERT_EQ(idx.offsets.size(), table->domain(a).size() + 1);
    EXPECT_EQ(idx.offsets.front(), 0u);
    EXPECT_EQ(idx.offsets.back(), table->num_rows());
    for (Code c = 0; c < table->domain(a).size(); ++c) {
      for (uint32_t i = idx.offsets[c]; i < idx.offsets[c + 1]; ++i) {
        EXPECT_EQ(table->at(idx.perm[i], a), c);
        if (i > idx.offsets[c]) EXPECT_LT(idx.perm[i - 1], idx.perm[i]);
      }
    }
  }
}

TEST(SampleIndexTest, CandidateCountMatchesPredicateSemantics) {
  auto table = testutil::RandomTable({7, 4}, 1200, 977);
  auto index = SampleIndex::Build(*table);
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    CountingQuery q = RandomQuery(rng, *table);
    for (AttrId a = 0; a < 2; ++a) {
      size_t expected = 0;
      for (size_t r = 0; r < table->num_rows(); ++r) {
        expected += q.predicate(a).Matches(table->at(r, a)) ? 1 : 0;
      }
      EXPECT_EQ(index->CandidateCount(a, q.predicate(a)), expected);
    }
  }
  // Out-of-domain predicates match nothing.
  EXPECT_EQ(index->CandidateCount(0, AttrPredicate::Point(99)), 0u);
  EXPECT_EQ(index->CandidateCount(0, AttrPredicate::Range(90, 99)), 0u);
}

TEST(SampleIndexTest, IndexedCountAndSumAreBitwiseEqualToScan) {
  auto table = testutil::RandomTable({12, 8, 15, 6}, 20000, 1031);
  auto strat = StratifiedSampler::Create(*table, 0, 2, 0.05, 11);
  auto uni = UniformSampler::Create(*table, 0.05, 13);
  ASSERT_TRUE(strat.ok());
  ASSERT_TRUE(uni.ok());
  std::vector<double> values(table->domain(1).size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.5 + 1.5 * i;

  for (const WeightedSample* drawn :
       {&*strat, &*uni}) {
    auto [indexed, scan] = IndexedAndScan(*drawn);
    SampleEstimator with_index(indexed);
    SampleEstimator without(scan);
    Rng rng(4242);
    size_t zero_matches = 0;
    for (int trial = 0; trial < 300; ++trial) {
      CountingQuery q = RandomQuery(rng, *table);
      const QueryEstimate a = with_index.Count(q);
      const QueryEstimate b = without.Count(q);
      // Bitwise: EXPECT_EQ on doubles, not NEAR — the accumulation order
      // must be identical, not merely close.
      EXPECT_EQ(a.expectation, b.expectation);
      EXPECT_EQ(a.variance, b.variance);
      const QueryEstimate sa = with_index.Sum(1, values, q);
      const QueryEstimate sb = without.Sum(1, values, q);
      EXPECT_EQ(sa.expectation, sb.expectation);
      EXPECT_EQ(sa.variance, sb.variance);
      zero_matches += b.expectation == 0.0 ? 1 : 0;
    }
    // The workload must exercise the miss floor too.
    EXPECT_GT(zero_matches, 0u);
  }
}

TEST(SampleIndexTest, FromPartsRejectsCorruptIndexes) {
  auto table = testutil::RandomTable({5, 4}, 400, 551);
  auto good = SampleIndex::Build(*table);
  // Shape mismatch.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0)};
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // Row in the wrong group.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    std::swap(attrs[0].perm[0], attrs[0].perm[attrs[0].perm.size() - 1]);
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // Offsets not ending at the row count.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    attrs[1].offsets.back() -= 1;
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // The untouched parts pass.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs)).ok());
  }
}

TEST(SampleIndexTest, EdsV2RoundTripsTheIndex) {
  auto table = testutil::RandomTable({6, 7, 5}, 3000, 661);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.08, 19);
  ASSERT_TRUE(drawn.ok());
  drawn->index = SampleIndex::Build(*drawn->rows);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_index_v2.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto loaded = LoadSample(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->index, nullptr);
  ASSERT_EQ(loaded->index->num_attributes(), 3u);
  for (AttrId a = 0; a < 3; ++a) {
    EXPECT_EQ(loaded->index->attr(a).offsets, drawn->index->attr(a).offsets);
    EXPECT_EQ(loaded->index->attr(a).perm, drawn->index->attr(a).perm);
  }
  // And the loaded estimator answers bitwise like the in-memory one.
  SampleEstimator before(*drawn), after(*loaded);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    CountingQuery q = RandomQuery(rng, *table);
    EXPECT_EQ(before.Count(q).expectation, after.Count(q).expectation);
    EXPECT_EQ(before.Count(q).variance, after.Count(q).variance);
  }
  fs::remove(path);
}

TEST(SampleIndexTest, IndexlessSamplesSaveAsV2WithoutIndex) {
  auto table = testutil::RandomTable({4, 4}, 500, 663);
  auto drawn = UniformSampler::Create(*table, 0.1, 23);
  ASSERT_TRUE(drawn.ok());
  ASSERT_EQ(drawn->index, nullptr);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_noindex.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto loaded = LoadSample(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // "index 0" is an explicit builder choice (--sample-index off), honored
  // on load rather than rebuilt.
  EXPECT_EQ(loaded->index, nullptr);
  fs::remove(path);
}

TEST(SampleIndexTest, CorruptV2IndexFailsTheLoad) {
  auto table = testutil::RandomTable({4, 5}, 600, 737);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.1, 31);
  ASSERT_TRUE(drawn.ok());
  drawn->index = SampleIndex::Build(*drawn->rows);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_badidx.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  // Flip one permutation entry: the row lands in a group whose code it
  // does not carry. The load must fail loudly, not serve skewed answers.
  // The file is downgraded to a checksum-less v2 first so the failure
  // exercises the index-invariant validation, not the CRC footer.
  {
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    std::string text = body.str();
    const std::string footer_tag = "crc32c ";
    ASSERT_GE(text.size(), 16u);
    ASSERT_EQ(text.compare(text.size() - 16, footer_tag.size(), footer_tag),
              0);
    text.resize(text.size() - 16);
    const std::string v3 = "ENTROPYDB_SAMPLE_V3";
    ASSERT_EQ(text.compare(0, v3.size(), v3), 0);
    text[v3.size() - 1] = '2';  // V3 -> V2: parsed, but not checksummed
    const size_t perm_at = text.find("\nperm ");
    ASSERT_NE(perm_at, std::string::npos);
    const size_t first = perm_at + 6;
    const size_t end = text.find_first_of(" \n", first);
    const uint32_t r = static_cast<uint32_t>(
        std::stoul(text.substr(first, end - first)));
    const uint32_t other = (r + 1) % static_cast<uint32_t>(drawn->size());
    text.replace(first, end - first, std::to_string(other));
    std::ofstream out(path);
    out << text;
  }
  auto loaded = LoadSample(path);
  // Either the swap broke a group invariant (the common case) or, in the
  // degenerate case where codes happen to agree, ordering broke instead;
  // both are Corruption.
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  fs::remove(path);
}

TEST(SampleIndexTest, RoutingDecisionsAndAnswerAllIdenticalWithIndexes) {
  // Planted correlations (the hybrid-router fixture's shape): (2, 3) is
  // strongly diagonal, so its rare off-diagonal cells are exactly where a
  // stratified sample beats a summary and routing flips to the sample.
  Rng gen(1999);
  std::vector<std::vector<Code>> raw(8000, std::vector<Code>(4));
  for (auto& row : raw) {
    row[0] = static_cast<Code>(gen.Uniform(8));
    row[1] = gen.NextBernoulli(0.9) ? row[0]
                                    : static_cast<Code>(gen.Uniform(8));
    row[2] = static_cast<Code>(gen.Uniform(10));
    row[3] = gen.NextBernoulli(0.95) ? row[2]
                                     : static_cast<Code>(gen.Uniform(10));
  }
  auto table = testutil::MakeTable({8, 8, 10, 10}, raw);
  StoreOptions with, without;
  with.num_summaries = without.num_summaries = 2;
  with.total_budget = without.total_budget = 160;
  with.num_stratified_samples = without.num_stratified_samples = 2;
  with.uniform_sample = without.uniform_sample = true;
  with.sample_fraction = without.sample_fraction = 0.05;
  with.summary.solver.max_iterations =
      without.summary.solver.max_iterations = 80;
  with.sample_index = true;
  without.sample_index = false;
  auto indexed = SourceStore::Build(*table, with);
  auto scan = SourceStore::Build(*table, without);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scan.ok());
  ASSERT_GT((*indexed)->num_samples(), 0u);
  for (size_t s = 0; s < (*indexed)->num_samples(); ++s) {
    EXPECT_NE((*indexed)->sample_entry(s).sample->index, nullptr);
    EXPECT_EQ((*scan)->sample_entry(s).sample->index, nullptr);
  }

  // Random predicate mixes PLUS rare off-diagonal (2, 3) cells — the
  // selective slice the hybrid stage routes to the stratified sample.
  std::vector<CountingQuery> workload;
  Rng rng(555);
  for (int trial = 0; trial < 90; ++trial) {
    workload.push_back(RandomQuery(rng, *table));
  }
  ExactEvaluator exact(*table);
  for (const auto& [key, count] : exact.GroupByCount({2, 3})) {
    if (key[0] == key[1] || count > 4) continue;
    CountingQuery q(4);
    q.Where(2, AttrPredicate::Point(key[0]))
        .Where(3, AttrPredicate::Point(key[1]));
    workload.push_back(q);
    if (workload.size() >= 120) break;
  }

  QueryRouter indexed_router(*indexed), scan_router(*scan);
  size_t to_sample = 0;
  for (const CountingQuery& q : workload) {
    RouteDecision di, ds;
    auto ei = indexed_router.Answer(q, &di);
    auto es = scan_router.Answer(q, &ds);
    ASSERT_TRUE(ei.ok());
    ASSERT_TRUE(es.ok());
    // The ROADMAP's bar: the index must never change which source wins,
    // nor the answer — bitwise.
    EXPECT_EQ(ei->expectation, es->expectation);
    EXPECT_EQ(ei->variance, es->variance);
    EXPECT_EQ(di.from_sample, ds.from_sample);
    EXPECT_EQ(di.index, ds.index);
    EXPECT_EQ(di.sample_index, ds.sample_index);
    EXPECT_EQ(di.summary_variance, ds.summary_variance);
    EXPECT_EQ(di.sample_variance, ds.sample_variance);
    to_sample += di.from_sample ? 1 : 0;
  }
  // The workload must actually exercise the hybrid stage both ways.
  EXPECT_GT(to_sample, 0u);
  EXPECT_LT(to_sample, workload.size());

  // Concurrent fan-out over the indexed store: indexed evaluation keeps
  // its candidate scratch thread-local, so the batched answers must be
  // bitwise the serial ones. (The AnswerAll name keeps this inside the
  // TSan CI job's filter.)
  std::vector<RouteDecision> batch_decisions;
  auto batch = indexed_router.AnswerAll(workload, &batch_decisions);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    RouteDecision dec;
    auto serial = indexed_router.Answer(workload[i], &dec);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
    EXPECT_EQ((*batch)[i].variance, serial->variance);
    EXPECT_EQ(batch_decisions[i].from_sample, dec.from_sample);
  }
}

}  // namespace
}  // namespace entropydb
