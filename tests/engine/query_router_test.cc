// QueryRouter: coverage-based candidate selection, variance tie-breaking,
// widest-summary fallback, and the acceptance bar that routed answers are
// the chosen summary's own answers (<= 1e-12 relative error; in practice
// bitwise identical).

#include <cmath>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/query_router.h"
#include "engine/source_store.h"

namespace entropydb {
namespace {

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

struct RoutedFixture {
  std::shared_ptr<SourceStore> store;
  QueryRouter router;
  size_t pair01;  // entry modeling (0, 1)
  size_t pair23;  // entry modeling (2, 3)

  static RoutedFixture& Get() {
    static RoutedFixture* f = [] {
      auto table = TwoPairTable(1500, 61);
      StoreOptions opts;
      opts.num_summaries = 2;
      opts.total_budget = 40;
      opts.summary.solver.max_iterations = 120;
      auto store = SourceStore::Build(*table, opts);
      EXPECT_TRUE(store.ok());
      size_t p01 = 0, p23 = 0;
      for (size_t k = 0; k < (*store)->size(); ++k) {
        const ScoredPair& p = (*store)->entry(k).pairs.front();
        if ((p.a == 0 && p.b == 1) || (p.a == 1 && p.b == 0)) p01 = k;
        if ((p.a == 2 && p.b == 3) || (p.a == 3 && p.b == 2)) p23 = k;
      }
      return new RoutedFixture{*store, QueryRouter(*store), p01, p23};
    }();
    return *f;
  }
};

TEST(QueryRouterTest, RoutesToTheSingleCoveringSummary) {
  auto& f = RoutedFixture::Get();
  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(2)).Where(1, AttrPredicate::Point(2));
  RouteDecision dec;
  auto est = f.router.Answer(q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(dec.index, f.pair01);
  EXPECT_EQ(dec.covered_pairs, 1u);
  EXPECT_EQ(dec.candidates, 1u);
  EXPECT_FALSE(dec.fallback);

  CountingQuery r(5);
  r.Where(2, AttrPredicate::Range(1, 3)).Where(3, AttrPredicate::Point(1));
  auto est2 = f.router.Answer(r, &dec);
  ASSERT_TRUE(est2.ok());
  EXPECT_EQ(dec.index, f.pair23);
  EXPECT_FALSE(dec.fallback);
}

TEST(QueryRouterTest, FallsBackToWidestWhenNothingCovers) {
  auto& f = RoutedFixture::Get();
  // Constrains one attribute of each pair — no pair is FULLY constrained —
  // plus the independent attribute: nothing covers.
  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(1)).Where(2, AttrPredicate::Point(1));
  RouteDecision dec;
  auto est = f.router.Answer(q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(dec.fallback);
  EXPECT_EQ(dec.covered_pairs, 0u);
  EXPECT_EQ(dec.index, f.store->widest());

  CountingQuery only4(5);
  only4.Where(4, AttrPredicate::Point(0));
  auto est2 = f.router.Answer(only4, &dec);
  ASSERT_TRUE(est2.ok());
  EXPECT_TRUE(dec.fallback);
}

TEST(QueryRouterTest, PicksLowestVarianceAmongTiedCandidates) {
  auto& f = RoutedFixture::Get();
  // Both pairs fully constrained: both entries tie on coverage 1 and the
  // variance rule decides.
  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(3))
      .Where(1, AttrPredicate::Point(3))
      .Where(2, AttrPredicate::Point(2))
      .Where(3, AttrPredicate::Point(2));
  RouteDecision dec;
  auto est = f.router.Answer(q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(dec.candidates, 2u);
  EXPECT_FALSE(dec.fallback);

  auto a = f.store->summary(f.pair01).Answer(q);
  auto b = f.store->summary(f.pair23).Answer(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double min_var = std::min(a->variance, b->variance);
  EXPECT_EQ(est->variance, min_var);
  EXPECT_EQ(dec.expected_variance, min_var);
}

TEST(QueryRouterTest, RoutedAnswersMatchThePerSummaryReference) {
  auto& f = RoutedFixture::Get();
  // A mixed workload; every routed answer must equal a dedicated reference
  // answerer on the chosen summary to <= 1e-12 relative error.
  std::vector<CountingQuery> workload;
  for (Code v = 0; v < 5; ++v) {
    CountingQuery q(5);
    q.Where(0, AttrPredicate::Point(v % 6)).Where(1, AttrPredicate::Point(v % 6));
    workload.push_back(q);
    CountingQuery r(5);
    r.Where(2, AttrPredicate::Range(0, v % 5)).Where(3, AttrPredicate::Point(v % 5));
    workload.push_back(r);
    CountingQuery s(5);
    s.Where(4, AttrPredicate::Point(v % 4));
    workload.push_back(s);
  }
  for (const auto& q : workload) {
    RouteDecision dec;
    auto routed = f.router.Answer(q, &dec);
    ASSERT_TRUE(routed.ok());
    const EntropySummary& chosen = f.store->summary(dec.index);
    // A fresh QueryAnswerer over the same solved state is the reference.
    QueryAnswerer reference(chosen.registry(), chosen.polynomial(),
                            chosen.state());
    auto ref = reference.Answer(q);
    ASSERT_TRUE(ref.ok());
    const double denom = std::max(1.0, std::abs(ref->expectation));
    EXPECT_LE(std::abs(routed->expectation - ref->expectation) / denom, 1e-12);
    EXPECT_LE(std::abs(routed->variance - ref->variance) /
                  std::max(1.0, ref->variance),
              1e-12);
  }
}

TEST(QueryRouterTest, AnswerAllMatchesSerialAnswers) {
  auto& f = RoutedFixture::Get();
  std::vector<CountingQuery> workload;
  for (Code v = 0; v < 6; ++v) {
    CountingQuery q(5);
    q.Where(0, AttrPredicate::Point(v)).Where(1, AttrPredicate::Range(0, v));
    workload.push_back(q);
    CountingQuery r(5);
    r.Where(3, AttrPredicate::Point(v % 5));
    workload.push_back(r);
  }
  std::vector<RouteDecision> decisions;
  auto batch = f.router.AnswerAll(workload, &decisions);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), workload.size());
  ASSERT_EQ(decisions.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    RouteDecision dec;
    auto serial = f.router.Answer(workload[i], &dec);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
    EXPECT_EQ((*batch)[i].variance, serial->variance);
    EXPECT_EQ(decisions[i].index, dec.index);
    EXPECT_EQ(decisions[i].fallback, dec.fallback);
  }
}

TEST(QueryRouterTest, RejectsArityMismatch) {
  auto& f = RoutedFixture::Get();
  EXPECT_TRUE(
      f.router.Answer(CountingQuery(3)).status().IsInvalidArgument());
}

}  // namespace
}  // namespace entropydb
