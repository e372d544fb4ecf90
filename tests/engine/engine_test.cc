// EntropyEngine facade: one query surface over one store shape (S shards
// x K sources) — a single summary, a routed store, or a sharded store —
// with Open() dispatching on file vs. directory.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "maxent/join_fusion.h"
#include "maxent/quantile.h"

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
  return opts;
}

TEST(EntropyEngineTest, SingleSummaryFacadeAnswersLikeTheSummary) {
  auto table = TwoPairTable(800, 71);
  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  auto engine = EntropyEngine::FromSummary(*summary);
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_EQ(engine->num_summaries(), 1u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(2));
  RouteDecision dec;
  auto via_engine = testutil::CountOf(*engine, q, &dec);
  auto direct = (*summary)->Answer(q);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->expectation, direct->expectation);
  EXPECT_EQ(dec.index, 0u);
}

TEST(EntropyEngineTest, StoreBackedEngineRoutes) {
  auto table = TwoPairTable(1200, 73);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_EQ(engine->num_summaries(), 2u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  RouteDecision dec;
  auto est = testutil::CountOf(*engine, q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(dec.fallback);
  auto direct = (*store)->summary(dec.index).Answer(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->expectation, direct->expectation);
}

TEST(EntropyEngineTest, BatchedAnswersMatchSerial) {
  auto table = TwoPairTable(900, 79);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);
  std::vector<CountingQuery> qs;
  for (Code v = 0; v < 5; ++v) {
    CountingQuery q(5);
    q.Where(2, AttrPredicate::Point(v)).Where(3, AttrPredicate::Point(v));
    qs.push_back(q);
  }
  auto batch = engine->AnswerAll(qs);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < qs.size(); ++i) {
    auto serial = testutil::CountOf(*engine, qs[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
  }
}

TEST(EntropyEngineTest, AggregatesRouteOnTheAggregatedAttribute) {
  auto table = TwoPairTable(1200, 83);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);

  // SUM(A0) WHERE A1 = 2: only attr 1 is filtered, but the aggregate runs
  // over attr 0, so the (0, 1)-modeling entry covers it.
  size_t pair01 = 0;
  for (size_t k = 0; k < (*store)->size(); ++k) {
    const ScoredPair& p = (*store)->entry(k).pairs.front();
    if (p.a + p.b == 1) pair01 = k;  // {0, 1}
  }
  std::vector<double> weights(6);
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 + i;
  CountingQuery q(5);
  q.Where(1, AttrPredicate::Point(2));
  RouteDecision dec;
  auto est = engine->Answer(AggregateQuery::Sum(0, weights, q), &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(dec.index, pair01);
  EXPECT_FALSE(dec.fallback);
  auto direct = (*store)->summary(pair01).Answer(
      AggregateQuery::Sum(0, weights, q));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->estimate.expectation, direct->estimate.expectation);

  auto avg = engine->Answer(AggregateQuery::Avg(0, weights, q), &dec);
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(dec.index, pair01);
  EXPECT_GT(avg->estimate.expectation, 0.0);
}

TEST(EntropyEngineTest, OpenDispatchesOnFileVsDirectory) {
  auto table = TwoPairTable(800, 89);
  const auto tmp = fs::temp_directory_path();
  const std::string file = (tmp / "entropydb_engine_test.edb").string();
  const std::string dir = (tmp / "entropydb_engine_test_store").string();
  fs::remove_all(dir);
  fs::remove(file);

  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE((*summary)->Save(file).ok());
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Save(dir).ok());

  auto from_file = EntropyEngine::Open(file);
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ((*from_file)->num_shards(), 1u);
  EXPECT_EQ((*from_file)->num_summaries(), 1u);

  auto from_dir = EntropyEngine::Open(dir);
  ASSERT_TRUE(from_dir.ok());
  EXPECT_EQ((*from_dir)->num_shards(), 1u);
  EXPECT_EQ((*from_dir)->num_summaries(), 2u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  auto est = testutil::CountOf(**from_dir, q);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->expectation, 0.0);

  EXPECT_FALSE(EntropyEngine::Open((tmp / "entropydb_missing").string()).ok());
  fs::remove_all(dir);
  fs::remove(file);
}

TEST(EntropyEngineTest, OpenRestoresHybridStoresWithSamples) {
  auto table = TwoPairTable(1000, 97);
  StoreOptions opts = SmallStoreOptions();
  opts.num_stratified_samples = 1;
  opts.sample_fraction = 0.05;
  auto store = SourceStore::Build(*table, opts);
  ASSERT_TRUE(store.ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_engine_hybrid_store").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*store)->Save(dir).ok());
  auto engine = EntropyEngine::Open(dir);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_shards(), 1u);
  EXPECT_EQ((*engine)->num_summaries(), 2u);
  EXPECT_EQ((*engine)->num_samples(), 1u);

  // Routed answers through the restored engine match the in-memory store's
  // routing (same decision, same bits).
  QueryRouter reference(*store);
  for (Code v = 0; v < 5; ++v) {
    CountingQuery q(5);
    q.Where(2, AttrPredicate::Point(v)).Where(3, AttrPredicate::Point(v));
    RouteDecision got, want;
    auto est = testutil::CountOf(**engine, q, &got);
    auto ref = reference.Answer(q, &want);
    ASSERT_TRUE(est.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(got.from_sample, want.from_sample);
    EXPECT_EQ(est->expectation, ref->expectation);
    EXPECT_EQ(est->variance, ref->variance);
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// One shape: a .edb file (1 x 1), a mono directory with sample
// companions (S = 1), and a sharded directory all answer through the
// same merge. Every kind must equal the direct source answer with ==.

void ExpectSame(const QueryEstimate& got, const QueryEstimate& want) {
  EXPECT_EQ(got.expectation, want.expectation);
  EXPECT_EQ(got.variance, want.variance);
}

void ExpectSame(const QueryResult& got, const QueryResult& want) {
  ExpectSame(got.estimate, want.estimate);
  ExpectSame(got.sum, want.sum);
  ExpectSame(got.count, want.count);
  EXPECT_EQ(got.sum_count_cov, want.sum_count_cov);
  EXPECT_EQ(got.has_moments, want.has_moments);
  EXPECT_EQ(got.bound_lo, want.bound_lo);
  EXPECT_EQ(got.bound_hi, want.bound_hi);
  EXPECT_EQ(got.has_bound, want.has_bound);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t i = 0; i < got.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].code, want.cells[i].code);
    ExpectSame(got.cells[i].estimate, want.cells[i].estimate);
  }
}

/// The direct answer of a list of disjoint sources (one summary, one
/// store's router, or one router per shard): one source answers on its
/// own, several sum their parts in order — the additive reference.
template <typename Source>
struct DirectAnswers {
  std::vector<const Source*> parts;
  double n = 0.0;

  QueryResult Moments(const AggregateQuery& q) const {
    if (parts.size() == 1) return *parts[0]->Answer(q);
    QueryResult out;
    out.has_moments = true;
    for (const Source* p : parts) {
      const QueryResult part = *p->Answer(q);
      out.estimate.expectation += part.estimate.expectation;
      out.estimate.variance += part.estimate.variance;
      out.sum.expectation += part.sum.expectation;
      out.sum.variance += part.sum.variance;
      out.count.expectation += part.count.expectation;
      out.count.variance += part.count.variance;
      out.sum_count_cov += part.sum_count_cov;
    }
    if (q.kind == AggregateKind::kAvg) {
      out.estimate = DeltaMethodRatio(out.sum, out.count, out.sum_count_cov);
    }
    return out;
  }

  std::vector<QueryEstimate> Marginal(AttrId a, const CountingQuery& w) const {
    std::vector<QueryEstimate> out;
    for (const Source* p : parts) {
      const std::vector<QueryEstimate> part = *p->AnswerGroupByAttribute(a, w);
      if (parts.size() == 1) return part;
      out.resize(part.size());
      for (size_t v = 0; v < part.size(); ++v) {
        out[v].expectation += part[v].expectation;
        out[v].variance += part[v].variance;
      }
    }
    return out;
  }

  std::map<std::vector<Code>, QueryEstimate> Points(
      const std::vector<AttrId>& attrs,
      const std::vector<std::vector<Code>>& keys,
      const CountingQuery& base) const {
    std::map<std::vector<Code>, QueryEstimate> out;
    for (const Source* p : parts) {
      const auto part = *p->AnswerGroupBy(attrs, keys, base);
      if (parts.size() == 1) return part;
      for (const auto& [key, est] : part) {
        out[key].expectation += est.expectation;
        out[key].variance += est.variance;
      }
    }
    return out;
  }

  QueryResult JoinCount(const CountingQuery& where,
                        const CountingQuery& right_where) const {
    JoinSideMarginal left, right;
    left.n = right.n = n;
    for (const QueryEstimate& c : Marginal(0, where)) {
      left.mass.push_back(c.expectation);
    }
    for (const QueryEstimate& c : Marginal(0, right_where)) {
      right.mass.push_back(c.expectation);
    }
    return *FuseJoinCount(left, right);
  }

  QueryResult JoinSum(const std::vector<double>& weights,
                      const CountingQuery& where,
                      const CountingQuery& right_where) const {
    JoinSideMarginal right;
    right.n = n;
    for (const QueryEstimate& c : Marginal(0, right_where)) {
      right.mass.push_back(c.expectation);
    }
    std::vector<std::vector<Code>> keys;
    for (Code j = 0; j < 6; ++j) {
      for (Code v = 0; v < weights.size(); ++v) keys.push_back({j, v});
    }
    std::vector<std::vector<double>> grid(
        6, std::vector<double>(weights.size(), 0.0));
    for (const auto& [key, est] : Points({0, 2}, keys, where)) {
      grid[key[0]][key[1]] = est.expectation;
    }
    return *FuseJoinSum(n, grid, weights, right);
  }
};

std::vector<CountingQuery> ParityFilters() {
  std::vector<CountingQuery> qs(6, CountingQuery(5));
  qs[1].Where(0, AttrPredicate::Point(2));
  qs[2].Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  qs[3].Where(2, AttrPredicate::Range(1, 3)).Where(3, AttrPredicate::Point(2));
  qs[4].Where(4, AttrPredicate::Point(3));
  qs[5].Where(0, AttrPredicate::Range(0, 2)).Where(2, AttrPredicate::Point(0));
  return qs;
}

/// Every kind through the engine against the direct answers.
template <typename Source>
void ExpectEngineMatchesDirect(const EntropyEngine& engine,
                               const DirectAnswers<Source>& direct) {
  std::vector<double> weights(5);
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.5 + 0.5 * v;
  const std::vector<CountingQuery> filters = ParityFilters();
  for (size_t i = 0; i < filters.size(); ++i) {
    SCOPED_TRACE("filter " + std::to_string(i));
    const CountingQuery& w = filters[i];
    for (const AggregateQuery& q :
         {AggregateQuery::Count(w), AggregateQuery::Sum(2, weights, w),
          AggregateQuery::Avg(2, weights, w)}) {
      SCOPED_TRACE(AggregateKindName(q.kind));
      auto got = engine.Answer(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSame(*got, direct.Moments(q));
    }
    const std::vector<QueryEstimate> marginal = direct.Marginal(2, w);
    auto quantile = engine.Answer(AggregateQuery::Quantile(2, weights, 0.5, w));
    ASSERT_TRUE(quantile.ok()) << quantile.status().ToString();
    ExpectSame(*quantile,
               *QuantileFromMarginal(marginal, weights, 0.5, direct.n));
    auto topk = engine.Answer(AggregateQuery::TopK(2, 3, w));
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    ExpectSame(*topk, *TopKFromMarginal(marginal, 3));

    auto by_attr = engine.AnswerGroupByAttribute(2, w);
    ASSERT_TRUE(by_attr.ok());
    ASSERT_EQ(by_attr->size(), marginal.size());
    for (size_t v = 0; v < marginal.size(); ++v) {
      ExpectSame((*by_attr)[v], marginal[v]);
    }
    const std::vector<std::vector<Code>> keys = {{0, 0}, {1, 1}, {2, 4}};
    auto points = engine.AnswerGroupBy({0, 2}, keys, w);
    ASSERT_TRUE(points.ok());
    const auto want_points = direct.Points({0, 2}, keys, w);
    ASSERT_EQ(points->size(), want_points.size());
    for (const auto& [key, est] : want_points) {
      ExpectSame(points->at(key), est);
    }

    const CountingQuery& right = filters[(i + 1) % filters.size()];
    auto join = engine.AnswerJoin(AggregateQuery::JoinCount(0, 0, w, right),
                                  engine);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ExpectSame(*join, direct.JoinCount(w, right));
    auto join_sum = engine.AnswerJoin(
        AggregateQuery::JoinSum(2, weights, 0, 0, w, right), engine);
    ASSERT_TRUE(join_sum.ok()) << join_sum.status().ToString();
    ExpectSame(*join_sum, direct.JoinSum(weights, w, right));
  }
  auto all = engine.AnswerAll(filters);
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < filters.size(); ++i) {
    ExpectSame((*all)[i],
               direct.Moments(AggregateQuery::Count(filters[i])).estimate);
  }
}

TEST(EntropyEngineTest, OneShapeAnswersEqualDirectSourcesAcrossLayouts) {
  auto table = TwoPairTable(1500, 101);
  const auto tmp = fs::temp_directory_path();

  // A .edb file: the 1 x 1 store; its direct source is the summary.
  const std::string file = (tmp / "entropydb_parity_test.edb").string();
  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE((*summary)->Save(file).ok());
  auto from_file = EntropyEngine::Open(file);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto loaded_summary = EntropySummary::Load(file);
  ASSERT_TRUE(loaded_summary.ok());
  {
    SCOPED_TRACE(".edb");
    DirectAnswers<EntropySummary> direct{{loaded_summary->get()},
                                         (*loaded_summary)->n()};
    ExpectEngineMatchesDirect(**from_file, direct);
  }

  // A mono directory with sample companions: S = 1; its direct source is
  // the store's own router.
  const std::string mono_dir = (tmp / "entropydb_parity_mono").string();
  fs::remove_all(mono_dir);
  StoreOptions opts = SmallStoreOptions();
  opts.num_stratified_samples = 2;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.05;
  auto store = SourceStore::Build(*table, opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Save(mono_dir).ok());
  auto from_mono = EntropyEngine::Open(mono_dir);
  ASSERT_TRUE(from_mono.ok()) << from_mono.status().ToString();
  auto loaded_store = SourceStore::Load(mono_dir);
  ASSERT_TRUE(loaded_store.ok());
  QueryRouter router(*loaded_store);
  {
    SCOPED_TRACE("mono");
    DirectAnswers<QueryRouter> direct{{&router}, (*loaded_store)->n()};
    ExpectEngineMatchesDirect(**from_mono, direct);
  }

  // A sharded directory (attribute-partitioned, so point filters on A0
  // prune): the direct answer is the in-order per-shard sum.
  const std::string sharded_dir = (tmp / "entropydb_parity_sharded").string();
  fs::remove_all(sharded_dir);
  ShardedOptions sopts;
  sopts.num_shards = 3;
  sopts.scheme = PartitionScheme::kAttribute;
  sopts.partition_attr = 0;
  sopts.store = opts;
  auto sharded = ShardedStore::Build(*table, sopts);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE((*sharded)->Save(sharded_dir).ok());
  auto from_sharded = EntropyEngine::Open(sharded_dir);
  ASSERT_TRUE(from_sharded.ok()) << from_sharded.status().ToString();
  auto loaded_sharded = ShardedStore::Load(sharded_dir);
  ASSERT_TRUE(loaded_sharded.ok());
  {
    SCOPED_TRACE("sharded");
    DirectAnswers<QueryRouter> direct;
    for (size_t s = 0; s < (*loaded_sharded)->num_shards(); ++s) {
      direct.parts.push_back(&(*loaded_sharded)->router(s));
      direct.n += (*loaded_sharded)->shard(s).n();
    }
    ExpectEngineMatchesDirect(**from_sharded, direct);
  }

  // A query that scans exactly one shard carries that shard's routing
  // decision plus the facade counters — on S = 1 and on a pruned fan-out.
  CountingQuery point(5);
  point.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  for (const EntropyEngine* engine : {from_mono->get(), from_sharded->get()}) {
    RouteDecision facade;
    ASSERT_TRUE(engine->Answer(AggregateQuery::Count(point), &facade).ok());
    std::vector<RouteDecision> per_shard;
    ASSERT_TRUE(engine->sharded()
                    ->Answer(AggregateQuery::Count(point), &per_shard)
                    .ok());
    size_t scanned = 0;
    const RouteDecision* owner = nullptr;
    for (const RouteDecision& d : per_shard) {
      if (!d.pruned) {
        ++scanned;
        owner = &d;
      }
    }
    ASSERT_EQ(scanned, 1u);
    EXPECT_EQ(facade.shards_scanned, 1u);
    EXPECT_EQ(facade.shards_pruned, per_shard.size() - 1);
    EXPECT_EQ(facade.index, owner->index);
    EXPECT_EQ(facade.covered_pairs, owner->covered_pairs);
    EXPECT_EQ(facade.candidates, owner->candidates);
    EXPECT_EQ(facade.fallback, owner->fallback);
    EXPECT_EQ(facade.from_sample, owner->from_sample);
    EXPECT_EQ(facade.sample_index, owner->sample_index);
    EXPECT_EQ(facade.summary_variance, owner->summary_variance);
    EXPECT_EQ(facade.sample_variance, owner->sample_variance);
    EXPECT_EQ(facade.expected_variance, owner->expected_variance);
  }
  EXPECT_EQ((*from_sharded)->num_shards(), 3u);

  fs::remove(file);
  fs::remove_all(mono_dir);
  fs::remove_all(sharded_dir);
}

}  // namespace
}  // namespace entropydb
