// Query batcher (server/batcher.h): bounded admission returns typed
// SERVER_BUSY instead of hanging, deadlines expire queued work, one
// dispatch never mixes engines (= versions), and batched answers match
// the serial path. Built with start_worker = false so each test steps the
// dispatcher deterministically.

#include "server/batcher.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/summary.h"

namespace entropydb {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::shared_ptr<const EntropyEngine> SmallEngine(uint64_t seed) {
  auto table = testutil::RandomTable({4, 4, 3}, 400, seed);
  auto summary = EntropySummary::Build(*table, {});
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return EntropyEngine::FromSummary(*summary);
}

QueryBatcher::Options ManualOptions(size_t capacity) {
  QueryBatcher::Options opts;
  opts.queue_capacity = capacity;
  opts.max_batch = 64;
  opts.start_worker = false;
  return opts;
}

steady_clock::time_point FarDeadline() {
  return steady_clock::now() + milliseconds(60000);
}

TEST(QueryBatcherTest, FullQueueRejectsWithResourceExhausted) {
  auto engine = SmallEngine(11);
  QueryBatcher batcher(ManualOptions(2));
  CountingQuery q(3);
  auto a = batcher.SubmitAsync(engine, q, FarDeadline());
  auto b = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Third submit against capacity 2: typed rejection, immediately — the
  // wire layer turns this into SERVER_BUSY, never an unbounded queue.
  auto c = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().accepted, 2u);
  EXPECT_EQ(batcher.stats().rejected, 1u);

  // Draining frees capacity again.
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  auto d = batcher.SubmitAsync(engine, q, FarDeadline());
  EXPECT_TRUE(d.ok());
}

TEST(QueryBatcherTest, BatchedAnswersMatchSerialAnswers) {
  auto engine = SmallEngine(13);
  QueryBatcher batcher(ManualOptions(16));
  std::vector<CountingQuery> queries;
  for (Code c = 0; c < 4; ++c) {
    CountingQuery q(3);
    q.Where(0, AttrPredicate::Point(c));
    queries.push_back(q);
  }
  std::vector<std::future<Result<QueryEstimate>>> futures;
  for (const auto& q : queries) {
    auto f = batcher.SubmitAsync(engine, q, FarDeadline());
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(batcher.DrainOnce(), 4u);
  EXPECT_EQ(batcher.stats().batches, 1u);  // one AnswerAll for all four
  for (size_t i = 0; i < queries.size(); ++i) {
    auto batched = futures[i].get();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto serial = testutil::CountOf(*engine, queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(batched->expectation, serial->expectation);
    EXPECT_EQ(batched->variance, serial->variance);
  }
}

TEST(QueryBatcherTest, OneDispatchNeverMixesEngines) {
  // Two engines stand in for two pinned versions: answers must come from
  // the engine the query was submitted against, so a batch takes only the
  // front-run of queries sharing the front's engine.
  auto v1 = SmallEngine(17);
  auto v2 = SmallEngine(19);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto a = batcher.SubmitAsync(v1, q, FarDeadline());
  auto b = batcher.SubmitAsync(v2, q, FarDeadline());
  auto c = batcher.SubmitAsync(v1, q, FarDeadline());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  // First drain: both v1 queries (the interleaved v2 one keeps its turn).
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  EXPECT_TRUE(a->get().ok());
  EXPECT_TRUE(c->get().ok());
  EXPECT_EQ(b->wait_for(milliseconds(0)), std::future_status::timeout);
  // Second drain answers the v2 query.
  EXPECT_EQ(batcher.DrainOnce(), 1u);
  EXPECT_TRUE(b->get().ok());
  EXPECT_EQ(batcher.stats().batches, 2u);
}

TEST(QueryBatcherTest, ExpiredQueriesFailWithDeadlineExceeded) {
  auto engine = SmallEngine(23);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto expired =
      batcher.SubmitAsync(engine, q, steady_clock::now() - milliseconds(1));
  auto live = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(expired.ok());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  auto r = expired->get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(live->get().ok());
  EXPECT_EQ(batcher.stats().expired, 1u);
}

TEST(QueryBatcherTest, SubmitGivesUpAtItsDeadline) {
  // No worker, nobody drains: the synchronous Submit must come back with
  // kDeadlineExceeded instead of blocking forever.
  auto engine = SmallEngine(29);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto r = batcher.Submit(engine, q, milliseconds(10));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryBatcherTest, StopFailsEverythingQueued) {
  auto engine = SmallEngine(31);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto f = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(f.ok());
  batcher.Stop();
  auto r = f->get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // After Stop, new submissions are refused.
  auto after = batcher.SubmitAsync(engine, q, FarDeadline());
  EXPECT_FALSE(after.ok());
}

TEST(QueryBatcherTest, WorkerThreadDrainsWithoutManualPumping) {
  auto engine = SmallEngine(37);
  QueryBatcher::Options opts;
  opts.queue_capacity = 16;
  opts.start_worker = true;
  QueryBatcher batcher(opts);
  CountingQuery q(3);
  q.Where(1, AttrPredicate::Point(1));
  auto r = batcher.Submit(engine, q, milliseconds(30000));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto serial = testutil::CountOf(*engine, q);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(r->expectation, serial->expectation);
}

}  // namespace
}  // namespace entropydb
