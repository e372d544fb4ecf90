// Query server (server/server.h) over a real socket: queries answer
// through the wire byte-for-byte like the engine, repeated queries hit
// the result cache, versioned roots support time travel and keep pinned
// readers bitwise-stable across concurrent publishes, malformed frames
// close the connection, and overload surfaces as typed SERVER_BUSY.

#include "server/server.h"

#include <filesystem>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/sharded_store.h"
#include "engine/versioned.h"
#include "query/parser.h"
#include "server/client.h"
#include "storage/version_set.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> ServeTable(size_t n, uint64_t seed) {
  return testutil::RandomTable({6, 6, 5}, n, seed);
}

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 1;
  opts.total_budget = 30;
  opts.summary.solver.max_iterations = 120;
  return opts;
}

std::string BatchCsv(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string csv = "A0,A1,A2\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(5)) + "\n";
  }
  return csv;
}

/// First result line of a response, safe on failures.
std::string Line0(const WireResponse& resp) {
  return resp.lines.empty() ? std::string("<no lines>") : resp.lines[0];
}

/// Sends one request payload and expects an OK response.
WireResponse MustCall(WireClient& client, const std::string& payload) {
  auto resp = client.CallRaw(payload);
  EXPECT_TRUE(resp.ok()) << payload << ": " << resp.status().ToString();
  EXPECT_TRUE(!resp.ok() || resp->ok)
      << payload << ": " << resp->code << " " << resp->message;
  return resp.ok() ? *resp : WireResponse{};
}

/// The row total an unfiltered COUNT(*) response reports (exact: every
/// shard's full-domain probability is 1).
double TotalRows(const WireResponse& resp) {
  double e = 0, v = 0;
  EXPECT_EQ(std::sscanf(Line0(resp).c_str(), "estimate %lf %lf", &e, &v), 2)
      << Line0(resp);
  return e;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("entropydb_server_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    // A 2-shard store published as v1 of a versioned root.
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.store = SmallStoreOptions();
    auto built = ShardedStore::Build(*ServeTable(800, 101), sopts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    VersionSet::Options vopts;
    vopts.retain = 2;
    auto vs = VersionSet::Open(root_, Env::Default(), vopts);
    ASSERT_TRUE(vs.ok()) << vs.status().ToString();
    const uint64_t id = (*vs)->BeginVersion();
    ASSERT_TRUE((*built)->Save((*vs)->VersionDir(id)).ok());
    ASSERT_TRUE((*vs)->Publish(id).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    fs::remove_all(root_);
  }

  void StartServer(std::function<void(QueryServer::Options*)> tweak = {}) {
    QueryServer::Options opts;
    opts.path = root_;
    opts.summary = SmallStoreOptions().summary;
    if (tweak) tweak(&opts);
    auto server = QueryServer::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  WireClient Connect() {
    auto client = WireClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : WireClient();
  }

  /// Publishes a new version by appending `rows` CSV rows out-of-process
  /// style (same code path the CLI uses).
  uint64_t PublishAppend(size_t rows, uint64_t seed) {
    auto report = AppendVersion(root_, BatchCsv(rows, seed),
                                SmallStoreOptions());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->version : 0;
  }

  std::string root_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, QueryAnswersBitwiseLikeTheEngine) {
  StartServer();
  WireClient client = Connect();
  const std::string text = "COUNT(*) WHERE A0 = 2";
  WireResponse resp = MustCall(client, "QUERY " + text);
  ASSERT_EQ(resp.lines.size(), 2u);
  double e = 0, v = 0;
  ASSERT_EQ(std::sscanf(resp.lines[0].c_str(), "estimate %lf %lf", &e, &v),
            2);
  EXPECT_EQ(resp.lines[1], "cached 0");

  auto engine = EntropyEngine::Open(root_);
  ASSERT_TRUE(engine.ok());
  auto parsed = ParseQuery(text, (*engine)->attr_names(),
                           (*engine)->domains());
  ASSERT_TRUE(parsed.ok());
  auto direct = testutil::CountOf(**engine, parsed->where);
  ASSERT_TRUE(direct.ok());
  // %.17g round-trips doubles exactly: the wire answer IS the engine
  // answer, bit for bit.
  EXPECT_EQ(e, direct->expectation);
  EXPECT_EQ(v, direct->variance);
}

TEST_F(ServerTest, RepeatedQueryHitsTheResultCache) {
  StartServer();
  WireClient client = Connect();
  WireResponse first = MustCall(client, "QUERY COUNT(*) WHERE A1 = 3");
  // A different spelling of the same canonical predicate also hits.
  WireResponse second = MustCall(client, "QUERY COUNT(*) WHERE A1 IN (3)");
  ASSERT_EQ(first.lines.size(), 2u);
  ASSERT_EQ(second.lines.size(), 2u);
  EXPECT_EQ(first.lines[1], "cached 0");
  EXPECT_EQ(second.lines[1], "cached 1");
  EXPECT_EQ(first.lines[0], second.lines[0]);
}

TEST_F(ServerTest, BatchAnswersInRequestOrder) {
  StartServer();
  WireClient client = Connect();
  WireResponse batch = MustCall(
      client, "BATCH 3\nCOUNT(*) WHERE A0 = 0\nCOUNT(*)\nCOUNT(*) WHERE "
              "A2 = 1");
  ASSERT_EQ(batch.lines.size(), 3u);
  // Each line equals the one-at-a-time answer for the same query.
  const char* singles[] = {"QUERY COUNT(*) WHERE A0 = 0", "QUERY COUNT(*)",
                           "QUERY COUNT(*) WHERE A2 = 1"};
  for (size_t i = 0; i < 3; ++i) {
    WireResponse one = MustCall(client, singles[i]);
    ASSERT_EQ(one.lines.size(), 2u);
    EXPECT_EQ(batch.lines[i], one.lines[0]) << singles[i];
  }
}

TEST_F(ServerTest, SumAndAvgAnswerOverTheWire) {
  StartServer();
  WireClient client = Connect();
  WireResponse sum = MustCall(client, "QUERY SUM(A2) WHERE A0 = 1");
  ASSERT_EQ(sum.lines.size(), 2u);
  double e = 0, v = 0;
  ASSERT_EQ(std::sscanf(sum.lines[0].c_str(), "estimate %lf %lf", &e, &v),
            2);
  EXPECT_GT(e, 0.0);
  WireResponse avg = MustCall(client, "QUERY AVG(A2)");
  ASSERT_EQ(avg.lines.size(), 2u);
}

TEST_F(ServerTest, BadQueryTextIsBadRequest) {
  StartServer();
  WireClient client = Connect();
  auto resp = client.CallRaw("QUERY COUNT(*) WHERE A0 =");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->code, "BAD_REQUEST");
  // An unknown attribute keeps the parser's kNotFound type.
  auto unknown = client.CallRaw("QUERY COUNT(*) WHERE nosuch = 1");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->ok);
  EXPECT_EQ(unknown->code, "NOT_FOUND");
  // The connection survives a well-framed bad request.
  MustCall(client, "QUERY COUNT(*)");
}

TEST_F(ServerTest, MalformedFrameClosesTheConnection) {
  StartServer();
  {
    WireClient client = Connect();
    // No frame header at all: the server must answer with a final error
    // frame (best effort) and close — there is no resynchronizing a
    // stream with a corrupt length prefix.
    ASSERT_TRUE(
        client.SendBytesAndAwaitClose("QUERY COUNT(*)\nQUERY etc").ok());
  }
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  // The server keeps serving new connections afterwards.
  WireClient client = Connect();
  MustCall(client, "QUERY COUNT(*)");
}

TEST_F(ServerTest, ZeroCapacityQueueAnswersServerBusy) {
  StartServer([](QueryServer::Options* opts) { opts->queue_capacity = 0; });
  WireClient client = Connect();
  auto resp = client.CallRaw("QUERY COUNT(*)");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->code, "SERVER_BUSY");
  const Status back = StatusFromWire(resp->code, resp->message);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
}

TEST_F(ServerTest, TimeTravelAcrossAnExternalAppend) {
  StartServer();
  WireClient live = Connect();
  WireResponse v1_answer = MustCall(live, "QUERY COUNT(*)");

  // A CLI-style append publishes v2 while the server runs.
  ASSERT_EQ(PublishAppend(200, 301), 2u);

  // VERSION picks up the publish without a restart.
  WireResponse version = MustCall(live, "VERSION");
  ASSERT_GE(version.lines.size(), 2u);
  EXPECT_EQ(version.lines[0], "current 2");
  EXPECT_EQ(version.lines[1], "retained 1 2");

  // A live session now answers from v2 (200 more rows)...
  WireResponse v2_answer = MustCall(live, "QUERY COUNT(*)");
  EXPECT_NE(Line0(v2_answer), Line0(v1_answer));

  // ...while OPEN 1 pins the retained v1 and reproduces its answer
  // exactly (time travel).
  WireClient pinned = Connect();
  WireResponse open = MustCall(pinned, "OPEN 1");
  ASSERT_EQ(open.lines.size(), 1u);
  EXPECT_EQ(open.lines[0], "version 1");
  WireResponse travel = MustCall(pinned, "QUERY COUNT(*)");
  EXPECT_EQ(Line0(travel), Line0(v1_answer));

  // OPEN live follows CURRENT again.
  WireResponse reopen = MustCall(pinned, "OPEN live");
  ASSERT_EQ(reopen.lines.size(), 1u);
  EXPECT_EQ(reopen.lines[0], "version 2");
  WireResponse back = MustCall(pinned, "QUERY COUNT(*)");
  EXPECT_EQ(Line0(back), Line0(v2_answer));
}

TEST_F(ServerTest, OpenBeyondRetentionIsNotFound) {
  StartServer();
  WireClient client = Connect();
  auto resp = client.CallRaw("OPEN 9");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->code, "NOT_FOUND");
}

TEST_F(ServerTest, StatsReportsServingCounters) {
  StartServer();
  WireClient client = Connect();
  MustCall(client, "QUERY COUNT(*)");
  MustCall(client, "QUERY COUNT(*)");
  WireResponse stats = MustCall(client, "STATS");
  // The first COUNT dispatches through the batcher into AnswerAll (so it
  // counts as a batched query); the repeat is a cache hit and never
  // reaches the engine.
  bool saw_batched = false, saw_hits = false, saw_version = false;
  for (const std::string& line : stats.lines) {
    if (line == "batched_queries 1") saw_batched = true;
    if (line == "cache_hits 1") saw_hits = true;
    if (line == "version 1") saw_version = true;
  }
  EXPECT_TRUE(saw_version);
  EXPECT_TRUE(saw_batched);
  EXPECT_TRUE(saw_hits);
}

TEST_F(ServerTest, ConcurrentPublishesKeepPinnedReaderBitwiseStable) {
  // THE serving guarantee: a session pinned on v1 answers bit-for-bit
  // identically before, during, and after concurrent appends publish v2
  // and v3 — even though retain = 2 retires v1's directory from disk at
  // the v3 publish. The pinned engine lives on in memory; nothing it
  // opened is ever rewritten.
  StartServer();
  WireClient pinned = Connect();
  MustCall(pinned, "OPEN 1");
  const std::string query = "QUERY COUNT(*) WHERE A0 = 3";
  const std::string baseline = Line0(MustCall(pinned, query));

  std::thread publisher([this] {
    EXPECT_EQ(PublishAppend(150, 401), 2u);
    EXPECT_EQ(PublishAppend(150, 403), 3u);
  });
  // Hammer the pinned session while the publishes land.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(Line0(MustCall(pinned, query)), baseline) << "iter " << i;
  }
  publisher.join();

  // After both publishes: still identical, from the same session.
  EXPECT_EQ(Line0(MustCall(pinned, query)), baseline);

  // v1 is now outside the retention window: a NEW session cannot pin it…
  WireClient fresh = Connect();
  auto gone = fresh.CallRaw("OPEN 1");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->ok);
  EXPECT_EQ(gone->code, "NOT_FOUND");
  // …but the already-pinned session keeps its snapshot.
  EXPECT_EQ(Line0(MustCall(pinned, query)), baseline);
}

TEST_F(ServerTest, ConcurrentExternalPublishReachesUnpinnedSessions) {
  // Unpinned requests answer against whatever CURRENT names at that
  // moment (docs/SERVING.md) — with no OPEN or VERSION in between. Two
  // appends publish through another VersionSet (the CLI's path) on a
  // second thread while an unpinned session keeps querying, so the
  // refresh runs on session threads concurrently with the publishes.
  StartServer();
  WireClient live = Connect();
  EXPECT_EQ(TotalRows(MustCall(live, "QUERY COUNT(*)")), 800.0);

  std::thread publisher([this] {
    EXPECT_EQ(PublishAppend(150, 501), 2u);
    EXPECT_EQ(PublishAppend(150, 503), 3u);
  });
  // Every answer is some published version's total, and a session never
  // travels back to an older one.
  double seen = 800.0;
  for (int i = 0; i < 40; ++i) {
    const double total = TotalRows(MustCall(live, "QUERY COUNT(*)"));
    EXPECT_TRUE(total == 800.0 || total == 950.0 || total == 1100.0)
        << total;
    EXPECT_GE(total, seen) << "iter " << i;
    seen = total;
  }
  publisher.join();

  // After both publishes the same session, a new one, and a BATCH all
  // answer from v3 — no OPEN, no VERSION, no restart.
  EXPECT_EQ(TotalRows(MustCall(live, "QUERY COUNT(*)")), 1100.0);
  WireClient fresh = Connect();
  EXPECT_EQ(TotalRows(MustCall(fresh, "QUERY COUNT(*)")), 1100.0);
  EXPECT_EQ(TotalRows(MustCall(fresh, "BATCH 1\nCOUNT(*)")), 1100.0);
}

TEST_F(ServerTest, QuantileAndTopKAnswerOverTheWireAndCacheBitwise) {
  StartServer();
  WireClient client = Connect();

  // QUANTILE answers estimate + bound; the repeat is a cache hit whose
  // payload lines (minus the cached flag) are byte-identical.
  WireResponse q1 = MustCall(client, "QUERY QUANTILE(A2, 0.5) WHERE A0 = 1");
  ASSERT_EQ(q1.lines.size(), 3u);
  EXPECT_EQ(q1.lines[0].rfind("estimate ", 0), 0u);
  EXPECT_EQ(q1.lines[1].rfind("bound ", 0), 0u);
  EXPECT_EQ(q1.lines[2], "cached 0");
  WireResponse q2 = MustCall(client, "QUERY quantile(A2, 0.50) WHERE A0 = 1");
  ASSERT_EQ(q2.lines.size(), 3u);
  EXPECT_EQ(q2.lines[0], q1.lines[0]);
  EXPECT_EQ(q2.lines[1], q1.lines[1]);
  EXPECT_EQ(q2.lines[2], "cached 1");

  // TOPK answers estimate + one cell line per requested group.
  WireResponse t1 = MustCall(client, "QUERY TOPK(A1, 3)");
  ASSERT_EQ(t1.lines.size(), 5u);
  EXPECT_EQ(t1.lines[0].rfind("estimate ", 0), 0u);
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(t1.lines[i].rfind("cell ", 0), 0u) << t1.lines[i];
  }
  EXPECT_EQ(t1.lines[4], "cached 0");
  WireResponse t2 = MustCall(client, "QUERY TOPK(A1, 3)");
  ASSERT_EQ(t2.lines.size(), 5u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(t2.lines[i], t1.lines[i]);
  EXPECT_EQ(t2.lines[4], "cached 1");
}

TEST_F(ServerTest, UnknownAggregateIsByteExactBadRequest) {
  StartServer();
  WireClient client = Connect();
  // These messages are part of the wire contract: clients match on them.
  auto median = client.CallRaw("QUERY MEDIAN(A2)");
  ASSERT_TRUE(median.ok());
  EXPECT_FALSE(median->ok);
  EXPECT_EQ(median->code, "BAD_REQUEST");
  EXPECT_EQ(median->message,
            "query must start with COUNT, SUM, AVG, QUANTILE or TOPK");
  auto rank = client.CallRaw("QUERY QUANTILE(A2, 1.5)");
  ASSERT_TRUE(rank.ok());
  EXPECT_FALSE(rank->ok);
  EXPECT_EQ(rank->code, "BAD_REQUEST");
  EXPECT_EQ(rank->message, "quantile rank must be in (0, 1)");
  auto k = client.CallRaw("QUERY TOPK(A1, 0)");
  ASSERT_TRUE(k.ok());
  EXPECT_FALSE(k->ok);
  EXPECT_EQ(k->code, "BAD_REQUEST");
  EXPECT_EQ(k->message, "TOPK count must be a positive integer");
}

TEST_F(ServerTest, JoinWithoutARightRelationIsFailedPrecondition) {
  StartServer();
  WireClient client = Connect();
  auto resp = client.CallRaw("JOIN COUNT(*) ON A0");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->code, "FAILED_PRECONDITION");
  EXPECT_EQ(resp->message,
            "server has no join relation (start with --join <path>)");
  // The connection survives; VERSION does not advertise the capability.
  WireResponse version = MustCall(client, "VERSION");
  ASSERT_FALSE(version.lines.empty());
  EXPECT_EQ(version.lines.back(),
            "capabilities count sum avg quantile topk batch");
}

TEST_F(ServerTest, JoinAnswersOverTheWireAndCaches) {
  // A second relation sharing A0 (and A1's name, with a smaller domain)
  // saved as a plain store next to the fixture root.
  const std::string right_path = root_ + "_right";
  fs::remove_all(right_path);
  ShardedOptions sopts;
  sopts.num_shards = 2;
  sopts.store = SmallStoreOptions();
  auto right = ShardedStore::Build(
      *testutil::RandomTable({6, 4}, 500, 211), sopts);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  ASSERT_TRUE((*right)->Save(right_path).ok());

  StartServer([&](QueryServer::Options* opts) {
    opts->join_path = right_path;
  });
  WireClient client = Connect();

  // VERSION advertises the join capability when a right relation loads.
  WireResponse version = MustCall(client, "VERSION");
  ASSERT_FALSE(version.lines.empty());
  EXPECT_EQ(version.lines.back(),
            "capabilities count sum avg quantile topk batch join");

  const std::string text =
      "COUNT(*) ON A0 WHERE left.A1 = 2 AND right.A1 = 1";
  WireResponse first = MustCall(client, "JOIN " + text);
  ASSERT_EQ(first.lines.size(), 2u);
  double e = 0, v = 0;
  ASSERT_EQ(std::sscanf(first.lines[0].c_str(), "estimate %lf %lf", &e, &v),
            2);
  EXPECT_GT(e, 0.0);
  EXPECT_GT(v, 0.0);
  EXPECT_EQ(first.lines[1], "cached 0");

  // The wire answer is the engines' fused answer, bit for bit.
  auto left_engine = EntropyEngine::Open(root_);
  ASSERT_TRUE(left_engine.ok());
  auto right_engine = EntropyEngine::Open(right_path);
  ASSERT_TRUE(right_engine.ok());
  auto parsed = ParseJoinQuery(
      text, (*left_engine)->attr_names(), (*left_engine)->domains(),
      (*right_engine)->attr_names(), (*right_engine)->domains());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto direct = (*left_engine)->AnswerJoin(
      AggregateQuery::JoinCount(parsed->left_join, parsed->right_join,
                                parsed->left_where, parsed->right_where),
      **right_engine);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(e, direct->estimate.expectation);
  EXPECT_EQ(v, direct->estimate.variance);

  // A different spelling of the same join hits the cache byte-for-byte.
  WireResponse second = MustCall(
      client, "JOIN count(*) ON A0 WHERE left.A1 IN (2) AND right.A1 = 1");
  ASSERT_EQ(second.lines.size(), 2u);
  EXPECT_EQ(second.lines[0], first.lines[0]);
  EXPECT_EQ(second.lines[1], "cached 1");

  // JOIN_SUM answers too, and a bad verb pins its BAD_REQUEST message.
  WireResponse sum = MustCall(client, "JOIN SUM(A2) ON A0");
  ASSERT_EQ(sum.lines.size(), 2u);
  EXPECT_EQ(sum.lines[0].rfind("estimate ", 0), 0u);
  auto bad = client.CallRaw("JOIN AVG(A2) ON A0");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok);
  EXPECT_EQ(bad->code, "BAD_REQUEST");
  EXPECT_EQ(bad->message, "join query must start with COUNT or SUM");

  fs::remove_all(right_path);
}

TEST_F(ServerTest, UnversionedStoreServesWithoutVersionCommands) {
  // Serve a plain (unversioned) store directory: queries work, OPEN <id>
  // is a typed FAILED_PRECONDITION, VERSION reports current 0.
  const std::string plain = root_ + "_plain";
  fs::remove_all(plain);
  ShardedOptions sopts;
  sopts.num_shards = 2;
  sopts.store = SmallStoreOptions();
  auto built = ShardedStore::Build(*ServeTable(600, 107), sopts);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(plain).ok());

  QueryServer::Options opts;
  opts.path = plain;
  auto server = QueryServer::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WireClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  MustCall(*client, "QUERY COUNT(*)");
  auto open = client->CallRaw("OPEN 1");
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->ok);
  EXPECT_EQ(open->code, "FAILED_PRECONDITION");
  WireResponse version = MustCall(*client, "VERSION");
  ASSERT_GE(version.lines.size(), 1u);
  EXPECT_EQ(version.lines[0], "current 0");
  (*server)->Stop();
  fs::remove_all(plain);
}

}  // namespace
}  // namespace entropydb
