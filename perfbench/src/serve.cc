// flights-serve: a sharded flights store with summaries and sample
// companions, published as v1 of a versioned root, served with --join by
// an in-process QueryServer, and replayed over two WireClient connections
// in a closed loop.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace entropydb;

namespace {

constexpr size_t kRows = 400'000;
constexpr size_t kJoinRows = 60'000;
constexpr size_t kShards = 8;
constexpr size_t kConnections = 2;
// The request sequence of one round: every distinct text once, and a fixed
// share of requests repeating a text of the hot set. The distinct texts
// overflow the server's default 4096-entry result cache; the hot set fits.
constexpr double kRepeatShare = 0.4;
constexpr size_t kHotSet = 256;
constexpr size_t kBatchSize = 16;

enum class Kind { kPoint, kRange, kSum, kAvg, kQuantile, kTopK, kJoin, kBatch };
constexpr const char* kKindNames[] = {"count", "count", "sum",  "avg",
                                      "quantile", "topk", "join", "batch"};

struct Item {
  Kind kind = Kind::kPoint;
  Request request;
  /// Point COUNTs: the class and exact answer (count_rel_err, bounds).
  bool scored = false;
  PointQuery::Class cls = PointQuery::Class::kHeavy;
  double exact = 0;
};

StoreOptions ServeStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 3;
  opts.total_budget = 1200;
  opts.num_stratified_samples = 2;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.01;
  return opts;
}

Request QueryRequest(const std::string& text) {
  Request r;
  r.type = CommandType::kQuery;
  r.query = text;
  return r;
}

std::string Range(const Relation& rel, size_t a, Code lo, Code hi) {
  return rel.names[a] + " BETWEEN " + rel.ValueText(a, lo) + " AND " +
         rel.ValueText(a, hi);
}

/// The distinct requests of a round, in issue order.
std::vector<Item> DistinctItems(const Relation& f, const Relation& g,
                                Rng& rng) {
  const Hist2 od = ExactHist2(f, 1, 2), odist = ExactHist2(f, 1, 4),
              dtime = ExactHist2(f, 2, 3), gc = ExactHist2(g, 0, 1);
  const Hist2* pairs[] = {&od, &odist, &dtime};
  const Zipf popular(147, 1.1);
  std::vector<Item> items;
  auto add_points = [&](PointQuery::Class cls, size_t per_pair) {
    for (const Hist2* h : pairs) {
      for (PointQuery& p : DrawPointQueries(f, *h, cls, per_pair, rng)) {
        Item it;
        it.request = QueryRequest(p.text);
        it.scored = cls != PointQuery::Class::kNone;
        it.cls = cls;
        it.exact = static_cast<double>(p.exact);
        items.push_back(std::move(it));
      }
    }
  };
  Item total;
  total.request = QueryRequest("COUNT(*)");
  total.exact = static_cast<double>(f.rows());
  items.push_back(total);
  add_points(PointQuery::Class::kHeavy, 400);
  add_points(PointQuery::Class::kLight, 400);
  add_points(PointQuery::Class::kNone, 200);
  auto origin = [&] {
    return f.ValueText(1, static_cast<Code>(popular.Sample(rng)));
  };
  auto add = [&](Kind kind, const std::string& text) {
    Item it;
    it.kind = kind;
    it.request = QueryRequest(text);
    items.push_back(std::move(it));
  };
  for (size_t i = 0; i < 800; ++i) {
    const Code lo = static_cast<Code>(rng.Below(40));
    const Code hi = static_cast<Code>(lo + 5 + rng.Below(30));
    if (i % 2 == 0) {
      // Selective on the partition attribute: a contiguous origin slice.
      const Code o = static_cast<Code>(rng.Below(145));
      add(Kind::kRange, "COUNT(*) WHERE origin IN (" + f.ValueText(1, o) +
                            ", " + f.ValueText(1, o + 1) + ") AND " +
                            Range(f, 4, lo, hi));
    } else {
      add(Kind::kRange, "COUNT(*) WHERE " + Range(f, 3, lo, hi));
    }
  }
  for (size_t i = 0; i < 500; ++i) {
    const Code lo = static_cast<Code>(rng.Below(30));
    add(Kind::kSum, "SUM(distance) WHERE origin = " + origin() + " AND " +
                        Range(f, 3, lo, lo + 10 + rng.Below(20)));
    add(Kind::kAvg, "AVG(fl_time) WHERE " +
                        Range(f, 4, lo, lo + 10 + rng.Below(40)));
  }
  const char* ranks[] = {"0.1", "0.25", "0.5", "0.75", "0.9"};
  for (size_t i = 0; i < 300; ++i) {
    add(Kind::kQuantile, std::string("QUANTILE(distance, ") +
                             ranks[rng.Below(5)] + ") WHERE origin = " +
                             origin());
    add(Kind::kTopK, "TOPK(dest, " + std::to_string(3 + rng.Below(5)) +
                         ") WHERE origin = " + origin());
  }
  for (size_t i = 0; i < 300; ++i) {
    const Code dest = static_cast<Code>(popular.Sample(rng));
    const Code carrier = static_cast<Code>(rng.Below(16));
    Item it;
    it.kind = Kind::kJoin;
    it.request.type = CommandType::kJoin;
    it.request.query = "COUNT(*) ON origin WHERE left.dest = " +
                       f.ValueText(2, dest) + " AND right.carrier = " +
                       g.ValueText(1, carrier);
    double exact = 0;
    for (Code o = 0; o < 147; ++o) {
      exact += static_cast<double>(od.at(o, dest)) * gc.at(o, carrier);
    }
    it.exact = exact;
    items.push_back(std::move(it));
  }
  for (size_t i = 0; i < 300; ++i) {
    Item it;
    it.kind = Kind::kBatch;
    it.request.type = CommandType::kBatch;
    for (size_t k = 0; k < kBatchSize; ++k) {
      const Hist2& h = *pairs[rng.Below(3)];
      const auto cls = k % 2 ? PointQuery::Class::kLight
                             : PointQuery::Class::kHeavy;
      it.request.queries.push_back(DrawPointQueries(f, h, cls, 1, rng)[0].text);
    }
    items.push_back(std::move(it));
  }
  // Each text once, the kinds interleaved through the run.
  std::set<std::string> seen;
  std::vector<Item> distinct;
  for (Item& it : items) {
    std::string key = it.request.query;
    for (const std::string& q : it.request.queries) key += "\n" + q;
    if (seen.insert(key).second) distinct.push_back(std::move(it));
  }
  items = std::move(distinct);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
  return items;
}

/// The round's request sequence: indices into the distinct items. A fixed
/// share repeats a text from the hot set already issued.
std::vector<size_t> Sequence(size_t distinct, Rng& rng) {
  std::vector<size_t> seq;
  size_t next = 0;
  while (next < distinct) {
    if (next > kHotSet / 4 && rng.Uniform() < kRepeatShare) {
      seq.push_back(rng.Below(std::min(next, kHotSet)));
    } else {
      seq.push_back(next++);
    }
  }
  return seq;
}

struct Outcome {
  double latency_us = 0;
  bool ok = false;
  bool cached = false;
  std::vector<std::string> lines;
  /// Traced rounds: in-process replay time of the same request.
  double replay_us = 0;
};

/// In-process replay of one request through the layers the server runs,
/// each call wrapped in a span. Accumulates per-layer figures.
struct Layers {
  std::mutex mu;
  std::vector<double> codec, parse, probe, merge, eval, sample;
  std::map<std::string, std::vector<double>> answer;
  double scanned = 0, pruned = 0, answered = 0;
  double shard_answers = 0, sample_answers = 0;
};

double Replay(const Item& item, const Outcome& out, const EntropyEngine& eng,
              const EntropyEngine& join, ResultCache* cache, Tracer* tracer,
              int64_t parent, uint64_t id, Layers* layers) {
  ScopedSpan replay(tracer, "replay", parent, id);
  double codec_us, parse_us = 0, probe_us = 0, answer_us = 0;
  {
    ScopedSpan s(tracer, "server.codec", replay.id(), id);
    const std::string payload = EncodeRequest(item.request);
    auto parsed = ParseRequest(payload);
    std::vector<std::string> lines = out.lines;
    if (item.kind != Kind::kBatch) lines.push_back(out.cached ? "cached 1"
                                                              : "cached 0");
    auto resp = ParseResponse(EncodeOkResponse(lines));
    if (!parsed.ok() || !resp.ok()) Die("codec replay failed");
    codec_us = s.Close();
  }
  if (item.kind == Kind::kBatch) {
    std::lock_guard<std::mutex> lock(layers->mu);
    layers->codec.push_back(codec_us);
    return codec_us;
  }
  std::optional<ParsedQuery> parsed;
  std::optional<ParsedJoinQuery> parsed_join;
  {
    ScopedSpan s(tracer, "query.parse", replay.id(), id);
    if (item.kind == Kind::kJoin) {
      parsed_join = Must(ParseJoinQuery(item.request.query, eng.attr_names(),
                                        eng.domains(), join.attr_names(),
                                        join.domains()),
                         "parse");
    } else {
      parsed = Must(ParseQuery(item.request.query, eng.attr_names(),
                               eng.domains()),
                    "parse");
    }
    parse_us = s.Close();
  }
  const AggregateQuery q =
      parsed ? ToAggregate(*parsed, eng) : ToAggregate(*parsed_join, eng);
  std::string key;
  {
    ScopedSpan s(tracer, "server.cache_probe", replay.id(), id);
    key = parsed ? CanonicalQueryKey(*parsed)
                 : CanonicalJoinQueryKey(*parsed_join);
    cache->Get(1, key);
    probe_us = s.Close();
  }
  SourceReplay sources;
  RouteDecision route;
  if (!out.cached) {
    const std::string kind = kKindNames[static_cast<int>(item.kind)];
    QueryResult result;
    {
      ScopedSpan s(tracer, "engine.answer." + kind, replay.id(), id);
      result = Must(item.kind == Kind::kJoin ? eng.AnswerJoin(q, join)
                                             : eng.Answer(q),
                    "answer");
      answer_us = s.Close();
    }
    route = result.route;
    cache->Put(1, key, result);
    if (q.kind == AggregateKind::kCount || q.kind == AggregateKind::kSum ||
        q.kind == AggregateKind::kAvg) {
      sources = ReplaySources(eng, q, tracer, replay.id(), id);
    }
  }
  double replay_us = codec_us + parse_us + probe_us + answer_us;
  std::lock_guard<std::mutex> lock(layers->mu);
  layers->codec.push_back(codec_us);
  layers->parse.push_back(parse_us);
  layers->probe.push_back(probe_us);
  if (!out.cached) {
    layers->answer[kKindNames[static_cast<int>(item.kind)]].push_back(
        answer_us);
    if (item.kind != Kind::kJoin) {
      layers->scanned += route.shards_scanned;
      layers->pruned += route.shards_pruned;
      layers->answered += 1;
    }
    if (!sources.eval_us.empty() || !sources.sample_us.empty()) {
      layers->merge.push_back(answer_us - sources.total_us());
      layers->eval.insert(layers->eval.end(), sources.eval_us.begin(),
                          sources.eval_us.end());
      layers->sample.insert(layers->sample.end(), sources.sample_us.begin(),
                            sources.sample_us.end());
      if (q.kind != AggregateKind::kAvg) {
        layers->shard_answers +=
            sources.eval_us.size() + sources.sample_us.size();
        layers->sample_answers += sources.sample_us.size();
      }
    }
  }
  return replay_us;
}

}  // namespace

void RunFlightsServe(const RunOptions& opts, Report* report) {
  // ---------------------------------------------------------- set-up
  Tracer off(false), on(true);
  CountingEnv counting;
  double pair_rank_s = 0;
  // setup_s leaves out the time the benchmark spends making its inputs
  // and exact answers: it covers only the library's cold work.
  Rng rng(opts.seed);
  const Relation flights = GenerateFlights(kRows, opts.seed);
  const Relation carriers = GenerateCarriers(kJoinRows, opts.seed + 1);
  double inputs_s = SecondsBetween(opts.process_start, Clock::now());
  const std::string root = opts.work_dir + "/serve_root";
  const std::string join_dir = opts.work_dir + "/carriers_store";
  {
    ShardedOptions shopts;
    shopts.num_shards = kShards;
    shopts.scheme = PartitionScheme::kAttribute;
    shopts.partition_attr = 1;  // origin
    shopts.store = ServeStoreOptions();
    const std::shared_ptr<Table> table = flights.ToTable();
    if (opts.trace) {
      // The pair ranking ShardedStore::Build runs once over the relation.
      ScopedSpan s(&on, "stats.pair_rank", -1, 0);
      Must(SourceStore::ResolvePairs(*table, shopts.store), "pair ranking");
      pair_rank_s = 1e-6 * s.Close();
    }
    auto store = Must(ShardedStore::Build(*table, shopts),
                      "flights store build");
    auto vs = Must(VersionSet::Open(root, Env::Default()), "version set");
    const uint64_t id = vs->BeginVersion();
    Must(store->Save(vs->VersionDir(id)), "flights store save");
    Must(vs->Publish(id), "publish v1");
    StoreOptions jopts;
    jopts.num_summaries = 1;
    jopts.total_budget = 400;
    auto join_store = Must(SourceStore::Build(*carriers.ToTable(), jopts),
                           "carriers store build");
    Must(join_store->Save(join_dir), "carriers store save");
  }
  const Clock::time_point g0 = Clock::now();
  const std::vector<Item> items = DistinctItems(flights, carriers, rng);
  const std::vector<size_t> seq = Sequence(items.size(), rng);
  inputs_s += SecondsBetween(g0, Clock::now());
  // The benchmark's own engines on the same directories: every wire
  // answer must render exactly like these answer in process.
  ScopedSpan open_span(opts.trace ? &on : &off, "engine.open", -1, 0);
  const auto engine =
      Must(EntropyEngine::Open(root + "/v1", {}, &counting), "engine");
  const double open_ms = 1e-3 * open_span.Close();
  const auto join = Must(EntropyEngine::Open(join_dir), "join engine");

  QueryServer::Options sopts;
  sopts.path = root;
  sopts.join_path = join_dir;

  Layers layers;
  std::vector<std::string> expected(items.size());
  std::vector<bool> expected_set(items.size(), false);
  std::vector<double> hit_us, miss_us, round_s, round_read_us, cpu_us,
      traced_miss_us;
  std::vector<double> wait_hit, wait_miss;
  double hits = 0, misses = 0, batches = 0, batched = 0;
  double setup_s = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));

  // ---------------------------------------------------------- rounds
  const size_t min_rounds = opts.trace ? 2 : 1;
  for (size_t round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    // A traced run alternates untraced and traced rounds (the untraced
    // ones are the baseline its overhead is measured against) and traces
    // at most kTracedRounds rounds, which bounds the span file.
    const bool traced =
        opts.trace && round % 2 == 1 && round / 2 < kTracedRounds;
    Tracer* tracer = traced ? &on : &off;
    ResultCache mirror(sopts.cache_capacity);
    auto server = Must(QueryServer::Start(sopts), "server start");
    std::vector<WireClient> clients;
    for (size_t c = 0; c < kConnections; ++c) {
      clients.push_back(
          Must(WireClient::Connect("127.0.0.1", server->port()), "connect"));
    }
    if (round == 0) {
      setup_s = SecondsBetween(opts.process_start, Clock::now()) - inputs_s;
    }
    std::vector<Outcome> outcomes(seq.size());
    std::atomic<size_t> next{0};
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = next++; i < seq.size(); i = next++) {
          const Item& item = items[seq[i]];
          Outcome& out = outcomes[i];
          ScopedSpan request(tracer, "request", -1, i);
          ScopedSpan wire(tracer, "wire", request.id(), i);
          const Clock::time_point a = Clock::now();
          auto resp = clients[c].Call(item.request);
          out.latency_us = 1e6 * SecondsBetween(a, Clock::now());
          wire.Close();
          out.ok = resp.ok() && SplitResponse(*resp, &out.lines, &out.cached);
          if (traced && out.ok) {
            out.replay_us = Replay(item, out, *engine, *join, &mirror, tracer,
                                   request.id(), i, &layers);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = SecondsBetween(t0, Clock::now());
    const double cpu = ProcessCpuSeconds() - cpu0;
    auto stats = Must(clients[0].Call(StatsRequest()), "STATS");
    clients.clear();
    server->Stop();

    // ------------------------------------------------------ checks
    std::vector<double> round_misses;
    for (size_t i = 0; i < seq.size(); ++i) {
      const Item& item = items[seq[i]];
      const Outcome& out = outcomes[i];
      ++report->attempted;
      if (!out.ok) {
        report->CheckFailed("request failed: " + item.request.query);
        continue;
      }
      std::string text;
      for (const std::string& l : out.lines) text += l + "\n";
      if (!expected_set[seq[i]]) {
        // First answer of this text: it must equal the in-process answer
        // and pass the property checks; every later answer of the text,
        // hit or miss, in any round, must equal it byte for byte.
        std::string want;
        if (item.kind == Kind::kBatch) {
          for (const std::string& qt : item.request.queries) {
            auto p = Must(ParseQuery(qt, engine->attr_names(),
                                     engine->domains()),
                          "parse");
            auto r = Must(engine->Answer(AggregateQuery::Count(p.where)),
                          "answer");
            if (!CheckProperties(r, 0).empty()) {
              report->CheckFailed("batch property: " + qt);
            }
            want += RenderResult(r)[0] + "\n";
          }
        } else {
          QueryResult r;
          double filter_count = 0;
          if (item.kind == Kind::kJoin) {
            auto p = Must(ParseJoinQuery(item.request.query,
                                         engine->attr_names(),
                                         engine->domains(), join->attr_names(),
                                         join->domains()),
                          "parse");
            r = Must(engine->AnswerJoin(ToAggregate(p, *engine), *join),
                     "join answer");
          } else {
            auto p = Must(ParseQuery(item.request.query, engine->attr_names(),
                                     engine->domains()),
                          "parse");
            r = Must(engine->Answer(ToAggregate(p, *engine)), "answer");
            filter_count = Must(engine->Answer(AggregateQuery::Count(p.where)),
                                "filter count")
                               .estimate.expectation;
          }
          if (item.request.query == "COUNT(*)" &&
              r.estimate.expectation != item.exact) {
            report->CheckFailed("COUNT(*) is not the row count");
          }
          const std::string why = CheckProperties(r, filter_count);
          if (!why.empty()) report->CheckFailed(why + ": " + item.request.query);
          for (const std::string& l : RenderResult(r)) want += l + "\n";
        }
        expected[seq[i]] = want;
        expected_set[seq[i]] = true;
      }
      if (text != expected[seq[i]]) {
        report->CheckFailed("wire answer differs from the engine's: " +
                            item.request.query);
      }
      if (item.kind == Kind::kBatch) continue;
      // Traced rounds run extra in-process work between requests, so
      // their latencies stay out of the untraced figures.
      if (!traced) {
        (out.cached ? hit_us : miss_us).push_back(out.latency_us);
        if (!out.cached) round_misses.push_back(out.latency_us);
      } else {
        if (!out.cached) traced_miss_us.push_back(out.latency_us);
        (out.cached ? wait_hit : wait_miss)
            .push_back(out.latency_us - out.replay_us);
      }
    }
    auto stat = [&](const std::string& name) {
      for (const std::string& l : stats.lines) {
        if (l.rfind(name + " ", 0) == 0) return std::stod(l.substr(name.size()));
      }
      return 0.0;
    };
    if (traced) {
      hits += stat("cache_hits");
      misses += stat("cache_misses");
      batches += stat("batches");
      batched += stat("batched_queries");
    } else {
      round_s.push_back(wall);
      round_read_us.push_back(Median(round_misses));
      cpu_us.push_back(1e6 * cpu / seq.size());
    }
  }

  // ---------------------------------------------------------- accuracy
  Accuracy acc;
  std::vector<double> joins;
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    if (!expected_set[i] || (!item.scored && item.kind != Kind::kJoin)) {
      continue;
    }
    const double est = std::stod(expected[i].substr(9));
    if (item.kind == Kind::kJoin) {
      if (item.exact > 0) {
        joins.push_back(std::fabs(est - item.exact) / item.exact);
      }
    } else {
      acc.Add(item.cls, est, item.exact);
    }
  }
  acc.Finish(report);
  if (Mean(joins) > kJoinErrorBound) {
    report->CheckFailed("join error above its bound");
  }
  report->Info("join_rel_err", Mean(joins));
  report->Info("hit_p50_us", Median(hit_us));
  report->Info("miss_p50_us", Median(miss_us));
  report->Info("serve_qps", seq.size() / Median(round_s));
  report->Info("serve_cpu_us", Median(cpu_us));
  report->Info("rounds", static_cast<double>(round_s.size()));
  report->Info("round_s_median", Median(round_s));
  report->Info("read_us_median", Median(round_read_us));
  report->Info("distinct_texts", static_cast<double>(items.size()));
  report->Info("requests_per_round", static_cast<double>(seq.size()));
  report->Info("hit_share", hit_us.size() / double(hit_us.size() + miss_us.size()));
  if (!opts.trace) {
    report->Set("setup_s", setup_s, "s");
    report->Set("round_s", FastDecile(round_s), "s");
    report->Set("read_us", FastDecile(round_read_us), "us");
    report->Set("count_rel_err", acc.Error(), "ratio");
    report->Set("store_bytes", static_cast<double>(BytesUnder(root)), "bytes");
    return;
  }
  report->Set("server.codec_us", Median(layers.codec), "us");
  report->Set("server.cache_probe_us", Median(layers.probe), "us");
  report->Set("server.cache_hit_ratio", hits / std::max(1.0, hits + misses),
              "ratio");
  report->Set("server.queries_per_batch", batched / std::max(1.0, batches),
              "count");
  report->Set("server.wait_us.hit", Median(wait_hit), "us");
  report->Set("server.wait_us.miss", Median(wait_miss), "us");
  report->Set("query.parse_us", Median(layers.parse), "us");
  for (const char* kind : {"count", "sum", "avg", "quantile", "topk", "join"}) {
    report->Set(std::string("engine.answer_us.") + kind,
                Median(layers.answer[kind]), "us");
  }
  report->Set("engine.shards_scanned",
              layers.scanned / std::max(1.0, layers.answered), "count");
  report->Set("engine.shards_pruned",
              layers.pruned / std::max(1.0, layers.answered), "count");
  report->Set("engine.sample_share",
              layers.sample_answers / std::max(1.0, layers.shard_answers),
              "ratio");
  report->Set("engine.merge_us", Median(layers.merge), "us");
  report->Set("maxent.eval_us", Median(layers.eval), "us");
  report->Set("sampling.estimate_us", Median(layers.sample), "us");
  report->Set("engine.open_ms", open_ms, "ms");
  report->Set("storage.bytes_read_on_open",
              static_cast<double>(counting.bytes_read.load()), "bytes");
  report->Set("stats.pair_rank_s", pair_rank_s, "s");
  report->Set("trace.overhead_pct",
              100.0 * (Median(traced_miss_us) / Median(miss_us) - 1.0), "%");
  on.Write(opts.trace_path);
}

}  // namespace perfbench
