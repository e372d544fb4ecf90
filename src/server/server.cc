#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>

#include "query/parser.h"
#include "storage/version_set.h"

namespace entropydb {

namespace {

Status SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// "estimate <expectation> <variance>" with round-trippable doubles, so a
/// pinned reader's responses can be compared bitwise across publishes.
std::string EstimateLine(const QueryEstimate& est) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "estimate %.17g %.17g", est.expectation,
                est.variance);
  return buf;
}

/// Result lines for any aggregate kind, rendered purely from the
/// QueryResult — the cache stores QueryResults, so a hit re-renders the
/// exact bytes the original answer produced:
///
///     estimate <expectation> <variance>
///     [bound <lo> <hi>]                  (QUANTILE's value-space bound)
///     [cell <code> <expectation> <variance>]...   (TOPK, largest first)
std::vector<std::string> ResultLines(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.push_back(EstimateLine(result.estimate));
  if (result.has_bound) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "bound %.17g %.17g", result.bound_lo,
                  result.bound_hi);
    lines.push_back(buf);
  }
  for (const GroupCell& cell : result.cells) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "cell %llu %.17g %.17g",
                  static_cast<unsigned long long>(cell.code),
                  cell.estimate.expectation, cell.estimate.variance);
    lines.push_back(buf);
  }
  return lines;
}

/// Wraps a batcher COUNT estimate the way Answer(AggregateQuery::Count)
/// does, so QUERY and BATCH populate the cache with identical values.
QueryResult CountResult(const QueryEstimate& est) {
  QueryResult out;
  out.estimate = est;
  out.count = est;
  out.has_moments = true;
  return out;
}

/// Bucket-representative weights for SUM/AVG over `attr` (the
/// entropydb_query rule: label order index for categorical attributes,
/// bucket midpoints for numeric ones).
std::vector<double> AggregateWeights(const EntropyEngine& engine,
                                     AttrId attr) {
  const Domain& dom = engine.domains()[attr];
  std::vector<double> weights(dom.size());
  for (Code v = 0; v < dom.size(); ++v) {
    weights[v] = dom.is_categorical()
                     ? static_cast<double>(v)
                     : dom.RepresentativeFor(v).as_double();
  }
  return weights;
}

std::string JoinIds(const std::vector<uint64_t>& ids) {
  std::string out;
  for (uint64_t id : ids) {
    if (!out.empty()) out += " ";
    out += std::to_string(id);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    const Options& options, Env* env) {
  std::unique_ptr<QueryServer> server(new QueryServer(options, env));

  if (VersionSet::IsVersionedRoot(options.path, env)) {
    ASSIGN_OR_RETURN(
        server->catalog_,
        VersionCatalog::Open(options.path, options.summary, env));
  } else {
    ASSIGN_OR_RETURN(server->static_engine_,
                     EntropyEngine::Open(options.path, options.summary, env));
  }
  if (!options.join_path.empty()) {
    ASSIGN_OR_RETURN(
        server->join_engine_,
        EntropyEngine::Open(options.join_path, options.summary, env));
  }

  QueryBatcher::Options bopts;
  bopts.queue_capacity = options.queue_capacity;
  bopts.max_batch = options.max_batch;
  server->batcher_ = std::make_unique<QueryBatcher>(bopts);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind port " + std::to_string(options.port) +
                           ": " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() wakes the blocked accept(); the descriptor is closed and
  // cleared only after the accept thread, which reads it, has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    threads.swap(session_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (batcher_ != nullptr) batcher_->Stop();
}

Result<bool> QueryServer::RefreshVersions() {
  if (catalog_ == nullptr) return false;
  return catalog_->Refresh();
}

QueryServer::Stats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void QueryServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(sessions_mu_);
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.connections;
    }
    session_fds_.push_back(fd);
    session_threads_.emplace_back([this, fd] { SessionLoop(fd); });
  }
}

void QueryServer::SessionLoop(int fd) {
  Session session;
  FrameDecoder decoder;
  char buf[1 << 14];
  for (;;) {
    auto frame = decoder.Next();
    if (!frame.ok()) {
      // Desynchronized stream: report once, then close — the length
      // prefix cannot be trusted again.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      SendAll(fd, EncodeFrame(EncodeErrorResponse(frame.status()))).ok();
      break;
    }
    if (frame->has_value()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
      }
      std::string response;
      auto request = ParseRequest(**frame);
      if (!request.ok()) {
        response = EncodeErrorResponse(request.status());
      } else {
        auto handled = HandleRequest(&session, *request);
        response = handled.ok() ? *handled
                                : EncodeErrorResponse(handled.status());
      }
      if (!SendAll(fd, EncodeFrame(response)).ok()) break;
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client closed, or Stop() shut the socket down
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
}

Result<std::string> QueryServer::HandleRequest(Session* session,
                                               const Request& req) {
  switch (req.type) {
    case CommandType::kQuery:
      return HandleQuery(session, req);
    case CommandType::kJoin:
      return HandleJoin(session, req);
    case CommandType::kBatch:
      return HandleBatch(session, req);
    case CommandType::kOpen:
      return HandleOpen(session, req);
    case CommandType::kStats:
      return HandleStats(session);
    case CommandType::kVersion:
      return HandleVersion();
  }
  return Status::Internal("unhandled command");
}

Result<std::pair<std::shared_ptr<EntropyEngine>, uint64_t>>
QueryServer::ResolveEngine(Session* session) {
  if (session->pinned != nullptr) {
    return std::make_pair(session->pinned, session->pinned_version);
  }
  if (catalog_ == nullptr) {
    return std::make_pair(static_engine_, uint64_t{0});
  }
  // Unpinned requests answer against whatever CURRENT names at this
  // moment (docs/SERVING.md): a publish through another VersionSet —
  // another process, or an append inside this one — reaches every
  // unpinned session on its next request. Unchanged, the refresh costs
  // one small CURRENT read.
  RETURN_NOT_OK(catalog_->Refresh().status());
  uint64_t id = 0;
  ASSIGN_OR_RETURN(std::shared_ptr<EntropyEngine> engine, catalog_->Live(&id));
  return std::make_pair(std::move(engine), id);
}

Result<std::string> QueryServer::HandleQuery(Session* session,
                                             const Request& req) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  const uint64_t version = resolved.second;
  ASSIGN_OR_RETURN(
      ParsedQuery parsed,
      ParseQuery(req.query, engine->attr_names(), engine->domains()));
  const std::string key = CanonicalQueryKey(parsed);
  if (auto cached = cache_.Get(version, key); cached.has_value()) {
    std::vector<std::string> lines = ResultLines(*cached);
    lines.push_back("cached 1");
    return EncodeOkResponse(lines);
  }
  const std::chrono::milliseconds deadline(
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms);
  QueryResult result;
  switch (parsed.aggregate) {
    case ParsedQuery::Aggregate::kCount: {
      // COUNT keeps riding the micro-batcher (the admission-controlled
      // path); everything else answers through the unified surface.
      ASSIGN_OR_RETURN(QueryEstimate est,
                       batcher_->Submit(engine, parsed.where, deadline));
      result = CountResult(est);
      break;
    }
    case ParsedQuery::Aggregate::kSum: {
      ASSIGN_OR_RETURN(
          result, engine->Answer(AggregateQuery::Sum(
                      parsed.agg_attr,
                      AggregateWeights(*engine, parsed.agg_attr),
                      parsed.where)));
      break;
    }
    case ParsedQuery::Aggregate::kAvg: {
      ASSIGN_OR_RETURN(
          result, engine->Answer(AggregateQuery::Avg(
                      parsed.agg_attr,
                      AggregateWeights(*engine, parsed.agg_attr),
                      parsed.where)));
      break;
    }
    case ParsedQuery::Aggregate::kQuantile: {
      ASSIGN_OR_RETURN(
          result, engine->Answer(AggregateQuery::Quantile(
                      parsed.agg_attr,
                      AggregateWeights(*engine, parsed.agg_attr),
                      parsed.quantile, parsed.where)));
      break;
    }
    case ParsedQuery::Aggregate::kTopK: {
      ASSIGN_OR_RETURN(
          result, engine->Answer(AggregateQuery::TopK(
                      parsed.agg_attr, parsed.top_k, parsed.where)));
      break;
    }
  }
  cache_.Put(version, key, result);
  std::vector<std::string> lines = ResultLines(result);
  lines.push_back("cached 0");
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleJoin(Session* session,
                                            const Request& req) {
  if (join_engine_ == nullptr) {
    return Status::FailedPrecondition(
        "server has no join relation (start with --join <path>)");
  }
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  const uint64_t version = resolved.second;
  ASSIGN_OR_RETURN(
      ParsedJoinQuery parsed,
      ParseJoinQuery(req.query, engine->attr_names(), engine->domains(),
                     join_engine_->attr_names(), join_engine_->domains()));
  // The right-side engine is loaded once at startup and immutable, so the
  // left version alone still keys the cache correctly.
  const std::string key = CanonicalJoinQueryKey(parsed);
  if (auto cached = cache_.Get(version, key); cached.has_value()) {
    std::vector<std::string> lines = ResultLines(*cached);
    lines.push_back("cached 1");
    return EncodeOkResponse(lines);
  }
  AggregateQuery query =
      parsed.aggregate == ParsedJoinQuery::Aggregate::kCount
          ? AggregateQuery::JoinCount(parsed.left_join, parsed.right_join,
                                      parsed.left_where, parsed.right_where)
          : AggregateQuery::JoinSum(
                parsed.agg_attr, AggregateWeights(*engine, parsed.agg_attr),
                parsed.left_join, parsed.right_join, parsed.left_where,
                parsed.right_where);
  ASSIGN_OR_RETURN(QueryResult result,
                   engine->AnswerJoin(query, *join_engine_));
  cache_.Put(version, key, result);
  std::vector<std::string> lines = ResultLines(result);
  lines.push_back("cached 0");
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleBatch(Session* session,
                                             const Request& req) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  const uint64_t version = resolved.second;
  const auto deadline_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(req.deadline_ms > 0
                                    ? req.deadline_ms
                                    : options_.default_deadline_ms);

  // Parse everything before submitting anything: a malformed query fails
  // the whole batch without burning answer work.
  struct Slot {
    std::string key;
    std::optional<QueryResult> cached;
    std::future<Result<QueryEstimate>> future;
  };
  std::vector<Slot> slots(req.queries.size());
  std::vector<ParsedQuery> parsed(req.queries.size());
  for (size_t i = 0; i < req.queries.size(); ++i) {
    ASSIGN_OR_RETURN(
        parsed[i],
        ParseQuery(req.queries[i], engine->attr_names(), engine->domains()));
    if (parsed[i].aggregate != ParsedQuery::Aggregate::kCount) {
      return Status::InvalidArgument(
          "BATCH queries must be COUNT (the batched answering path)");
    }
    slots[i].key = CanonicalQueryKey(parsed[i]);
    slots[i].cached = cache_.Get(version, slots[i].key);
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].cached.has_value()) continue;
    ASSIGN_OR_RETURN(slots[i].future,
                     batcher_->SubmitAsync(engine, parsed[i].where,
                                           deadline_at));
  }
  std::vector<std::string> lines;
  lines.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].cached.has_value()) {
      lines.push_back(EstimateLine(slots[i].cached->estimate));
      continue;
    }
    if (slots[i].future.wait_until(deadline_at) !=
        std::future_status::ready) {
      return Status::DeadlineExceeded("batch deadline exceeded");
    }
    ASSIGN_OR_RETURN(QueryEstimate est, slots[i].future.get());
    cache_.Put(version, slots[i].key, CountResult(est));
    lines.push_back(EstimateLine(est));
  }
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleOpen(Session* session,
                                            const Request& req) {
  if (catalog_ == nullptr) {
    if (req.version != 0) {
      return Status::FailedPrecondition("served store is not versioned");
    }
    session->pinned = nullptr;
    session->pinned_version = 0;
    return EncodeOkResponse({"version 0"});
  }
  RETURN_NOT_OK(catalog_->Refresh().status());
  if (req.version == 0) {
    session->pinned = nullptr;
    session->pinned_version = 0;
    return EncodeOkResponse(
        {"version " + std::to_string(catalog_->current())});
  }
  ASSIGN_OR_RETURN(session->pinned, catalog_->Pin(req.version));
  session->pinned_version = req.version;
  return EncodeOkResponse({"version " + std::to_string(req.version)});
}

Result<std::string> QueryServer::HandleStats(Session* session) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const EngineStats engine = resolved.first->stats();
  const ResultCache::Stats cache = cache_.stats();
  const QueryBatcher::Stats batcher = batcher_->stats();
  const Stats server = stats();
  std::vector<std::string> lines;
  lines.push_back("version " +
                  std::to_string(catalog_ ? catalog_->current() : 0));
  lines.push_back(
      "retained " +
      JoinIds(catalog_ ? catalog_->versions() : std::vector<uint64_t>{}));
  lines.push_back("n " + std::to_string(resolved.first->n()));
  lines.push_back("queries " + std::to_string(engine.queries));
  lines.push_back("batches " + std::to_string(engine.batches));
  lines.push_back("batched_queries " +
                  std::to_string(engine.batched_queries));
  lines.push_back("cache_hits " + std::to_string(cache.hits));
  lines.push_back("cache_misses " + std::to_string(cache.misses));
  lines.push_back("cache_entries " + std::to_string(cache.entries));
  lines.push_back("admitted " + std::to_string(batcher.accepted));
  lines.push_back("rejected " + std::to_string(batcher.rejected));
  lines.push_back("expired " + std::to_string(batcher.expired));
  lines.push_back("connections " + std::to_string(server.connections));
  lines.push_back("requests " + std::to_string(server.requests));
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleVersion() {
  // The capability list lets a client feature-detect the aggregate surface
  // instead of probing with throwaway queries; "join" appears only when a
  // right-side relation is configured.
  std::string capabilities = "capabilities count sum avg quantile topk batch";
  if (join_engine_ != nullptr) capabilities += " join";
  if (catalog_ == nullptr) {
    return EncodeOkResponse({"current 0", "retained ", capabilities});
  }
  RETURN_NOT_OK(catalog_->Refresh().status());
  return EncodeOkResponse(
      {"current " + std::to_string(catalog_->current()),
       "retained " + JoinIds(catalog_->versions()), capabilities});
}

}  // namespace entropydb
