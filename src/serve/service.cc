#include "src/serve/service.h"

#include <poll.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/inotify.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/fwd/trainer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/store/embedding_store.h"

namespace stedb::serve {

namespace {

/// Registry series of the serve layer. Counters are process-cumulative,
/// and /stats reports them as they are. The per-endpoint request series
/// live next to these but are registered in RegisterHandlers, where the
/// endpoint label value is known.
struct ServeMetrics {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter& embeds = reg.GetCounter(
      "stedb_serve_embeds_total", "Single-fact lookups served");
  obs::Counter& embed_batches = reg.GetCounter(
      "stedb_serve_embed_batches_total", "/embed_batch requests served");
  obs::Counter& topk_queries = reg.GetCounter(
      "stedb_serve_topk_queries_total", "/topk queries served");
  obs::Counter& similar_queries = reg.GetCounter(
      "stedb_serve_similar_queries_total",
      "/similar queries served (approximate and exact paths)");
  obs::Gauge& inflight = reg.GetGauge(
      "stedb_serve_inflight_requests", "HTTP requests currently in flight");
  // The family name outlived the coalescer it was named for:
  // perfbench/ledger.cc reads it as serve.coalesce_records_mean.
  obs::Histogram& facts_per_call = reg.GetHistogram(
      "stedb_serve_coalesced_batch_records", "Facts per session embed call",
      obs::Buckets::PowersOfTwo());
};

ServeMetrics& Metrics() {
  static ServeMetrics m;
  return m;
}

[[maybe_unused]] const ServeMetrics& g_eager_metrics = Metrics();

/// A counter of the stedb_serving_* Poll families, which
/// src/api/serving.cc owns; /stats reads them instead of keeping a
/// second count of the same Polls.
uint64_t ServingCounter(const char* name) {
  const obs::Counter* c = obs::Registry::Global().FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

/// A non-blocking inotify fd watching `dir` for what Poll must see: a WAL
/// append (IN_MODIFY), the compaction's rename of the new snapshot
/// (IN_MOVED_TO) and the new journal (IN_CREATE). The directory, not the
/// journal file, is watched because compaction replaces the journal's
/// inode. -1 where inotify is unavailable; poll() ignores a negative fd,
/// which leaves the ticker a plain timed loop.
ScopedFd WatchStoreDir(const std::string& dir) {
#if defined(__linux__)
  ScopedFd fd(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC));
  if (fd.valid() &&
      ::inotify_add_watch(fd.get(), dir.c_str(),
                          IN_MODIFY | IN_MOVED_TO | IN_CREATE) >= 0) {
    return fd;
  }
  const char* why = std::strerror(errno);
#else
  const char* why = "no inotify on this platform";
#endif
  STEDB_LOG(kWarn) << "serve: cannot watch " << dir << " (" << why
                   << "); WAL catch-up falls back to the timed tick";
  return ScopedFd();
}

/// Reads every queued event off the non-blocking `fd`; which file changed
/// does not matter, since one Poll covers them all.
void DrainEvents(int fd) {
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

/// Shortest round-tripping decimal for an IEEE double: 17 significant
/// digits reparse to the identical bits, which is what keeps the JSON
/// path bit-exact end to end (the demo drill asserts it).
void AppendJsonDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendJsonVector(std::string& out, Span<const double> v) {
  out.push_back('[');
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonDouble(out, v[i]);
  }
  out.push_back(']');
}

/// The snapshot format is little-endian IEEE-754; on the little-endian
/// hosts this library supports the in-memory bytes ARE the wire bytes.
void AppendRawVector(std::string& out, Span<const double> v) {
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(double));
}

int HttpStatusFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kFailedPrecondition: return 409;
    default: return 500;
  }
}

HttpResponse ErrorResponse(const Status& st) {
  std::string body = "{\"error\":\"";
  // Status messages here are ASCII diagnostics; escape the two JSON
  // breakers rather than pulling in a full escaper.
  for (char c : st.ToString()) {
    if (c == '"' || c == '\\') body.push_back('\\');
    body.push_back(c);
  }
  body += "\"}\n";
  return {HttpStatusFor(st), "application/json", std::move(body)};
}

}  // namespace

std::vector<db::FactId> ParseFactList(const std::string& text,
                                      size_t max_facts) {
  std::vector<db::FactId> facts;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end && facts.size() <= max_facts) {
    const bool digit_start =
        std::isdigit(static_cast<unsigned char>(*p)) ||
        (*p == '-' && p + 1 < end &&
         std::isdigit(static_cast<unsigned char>(p[1])));
    if (!digit_start) {
      ++p;
      continue;
    }
    char* after = nullptr;
    const long long v = std::strtoll(p, &after, 10);
    facts.push_back(static_cast<db::FactId>(v));
    p = after;
  }
  return facts;
}

Result<std::unique_ptr<EmbeddingService>> EmbeddingService::Open(
    const std::string& dir, ServeOptions options) {
  STEDB_ASSIGN_OR_RETURN(api::ServingSession session,
                         api::ServingSession::Open(dir));
  int stop_pipe[2];
  if (::pipe(stop_pipe) != 0) {
    return Status::IOError(std::string("serve: cannot create stop pipe: ") +
                           std::strerror(errno));
  }
  ScopedFd stop_read(stop_pipe[0]);
  ScopedFd stop_write(stop_pipe[1]);
  std::unique_ptr<EmbeddingService> service(new EmbeddingService(
      std::move(session), std::move(options), std::move(stop_read),
      std::move(stop_write)));
  return service;
}

EmbeddingService::EmbeddingService(api::ServingSession session,
                                   ServeOptions options, ScopedFd stop_read,
                                   ScopedFd stop_write)
    : options_(std::move(options)),
      dim_(session.dim()),
      session_(std::move(session)),
      stop_read_(std::move(stop_read)),
      stop_write_(std::move(stop_write)) {
  // Read-only serving binaries never reference the store/trainer write
  // paths, so their eager metric registrations would be dropped by the
  // static linker; touching them here keeps the /metrics schema complete
  // (writer families render at zero instead of disappearing).
  store::TouchStoreMetrics();
  fwd::TouchTrainMetrics();
  RegisterHandlers();
  if (options_.poll_interval_ms > 0) {
    ticker_ = std::thread([this, dir = session_.dir()] { TickerLoop(dir); });
  }
}

Status EmbeddingService::Start(const std::string& host, int port) {
  return http_.Start(host, port, ResolveThreadCount(options_.http_threads));
}

void EmbeddingService::Stop() {
  if (stopping_.exchange(true)) return;
  http_.Stop();
  stop_write_.Reset();  // the read end's POLLHUP wakes the ticker
  if (ticker_.joinable()) ticker_.join();
}

Result<size_t> EmbeddingService::PollNow() {
  Result<size_t> applied = [&] {
    WriterMutexLock lk(session_mu_);
    return session_.Poll();
  }();
  // The hook runs even after a failed Poll: an idle co-located writer's
  // durability must not hinge on the reader's snapshot being readable.
  if (options_.tick_hook) options_.tick_hook();
  return applied;
}

void EmbeddingService::TickerLoop(const std::string& dir) {
  // Watch first, then Poll once: an append that landed between the
  // session's Open and the watch must not wait a whole interval.
  const ScopedFd watch = WatchStoreDir(dir);
  pollfd fds[2] = {{stop_read_.get(), POLLIN, 0}, {watch.get(), POLLIN, 0}};
  // Poll errors repeat on every change while they last (an unlinked
  // snapshot, say); the counter has each, the log one line a minute.
  constexpr auto kErrorLogEvery = std::chrono::minutes(1);
  auto next_error_log = std::chrono::steady_clock::now();
  uint64_t unlogged_errors = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const Result<size_t> polled = PollNow();
    if (!polled.ok()) {
      ++unlogged_errors;
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_error_log) {
        STEDB_LOG(kWarn) << "serve: Poll of " << dir << " failed ("
                         << unlogged_errors << " failure(s) since the last "
                         << "such line): " << polled.status();
        unlogged_errors = 0;
        next_error_log = now + kErrorLogEvery;
      }
    }
    // A burst of appends during that Poll queues many events and costs
    // one more Poll, not one per append.
    if (::poll(fds, 2, options_.poll_interval_ms) > 0 &&
        (fds[1].revents & POLLIN) != 0) {
      DrainEvents(watch.get());
    }
  }
}

// ---- Handlers ----------------------------------------------------------

void EmbeddingService::RegisterHandlers() {
  // Every endpoint is wrapped with the same instrumentation: a request
  // counter and a latency histogram keyed by an `endpoint` label (the
  // path without the slash — label values stay identifier-shaped), plus
  // the shared in-flight gauge. Registration happens here, once per
  // endpoint; re-opening a service in the same process gets the same
  // series back, so the handler hot path never touches the registry map.
  const auto timed = [this](const char* path,
                            std::function<HttpResponse(const HttpRequest&)>
                                handler) {
    obs::Registry& reg = obs::Registry::Global();
    const std::string endpoint = path + 1;  // strip the leading '/'
    obs::Counter& requests = reg.GetCounter(
        "stedb_serve_requests_total", "HTTP requests by endpoint",
        {{"endpoint", endpoint}});
    obs::Histogram& latency = reg.GetHistogram(
        "stedb_serve_request_seconds", "HTTP request latency by endpoint",
        obs::Buckets::Latency(), {{"endpoint", endpoint}});
    http_.Handle(path, [&requests, &latency,
                        handler = std::move(handler)](const HttpRequest& r) {
      requests.Inc();
      Metrics().inflight.Add(1.0);
      HttpResponse resp;
      {
        obs::ScopedTimer timer(latency);
        resp = handler(r);
      }
      Metrics().inflight.Add(-1.0);
      return resp;
    });
  };
  timed("/embed", [this](const HttpRequest& r) { return HandleEmbed(r); });
  timed("/embed_batch",
        [this](const HttpRequest& r) { return HandleEmbedBatch(r); });
  timed("/topk", [this](const HttpRequest& r) { return HandleTopK(r); });
  timed("/similar",
        [this](const HttpRequest& r) { return HandleSimilar(r); });
  timed("/facts", [this](const HttpRequest& r) { return HandleFacts(r); });
  timed("/stats", [this](const HttpRequest& r) { return HandleStats(r); });
  timed("/metrics",
        [this](const HttpRequest& r) { return HandleMetrics(r); });
  timed("/healthz", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok\n"};
  });
}

HttpResponse EmbeddingService::HandleEmbed(const HttpRequest& req) {
  if (!req.HasParam("fact")) {
    return ErrorResponse(
        Status::InvalidArgument("missing ?fact=<id> parameter"));
  }
  const auto fact =
      static_cast<db::FactId>(req.ParamInt("fact", db::kNoFact));
  const bool raw = req.ParamInt("raw", 0) != 0;
  HttpResponse resp;
  if (raw) {
    resp.content_type = "application/octet-stream";
  } else {
    resp.body = "{\"fact\":" + std::to_string(fact) +
                ",\"dim\":" + std::to_string(dim_) + ",\"phi\":";
  }
  Metrics().embeds.Inc();
  {
    // The span views the mapping (or the overlay), which a Poll may
    // replace, so it is serialized before the shared lock drops.
    SharedMutexLock lk(session_mu_);
    const Result<Span<const double>> phi = session_.Embed(fact);
    if (!phi.ok()) return ErrorResponse(phi.status());
    if (raw) {
      AppendRawVector(resp.body, phi.value());
    } else {
      AppendJsonVector(resp.body, phi.value());
    }
  }
  Metrics().facts_per_call.Observe(1.0);
  if (!raw) resp.body += "}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleEmbedBatch(const HttpRequest& req) {
  const std::string& source =
      req.HasParam("facts") ? req.Param("facts") : req.body;
  std::vector<db::FactId> facts =
      ParseFactList(source, options_.max_batch_facts);
  if (facts.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "no fact ids in ?facts= or request body"));
  }
  if (facts.size() > options_.max_batch_facts) {
    return ErrorResponse(Status::InvalidArgument(
        "batch exceeds max_batch_facts=" +
        std::to_string(options_.max_batch_facts)));
  }
  la::Matrix out(facts.size(), dim_);
  {
    SharedMutexLock lk(session_mu_);
    const Status st = session_.EmbedBatch(facts, out);
    if (!st.ok()) return ErrorResponse(st);
  }
  Metrics().embed_batches.Inc();
  Metrics().facts_per_call.Observe(static_cast<double>(facts.size()));

  if (req.ParamInt("raw", 0) != 0) {
    HttpResponse resp;
    resp.content_type = "application/octet-stream";
    resp.body.reserve(facts.size() * dim_ * sizeof(double));
    for (size_t i = 0; i < facts.size(); ++i) {
      AppendRawVector(resp.body, Span<const double>(out.RowPtr(i), dim_));
    }
    return resp;
  }
  HttpResponse resp;
  resp.body = "{\"count\":" + std::to_string(facts.size()) +
              ",\"dim\":" + std::to_string(dim_) + ",\"rows\":[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) resp.body.push_back(',');
    resp.body += "{\"fact\":" + std::to_string(facts[i]) + ",\"phi\":";
    AppendJsonVector(resp.body, Span<const double>(out.RowPtr(i), dim_));
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleTopK(const HttpRequest& req) {
  if (!req.HasParam("fact")) {
    return ErrorResponse(
        Status::InvalidArgument("missing ?fact=<id> parameter"));
  }
  const auto fact =
      static_cast<db::FactId>(req.ParamInt("fact", db::kNoFact));
  const auto k = static_cast<size_t>(std::max<int64_t>(
      1, std::min<int64_t>(req.ParamInt("k", 10),
                           static_cast<int64_t>(options_.max_topk))));
  const auto target =
      static_cast<size_t>(std::max<int64_t>(0, req.ParamInt("target", 0)));

  Result<std::vector<api::ServingSession::Scored>> scored = [&] {
    SharedMutexLock lk(session_mu_);
    return session_.TopK(fact, k, target);
  }();
  if (!scored.ok()) return ErrorResponse(scored.status());
  Metrics().topk_queries.Inc();

  HttpResponse resp;
  resp.body = "{\"query\":" + std::to_string(fact) +
              ",\"target\":" + std::to_string(target) + ",\"results\":[";
  bool first = true;
  for (const api::ServingSession::Scored& s : scored.value()) {
    if (!first) resp.body.push_back(',');
    first = false;
    resp.body += "{\"fact\":" + std::to_string(s.fact) + ",\"score\":";
    AppendJsonDouble(resp.body, s.score);
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleSimilar(const HttpRequest& req) {
  if (!req.HasParam("fact")) {
    return ErrorResponse(
        Status::InvalidArgument("missing ?fact=<id> parameter"));
  }
  const auto fact =
      static_cast<db::FactId>(req.ParamInt("fact", db::kNoFact));
  const auto k = static_cast<size_t>(std::max<int64_t>(
      1, std::min<int64_t>(req.ParamInt("k", 10),
                           static_cast<int64_t>(options_.max_topk))));
  api::SimilarOptions opts;
  opts.ef_search = options_.ef_search;
  opts.approx = req.ParamInt("approx", 1) != 0;

  bool approx_served = false;
  Result<std::vector<api::ServingSession::Scored>> scored = [&] {
    SharedMutexLock lk(session_mu_);
    approx_served = opts.approx && session_.has_ann_index();
    return session_.SimilarTopK(fact, k, opts);
  }();
  if (!scored.ok()) return ErrorResponse(scored.status());
  Metrics().similar_queries.Inc();

  HttpResponse resp;
  resp.body = "{\"query\":" + std::to_string(fact) + ",\"approx\":" +
              (approx_served ? "true" : "false") + ",\"results\":[";
  bool first = true;
  for (const api::ServingSession::Scored& s : scored.value()) {
    if (!first) resp.body.push_back(',');
    first = false;
    resp.body += "{\"fact\":" + std::to_string(s.fact) + ",\"score\":";
    AppendJsonDouble(resp.body, s.score);
    resp.body.push_back('}');
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleFacts(const HttpRequest& req) {
  const auto limit = static_cast<size_t>(std::max<int64_t>(
      0, req.ParamInt("limit",
                      static_cast<int64_t>(options_.max_batch_facts))));
  std::vector<db::FactId> facts;
  size_t total = 0;
  {
    SharedMutexLock lk(session_mu_);
    facts = session_.ServedFacts();
  }
  total = facts.size();
  if (facts.size() > limit) facts.resize(limit);

  HttpResponse resp;
  resp.body = "{\"count\":" + std::to_string(total) + ",\"facts\":[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) resp.body.push_back(',');
    resp.body += std::to_string(facts[i]);
  }
  resp.body += "]}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleStats(const HttpRequest&) {
  size_t num_embedded = 0, wal_records = 0, num_psi = 0;
  bool ann_index = false;
  {
    SharedMutexLock lk(session_mu_);
    num_embedded = session_.num_embedded();
    wal_records = session_.wal_records();
    num_psi = session_.num_psi();
    ann_index = session_.has_ann_index();
  }
  // The beam width /similar actually runs with (the option, or the
  // library default when unset).
  const size_t ef_search =
      options_.ef_search != 0 ? options_.ef_search
                              : api::ServingSession::kDefaultEfSearch;
  const Stats s = stats();
  HttpResponse resp;
  resp.body =
      "{\"num_embedded\":" + std::to_string(num_embedded) +
      ",\"dim\":" + std::to_string(dim_) +
      ",\"wal_records\":" + std::to_string(wal_records) +
      ",\"num_psi\":" + std::to_string(num_psi) +
      ",\"ann_index\":" + (ann_index ? "true" : "false") +
      ",\"ef_search\":" + std::to_string(ef_search) +
      ",\"http_requests\":" + std::to_string(http_.requests_served()) +
      ",\"embeds\":" + std::to_string(s.embeds) +
      ",\"embed_batches\":" + std::to_string(s.embed_batches) +
      ",\"topk_queries\":" + std::to_string(s.topk_queries) +
      ",\"similar_queries\":" + std::to_string(s.similar_queries) +
      ",\"polls\":" + std::to_string(s.polls) +
      ",\"wal_records_applied\":" +
      std::to_string(s.wal_records_applied) +
      ",\"reopens\":" + std::to_string(s.reopens) + "}\n";
  return resp;
}

HttpResponse EmbeddingService::HandleMetrics(const HttpRequest&) {
  HttpResponse resp;
  // The Prometheus text exposition version tag; scrapers key parsing off
  // it, and plain consumers still see text/plain.
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  obs::RenderPrometheus(&resp.body);
  return resp;
}

EmbeddingService::Stats EmbeddingService::stats() const {
  const ServeMetrics& m = Metrics();
  Stats s;
  s.http_requests = http_.requests_served();
  s.embeds = m.embeds.Value();
  s.embed_batches = m.embed_batches.Value();
  s.topk_queries = m.topk_queries.Value();
  s.similar_queries = m.similar_queries.Value();
  s.polls = ServingCounter("stedb_serving_polls_total");
  s.wal_records_applied =
      ServingCounter("stedb_serving_wal_records_applied_total");
  s.reopens = ServingCounter("stedb_serving_reopens_total");
  return s;
}

}  // namespace stedb::serve
