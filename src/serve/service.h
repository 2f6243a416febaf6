#ifndef STEDB_SERVE_SERVICE_H_
#define STEDB_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/serving.h"
#include "src/common/scoped_fd.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/serve/http.h"

namespace stedb::serve {

/// Knobs for EmbeddingService. Defaults are sized for a loopback service
/// in front of one store directory.
struct ServeOptions {
  /// HTTP worker threads (0 = ResolveThreadCount: STEDB_THREADS, else
  /// hardware concurrency).
  int http_threads = 0;
  /// WAL catch-up fallback bound. The ticker thread Polls the shared
  /// session as soon as the store directory changes (an inotify watch
  /// over WAL appends, the compaction rename of the snapshot and the new
  /// journal), so a journaled vector is served within one Poll of the
  /// writer's flush. This interval is the longest it waits without a
  /// change notification — the whole cadence where inotify is missing —
  /// and the cadence of `tick_hook`. 0 disables the ticker: Poll only
  /// via PollNow(), for tests and single-shot drills.
  int poll_interval_ms = 20;
  /// Ceiling on /topk's and /similar's k and /facts' limit.
  size_t max_topk = 1024;
  /// HNSW base-layer beam width for /similar (0 = the library default,
  /// api::ServingSession::kDefaultEfSearch). Larger = better recall,
  /// slower queries. `stedb_serve --ef-search=N` sets it.
  size_t ef_search = 0;
  /// Ceiling on facts per /embed_batch request.
  size_t max_batch_facts = 65536;
  /// Runs after every ticker Poll — change-driven ones and those at the
  /// poll_interval_ms timeout alike, failed ones too — outside the
  /// session lock, so it runs at least once per interval. The flusher
  /// pattern for a co-located writer: a trainer embedding in the same
  /// process installs `[&store] { store mutex; store.SyncIfDue(); }`
  /// so an idle writer's group-commit tail becomes durable within the
  /// window even when no Append arrives to evaluate it (see
  /// store::EmbeddingStore::SyncIfDue).
  std::function<void()> tick_hook;
};

/// The networked embedding service: one shared api::ServingSession behind
/// an HttpServer.
///
/// Endpoints (all JSON unless `raw=1`, which returns the vector payload
/// as little-endian IEEE-754 doubles — the snapshot's own byte order —
/// for bit-exact transport):
///   GET /embed?fact=ID[&raw=1]        one φ vector
///   GET /embed_batch?facts=1,2,3      batch read (or POST ids in body)
///   GET /topk?fact=ID&k=K[&target=T]  φᵀψφ top-k over served facts
///   GET /similar?fact=ID&k=K[&approx=0]  nearest neighbors in embedding
///       space — sublinear via the snapshot's persisted HNSW index when
///       present, exact scan otherwise; approx=0 forces the exact scan
///   GET /facts[?limit=N]              served fact ids (load-gen seed)
///   GET /stats                        counters + store shape
///   GET /healthz                      liveness probe
///
/// Concurrency model: HTTP workers take the session lock shared and copy
/// or score straight out of the mapped snapshot while holding it; the
/// Poll ticker takes it exclusive (Poll may remap the snapshot and grow
/// the overlay, invalidating served views). A single-fact /embed is one
/// shared-lock row copy on the calling worker, no handoff.
class EmbeddingService {
 public:
  /// Counters exposed by /stats (and asserted by tests). All but
  /// http_requests are views over the process-global obs::Registry: the
  /// same process-cumulative series GET /metrics renders, so the two
  /// endpoints can never disagree.
  struct Stats {
    uint64_t http_requests = 0;     ///< requests this service's server read
    uint64_t embeds = 0;            ///< single-fact lookups served
    uint64_t embed_batches = 0;     ///< /embed_batch requests
    uint64_t topk_queries = 0;
    uint64_t similar_queries = 0;   ///< /similar requests (approx + exact)
    uint64_t polls = 0;             ///< Poll() calls, failed ones included
    uint64_t wal_records_applied = 0;
    uint64_t reopens = 0;           ///< compaction-triggered reopens
  };

  /// Opens `<dir>` as a ServingSession and wires the endpoint handlers.
  /// The service starts serving on Start().
  static Result<std::unique_ptr<EmbeddingService>> Open(
      const std::string& dir, ServeOptions options = ServeOptions());

  ~EmbeddingService() { Stop(); }
  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Binds and starts serving; port 0 picks an ephemeral port.
  Status Start(const std::string& host, int port);

  /// Stops the HTTP server and the ticker thread. Idempotent.
  void Stop();

  int port() const { return http_.port(); }

  /// One synchronous tick: Poll the session now (exclusive lock), then
  /// run the tick hook (whether or not the Poll succeeded). Returns the
  /// number of WAL records applied, or the Poll's error.
  Result<size_t> PollNow() STEDB_EXCLUDES(session_mu_);

  Stats stats() const;
  size_t dim() const { return dim_; }

 private:
  EmbeddingService(api::ServingSession session, ServeOptions options,
                   ScopedFd stop_read, ScopedFd stop_write);

  void RegisterHandlers();
  /// Waits in one poll() over an inotify watch on `dir` and the stop
  /// pipe, timing out after poll_interval_ms; every wake drains the
  /// queued change events and Polls once.
  void TickerLoop(const std::string& dir);

  HttpResponse HandleEmbed(const HttpRequest& req);
  HttpResponse HandleEmbedBatch(const HttpRequest& req);
  HttpResponse HandleTopK(const HttpRequest& req);
  HttpResponse HandleSimilar(const HttpRequest& req);
  HttpResponse HandleFacts(const HttpRequest& req);
  HttpResponse HandleStats(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);

  ServeOptions options_;
  size_t dim_ = 0;

  /// Shared session: HTTP readers shared, Poll exclusive.
  mutable SharedMutex session_mu_;
  api::ServingSession session_ STEDB_GUARDED_BY(session_mu_);

  HttpServer http_;

  // Ticker state. Stop() closes the pipe's write end; the POLLHUP on the
  // read end wakes the ticker's poll() at once.
  std::atomic<bool> stopping_{false};
  ScopedFd stop_read_;
  ScopedFd stop_write_;
  std::thread ticker_;
};

/// Extracts every signed integer from `text` — the lenient fact-id list
/// parser behind /embed_batch ("1,2,3", "[1, 2, 3]", {"facts":[1,2]} all
/// parse the same). Exposed for tests.
std::vector<db::FactId> ParseFactList(const std::string& text,
                                      size_t max_facts);

}  // namespace stedb::serve

#endif  // STEDB_SERVE_SERVICE_H_
