// The serve layer: the minimal HTTP stack, the EmbeddingService over a
// shared ServingSession, request coalescing under concurrent clients, the
// live-extension drill (trainer extends → ticker Polls → client sees the
// new fact bit-identically over the wire), the change-driven ticker
// (appends, compaction, Stop and Poll failures with a poll interval too
// long to matter), and the tick-hook flusher that bounds an idle
// co-located writer's durability window.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/serving.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/fwd/trainer.h"
#include "src/obs/metrics.h"
#include "src/serve/http.h"
#include "src/serve/service.h"
#include "src/store/embedding_store.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

fwd::ForwardConfig SmallConfig() {
  fwd::ForwardConfig cfg;
  cfg.dim = 6;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.seed = 9;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Body bytes of a raw=1 response reinterpreted as doubles, compared
/// bit-for-bit against a model vector.
void ExpectRawBody(const std::string& body, const la::Vector& expected) {
  ASSERT_EQ(body.size(), expected.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(body.data(), expected.data(), body.size()), 0);
}

serve::HttpClient ConnectOrDie(int port) {
  auto client = serve::HttpClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

// ---- URL decoding and fact-list parsing --------------------------------

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(serve::UrlDecode("a%20b"), "a b");
  EXPECT_EQ(serve::UrlDecode("a+b"), "a b");
  EXPECT_EQ(serve::UrlDecode("1%2C2%2c3"), "1,2,3");
  EXPECT_EQ(serve::UrlDecode("plain"), "plain");
  // Malformed escapes pass through rather than crash.
  EXPECT_EQ(serve::UrlDecode("bad%2"), "bad%2");
  EXPECT_EQ(serve::UrlDecode("bad%zz"), "bad%zz");
}

TEST(ParseFactListTest, AcceptsCommonShapes) {
  using serve::ParseFactList;
  const std::vector<db::FactId> expected = {1, 2, 3};
  EXPECT_EQ(ParseFactList("1,2,3", 100), expected);
  EXPECT_EQ(ParseFactList("[1, 2, 3]", 100), expected);
  EXPECT_EQ(ParseFactList("{\"facts\": [1, 2, 3]}", 100), expected);
  EXPECT_EQ(ParseFactList("1 2 3", 100), expected);
  EXPECT_EQ(ParseFactList("", 100).size(), 0u);
  EXPECT_EQ(ParseFactList("no digits here", 100).size(), 0u);
  // Negative ids parse (they just won't be found).
  EXPECT_EQ(ParseFactList("-1", 100), std::vector<db::FactId>{-1});
  // The cap bounds work: at most max_facts + 1 are extracted (the +1 lets
  // the caller detect the overflow).
  EXPECT_EQ(ParseFactList("1,2,3,4,5,6,7,8", 3).size(), 4u);
}

// ---- HttpServer / HttpClient -------------------------------------------

TEST(HttpServerTest, ServesRegisteredPathsOverKeepAlive) {
  serve::HttpServer server;
  server.Handle("/echo", [](const serve::HttpRequest& req) {
    serve::HttpResponse resp;
    resp.content_type = "text/plain";
    resp.body = req.method + " " + req.Param("q", "-") + " " + req.body;
    return resp;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0, 2).ok());
  ASSERT_GT(server.port(), 0);

  serve::HttpClient client = ConnectOrDie(server.port());
  // Two requests on one connection: keep-alive works.
  auto r1 = client.Get("/echo?q=hello%20world");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1.value().status, 200);
  EXPECT_EQ(r1.value().body, "GET hello world ");
  auto r2 = client.Post("/echo", "the body", "text/plain");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2.value().body, "POST - the body");

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_EQ(server.requests_served(), 3u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpServerTest, StartFailsOnBadHostAndStopIsIdempotent) {
  serve::HttpServer server;
  EXPECT_FALSE(server.Start("not-an-ip", 0, 1).ok());
  EXPECT_FALSE(server.running());
  server.Stop();  // never started: still safe
}

// ---- EmbeddingService ---------------------------------------------------

struct ServedStore {
  db::Database database;
  std::unique_ptr<fwd::ForwardEmbedder> embedder;
  std::string dir;
};

/// GETs fact's raw vector until it is served (200) or `timeout` passes;
/// returns the last response.
serve::HttpResponse WaitServed(serve::HttpClient& client, db::FactId fact,
                               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  serve::HttpResponse last;
  while (std::chrono::steady_clock::now() < deadline) {
    auto resp = client.Get("/embed?fact=" + std::to_string(fact) + "&raw=1");
    if (!resp.ok()) {
      ADD_FAILURE() << resp.status();
      return last;
    }
    last = std::move(resp).value();
    if (last.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return last;
}

/// Waits until the service's ticker has made its start-up Poll, so that
/// anything appended afterwards can only arrive through a change event.
void WaitFirstPoll(const serve::EmbeddingService& service) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().polls == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(service.stats().polls, 0u) << "ticker never made its first Poll";
}

/// A vector of `dim` distinct, non-round doubles (bit-exactness bait).
la::Vector OddVector(size_t dim, double seed) {
  la::Vector v(dim);
  for (size_t i = 0; i < dim; ++i) {
    v[i] = seed / 3.0 + 0.1 * static_cast<double>(i);
  }
  return v;
}

/// Far longer than any test waits: a ticker that serves within it is
/// change-driven, not timed.
constexpr int kNeverMs = 60000;
constexpr auto kServedWithin = std::chrono::seconds(5);

/// Trains a small FoRWaRD model and persists it as a store directory.
ServedStore MakeServedStore(const std::string& name) {
  ServedStore s{MovieDatabase(), nullptr, ""};
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &s.database, s.database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  EXPECT_TRUE(emb.ok()) << emb.status();
  s.embedder =
      std::make_unique<fwd::ForwardEmbedder>(std::move(emb).value());
  s.dir = FreshDir(name);
  EXPECT_TRUE(fwd::CreateForwardStore(s.dir, s.embedder->model()).ok());
  return s;
}

TEST(EmbeddingServiceTest, EndpointsServeBitIdenticalVectors) {
  ServedStore s = MakeServedStore("serve_endpoints");
  serve::ServeOptions options;
  options.http_threads = 2;
  options.poll_interval_ms = 0;  // no ticker needed here
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  // Every trained vector over the wire, bit-identical via raw mode.
  for (const auto& [f, v] : s.embedder->model().all_phi()) {
    auto resp =
        client.Get("/embed?fact=" + std::to_string(f) + "&raw=1");
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp.value().status, 200);
    ExpectRawBody(resp.value().body, v);
  }

  // Batch: two facts, raw mode concatenates rows in request order.
  auto it = s.embedder->model().all_phi().begin();
  const db::FactId f1 = it->first;
  const la::Vector v1 = it->second;
  ++it;
  const db::FactId f2 = it->first;
  const la::Vector v2 = it->second;
  auto batch = client.Get("/embed_batch?facts=" + std::to_string(f1) +
                          "%2C" + std::to_string(f2) + "&raw=1");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().status, 200);
  la::Vector both = v1;
  both.insert(both.end(), v2.begin(), v2.end());
  ExpectRawBody(batch.value().body, both);

  // /topk agrees with the session-level scorer (which the serving tests
  // pin to the trainer kernel bit-for-bit).
  auto reference = api::ServingSession::Open(s.dir);
  ASSERT_TRUE(reference.ok());
  auto expected = reference.value().TopK(f1, 3, 0);
  ASSERT_TRUE(expected.ok());
  auto top = client.Get("/topk?fact=" + std::to_string(f1) + "&k=3");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.value().status, 200);
  // The top-ranked fact id appears first in the results array.
  const std::string lead =
      "\"results\":[{\"fact\":" + std::to_string(expected.value()[0].fact);
  EXPECT_NE(top.value().body.find(lead), std::string::npos)
      << top.value().body;

  // Error mapping: NotFound → 404, missing parameter → 400, ψ index out
  // of range → 400, unknown path → 404.
  EXPECT_EQ(client.Get("/embed?fact=987654").value().status, 404);
  EXPECT_EQ(client.Get("/embed").value().status, 400);
  EXPECT_EQ(client.Get("/topk?fact=" + std::to_string(f1) + "&target=99")
                .value()
                .status,
            400);
  EXPECT_EQ(client.Get("/unknown").value().status, 404);
  EXPECT_EQ(client.Get("/healthz").value().status, 200);
  EXPECT_EQ(client.Get("/stats").value().status, 200);

  const serve::EmbeddingService::Stats stats = service.value()->stats();
  EXPECT_GT(stats.embeds, 0u);
  EXPECT_EQ(stats.embed_batches, 1u);
  EXPECT_EQ(stats.topk_queries, 1u);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, CoalescesConcurrentSingleFactLookups) {
  ServedStore s = MakeServedStore("serve_coalesce");
  serve::ServeOptions options;
  options.http_threads = 4;
  options.poll_interval_ms = 0;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  const int port = service.value()->port();

  std::vector<std::pair<db::FactId, la::Vector>> facts(
      s.embedder->model().all_phi().begin(),
      s.embedder->model().all_phi().end());
  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto conn = serve::HttpClient::Connect("127.0.0.1", port);
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const auto& [fact, phi] = facts[(t + i) % facts.size()];
        auto resp = conn.value().Get("/embed?fact=" +
                                     std::to_string(fact) + "&raw=1");
        if (!resp.ok() || resp.value().status != 200 ||
            resp.value().body.size() != phi.size() * sizeof(double) ||
            std::memcmp(resp.value().body.data(), phi.data(),
                        resp.value().body.size()) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  ASSERT_EQ(failures.load(), 0);

  const serve::EmbeddingService::Stats stats = service.value()->stats();
  EXPECT_EQ(stats.embeds,
            static_cast<uint64_t>(kThreads * kLookupsPerThread));
  // Every lookup went through the coalescer; rounds can never exceed
  // lookups, and each round served at least one.
  EXPECT_GT(stats.coalesce_rounds, 0u);
  EXPECT_LE(stats.coalesce_rounds, stats.embeds);
  EXPECT_GE(stats.max_coalesced, 1u);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, PollTickerServesLiveExtensionsBitIdentically) {
  // The serve drill: trainer extends the store while the service runs; the
  // ticker Polls the WAL; a client sees the new fact over the wire with
  // the exact bytes the trainer computed.
  ServedStore s = MakeServedStore("serve_drill");
  auto created = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  s.embedder->set_extension_sink(store.MakeSink());

  serve::ServeOptions options;
  options.http_threads = 2;
  options.poll_interval_ms = 5;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());

  db::FactId c4 = InsertC4(s.database);
  EXPECT_EQ(client.Get("/embed?fact=" + std::to_string(c4)).value().status,
            404);
  ASSERT_TRUE(s.embedder->ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());

  // Within a few ticks the fact appears; bound the wait generously.
  const serve::HttpResponse last =
      WaitServed(client, c4, std::chrono::seconds(10));
  ASSERT_EQ(last.status, 200) << "extension never became visible";
  ExpectRawBody(last.body, s.embedder->model().phi(c4));

  const serve::EmbeddingService::Stats stats = service.value()->stats();
  EXPECT_GT(stats.polls, 0u);
  EXPECT_GE(stats.wal_records_applied, 1u);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, TickHookFlushesIdleCoLocatedWriter) {
  // Satellite drill for store::EmbeddingStore::SyncIfDue: a co-located
  // writer appends once and goes idle; the serve ticker's hook makes the
  // tail durable within the group-commit window, no further Append needed.
  ServedStore s = MakeServedStore("serve_tick_hook");
  store::StoreOptions store_options;
  store_options.sync_every_append = true;
  store_options.group_commit_bytes = 1 << 30;
  store_options.group_commit_usec = 1000;  // 1ms
  auto created = store::EmbeddingStore::Open(s.dir, store_options);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();

  std::mutex store_mu;
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = 2;
  options.tick_hook = [&store, &store_mu] {
    std::lock_guard<std::mutex> lk(store_mu);
    ASSERT_TRUE(store.SyncIfDue().ok());
  };
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());

  uint64_t base;
  {
    std::lock_guard<std::mutex> lk(store_mu);
    base = store.fsync_count();
    la::Vector phi(s.embedder->dim(), 0.25);
    ASSERT_TRUE(store.Append(91000, phi).ok());
    ASSERT_EQ(store.fsync_count(), base);  // window open, unsynced
  }
  // The ONLY thing that can flush now is the ticker's hook.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool flushed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lk(store_mu);
      flushed = store.fsync_count() > base;
    }
    if (flushed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(flushed)
      << "idle writer's tail never became durable via the tick hook";
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, TickerServesAppendOnChangeNotInterval) {
  ServedStore s = MakeServedStore("serve_ticker_append");
  auto opened = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  store::EmbeddingStore store = std::move(opened).value();

  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = kNeverMs;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());
  WaitFirstPoll(*service.value());

  // No Sync: Append flushes each record, which is all a reader needs.
  const la::Vector phi = OddVector(s.embedder->dim(), 1.0);
  ASSERT_TRUE(store.Append(92000, phi).ok());
  const serve::HttpResponse resp = WaitServed(client, 92000, kServedWithin);
  ASSERT_EQ(resp.status, 200) << "append not served without a timed tick";
  ExpectRawBody(resp.body, phi);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, TickerWatchSurvivesCompaction) {
  // Compaction renames a new snapshot in and recreates the journal; a
  // watch on the old journal's inode would go deaf here.
  ServedStore s = MakeServedStore("serve_ticker_compact");
  auto opened = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  store::EmbeddingStore store = std::move(opened).value();

  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = kNeverMs;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());
  WaitFirstPoll(*service.value());

  const la::Vector before = OddVector(s.embedder->dim(), 2.0);
  ASSERT_TRUE(store.Append(92001, before).ok());
  ASSERT_EQ(WaitServed(client, 92001, kServedWithin).status, 200);
  ASSERT_TRUE(store.Compact().ok());

  const la::Vector after = OddVector(s.embedder->dim(), 3.0);
  ASSERT_TRUE(store.Append(92002, after).ok());
  const serve::HttpResponse resp = WaitServed(client, 92002, kServedWithin);
  ASSERT_EQ(resp.status, 200) << "append after Compact() never served";
  ExpectRawBody(resp.body, after);
  const serve::HttpResponse folded = WaitServed(client, 92001, kServedWithin);
  ASSERT_EQ(folded.status, 200);
  ExpectRawBody(folded.body, before);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, TickerStopsPromptly) {
  ServedStore s = MakeServedStore("serve_ticker_stop");
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = kNeverMs;
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  WaitFirstPoll(*service.value());  // the ticker now sits in its wait

  const auto start = std::chrono::steady_clock::now();
  service.value()->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "Stop() waited out the poll interval";
}

TEST(EmbeddingServiceTest, TickerCountsPollErrorsAndKeepsServing) {
  ServedStore s = MakeServedStore("serve_ticker_errors");
  auto opened = store::EmbeddingStore::Open(s.dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  store::EmbeddingStore store = std::move(opened).value();

  std::atomic<int> hooks{0};
  serve::ServeOptions options;
  options.http_threads = 1;
  options.poll_interval_ms = kNeverMs;
  options.tick_hook = [&hooks] { hooks.fetch_add(1); };
  auto service = serve::EmbeddingService::Open(s.dir, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE(service.value()->Start("127.0.0.1", 0).ok());
  serve::HttpClient client = ConnectOrDie(service.value()->port());
  WaitFirstPoll(*service.value());

  const obs::Counter* errors = obs::Registry::Global().FindCounter(
      "stedb_serving_poll_errors_total");
  ASSERT_NE(errors, nullptr);
  const uint64_t errors_before = errors->Value();
  const int hooks_before = hooks.load();

  // Every Poll from here fails: the snapshot the session stats is gone.
  std::filesystem::remove(store::EmbeddingStore::SnapshotPath(s.dir));
  ASSERT_TRUE(store.Append(92003, OddVector(s.embedder->dim(), 4.0)).ok());
  const auto deadline = std::chrono::steady_clock::now() + kServedWithin;
  while ((errors->Value() == errors_before || hooks.load() == hooks_before) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(errors->Value(), errors_before) << "Poll failure not counted";
  EXPECT_GT(hooks.load(), hooks_before) << "tick hook skipped after a failure";

  // The live mapping still serves every snapshot fact.
  const auto& [fact, phi] = *s.embedder->model().all_phi().begin();
  auto resp = client.Get("/embed?fact=" + std::to_string(fact) + "&raw=1");
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp.value().status, 200);
  ExpectRawBody(resp.value().body, phi);
  service.value()->Stop();
}

TEST(EmbeddingServiceTest, OpenFailsOnMissingStore) {
  const std::string dir = FreshDir("serve_missing");
  EXPECT_FALSE(serve::EmbeddingService::Open(dir).ok());
}

}  // namespace
}  // namespace stedb
