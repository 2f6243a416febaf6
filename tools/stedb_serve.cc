// stedb_serve: the networked embedding service — one store directory
// behind an HTTP endpoint (serve::EmbeddingService over a shared
// api::ServingSession). A trainer process keeps extending the same
// directory; the server's Poll ticker wakes on every change to the
// directory and tails the WAL, so clients see new facts as soon as the
// trainer flushes them, bit-identical to the trainer's model.
//
//   stedb_serve /path/to/store --port=8080
//   curl 'localhost:8080/embed?fact=17'
//   curl 'localhost:8080/topk?fact=17&k=5'
//   curl 'localhost:8080/stats'
//   curl 'localhost:8080/metrics'
//
// --port=0 binds an ephemeral port; the chosen port is printed as
// "serving on HOST:PORT" (line-buffered) so scripts can scrape it.
//
// Metrics without a scraper: --metrics-dump-sec=N writes the Prometheus
// exposition to stderr every N seconds, and SIGUSR1 triggers one dump on
// demand (`kill -USR1 $(pidof stedb_serve)`).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "src/obs/metrics.h"
#include "src/serve/service.h"

using namespace stedb;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

volatile std::sig_atomic_t g_dump = 0;
void OnDumpSignal(int) { g_dump = 1; }

/// Renders the global registry to stderr as one atomic-ish write. Called
/// from the main loop only (the signal handler just sets a flag — no
/// allocation or I/O in signal context).
void DumpMetrics() {
  std::string text;
  obs::RenderPrometheus(&text);
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

const char* FlagValue(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <store_dir> [--host=127.0.0.1] [--port=8080]\n"
               "       [--threads=0] [--poll_ms=20] [--max_topk=1024]\n"
               "       [--ef-search=0] [--metrics-dump-sec=0]\n"
               "  --port=0 picks an ephemeral port (printed on stdout)\n"
               "  --threads=0 resolves via STEDB_THREADS, else hardware "
               "concurrency\n"
               "  --poll_ms=N bounds the WAL catch-up wait when no "
               "change is reported\n"
               "    (the ticker wakes on directory changes); 0 disables "
               "the ticker\n"
               "  --ef-search=N sets /similar's HNSW beam width "
               "(0 = library default)\n"
               "  --metrics-dump-sec=N dumps /metrics text to stderr "
               "every N seconds\n"
               "  SIGUSR1 dumps metrics to stderr on demand\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string host = "127.0.0.1";
  int port = 8080;
  int metrics_dump_sec = 0;
  serve::ServeOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = FlagValue(argv[i], "--host")) != nullptr) {
      host = v;
    } else if ((v = FlagValue(argv[i], "--port")) != nullptr) {
      port = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--threads")) != nullptr) {
      options.http_threads = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--poll_ms")) != nullptr) {
      options.poll_interval_ms = std::atoi(v);
    } else if ((v = FlagValue(argv[i], "--max_topk")) != nullptr) {
      options.max_topk = static_cast<size_t>(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--ef-search")) != nullptr) {
      options.ef_search = static_cast<size_t>(std::atoll(v));
    } else if ((v = FlagValue(argv[i], "--metrics-dump-sec")) != nullptr) {
      metrics_dump_sec = std::atoi(v);
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (dir.empty()) {
      dir = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  auto service = serve::EmbeddingService::Open(dir, options);
  if (!service.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 service.status().ToString().c_str());
    return 1;
  }
  Status started = service.value()->Start(host, port);
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("serving on %s:%d (store %s, dim %zu)\n", host.c_str(),
              service.value()->port(), dir.c_str(),
              service.value()->dim());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGUSR1, OnDumpSignal);
  // The 100ms wait quantum doubles as the periodic-dump clock: 10 ticks
  // per second, dump when the tick count crosses the configured period.
  uint64_t ticks = 0;
  const uint64_t dump_every_ticks =
      metrics_dump_sec > 0 ? static_cast<uint64_t>(metrics_dump_sec) * 10
                           : 0;
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};  // 100ms
    ::nanosleep(&ts, nullptr);
    ++ticks;
    if (g_dump != 0 ||
        (dump_every_ticks != 0 && ticks % dump_every_ticks == 0)) {
      g_dump = 0;
      DumpMetrics();
    }
  }

  service.value()->Stop();
  const serve::EmbeddingService::Stats stats = service.value()->stats();
  std::printf("stopped: %llu requests, %llu embeds, %llu topk, %llu polls\n",
              static_cast<unsigned long long>(stats.http_requests),
              static_cast<unsigned long long>(stats.embeds),
              static_cast<unsigned long long>(stats.topk_queries),
              static_cast<unsigned long long>(stats.polls));
  return 0;
}
