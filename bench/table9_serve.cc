// Networked serving under load (no paper analogue — the ROADMAP's "serve
// heavy traffic from a stored model" direction): a multi-threaded load
// generator drives stedb_serve's HTTP endpoints and reports per-request
// latency percentiles and aggregate QPS for
//   * /embed        — single-fact lookups (raw payload),
//   * /embed_batch  — 32-fact batch reads,
//   * /topk         — the serving-side φᵀψφ brute-force scorer.
//
// Default mode spins up an in-process serve::EmbeddingService on an
// ephemeral loopback port (store trained fresh at STEDB_SCALE). Pass
// --connect=HOST:PORT to aim at an externally started stedb_serve
// instead; fact ids are seeded from its /facts endpoint either way.
//
// Results merge into BENCH_serving.json as a "serve" section next to
// table8's per-lookup numbers (STEDB_BENCH_SERVING_JSON overrides the
// path; "off" disables), so one artifact carries the whole serving story.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/timer.h"
#include "src/exp/report.h"
#include "src/exp/static_experiment.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/serve/http.h"
#include "src/serve/service.h"

using namespace stedb;

namespace {

struct EndpointNumbers {
  std::string endpoint;
  size_t requests = 0;
  size_t failures = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

/// Fires `requests` of `make_target()` across `threads` keep-alive
/// connections and collects per-request latencies.
template <typename MakeTarget>
EndpointNumbers RunLoad(const std::string& endpoint, const std::string& host,
                        int port, int threads, size_t requests,
                        MakeTarget&& make_target) {
  EndpointNumbers out;
  out.endpoint = endpoint;
  out.requests = requests;
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  Timer wall;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto conn = serve::HttpClient::Connect(host, port);
      if (!conn.ok()) {
        failures.fetch_add(requests);  // count the whole share as failed
        return;
      }
      for (size_t i = next.fetch_add(1); i < requests;
           i = next.fetch_add(1)) {
        Timer rt;
        auto resp = conn.value().Get(make_target(i));
        if (!resp.ok() || resp.value().status != 200) {
          failures.fetch_add(1);
          continue;
        }
        lat[static_cast<size_t>(t)].push_back(rt.ElapsedSeconds() * 1e6);
      }
    });
  }
  for (std::thread& th : workers) th.join();
  const double wall_s = wall.ElapsedSeconds();
  std::vector<double> all;
  for (const auto& per_thread : lat) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  out.failures = failures.load();
  out.p50_us = Percentile(all, 0.50);
  out.p99_us = Percentile(all, 0.99);
  out.qps = wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  return out;
}

/// Merges the "serve" section into an existing BENCH_serving.json (written
/// by table8) or starts a fresh file. String-level merge: the existing
/// object's trailing "}" is replaced by ",\n  \"serve\": {...}\n}".
void EmitServeJson(const std::vector<EndpointNumbers>& rows, int threads,
                   size_t facts) {
  const char* out_env = std::getenv("STEDB_BENCH_SERVING_JSON");
  std::string path = out_env != nullptr && *out_env != '\0'
                         ? out_env
                         : "BENCH_serving.json";
  if (path == "off" || path == "0") return;

  std::string serve_section =
      "  \"serve\": {\n"
      "    \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n    \"load_threads\": " + std::to_string(threads) +
      ",\n    \"served_facts\": " + std::to_string(facts) +
      ",\n    \"endpoints\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"requests\": %zu,"
                  " \"failures\": %zu,\n"
                  "       \"p50_us\": %.1f, \"p99_us\": %.1f,"
                  " \"qps\": %.1f}%s\n",
                  rows[i].endpoint.c_str(), rows[i].requests,
                  rows[i].failures, rows[i].p50_us, rows[i].p99_us,
                  rows[i].qps, i + 1 < rows.size() ? "," : "");
    serve_section += buf;
  }
  serve_section += "    ]\n  }\n";

  std::string existing;
  FILE* in = std::fopen(path.c_str(), "r");
  if (in != nullptr) {
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
      existing.append(chunk, n);
    }
    std::fclose(in);
  }
  std::string merged;
  const size_t close = existing.rfind('}');
  if (close != std::string::npos) {
    // Drop a previous "serve" section so reruns replace, not accumulate.
    const size_t old_serve = existing.find("  \"serve\": {");
    std::string head = existing.substr(
        0, old_serve != std::string::npos ? old_serve : close);
    while (!head.empty() &&
           (head.back() == '\n' || head.back() == ' ' ||
            head.back() == ',')) {
      head.pop_back();
    }
    merged = head + ",\n" + serve_section + "}\n";
  } else {
    merged = "{\n  \"bench\": \"serving\",\n" + serve_section + "}\n";
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_serving.json: cannot open %s\n",
                 path.c_str());
    return;
  }
  std::fwrite(merged.data(), 1, merged.size(), f);
  std::fclose(f);
  std::printf("merged serve section into %s\n", path.c_str());
}

/// Scrapes GET /metrics after the load run, sanity-checks the Prometheus
/// exposition (the serve-layer request histograms must have counted the
/// load we just generated), and writes the text next to the JSON artifact
/// (STEDB_BENCH_METRICS_PROM overrides the path; "off" disables).
/// Returns false on scrape or validation failure — the bench fails hard,
/// so a broken /metrics endpoint can't slip through CI.
bool ScrapeAndCheckMetrics(const std::string& host, int port) {
  auto conn = serve::HttpClient::Connect(host, port);
  if (!conn.ok()) {
    std::fprintf(stderr, "/metrics connect: %s\n",
                 conn.status().ToString().c_str());
    return false;
  }
  auto resp = conn.value().Get("/metrics");
  if (!resp.ok() || resp.value().status != 200) {
    std::fprintf(stderr, "/metrics scrape failed (status %d)\n",
                 resp.ok() ? resp.value().status : -1);
    return false;
  }
  const std::string& text = resp.value().body;
  // Spot-check the exposition: well-formed head, and the families the
  // acceptance bar names — per-endpoint request latency, store appends,
  // serving Poll lag, DistCache hits/misses.
  const char* required[] = {
      "# HELP ",
      "# TYPE ",
      "stedb_serve_request_seconds_bucket{endpoint=\"embed\",le=",
      "stedb_serve_request_seconds_count{endpoint=\"topk\"}",
      "stedb_serve_requests_total{endpoint=\"embed_batch\"}",
      "stedb_store_appends_total",
      "stedb_serving_wal_lag_records",
      "stedb_train_dist_cache_lookups_total{result=\"hit\"}",
  };
  for (const char* needle : required) {
    if (text.find(needle) == std::string::npos) {
      std::fprintf(stderr, "/metrics missing expected series: %s\n",
                   needle);
      return false;
    }
  }

  const char* out_env = std::getenv("STEDB_BENCH_METRICS_PROM");
  std::string path = out_env != nullptr && *out_env != '\0'
                         ? out_env
                         : "BENCH_metrics.prom";
  if (path == "off" || path == "0") return true;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics artifact: cannot open %s\n",
                 path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote /metrics exposition (%zu bytes, %zu series lines) "
              "to %s\n",
              text.size(),
              static_cast<size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  exp::RunScale scale = exp::ScaleFromEnv();
  bench::PrintHeader("Table IX",
                     "stedb_serve load test: latency percentiles + QPS "
                     "per endpoint",
                     scale);

  std::string connect_host;
  int connect_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      const std::string hp = argv[i] + 10;
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return 2;
      }
      connect_host = hp.substr(0, colon);
      connect_port = std::atoi(hp.c_str() + colon + 1);
    }
  }

  const size_t requests = scale == exp::RunScale::kSmoke ? 2000
                          : scale == exp::RunScale::kPaper ? 50000
                                                           : 10000;
  const int threads = 4;

  // Target: external server, or an in-process service over a freshly
  // trained smoke store.
  std::unique_ptr<serve::EmbeddingService> service;
  std::string host = connect_host;
  int port = connect_port;
  std::string store_dir;
  if (connect_host.empty()) {
    exp::MethodConfig mcfg = exp::MethodConfig::ForScale(scale);
    data::GeneratedDataset ds =
        bench::MakeDatasetOrDie("hepatitis", mcfg.data_scale);
    fwd::ForwardConfig fcfg = mcfg.forward;
    fcfg.seed = 7;
    auto emb = fwd::ForwardEmbedder::TrainStatic(
        &ds.database, ds.pred_rel, exp::LabelExclusion(ds), fcfg);
    if (!emb.ok()) {
      std::fprintf(stderr, "train: %s\n", emb.status().ToString().c_str());
      return 1;
    }
    store_dir = (std::filesystem::temp_directory_path() /
                 "stedb_serve_bench_store")
                    .string();
    std::filesystem::remove_all(store_dir);
    if (!fwd::CreateForwardStore(store_dir, emb.value().model()).ok()) {
      return 1;
    }
    auto opened = serve::EmbeddingService::Open(store_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    service = std::move(opened).value();
    if (!service->Start("127.0.0.1", 0).ok()) return 1;
    host = "127.0.0.1";
    port = service->port();
    std::printf("in-process stedb_serve on %s:%d (%zu requests, %d "
                "client threads)\n\n",
                host.c_str(), port, requests, threads);
  } else {
    std::printf("external stedb_serve at %s:%d (%zu requests, %d client "
                "threads)\n\n",
                host.c_str(), port, requests, threads);
  }

  // Seed fact ids from the server itself — works identically for the
  // in-process and --connect modes.
  std::vector<db::FactId> facts;
  {
    auto conn = serve::HttpClient::Connect(host, port);
    if (!conn.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   conn.status().ToString().c_str());
      return 1;
    }
    auto resp = conn.value().Get("/facts");
    if (!resp.ok() || resp.value().status != 200) {
      std::fprintf(stderr, "/facts failed\n");
      return 1;
    }
    facts = serve::ParseFactList(resp.value().body, 1u << 20);
    // First integer is the "count" field; drop it, keep the id array.
    if (!facts.empty()) facts.erase(facts.begin());
  }
  if (facts.empty()) {
    std::fprintf(stderr, "server serves no facts\n");
    return 1;
  }

  std::vector<EndpointNumbers> rows;
  rows.push_back(RunLoad("/embed", host, port, threads, requests,
                         [&](size_t i) {
                           return "/embed?fact=" +
                                  std::to_string(facts[i % facts.size()]) +
                                  "&raw=1";
                         }));
  rows.push_back(RunLoad(
      "/embed_batch", host, port, threads, requests / 8, [&](size_t i) {
        std::string target = "/embed_batch?raw=1&facts=";
        for (size_t j = 0; j < 32; ++j) {
          if (j > 0) target += "%2C";
          target += std::to_string(facts[(i * 32 + j) % facts.size()]);
        }
        return target;
      }));
  rows.push_back(RunLoad("/topk", host, port, threads, requests / 8,
                         [&](size_t i) {
                           return "/topk?fact=" +
                                  std::to_string(facts[i % facts.size()]) +
                                  "&k=10";
                         }));

  exp::TableWriter table({"Endpoint", "requests", "fail", "p50", "p99",
                          "QPS"});
  bool ok = true;
  for (const EndpointNumbers& r : rows) {
    char p50[32], p99[32], qps[32];
    std::snprintf(p50, sizeof(p50), "%.0fus", r.p50_us);
    std::snprintf(p99, sizeof(p99), "%.0fus", r.p99_us);
    std::snprintf(qps, sizeof(qps), "%.0f", r.qps);
    table.AddRow({r.endpoint, std::to_string(r.requests),
                  std::to_string(r.failures), p50, p99, qps});
    if (r.failures > 0 || r.qps <= 0.0) ok = false;
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(loopback HTTP; topk is the brute-force φᵀψφ scan over "
              "%zu facts)\n",
              facts.size());

  EmitServeJson(rows, threads, facts.size());
  if (!ScrapeAndCheckMetrics(host, port)) ok = false;
  if (service != nullptr) service->Stop();
  service.reset();
  if (!store_dir.empty()) std::filesystem::remove_all(store_dir);
  if (!ok) {
    std::fprintf(stderr, "FAILED: request failures or zero QPS\n");
    return 1;
  }
  return 0;
}
