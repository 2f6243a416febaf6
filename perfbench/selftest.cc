// Self-test of the ledger's measuring code: percentile selection, failure
// accounting on a corrupted HTTP response, the /topk and /similar answer
// check, the counter-delta helper and span self time. Exits 0 when every check holds.
//   .bench_build/selftest
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/ledger_util.h"
#include "src/serve/http.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void PercentileHelper() {
  using perfbench::HighestTailPercentile;
  Expect(HighestTailPercentile(10) == 0.0, "10 samples: no percentile has 10 beyond it");
  Expect(HighestTailPercentile(20) == 0.5, "20 samples: p50 is the highest");
  Expect(HighestTailPercentile(99) == 0.75, "99 samples: p90 has only 9 beyond it");
  Expect(HighestTailPercentile(100) == 0.9, "100 samples: p90");
  Expect(HighestTailPercentile(999) == 0.9, "999 samples: p99 has only 9 beyond it");
  Expect(HighestTailPercentile(1000) == 0.99, "1000 samples: p99");
  Expect(HighestTailPercentile(10000) == 0.999, "10000 samples: p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(perfbench::NearestRank(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  Expect(perfbench::NearestRank(v, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  Expect(perfbench::SamplesBeyond(100, 0.9) == 10, "10 samples lie beyond p90 of 100");

  perfbench::LatencyLog log;
  for (int i = 0; i < 99; ++i) log.Ok(1.0);
  Expect(!log.Supports(0.9), "a p90 over 99 samples is refused");
  log.Ok(1.0);
  Expect(log.Supports(0.9) && !log.Supports(0.99), "100 samples support p90, not p99");
}

void CorruptedResponse() {
  // A server whose /embed answer differs from the expected vector in one
  // bit, fetched the way the ledger's readers fetch.
  const std::vector<double> expected = {1.0, -2.5, 3.25, 0.125};
  std::string corrupted(reinterpret_cast<const char*>(expected.data()),
                        expected.size() * sizeof(double));
  corrupted[5] ^= 0x01;
  stedb::serve::HttpServer server;
  server.Handle("/embed", [&](const stedb::serve::HttpRequest&) {
    return stedb::serve::HttpResponse{200, "application/octet-stream", corrupted};
  });
  Expect(server.Start("127.0.0.1", 0, 1).ok(), "test server starts");
  auto client = stedb::serve::HttpClient::Connect("127.0.0.1", server.port());
  Expect(client.ok(), "client connects");
  if (!client.ok()) return;

  perfbench::LatencyLog log;
  for (int i = 0; i < 20; ++i) log.Ok(100.0);  // slow but correct answers
  const auto t0 = perfbench::Clock::now();
  auto resp = client.value().Get("/embed?raw=1&fact=1");
  const double us = perfbench::MicrosBetween(t0, perfbench::Clock::now());
  const bool ok = resp.ok() && resp.value().status == 200 &&
                  perfbench::RawBytesEqual(resp.value().body, expected.data(),
                                           expected.size());
  if (ok) {
    log.Ok(us);
  } else {
    log.Fail();
  }
  server.Stop();
  Expect(!ok, "a one-bit corruption fails the byte check");
  Expect(log.failed() == 1, "the corrupted response is counted as failed");
  Expect(std::isinf(log.Percentile(1.0)) && log.Percentile(0.5) == 100.0,
         "the failure sits above every latency, not below the slow ones");

  // The intact payload passes the same check.
  std::string intact(reinterpret_cast<const char*>(expected.data()),
                     expected.size() * sizeof(double));
  Expect(perfbench::RawBytesEqual(intact, expected.data(), expected.size()),
         "the intact payload passes the byte check");
}

void DroppedWalFact() {
  // A snapshot answer of k = 3 and two WAL facts (ids from 100 on): 101
  // ranks first, 102 below the cut.
  using perfbench::Scored;
  const std::vector<Scored> snapshot = {{7, 0.9}, {8, 0.8}, {9, 0.7}};
  const auto score_wal = [](stedb::db::FactId f) -> std::optional<double> {
    if (f == 101) return 0.95;
    if (f == 102) return 0.1;
    return std::nullopt;
  };
  const auto matches = [&](const std::vector<Scored>& answer,
                           const std::vector<stedb::db::FactId>& served_before) {
    return perfbench::ScoredAnswerMatches(
        perfbench::ScoredBody(1, "\"target\":0", answer), 1, "\"target\":0",
        snapshot, served_before, 100, 3, score_wal);
  };
  const std::vector<Scored> with_wal = {{101, 0.95}, {7, 0.9}, {8, 0.8}};
  Expect(matches(with_wal, {101}), "an answer that ranks a served WAL fact passes");
  Expect(!matches(snapshot, {101}),
         "an answer that drops a WAL fact served before the request fails");
  Expect(matches(snapshot, {}),
         "a WAL fact not yet served to anyone may be missing");
  Expect(matches(snapshot, {102}),
         "a served WAL fact that scores below the cut may be missing");
  Expect(!matches({{101, 0.5}, {7, 0.9}, {8, 0.8}}, {}),
         "a WAL fact with a wrong score or rank fails");
}

void CounterDelta() {
  const perfbench::CounterSnapshot before = perfbench::ParseExposition(
      "# HELP x_total help\n# TYPE x_total counter\n"
      "x_total{result=\"hit\"} 5\n"
      "lat_seconds_sum{endpoint=\"embed\"} 1.5\n"
      "lat_seconds_count{endpoint=\"embed\"} 10\n");
  const perfbench::CounterSnapshot after = perfbench::ParseExposition(
      "x_total{result=\"hit\"} 12\n"
      "lat_seconds_sum{endpoint=\"embed\"} 2.5\n"
      "lat_seconds_count{endpoint=\"embed\"} 20\n"
      "new_total 3\n");
  const perfbench::CounterDelta d(before, after);
  Expect(d.Get("x_total", "{result=\"hit\"}") == 7.0, "counter delta");
  Expect(d.Get("new_total") == 3.0, "a series born in the phase counts from 0");
  Expect(std::fabs(d.HistMean("lat_seconds", "{endpoint=\"embed\"}") - 0.1) < 1e-12,
         "histogram mean over the phase");
  perfbench::CounterDelta two = d;
  two += d;
  Expect(two.Get("x_total", "{result=\"hit\"}") == 14.0 &&
             std::fabs(two.HistMean("lat_seconds", "{endpoint=\"embed\"}") - 0.1) < 1e-12,
         "deltas of several phases add up");

  auto& reg = stedb::obs::Registry::Global();
  stedb::obs::Counter& c = reg.GetCounter("perfbench_selftest_total", "self-test");
  const perfbench::PhaseCounters phase;
  c.Inc();
  c.Inc();
  Expect(phase.Finish().Get("perfbench_selftest_total") == 2.0,
         "registry snapshot delta sees the program's own counter");
}

void SelfTime() {
  std::vector<perfbench::SpanRecord> spans = {
      {"arrival", 1, 0, 1, 0, 100},
      {"db.replay", 2, 1, 1, 0, 20},
      {"extend", 3, 1, 1, 20, 90},
      {"store.append", 4, 3, 1, 50, 60},
      {"store.append", 5, 3, 1, 55, 70},  // overlaps its sibling
  };
  auto self = perfbench::SelfSeconds(spans);
  Expect(std::fabs(self["arrival"] - 10e-9) < 1e-15, "parent self time excludes children");
  Expect(std::fabs(self["extend"] - 50e-9) < 1e-15, "overlapping children are counted once");
  Expect(std::fabs(self["store.append"] - 25e-9) < 1e-15, "leaf self time is its duration");
}

}  // namespace

int main() {
  PercentileHelper();
  CorruptedResponse();
  DroppedWalFact();
  CounterDelta();
  SelfTime();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
