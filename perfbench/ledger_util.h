// Building blocks of the end-to-end ledger (perfbench/ledger.cc) that the
// self-test (perfbench/selftest.cc) exercises on their own: percentile
// selection, latency logs that count failures as over every limit, the
// obs counter-delta helper, response checks and the span recorder.
//
// Everything here sits on the caller side of the library: it reads the
// process-global obs::Registry and the public HTTP/serving types, and adds
// nothing under src/.
#ifndef STEDB_PERFBENCH_LEDGER_UTIL_H_
#define STEDB_PERFBENCH_LEDGER_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/serving.h"
#include "src/common/span.h"
#include "src/obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- Percentiles --------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]).
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly above the nearest-rank q-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return n - 1 - std::min(idx, n - 1);
}

/// A tail percentile is reported only with at least this many samples
/// beyond it.
constexpr size_t kMinSamplesBeyond = 10;

/// The highest of p99.9 / p99 / p90 / p75 / p50 that has at least
/// kMinSamplesBeyond samples beyond it among n samples; 0 when none has.
inline double HighestTailPercentile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.75, 0.5}) {
    if (SamplesBeyond(n, q) >= kMinSamplesBeyond) return q;
  }
  return 0.0;
}

/// Latencies of one operation kind. A failed operation is recorded as
/// +inf: it misses any latency limit, so it can only push percentiles up,
/// never make a run look fast.
class LatencyLog {
 public:
  void Ok(double v) { samples_.push_back(v); }
  void Fail() {
    samples_.push_back(std::numeric_limits<double>::infinity());
    ++failed_;
  }
  void Append(const LatencyLog& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    failed_ += other.failed_;
  }
  size_t count() const { return samples_.size(); }
  size_t failed() const { return failed_; }
  /// Nearest-rank percentile over all samples, failures included.
  double Percentile(double q) const {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return NearestRank(sorted, q);
  }
  /// Whether the q-th percentile (one of HighestTailPercentile's
  /// candidates) may be reported: it is at or below the highest one with
  /// kMinSamplesBeyond samples beyond it.
  bool Supports(double q) const {
    return HighestTailPercentile(samples_.size()) >= q;
  }
  double Mean() const {
    if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
    double sum = 0.0;
    for (double v : samples_) sum += v;
    return sum / static_cast<double>(samples_.size());
  }

 private:
  std::vector<double> samples_;
  size_t failed_ = 0;
};

// ---- Counter deltas over the program's own obs registry ----------------

/// Every sample line of a Prometheus text exposition, keyed by its series
/// identity as rendered (`name{k="v"}`, histogram `_sum`/`_count`/`_bucket`
/// lines included).
using CounterSnapshot = std::map<std::string, double>;

inline CounterSnapshot ParseExposition(const std::string& text) {
  CounterSnapshot out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// Snapshot of every family in the process-global registry.
inline CounterSnapshot SnapshotRegistry() {
  std::string text;
  stedb::obs::Registry::Global().Render(&text);
  return ParseExposition(text);
}

/// Difference of registry snapshots taken around one phase, or the sum of
/// such differences over several phases.
class CounterDelta {
 public:
  CounterDelta() = default;
  CounterDelta(const CounterSnapshot& before, const CounterSnapshot& after) {
    for (const auto& [key, v] : after) {
      auto it = before.find(key);
      delta_[key] = v - (it == before.end() ? 0.0 : it->second);
    }
  }

  /// Adds another phase's differences.
  CounterDelta& operator+=(const CounterDelta& other) {
    for (const auto& [key, v] : other.delta_) delta_[key] += v;
    return *this;
  }

  /// Change of one series (`labels` as rendered, e.g.
  /// `{endpoint="embed"}`); a series born during the phase counts from 0.
  double Get(const std::string& name, const std::string& labels = "") const {
    auto it = delta_.find(name + labels);
    return it == delta_.end() ? 0.0 : it->second;
  }
  /// Mean observation of a histogram over the phase: delta sum / delta
  /// count (NaN when nothing was observed).
  double HistMean(const std::string& name,
                  const std::string& labels = "") const {
    const double n = Get(name + "_count", labels);
    if (n <= 0.0) return std::numeric_limits<double>::quiet_NaN();
    return Get(name + "_sum", labels) / n;
  }
  double HistCount(const std::string& name,
                   const std::string& labels = "") const {
    return Get(name + "_count", labels);
  }

 private:
  CounterSnapshot delta_;
};

/// Scoped phase: snapshots the registry at construction and on Finish().
class PhaseCounters {
 public:
  PhaseCounters() : before_(SnapshotRegistry()) {}
  CounterDelta Finish() const { return CounterDelta(before_, SnapshotRegistry()); }

 private:
  CounterSnapshot before_;
};

// ---- Response checks ----------------------------------------------------

/// Whether a raw (`raw=1`) /embed or /embed_batch body carries exactly the
/// little-endian doubles of `expected`.
inline bool RawBytesEqual(const std::string& body, const double* expected,
                          size_t count) {
  return body.size() == count * sizeof(double) &&
         std::memcmp(body.data(), expected, body.size()) == 0;
}

/// The JSON body the service renders for a /topk or /similar answer:
/// `{"query":Q,<header>,"results":[{"fact":F,"score":S},...]}\n` with
/// round-trip %.17g scores. `header` is e.g. `"target":0` or
/// `"approx":true`.
inline std::string ScoredBody(
    stedb::db::FactId query, const std::string& header,
    const std::vector<stedb::api::ServingSession::Scored>& results) {
  std::string body = "{\"query\":" + std::to_string(query) + "," + header +
                     ",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) body.push_back(',');
    char score[32];
    std::snprintf(score, sizeof(score), "%.17g", results[i].score);
    body += "{\"fact\":" + std::to_string(results[i].fact) +
            ",\"score\":" + score + "}";
  }
  body += "]}\n";
  return body;
}

using Scored = stedb::api::ServingSession::Scored;

/// The (fact, score) rows of a /topk or /similar JSON body.
inline std::vector<Scored> ParseScored(const std::string& body) {
  std::vector<Scored> out;
  const std::string fact_key = "{\"fact\":";
  const std::string score_key = "\"score\":";
  for (size_t pos = body.find(fact_key); pos != std::string::npos;
       pos = body.find(fact_key, pos)) {
    pos += fact_key.size();
    const size_t score = body.find(score_key, pos);
    if (score == std::string::npos) break;
    Scored s;
    s.fact = static_cast<stedb::db::FactId>(
        std::strtoll(body.c_str() + pos, nullptr, 10));
    s.score = std::strtod(body.c_str() + score + score_key.size(), nullptr);
    out.push_back(s);
    pos = score;
  }
  return out;
}

/// Whether `body`, the service's /topk or /similar answer to `query`, is
/// the answer a session over the snapshot and the WAL gives.
///
/// `snapshot` is the direct call's top k over the snapshot alone.
/// WAL-resident facts (ids from `first_wal_fact` on) are scored against
/// the query by `score_wal` (nullopt: cannot be scored) and merged in.
/// The merged ones are every WAL fact the body names, and every one in
/// `served_before`: facts the service had already served to another
/// connection before this request was sent, so its session held them and
/// must rank them. A service that leaves such a fact out of an answer its
/// score belongs in fails the check. Ranking is the session's: score
/// descending, fact ascending.
inline bool ScoredAnswerMatches(
    const std::string& body, stedb::db::FactId query,
    const std::string& header, std::vector<Scored> snapshot,
    const std::vector<stedb::db::FactId>& served_before,
    stedb::db::FactId first_wal_fact, size_t k,
    const std::function<std::optional<double>(stedb::db::FactId)>&
        score_wal) {
  std::set<stedb::db::FactId> wal(served_before.begin(), served_before.end());
  for (const Scored& row : ParseScored(body)) {
    if (row.fact >= first_wal_fact) wal.insert(row.fact);
  }
  for (stedb::db::FactId f : wal) {
    const std::optional<double> score = score_wal(f);
    if (!score.has_value()) return false;
    snapshot.push_back({f, *score});
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const Scored& a, const Scored& b) {
              return a.score != b.score ? a.score > b.score : a.fact < b.fact;
            });
  if (snapshot.size() > k) snapshot.resize(k);
  return ScoredBody(query, header, snapshot) == body;
}

// ---- Spans ----------------------------------------------------------------

/// One recorded interval at a layer boundary, measured from the
/// benchmark's side of the call.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;   ///< shared by the spans of one request / arrival
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span sink. Disabled, ScopedSpan reads no clock and records
/// nothing, so the untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    // A traced run records ~10^5 spans; growing the buffer mid-run would
    // add copy pauses to the timings being traced.
    if (enabled_) spans_.reserve(1 << 18);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++last_id_;
  }
  void Record(SpanRecord rec) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(rec));
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// RAII span. The parent is the innermost open span on the same thread,
/// and the trace id is inherited from it unless given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t trace = 0)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    rec_.name = name;
    rec_.id = tracer_.NextId();
    rec_.parent = Current() != nullptr ? Current()->rec_.id : 0;
    rec_.trace = trace != 0 ? trace
                 : Current() != nullptr ? Current()->rec_.trace
                                        : rec_.id;
    outer_ = Current();
    Current() = this;
    rec_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!tracer_.enabled()) return;
    rec_.end_ns = NowNs();
    Current() = outer_;
    tracer_.Record(std::move(rec_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static ScopedSpan*& Current() {
    thread_local ScopedSpan* current = nullptr;
    return current;
  }
  Tracer& tracer_;
  SpanRecord rec_;
  ScopedSpan* outer_ = nullptr;
};

/// Self time per span name in seconds: each span's duration minus the
/// part of its interval that its children cover.
inline std::map<std::string, double> SelfSeconds(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = s.start_ns;  // everything before lo is accounted for
      for (const auto& [b, e] : iv) {
        const int64_t begin = std::max(b, lo);
        const int64_t end = std::min(e, s.end_ns);
        if (end > begin) {
          covered += end - begin;
          lo = end;
        }
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

/// Writes spans as JSON lines; false when the file cannot be written.
inline bool WriteSpans(const std::vector<SpanRecord>& spans,
                       const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // STEDB_PERFBENCH_LEDGER_UTIL_H_
