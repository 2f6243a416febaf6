// The end-to-end ledger: the paper's dynamic loop and HTTP serving, run
// through the library's public APIs, checked, and timed from the outside.
//
//   ledger --workload serve_read|serve_mixed --seed N --seconds S
//          --trace 0|1 --workdir DIR [--trace-out FILE]
//   ledger --list-metrics
//
// Every run of either workload executes the whole loop once:
//   setup    (3x, median reported): generate `genes`, partition it, train
//            a FoRWaRD model on `mutagenesis` for real psi matrices, build
//            the serving store (padded with clustered synthetic phi, HNSW
//            index on), start serve::EmbeddingService, warm up;
//   dynamic  FoRWaRD and Node2Vec, each on its own database copies: train
//            on F_old twice (the lower time is reported), replay the
//            held-out arrivals one batch at a time through each trained
//            copy, extend, journal every new phi through a group-commit
//            EmbeddingStore (each arrival reports its lower time),
//            classify the arrivals (paper Tables IV-VI);
//   serve    rounds of an open-loop read mix at a fixed rate over 2
//            keep-alive connections and a closed-loop phase for capacity,
//            and a freshness writer + prober.
// Every measured phase above runs through Steady(), the one rule for host
// noise: an attempt during which the host gave this machine's CPU time to
// other tenants is run again, within one budget per pass.
// The workloads differ only in when the writer runs: `serve_read` keeps
// it away from the reads (it runs in a phase of its own after them), and
// `serve_mixed` runs it beside the reads.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the workload runs twice (untraced, then traced
// with spans) and the metrics are the per-layer ones, preceded by self
// time per layer, a "where the time goes" table and the tracing overhead.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/ledger_util.h"
#include "src/ann/hnsw.h"
#include "src/api/serving.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/data/registry.h"
#include "src/exp/embedding_method.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/graph/bipartite_graph.h"
#include "src/graph/walker.h"
#include "src/ml/dataset.h"
#include "src/ml/svm.h"
#include "src/n2v/codec.h"
#include "src/n2v/node2vec.h"
#include "src/n2v/skipgram.h"
#include "src/n2v/vocab.h"
#include "src/serve/http.h"
#include "src/serve/service.h"
#include "src/store/embedding_store.h"
#include "src/store/stored_model.h"

using namespace stedb;
using perfbench::Clock;
using perfbench::CounterDelta;
using perfbench::LatencyLog;
using perfbench::MicrosBetween;
using perfbench::PhaseCounters;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

// ---- Fixed workload parameters (provenance: BENCHMARK.json's "why"
// lines quote the rates) ----------------------------------------------------

// Dynamic loop: `genes` at data scale 0.2 with 60% of the prediction
// tuples held out gives 104 arrivals, enough for a p90 with 10 samples
// beyond it. Each method trains and streams twice (see RunMethod). The
// data, partition and training seeds are fixed rather than drawn from
// --seed (only the downstream classifiers' are): across datasets
// new-tuple accuracy varies by a third of its median (Node2Vec 0.26-0.50
// over five seeds), which would hide any accuracy change a later change
// makes.
constexpr const char* kDynDataset = "genes";
constexpr double kDynScale = 0.2;
constexpr double kNewRatio = 0.6;
constexpr uint64_t kDynSeed = 1;
constexpr size_t kClassifiers = 16;
constexpr int kRepeats = 2;

// Serving store: psi from FoRWaRD on a small `mutagenesis`, phi padded
// with clustered synthetic vectors.
constexpr const char* kPsiDataset = "mutagenesis";
constexpr double kPsiScale = 0.02;
constexpr size_t kStoreFacts = 10000;
constexpr size_t kClusters = 64;
constexpr double kClusterNoise = 0.6;
constexpr db::FactId kBaseFact = 1000000;    // synthetic store facts
constexpr db::FactId kWriterFact = 2000000;  // facts the writer appends

constexpr int kSetupRepeats = 3;

// Load shape. Reader threads each own one keep-alive connection; the
// prober owns one more; the writer has none.
constexpr int kReadConnections = 2;
constexpr int kConnections = kReadConnections + 1;
constexpr int kGeneratorThreads = kReadConnections + 2;
// The open-loop rate: a fifth of serve_mixed's closed-loop capacity
// (~15000 req/s over the 2 connections on a quiet 4-core host) and an
// eighth of serve_read's. An open loop above capacity measures queue
// growth, not the request path. At 6000 req/s that happened whenever the
// host gave a quarter of this machine's CPU time to other tenants: the
// closed loop then managed 3800-5300 req/s, and embed_us_p50 rose from
// ~90 us to 25-43 ms. 3000 req/s stays below capacity even then.
constexpr double kReadRate = 3000.0;  // open-loop requests/s, all readers
// The writer rate is the lowest round figure that gives fresh_ms_p99 its
// 10 samples beyond it: 1000 appends inside the measuring windows (half
// of --seconds, 3 s at the default 6) need 333 appends/s, and the margin
// covers the Poisson count's spread (sd ~35 at 1200). It sets the WAL
// overlay that /similar and /topk scan exactly: ~2100 facts (~20% of
// the store) by the end of serve_mixed's rounds.
constexpr double kWriteRate = 400.0;  // writer appends/s (Poisson)
constexpr double kTopkShare = 0.01;
constexpr double kSimilarShare = 0.04;
constexpr double kBatchShare = 0.04;
constexpr size_t kBatchFacts = 32;
constexpr size_t kTopK = 10;
constexpr double kFreshDeadlineS = 1.0;
constexpr double kProbeRetryUs = 1000.0;
constexpr double kLateFlagUs = 100.0;
constexpr double kStealFlagPercent = 2.0;
constexpr size_t kRecallQueries = 200;
constexpr double kRecallGate = 0.95;

// Phase lengths as shares of --seconds. The reads run in kRounds rounds
// of (open loop, closed loop). /embed p50 and capacity are medians over
// the rounds, so a host that lends this machine's cores to other tenants
// for a moment moves one round, not the run's figure; the rarer requests
// pool the rounds (see RunServe).
constexpr uint64_t kRounds = 10;
constexpr double kOpenShare = 0.5;
constexpr double kClosedShare = 0.3;
constexpr double kFreshShare = 0.5;  // serve_read's writer-only phase
constexpr double kWarmupS = 0.5;
constexpr uint64_t kWarmupStream = 1000;  // request stream of the warm-up
// Steady(): a measured phase during which more than this share of all
// CPU time went to other tenants is run again, while the pass has spent
// less than kRerunBudgetS on such attempts. The budget keeps a run on a
// noisy host well inside its time limit (a quiet run takes ~30 s).
constexpr double kStealRerunPercent = 3.0;
constexpr double kRerunBudgetS = 15.0;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* layer = nullptr;  // unbounded end-to-end: its per-layer name
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"fwd_train_s", "s"},
    {"fwd_new_acc", "ratio"},
    {"n2v_new_acc", "ratio"},
    {"fresh_ms_p50", "ms"},
};

// End-to-end figures every run measures and prints, but whose spread
// across seeds on a shared 4-core host exceeded 0.25 of the median, the
// largest regression bound the benchmark may set, in a ten-seed set:
// fwd_extend_ms_* and read_us_p99 reached 0.21-0.54; the serving figures
// stayed within 0.17 while the host was quiet but reached 0.26-0.52 when
// some runs shared it with busy neighbours; and in sets at 1-12% host
// steal, n2v_train_s reached 0.59, n2v_extend_ms_* 0.36-0.69 and
// fresh_ms_p99 0.30. They are reported with the per-layer metrics, which
// carry no bound, under their `layer` names.
constexpr MetricSpec kUnboundedEndToEnd[] = {
    {"n2v_train_s", "s", "n2v.train_s"},
    {"fwd_extend_ms_p50", "ms", "fwd.extend_ms_p50"},
    {"fwd_extend_ms_p90", "ms", "fwd.extend_ms_p90"},
    {"n2v_extend_ms_p50", "ms", "n2v.extend_ms_p50"},
    {"n2v_extend_ms_p90", "ms", "n2v.extend_ms_p90"},
    {"embed_us_p50", "us", "serve.embed_us_p50"},
    {"similar_us_p50", "us", "serve.similar_us_p50"},
    {"topk_ms_p50", "ms", "serve.topk_ms_p50"},
    {"read_us_p99", "us", "serve.read_us_p99"},
    {"read_qps", "req/s", "serve.read_qps"},
    {"fresh_ms_p99", "ms", "serve.fresh_ms_p99"},
};

constexpr MetricSpec kPerLayer[] = {
    {"n2v.train_s", "s"},
    {"fwd.extend_ms_p50", "ms"},
    {"fwd.extend_ms_p90", "ms"},
    {"n2v.extend_ms_p50", "ms"},
    {"n2v.extend_ms_p90", "ms"},
    {"serve.embed_us_p50", "us"},
    {"serve.similar_us_p50", "us"},
    {"serve.topk_ms_p50", "ms"},
    {"serve.read_us_p99", "us"},
    {"serve.read_qps", "req/s"},
    {"serve.fresh_ms_p99", "ms"},
    {"exp.partition_ms", "ms"},
    {"db.replay_us_p50", "us"},
    {"fwd.epoch_s_mean", "s"},
    {"fwd.dist_cache_hit_ratio", "ratio"},
    {"fwd.extend_compute_ms_p50", "ms"},
    {"graph.walks_s", "s"},
    {"n2v.sgns_s", "s"},
    {"n2v.train_residual_s", "s"},
    {"n2v.extend_compute_ms_p50", "ms"},
    {"parallel.fwd_train.fanouts", "count"},
    {"parallel.fwd_train.tasks_per_fanout", "count"},
    {"parallel.fwd_extend.fanouts", "count"},
    {"parallel.fwd_extend.tasks_per_fanout", "count"},
    {"parallel.n2v_train.fanouts", "count"},
    {"parallel.n2v_train.tasks_per_fanout", "count"},
    {"parallel.n2v_extend.fanouts", "count"},
    {"parallel.n2v_extend.tasks_per_fanout", "count"},
    {"store.sink_append_us_p50", "us"},
    {"store.sink_append_us_p99", "us"},
    {"store.sink_fsyncs_per_append", "ratio"},
    {"store.sink_wal_bytes_per_append", "bytes"},
    {"store.sink_group_commit_records_mean", "count"},
    {"store.append_us_p50", "us"},
    {"store.append_us_p99", "us"},
    {"store.fsyncs_per_append", "ratio"},
    {"store.wal_bytes_per_append", "bytes"},
    {"store.group_commit_records_mean", "count"},
    {"store.create_s", "s"},
    {"ann.build_s", "s"},
    {"ann.visited_nodes_mean", "count"},
    {"ann.recall_at_10", "ratio"},
    {"api.embed_us_p50", "us"},
    {"api.similar_us_p50", "us"},
    {"api.topk_ms_p50", "ms"},
    {"api.poll_us_mean", "us"},
    {"api.polls", "count"},
    {"api.wal_records_applied", "count"},
    {"api.wal_lag_records_max", "count"},
    {"serve.embed_handler_us_mean", "us"},
    {"serve.similar_handler_us_mean", "us"},
    {"serve.topk_handler_us_mean", "us"},
    {"serve.embed_transport_us_mean", "us"},
    {"serve.coalesce_records_mean", "count"},
    {"gen.late_us_p99", "us"},
    {"gen.sent", "count"},
    {"gen.failed", "count"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

// ---- Results of one pass ----------------------------------------------------

struct Value {
  double value = 0.0;
  size_t samples = 0;
};

/// Everything one pass of a workload measured, plus the operation and
/// check accounting that decides `correct`.
struct Ledger {
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layer;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  double rerun_s = 0.0;  // spent on attempts Steady() ran again

  /// One output check: counted as an attempted operation, and as failed
  /// with its description when it does not hold.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void Ops(size_t attempted_ops, size_t failed_ops, const char* what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) {
      failures.push_back(std::to_string(failed_ops) + " failed " + what);
    }
  }
  /// A named percentile of `log`; a percentile without kMinSamplesBeyond
  /// samples beyond it fails the run instead of being reported under a
  /// name it does not earn.
  void Tail(std::map<std::string, Value>& into, const std::string& name,
            const LatencyLog& log, double q, double scale) {
    Check(log.Supports(q), name + ": " + std::to_string(log.count()) +
                               " samples are too few for this percentile");
    into[name] = {log.Percentile(q) * scale, log.count()};
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return perfbench::NearestRank(v, 0.5);
}

la::Vector RandomPoint(Rng& rng, const la::Vector& center, double noise) {
  la::Vector v(center.size());
  for (size_t d = 0; d < v.size(); ++d) {
    v[d] = center[d] + rng.NextGaussian(0.0, noise);
  }
  return v;
}

void SetTightTimerSlack() {
  // The writer's append times and the prober's retries come from
  // sleeps; the default 50us timer slack would be charged to every
  // append as freshness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

/// CPU time the host gave to other tenants (the `steal` column of
/// /proc/stat) and all CPU time, in ticks; zeros where unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user).
  double v = 0.0;
  for (int i = 0; i < 8 && (stat >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of all CPU time between two readings that went to other tenants.
double StealPercent(const CpuTicks& before, const CpuTicks& after) {
  return after.total > before.total
             ? 100.0 * (after.steal - before.steal) / (after.total - before.total)
             : 0.0;
}

/// The ledger's one rule for host noise. A shared host can run other
/// tenants on this machine's cores for seconds at a time, and a phase
/// measured then describes the neighbours, not the program. Every measured
/// phase (a setup, a training, a stream pass, a read round, a freshness
/// window) runs through here: an attempt during which more than
/// kStealRerunPercent of all CPU time was stolen is dropped and run again,
/// while the pass has spent less than kRerunBudgetS on dropped attempts.
/// `drop` gets each dropped result, so its operations are still counted
/// and checked. Returns the kept attempt's result.
template <typename Phase, typename Drop>
auto Steady(Ledger& ledger, const std::string& what, Phase&& phase,
            Drop&& drop) {
  while (true) {
    const CpuTicks before = ReadCpuTicks();
    Timer t;
    auto result = phase();
    const double seconds = t.ElapsedSeconds();
    const double steal = StealPercent(before, ReadCpuTicks());
    if (steal <= kStealRerunPercent || ledger.rerun_s + seconds > kRerunBudgetS) {
      return result;
    }
    ledger.rerun_s += seconds;
    char line[160];
    std::snprintf(line, sizeof(line), "%s: run again, %.1f%% host steal",
                  what.c_str(), steal);
    ledger.notes.push_back(line);
    drop(result);
  }
}

exp::MethodConfig DynConfig(uint64_t seed) {
  exp::MethodConfig cfg = exp::MethodConfig::ForScale(exp::RunScale::kDefault);
  cfg.forward.seed = seed;
  cfg.node2vec.seed = seed;
  return cfg;
}

store::StoreOptions GroupCommitOptions() {
  store::StoreOptions o;
  o.sync_every_append = true;
  o.group_commit_usec = 5000;
  o.group_commit_bytes = 64 * 1024;
  return o;
}

// ---- Setup ---------------------------------------------------------------

/// The serving side: writer store, the service over its directory, the
/// benchmark's own oracle session and the client connections. Members are
/// declared so that destruction stops clients, then the service (whose
/// ticker calls the tick hook), before the store the hook touches.
struct ServeRig {
  std::mutex writer_mu;
  std::unique_ptr<store::EmbeddingStore> store;  // guarded by writer_mu
  std::optional<api::ServingSession> oracle;
  std::unique_ptr<serve::EmbeddingService> service;
  std::vector<serve::HttpClient> readers;
  std::optional<serve::HttpClient> prober;
  std::vector<db::FactId> base_facts;
  std::vector<la::Vector> centers;  // of the synthetic clusters
  std::string dir;
};

struct Setup {
  explicit Setup(data::GeneratedDataset generated)
      : ds(std::move(generated)), db_old(ds.database) {}

  data::GeneratedDataset ds;
  exp::DynamicPartition part;
  db::Database db_old;  // F_old: the database after the partition
  std::unique_ptr<ServeRig> rig;
  double seconds = 0.0;
  double partition_ms = 0.0;
  double store_create_s = 0.0;
  double ann_build_s = 0.0;
};

Result<std::string> Fetch(serve::HttpClient& client, const std::string& target) {
  auto resp = client.Get(target);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) {
    return Status::Internal("HTTP " + std::to_string(resp.value().status) +
                            " for " + target);
  }
  return std::move(resp.value().body);
}

Result<std::unique_ptr<Setup>> DoSetup(uint64_t seed, const std::string& dir,
                                       Tracer& tracer) {
  ScopedSpan span(tracer, "setup");
  Timer total;
  std::unique_ptr<Setup> s;
  {
    ScopedSpan gen(tracer, "data.generate");
    data::GenConfig g;
    g.seed = kDynSeed;
    g.scale = kDynScale;
    STEDB_ASSIGN_OR_RETURN(data::GeneratedDataset ds,
                           data::MakeDataset(kDynDataset, g));
    s = std::make_unique<Setup>(std::move(ds));
  }
  {
    ScopedSpan part(tracer, "exp.partition");
    Timer t;
    Rng rng = Rng(kDynSeed).Fork(1);
    STEDB_ASSIGN_OR_RETURN(
        s->part, exp::PartitionDynamic(s->db_old, s->ds.pred_rel,
                                       s->ds.pred_attr, kNewRatio, rng));
    s->partition_ms = t.ElapsedSeconds() * 1e3;
  }

  auto rig = std::make_unique<ServeRig>();
  rig->dir = dir;
  {
    std::unique_ptr<fwd::ForwardStoredModel> model;
    {
      ScopedSpan psi(tracer, "fwd.train_psi_source");
      data::GenConfig g;
      g.seed = seed;
      g.scale = kPsiScale;
      STEDB_ASSIGN_OR_RETURN(data::GeneratedDataset mds,
                             data::MakeDataset(kPsiDataset, g));
      exp::MethodConfig cfg = DynConfig(seed);
      STEDB_ASSIGN_OR_RETURN(
          fwd::ForwardEmbedder psi_source,
          fwd::ForwardEmbedder::TrainStatic(&mds.database, mds.pred_rel,
                                            exp::LabelExclusion(mds),
                                            cfg.forward));
      model = std::make_unique<fwd::ForwardStoredModel>(psi_source.model());
    }
    const size_t dim = model->dim();
    Rng rng = Rng(seed).Fork(2);
    std::vector<la::Vector>& centers = rig->centers;
    for (size_t c = 0; c < kClusters; ++c) {
      centers.push_back(RandomPoint(rng, la::Vector(dim, 0.0), 1.0));
    }
    for (size_t i = 0; i < kStoreFacts; ++i) {
      const auto f = kBaseFact + static_cast<db::FactId>(i);
      model->set_phi(f, RandomPoint(rng, centers[i % kClusters], kClusterNoise));
      rig->base_facts.push_back(f);
    }
    store::StoreOptions options = GroupCommitOptions();
    options.build_ann_index = true;
    std::filesystem::remove_all(dir);
    ScopedSpan create(tracer, "store.create");
    PhaseCounters counters;
    Timer t;
    STEDB_ASSIGN_OR_RETURN(
        store::EmbeddingStore created,
        store::EmbeddingStore::Create(dir, "forward", std::move(model),
                                      options));
    s->store_create_s = t.ElapsedSeconds();
    s->ann_build_s =
        counters.Finish().Get("stedb_store_ann_build_seconds_sum");
    rig->store = std::make_unique<store::EmbeddingStore>(std::move(created));
  }
  {
    ScopedSpan start(tracer, "serve.start");
    STEDB_ASSIGN_OR_RETURN(api::ServingSession oracle,
                           api::ServingSession::Open(dir));
    rig->oracle.emplace(std::move(oracle));
    serve::ServeOptions options;
    // Each keep-alive connection pins an HTTP worker, so the server gets
    // exactly one worker per generator connection.
    options.http_threads = kConnections;
    ServeRig* raw = rig.get();
    options.tick_hook = [raw] {
      std::lock_guard<std::mutex> lk(raw->writer_mu);
      (void)raw->store->SyncIfDue();
    };
    STEDB_ASSIGN_OR_RETURN(rig->service,
                           serve::EmbeddingService::Open(dir, options));
    STEDB_RETURN_IF_ERROR(rig->service->Start("127.0.0.1", 0));
    for (int c = 0; c < kReadConnections; ++c) {
      STEDB_ASSIGN_OR_RETURN(
          serve::HttpClient client,
          serve::HttpClient::Connect("127.0.0.1", rig->service->port()));
      rig->readers.push_back(std::move(client));
    }
    STEDB_ASSIGN_OR_RETURN(
        serve::HttpClient prober,
        serve::HttpClient::Connect("127.0.0.1", rig->service->port()));
    rig->prober.emplace(std::move(prober));
  }
  {
    // Warm-up: every endpoint on every connection, so lazy registration,
    // first-touch page faults and the coalescer's first round stay out of
    // the timed phases.
    ScopedSpan warm(tracer, "serve.warmup");
    const std::string f = std::to_string(rig->base_facts[0]);
    for (serve::HttpClient& c : rig->readers) {
      for (size_t i = 0; i < 100; ++i) {
        const db::FactId w = rig->base_facts[i * 97 % kStoreFacts];
        STEDB_RETURN_IF_ERROR(
            Fetch(c, "/embed?raw=1&fact=" + std::to_string(w)).status());
      }
      STEDB_RETURN_IF_ERROR(Fetch(c, "/similar?k=10&fact=" + f).status());
      STEDB_RETURN_IF_ERROR(Fetch(c, "/topk?k=10&fact=" + f).status());
      STEDB_RETURN_IF_ERROR(
          Fetch(c, "/embed_batch?raw=1&facts=" + f + "," + f).status());
    }
    for (int i = 0; i < 20; ++i) {
      STEDB_RETURN_IF_ERROR(Fetch(*rig->prober, "/embed?raw=1&fact=" + f).status());
    }
  }
  s->rig = std::move(rig);
  s->seconds = total.ElapsedSeconds();
  return s;
}

// ---- Dynamic loop ----------------------------------------------------------

/// Per-arrival timings of one pass over the arrival stream, in arrival
/// order; +inf marks a failed arrival. Every arrival is one replayed
/// deletion batch: db replay, then ExtendToFacts with the journal sink
/// appending each new phi.
struct StreamTimes {
  std::vector<double> arrival_ms;
  std::vector<double> replay_us;
  std::vector<double> compute_ms;  // ExtendToFacts minus the sink's time
  std::vector<double> journal_ms;  // the sink's time
};

/// Per-arrival medians over the passes (the lower value of two): the
/// figures a method reports.
struct StreamLogs {
  LatencyLog arrival_ms;
  LatencyLog replay_us;
  LatencyLog compute_ms;
  LatencyLog journal_ms;
};

StreamLogs MedianPerArrival(const std::vector<StreamTimes>& passes) {
  StreamLogs out;
  const auto fold = [&](LatencyLog& log, std::vector<double> StreamTimes::*field) {
    for (size_t i = 0; i < (passes.front().*field).size(); ++i) {
      std::vector<double> v;
      for (const StreamTimes& p : passes) v.push_back((p.*field)[i]);
      const double m = Median(v);
      if (std::isfinite(m)) {
        log.Ok(m);
      } else {
        log.Fail();
      }
    }
  };
  fold(out.arrival_ms, &StreamTimes::arrival_ms);
  fold(out.replay_us, &StreamTimes::replay_us);
  fold(out.compute_ms, &StreamTimes::compute_ms);
  fold(out.journal_ms, &StreamTimes::journal_ms);
  return out;
}

/// The journal sink the extenders call: times each Append around the
/// store call and accumulates the time so extension compute can be told
/// apart from journaling.
store::EmbeddingSink TimedSink(store::EmbeddingStore* journal, Tracer& tracer,
                               LatencyLog* append_us, double* sink_seconds) {
  return [journal, &tracer, append_us, sink_seconds](db::FactId f,
                                                     const la::Vector& phi) {
    ScopedSpan span(tracer, "store.append");
    const auto t0 = Clock::now();
    Status st = journal->Append(f, phi);
    const double us = MicrosBetween(t0, Clock::now());
    *sink_seconds += us * 1e-6;
    if (st.ok()) {
      append_us->Ok(us);
    } else {
      append_us->Fail();
    }
    return st;
  };
}

/// Replays every arrival (inverse deletion order) through `extend`.
/// Returns the new prediction-relation facts.
template <typename ExtendFn>
std::vector<db::FactId> Stream(const std::string& method, Setup& s,
                               db::Database& database, ExtendFn extend,
                               double* sink_seconds, StreamTimes& times,
                               Ledger& ledger, Tracer& tracer) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<db::FactId> new_pred;
  size_t failed = 0;
  const std::string arrival_name = method + ".arrival";
  const std::string extend_name = method + ".extend";
  for (size_t b = s.part.batches.size(); b > 0; --b) {
    ScopedSpan arrival(tracer, arrival_name.c_str());
    const auto t0 = Clock::now();
    Result<std::vector<db::FactId>> ids = [&] {
      ScopedSpan replay(tracer, "db.replay");
      return exp::ReplayBatch(database, s.part.batches[b - 1]);
    }();
    const auto t1 = Clock::now();
    Status st = ids.status();
    *sink_seconds = 0.0;
    if (st.ok()) {
      ScopedSpan ext(tracer, extend_name.c_str());
      st = extend(ids.value());
    }
    const auto t2 = Clock::now();
    if (!st.ok()) {
      ++failed;
      for (auto* v : {&times.arrival_ms, &times.replay_us, &times.compute_ms,
                      &times.journal_ms}) {
        v->push_back(kInf);
      }
      continue;
    }
    times.arrival_ms.push_back(MicrosBetween(t0, t2) * 1e-3);
    times.replay_us.push_back(MicrosBetween(t0, t1));
    times.compute_ms.push_back(MicrosBetween(t1, t2) * 1e-3 - *sink_seconds * 1e3);
    times.journal_ms.push_back(*sink_seconds * 1e3);
    for (db::FactId f : ids.value()) {
      if (database.fact(f).rel == s.ds.pred_rel) new_pred.push_back(f);
    }
  }
  ledger.Ops(s.part.batches.size(), failed, (method + " arrivals").c_str());
  return new_pred;
}

/// phi rows of `facts` via a method's EmbedBatch, for bit comparisons.
template <typename Embedding>
Result<la::Matrix> Rows(const Embedding& emb,
                        const std::vector<db::FactId>& facts) {
  la::Matrix m(facts.size(), emb.dim());
  STEDB_RETURN_IF_ERROR(emb.EmbedBatch(facts, m));
  return m;
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.RowPtr(0), b.RowPtr(0),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Logistic classifiers fit on F_old's phi, mean accuracy on the
/// arrivals' prediction tuples (paper Table IV). One classifier's accuracy
/// swings with its initialisation (Node2Vec: 0.25-0.55 over five seeds on
/// the same embedding), so the mean over kClassifiers seeds is reported.
template <typename Embedding>
Result<double> NewTupleAccuracy(const Setup& s, const db::Database& database,
                                const Embedding& emb,
                                const std::vector<db::FactId>& new_pred,
                                uint64_t seed) {
  ml::LabelEncoder encoder;
  for (const std::string& name : s.ds.class_names) encoder.Encode(name);
  const auto label = [&](db::FactId f) {
    return encoder.Lookup(database.value(f, s.ds.pred_attr).ToString());
  };
  STEDB_ASSIGN_OR_RETURN(la::Matrix old_rows, Rows(emb, s.part.old_pred_facts));
  ml::FeatureDataset train;
  for (size_t i = 0; i < s.part.old_pred_facts.size(); ++i) {
    train.Add(old_rows.Row(i), label(s.part.old_pred_facts[i]));
  }
  train.num_classes = encoder.num_classes();
  if (new_pred.empty()) return Status::FailedPrecondition("no arrivals");
  STEDB_ASSIGN_OR_RETURN(la::Matrix new_rows, Rows(emb, new_pred));
  std::vector<Status> fits(kClassifiers);
  std::vector<double> accuracy(kClassifiers, 0.0);
  ParallelRunner runner;
  runner.ParallelFor(kClassifiers, [&](size_t k) {
    std::unique_ptr<ml::Classifier> clf = ml::MakeClassifier(
        ml::ClassifierKind::kLogistic, Rng(seed).Fork(100 + k).NextUint(1u << 30));
    fits[k] = clf->Fit(train);
    size_t hits = 0;
    for (size_t i = 0; i < new_pred.size(); ++i) {
      if (clf->Predict(new_rows.Row(i)) == label(new_pred[i])) ++hits;
    }
    accuracy[k] = static_cast<double>(hits) / static_cast<double>(new_pred.size());
  });
  for (const Status& st : fits) STEDB_RETURN_IF_ERROR(st);
  double sum = 0.0;
  for (double a : accuracy) sum += a;
  return sum / static_cast<double>(kClassifiers);
}

/// A cold EmbeddingStore::Open of `dir` must recover `live` bit-exactly.
bool RecoversExactly(const std::string& dir, const store::StoredModel& live) {
  auto reopened = store::EmbeddingStore::Open(dir);
  return reopened.ok() &&
         store::StoredModelMaxAbsDiff(reopened.value().model(), live) == 0.0;
}

/// Per-append store costs over a phase: `<prefix>append_us_p50/p99` from
/// the caller's timings around Append, the rest from the store families.
void StoreLayer(Ledger& ledger, const std::string& prefix,
                const LatencyLog& append_us, const CounterDelta& d) {
  const double appends = d.Get("stedb_store_appends_total");
  const auto per_append = [&](const char* family) {
    return appends > 0 ? d.Get(family) / appends : 0.0;
  };
  ledger.layer[prefix + "append_us_p50"] = {append_us.Percentile(0.5),
                                            append_us.count()};
  ledger.layer[prefix + "append_us_p99"] = {append_us.Percentile(0.99),
                                            append_us.count()};
  ledger.layer[prefix + "fsyncs_per_append"] = {
      per_append("stedb_store_fsyncs_total"), static_cast<size_t>(appends)};
  ledger.layer[prefix + "wal_bytes_per_append"] = {
      per_append("stedb_store_wal_bytes_total"), static_cast<size_t>(appends)};
  ledger.layer[prefix + "group_commit_records_mean"] = {
      d.HistMean("stedb_store_group_commit_batch_records"),
      static_cast<size_t>(d.HistCount("stedb_store_group_commit_batch_records"))};
}

void ParallelLayer(Ledger& ledger, const char* phase, const CounterDelta& d) {
  const double fanouts = d.Get("stedb_parallel_fanouts_total");
  const double tasks = d.Get("stedb_parallel_tasks_total");
  const std::string prefix = std::string("parallel.") + phase;
  ledger.layer[prefix + ".fanouts"] = {fanouts, 1};
  ledger.layer[prefix + ".tasks_per_fanout"] = {
      fanouts > 0 ? tasks / fanouts : 0.0, 1};
}

/// How RunMethod drives one embedding method.
template <typename Embedding>
struct Method {
  std::string name;  // metric and span prefix: "fwd" or "n2v"
  std::function<Result<Embedding>(const db::Database*)> train;
  std::function<Result<store::EmbeddingStore>(const std::string&, const Embedding&)>
      create_journal;
  /// The model a cold Open of the journal must reproduce.
  std::function<std::unique_ptr<store::StoredModel>(const Embedding&)> live;
  /// Facts whose phi the arrival stream must leave bit-unchanged.
  std::function<std::vector<db::FactId>(const Embedding&)> old_facts;
};

struct MethodResult {
  StreamLogs logs;
  double train_s = 0.0;
  CounterDelta train_counters;   // of the first training
  CounterDelta extend_counters;  // of the first stream
};

/// One method's share of the dynamic loop. It trains kRepeats identical
/// models on their own copies of F_old (the lower time is reported),
/// streams the arrivals through each copy with its own journal (each
/// arrival reports its lower time over the copies), checks stability and
/// recovery, and classifies the arrivals on the first copy. Repeating
/// keeps one burst of host contention from moving the run's figures.
/// Each training and each pass runs through Steady(); a pass run again
/// streams through a freshly trained copy.
template <typename Embedding>
Result<MethodResult> RunMethod(const Method<Embedding>& m, Setup& s,
                               const std::string& dir, uint64_t classifier_seed,
                               LatencyLog& sink_append_us, Ledger& ledger,
                               Tracer& tracer) {
  struct Copy {
    explicit Copy(const db::Database& old) : database(old) {}
    db::Database database;  // the embedding points at it: never moved
    std::optional<Embedding> emb;
    std::unique_ptr<store::EmbeddingStore> journal;
  };
  MethodResult out;
  const auto trained_copy = [&]() -> Result<std::unique_ptr<Copy>> {
    auto c = std::make_unique<Copy>(s.db_old);
    STEDB_ASSIGN_OR_RETURN(Embedding trained, m.train(&c->database));
    c->emb.emplace(std::move(trained));
    return c;
  };
  std::vector<std::unique_ptr<Copy>> copies;
  std::vector<double> train_s;
  for (int r = 0; r < kRepeats; ++r) {
    struct Training {
      Result<std::unique_ptr<Copy>> copy;
      double seconds;
      CounterDelta counters;
    };
    Training t = Steady(
        ledger, m.name + " training " + std::to_string(r),
        [&] {
          PhaseCounters counters;
          ScopedSpan span(tracer, (m.name + ".train").c_str());
          Timer timer;
          Result<std::unique_ptr<Copy>> c = trained_copy();
          const double seconds = timer.ElapsedSeconds();
          return Training{std::move(c), seconds, counters.Finish()};
        },
        [](Training&) {});
    STEDB_ASSIGN_OR_RETURN(std::unique_ptr<Copy> c, std::move(t.copy));
    train_s.push_back(t.seconds);
    copies.push_back(std::move(c));
    if (r == 0) out.train_counters = t.counters;
  }
  out.train_s = Median(train_s);
  ledger.e2e[m.name + "_train_s"] = {out.train_s, train_s.size()};

  // Every copy is the same deterministic model, so the pre-stream phi of
  // the first one is the reference for whichever copy streams first.
  const std::vector<db::FactId> old = m.old_facts(*copies.front()->emb);
  STEDB_ASSIGN_OR_RETURN(la::Matrix before, Rows(*copies.front()->emb, old));
  std::vector<StreamTimes> passes(copies.size());
  std::vector<db::FactId> new_pred;
  double sink_seconds = 0.0;
  size_t attempt = 0;  // journal directories are never reused
  for (size_t r = 0; r < copies.size(); ++r) {
    struct Pass {
      Status status;
      StreamTimes times;
      std::vector<db::FactId> pred;
      CounterDelta counters;
    };
    Status retrained;
    Pass p = Steady(
        ledger, m.name + " pass " + std::to_string(r),
        [&]() -> Pass {
          Copy& c = *copies[r];
          const std::string journal_dir =
              dir + "/" + m.name + std::to_string(attempt++);
          std::filesystem::remove_all(journal_dir);
          auto created = m.create_journal(journal_dir, *c.emb);
          if (!created.ok()) return Pass{created.status(), {}, {}, {}};
          c.journal = std::make_unique<store::EmbeddingStore>(
              std::move(created.value()));
          c.emb->set_extension_sink(
              TimedSink(c.journal.get(), tracer, &sink_append_us, &sink_seconds));
          PhaseCounters counters;
          Pass pass;
          pass.pred = Stream(
              m.name, s, c.database,
              [&c](const std::vector<db::FactId>& ids) {
                return c.emb->ExtendToFacts(ids);
              },
              &sink_seconds, pass.times, ledger, tracer);
          pass.counters = counters.Finish();
          ledger.Check(c.journal->Sync().ok(), m.name + " journal Sync");
          ledger.Check(RecoversExactly(journal_dir, *m.live(*c.emb)),
                       m.name + ": cold Open does not recover the journal "
                                "bit-exactly");
          return pass;
        },
        [&](Pass&) {
          // The stream moved this copy past F_old: train a fresh one.
          auto fresh = trained_copy();
          if (fresh.ok()) {
            copies[r] = std::move(fresh.value());
          } else {
            retrained = fresh.status();
          }
        });
    STEDB_RETURN_IF_ERROR(p.status);
    STEDB_RETURN_IF_ERROR(retrained);
    passes[r] = std::move(p.times);
    if (r == 0) {
      out.extend_counters = p.counters;
      new_pred = std::move(p.pred);
    }
  }
  out.logs = MedianPerArrival(passes);
  Embedding& first = *copies.front()->emb;
  {
    auto after = Rows(first, old);
    ledger.Check(after.ok() && SameBits(before, after.value()),
                 m.name + ": a pre-stream phi changed during the arrival stream");
  }
  auto acc = NewTupleAccuracy(s, copies.front()->database, first, new_pred,
                              classifier_seed);
  ledger.Check(acc.ok(), m.name + " accuracy: " + acc.status().ToString());
  ledger.e2e[m.name + "_new_acc"] = {acc.ok() ? acc.value() : 0.0, new_pred.size()};
  ledger.Tail(ledger.e2e, m.name + "_extend_ms_p50", out.logs.arrival_ms, 0.5, 1.0);
  ledger.Tail(ledger.e2e, m.name + "_extend_ms_p90", out.logs.arrival_ms, 0.9, 1.0);
  ledger.layer[m.name + ".extend_compute_ms_p50"] = {
      out.logs.compute_ms.Percentile(0.5), out.logs.compute_ms.count()};
  return out;
}

struct DynamicTimes {
  StreamLogs fwd;
  StreamLogs n2v;
  double n2v_train_s = 0.0;
  double walks_s = 0.0;
  double sgns_s = 0.0;
};

Status RunDynamic(Setup& s, uint64_t classifier_seed, const std::string& dir,
                  Ledger& ledger, Tracer& tracer, DynamicTimes& times) {
  const exp::MethodConfig cfg = DynConfig(kDynSeed);
  const fwd::AttrKeySet excluded = exp::LabelExclusion(s.ds);
  LatencyLog sink_append_us;
  PhaseCounters sink_counters;
  PhaseCounters fwd_counters;

  Method<fwd::ForwardEmbedder> fwd_method;
  fwd_method.name = "fwd";
  fwd_method.train = [&](const db::Database* database) {
    return fwd::ForwardEmbedder::TrainStatic(database, s.ds.pred_rel, excluded,
                                             cfg.forward);
  };
  fwd_method.create_journal = [](const std::string& d, const fwd::ForwardEmbedder& e) {
    return fwd::CreateForwardStore(d, e.model(), GroupCommitOptions());
  };
  fwd_method.live = [](const fwd::ForwardEmbedder& e) {
    return std::make_unique<fwd::ForwardStoredModel>(e.model());
  };
  fwd_method.old_facts = [&](const fwd::ForwardEmbedder&) {
    return s.part.old_pred_facts;
  };
  STEDB_ASSIGN_OR_RETURN(MethodResult fwd_result,
                         RunMethod(fwd_method, s, dir, classifier_seed,
                                   sink_append_us, ledger, tracer));
  {
    const CounterDelta& d = fwd_result.train_counters;
    ledger.layer["fwd.epoch_s_mean"] = {
        d.HistMean("stedb_train_epoch_seconds"),
        static_cast<size_t>(d.HistCount("stedb_train_epoch_seconds"))};
    ParallelLayer(ledger, "fwd_train", d);
    ParallelLayer(ledger, "fwd_extend", fwd_result.extend_counters);
    const CounterDelta all = fwd_counters.Finish();
    double lookups = 0.0;
    for (const char* r : {"hit", "miss", "duplicate_compute", "locked"}) {
      lookups += all.Get("stedb_train_dist_cache_lookups_total",
                         std::string("{result=\"") + r + "\"}");
    }
    ledger.layer["fwd.dist_cache_hit_ratio"] = {
        lookups > 0 ? all.Get("stedb_train_dist_cache_lookups_total",
                              "{result=\"hit\"}") / lookups
                    : 0.0,
        static_cast<size_t>(lookups)};
  }

  n2v::Node2VecConfig ncfg = cfg.node2vec;
  for (const fwd::AttrKey& k : excluded) {
    ncfg.graph.excluded_columns.insert({k.rel, k.attr});
  }
  Method<n2v::Node2VecEmbedding> n2v_method;
  n2v_method.name = "n2v";
  n2v_method.train = [&](const db::Database* database) {
    return n2v::Node2VecEmbedding::TrainStatic(database, ncfg);
  };
  n2v_method.create_journal = [](const std::string& d, const n2v::Node2VecEmbedding& e) {
    return store::EmbeddingStore::Create(d, "node2vec", n2v::SnapshotVectors(e),
                                         GroupCommitOptions());
  };
  n2v_method.live = [](const n2v::Node2VecEmbedding& e) {
    return std::unique_ptr<store::StoredModel>(n2v::SnapshotVectors(e));
  };
  n2v_method.old_facts = [](const n2v::Node2VecEmbedding& e) {
    return e.EmbeddedFacts();
  };
  STEDB_ASSIGN_OR_RETURN(MethodResult n2v_result,
                         RunMethod(n2v_method, s, dir, classifier_seed,
                                   sink_append_us, ledger, tracer));
  ParallelLayer(ledger, "n2v_train", n2v_result.train_counters);
  ParallelLayer(ledger, "n2v_extend", n2v_result.extend_counters);
  times.fwd = std::move(fwd_result.logs);
  times.n2v = std::move(n2v_result.logs);
  times.n2v_train_s = n2v_result.train_s;

  if (tracer.enabled()) {
    // Node2Vec's two stages, called directly with the method's config on
    // the same F_old: walk-corpus generation and SGNS training. The rest
    // of n2v_train_s (graph build, vocabulary, noise table) is the
    // residual.
    graph::BipartiteGraph g(&s.db_old, ncfg.graph);
    STEDB_RETURN_IF_ERROR(g.BuildAll());
    Rng rng(ncfg.seed);
    n2v::SkipGramModel model(0, ncfg.sg, rng);
    model.Grow(g.num_nodes(), rng);
    graph::Node2VecWalker walker(&g, ncfg.walk);
    std::vector<std::vector<graph::NodeId>> walks;
    {
      ScopedSpan span(tracer, "graph.walks");
      Timer t;
      walks = walker.AllWalks(rng);
      times.walks_s = t.ElapsedSeconds();
    }
    n2v::NodeVocab vocab(g.num_nodes());
    vocab.CountWalks(walks);
    vocab.BuildNoiseTable();
    {
      ScopedSpan span(tracer, "n2v.sgns");
      Timer t;
      model.Train(walks, vocab, ncfg.sg.epochs, rng);
      times.sgns_s = t.ElapsedSeconds();
    }
  }

  LatencyLog replay = times.fwd.replay_us;
  replay.Append(times.n2v.replay_us);
  ledger.layer["db.replay_us_p50"] = {replay.Percentile(0.5), replay.count()};
  ledger.layer["graph.walks_s"] = {times.walks_s, 1};
  ledger.layer["n2v.sgns_s"] = {times.sgns_s, 1};
  ledger.layer["n2v.train_residual_s"] = {
      times.n2v_train_s - times.walks_s - times.sgns_s, 1};
  StoreLayer(ledger, "store.sink_", sink_append_us, sink_counters.Finish());
  ledger.Ops(sink_append_us.count(), sink_append_us.failed(), "journal appends");
  return Status::OK();
}

// ---- Serving ------------------------------------------------------------------

enum class Kind { kEmbed, kBatch, kSimilar, kTopk };

struct Request {
  Kind kind = Kind::kEmbed;
  db::FactId fact = db::kNoFact;
  std::vector<db::FactId> batch;
  uint64_t id = 0;
};

Request NextRequest(Rng& rng, const std::vector<db::FactId>& facts) {
  Request r;
  const double u = rng.NextDouble();
  r.fact = facts[rng.NextIndex(facts.size())];
  if (u < kTopkShare) {
    r.kind = Kind::kTopk;
  } else if (u < kTopkShare + kSimilarShare) {
    r.kind = Kind::kSimilar;
  } else if (u < kTopkShare + kSimilarShare + kBatchShare) {
    r.kind = Kind::kBatch;
    for (size_t i = 0; i < kBatchFacts; ++i) {
      r.batch.push_back(facts[rng.NextIndex(facts.size())]);
    }
  } else {
    r.kind = Kind::kEmbed;
  }
  return r;
}

std::string Target(const Request& r) {
  const std::string f = std::to_string(r.fact);
  switch (r.kind) {
    case Kind::kEmbed:
      return "/embed?raw=1&fact=" + f;
    case Kind::kSimilar:
      return "/similar?k=" + std::to_string(kTopK) + "&fact=" + f;
    case Kind::kTopk:
      return "/topk?k=" + std::to_string(kTopK) + "&fact=" + f;
    case Kind::kBatch: {
      std::string t = "/embed_batch?raw=1&facts=";
      for (size_t i = 0; i < r.batch.size(); ++i) {
        if (i > 0) t.push_back(',');
        t += std::to_string(r.batch[i]);
      }
      return t;
    }
  }
  return "";
}

const char* SpanName(Kind k) {
  switch (k) {
    case Kind::kEmbed: return "http.embed";
    case Kind::kBatch: return "http.embed_batch";
    case Kind::kSimilar: return "http.similar";
    case Kind::kTopk: return "http.topk";
  }
  return "http";
}

/// One read request as it came back. Its body is checked only after the
/// phase (Verify), so the checks' cost stays out of the generator's timing
/// and out of the closed loop's capacity.
struct Response {
  Request request;
  Clock::time_point sent;
  bool ok = false;  // HTTP 200; after Verify, also: the body is right
  std::string body;
  double us = 0.0;         // from when it was due (open loop) or sent
  double client_us = 0.0;  // send -> response, for the transport split
  double late_us = -1.0;   // open loop: how late it was sent
};

/// A read phase's figures (Tally). A request that failed, over HTTP or in
/// its check, counts as failed, over any latency limit.
struct ReadLogs {
  LatencyLog embed_us, batch_us, similar_us, topk_us, all_us;
  LatencyLog late_us;
  LatencyLog embed_client_us;
  size_t completed = 0;
};

LatencyLog& LogOf(ReadLogs& logs, Kind k) {
  switch (k) {
    case Kind::kEmbed: return logs.embed_us;
    case Kind::kBatch: return logs.batch_us;
    case Kind::kSimilar: return logs.similar_us;
    case Kind::kTopk: return logs.topk_us;
  }
  return logs.all_us;
}

/// One reader connection. Open loop (`interval_us` > 0): request i is due
/// at start + offset + i * interval and is timed from when it was due.
/// Closed loop: back-to-back until `end`.
void ReaderLoop(ServeRig& rig, serve::HttpClient& client, Rng rng,
                double interval_us, double offset_us, Clock::time_point start,
                Clock::time_point end, uint64_t id_base,
                std::vector<Response>& out, Tracer& tracer) {
  const bool open_loop = interval_us > 0.0;
  out.reserve(open_loop ? static_cast<size_t>(MicrosBetween(start, end) /
                                              interval_us) + 1
                        : 4096);
  for (uint64_t i = 0;; ++i) {
    Clock::time_point due = Clock::now();
    if (open_loop) {
      due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                        (offset_us + static_cast<double>(i) * interval_us) * 1e3));
      if (due >= end) break;
      // Spin, yielding, until the request is due. A reader that sleeps
      // lets its vCPU halt, and how soon a halted vCPU runs again depends
      // on the host's other tenants: with sleeping readers, embed_us_p50
      // read 143-174 us on a busy host against 95-111 us with spinning
      // ones, on the same seeds.
      while (Clock::now() < due) std::this_thread::yield();
    } else if (due >= end) {
      break;
    }
    Response resp;
    resp.request = NextRequest(rng, rig.base_facts);
    resp.request.id = id_base + i + 1;
    resp.sent = Clock::now();
    Result<std::string> body = [&] {
      ScopedSpan span(tracer, SpanName(resp.request.kind), resp.request.id);
      return Fetch(client, Target(resp.request));
    }();
    const auto done = Clock::now();
    resp.ok = body.ok();
    if (resp.ok) resp.body = std::move(body.value());
    resp.us = MicrosBetween(open_loop ? due : resp.sent, done);
    resp.client_us = MicrosBetween(resp.sent, done);
    if (open_loop) resp.late_us = MicrosBetween(due, resp.sent);
    out.push_back(std::move(resp));
  }
}

/// Figures of checked responses.
ReadLogs Tally(const std::vector<Response>& responses) {
  ReadLogs logs;
  for (const Response& r : responses) {
    if (r.ok) {
      LogOf(logs, r.request.kind).Ok(r.us);
      logs.all_us.Ok(r.us);
      ++logs.completed;
      if (r.request.kind == Kind::kEmbed) logs.embed_client_us.Ok(r.client_us);
    } else {
      LogOf(logs, r.request.kind).Fail();
      logs.all_us.Fail();
    }
    if (r.late_us >= 0.0) logs.late_us.Ok(r.late_us);
  }
  return logs;
}

void Merge(ReadLogs& into, const ReadLogs& from) {
  into.embed_us.Append(from.embed_us);
  into.batch_us.Append(from.batch_us);
  into.similar_us.Append(from.similar_us);
  into.topk_us.Append(from.topk_us);
  into.all_us.Append(from.all_us);
  into.late_us.Append(from.late_us);
  into.embed_client_us.Append(from.embed_client_us);
  into.completed += from.completed;
}

constexpr int kNoWindow = -1;

/// When the prober first got each writer fact back from the service, in
/// that order.
using ServedLog = std::vector<std::pair<Clock::time_point, db::FactId>>;

/// The writer appends fresh facts' vectors to the serving store's WAL at
/// Poisson-spaced times; the prober asks the service for each one over
/// its own connection until the exact bytes come back.
struct WriteRecord {
  db::FactId fact = db::kNoFact;
  Clock::time_point appended;
  la::Vector phi;
  int window = kNoWindow;  // measuring window open at append time
};

struct FreshnessLogs {
  /// (window, insert->servable ms; +inf when never servable) per append
  /// made while a measuring window was open.
  std::vector<std::pair<int, double>> fresh_ms;
  ServedLog served;
  LatencyLog append_us;
  size_t writes = 0;
  size_t write_failures = 0;
  size_t probes = 0;
  size_t probe_failures = 0;
  double wal_lag_max = 0.0;
};

class WriterProber {
 public:
  WriterProber(ServeRig& rig, uint64_t seed, Tracer& tracer)
      : rig_(rig),
        rng_(Rng(seed).Fork(30)),
        next_fact_(kWriterFact),
        tracer_(tracer),
        window_(kNoWindow) {
    writer_ = std::thread([this] { WriterLoop(); });
    prober_ = std::thread([this] { ProberLoop(); });
  }
  ~WriterProber() { Finish(); }
  WriterProber(const WriterProber&) = delete;
  WriterProber& operator=(const WriterProber&) = delete;

  /// Tags appends from now on with measuring window `w` (kNoWindow: not
  /// measured).
  void set_window(int w) { window_.store(w); }

  /// Stops the writer, waits until every append was probed, and returns
  /// the complete logs.
  FreshnessLogs& Finish() {
    stop_.store(true);
    if (writer_.joinable()) writer_.join();
    if (prober_.joinable()) prober_.join();
    return logs_;
  }

 private:
  void WriterLoop() {
    SetTightTimerSlack();
    Clock::time_point due = Clock::now();
    while (true) {
      // Exponential gaps: a Poisson writer never phase-locks with the
      // service's fixed poll period.
      const double gap_us = -std::log(1.0 - rng_.NextDouble()) * 1e6 / kWriteRate;
      due += std::chrono::nanoseconds(static_cast<int64_t>(gap_us * 1e3));
      std::this_thread::sleep_until(due);
      if (stop_.load()) break;
      // New facts land in the base clusters, so they compete for /similar
      // and /topk answers like any other fact.
      WriteRecord rec;
      rec.fact = next_fact_++;
      rec.window = window_.load();
      rec.phi = RandomPoint(
          rng_, rig_.centers[rng_.NextIndex(rig_.centers.size())], kClusterNoise);
      Status st;
      {
        std::lock_guard<std::mutex> lk(rig_.writer_mu);
        ScopedSpan span(tracer_, "store.append");
        rec.appended = Clock::now();
        st = rig_.store->Append(rec.fact, rec.phi);
        const double us = MicrosBetween(rec.appended, Clock::now());
        if (st.ok()) {
          logs_.append_us.Ok(us);
        } else {
          logs_.append_us.Fail();
        }
      }
      std::lock_guard<std::mutex> lk(mu_);
      ++logs_.writes;
      if (!st.ok()) {
        ++logs_.write_failures;
        continue;
      }
      queue_.push_back(std::move(rec));
      cv_.notify_one();
    }
    std::lock_guard<std::mutex> lk(mu_);
    writer_done_ = true;
    cv_.notify_one();
  }

  void ProberLoop() {
    SetTightTimerSlack();
    const obs::Gauge* lag = nullptr;
    while (true) {
      WriteRecord rec;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return writer_done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        rec = std::move(queue_.front());
        queue_.pop_front();
      }
      ScopedSpan span(tracer_, "fresh.probe");
      const std::string target = "/embed?raw=1&fact=" + std::to_string(rec.fact);
      bool ok = false;
      Clock::time_point seen;
      while (true) {
        ++logs_.probes;
        auto resp = rig_.prober->Get(target);
        seen = Clock::now();
        if (resp.ok() && resp.value().status == 200) {
          ok = perfbench::RawBytesEqual(resp.value().body, rec.phi.data(),
                                        rec.phi.size());
          break;
        }
        // 404 = not polled in yet; anything else is a failure.
        if (!resp.ok() || resp.value().status != 404 ||
            MicrosBetween(rec.appended, seen) > kFreshDeadlineS * 1e6) {
          break;
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(kProbeRetryUs)));
      }
      if (lag == nullptr) {
        lag = obs::Registry::Global().FindGauge("stedb_serving_wal_lag_records");
      }
      if (lag != nullptr) logs_.wal_lag_max = std::max(logs_.wal_lag_max, lag->Value());
      if (!ok) {
        ++logs_.probe_failures;
        if (rec.window != kNoWindow) {
          logs_.fresh_ms.emplace_back(rec.window,
                                      std::numeric_limits<double>::infinity());
        }
        continue;
      }
      logs_.served.emplace_back(seen, rec.fact);
      if (rec.window != kNoWindow) {
        logs_.fresh_ms.emplace_back(rec.window,
                                    MicrosBetween(rec.appended, seen) * 1e-3);
      }
    }
  }

  ServeRig& rig_;
  Rng rng_;
  db::FactId next_fact_;
  Tracer& tracer_;
  std::atomic<int> window_;
  std::atomic<bool> stop_{false};
  FreshnessLogs logs_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WriteRecord> queue_;  // guarded by mu_
  bool writer_done_ = false;       // guarded by mu_
  std::thread writer_;
  std::thread prober_;
};

/// Runs the reader connections over [start, end) and returns their
/// responses. `stream` keys the request sequence: the same seed and stream
/// give the same requests.
std::vector<Response> RunReaders(ServeRig& rig, uint64_t seed, uint64_t stream,
                                 bool open_loop, Clock::time_point start,
                                 Clock::time_point end, Tracer& tracer) {
  std::vector<std::vector<Response>> per(kReadConnections);
  std::vector<std::thread> threads;
  const double interval_us = open_loop ? 1e6 * kReadConnections / kReadRate : 0.0;
  for (int c = 0; c < kReadConnections; ++c) {
    const auto conn = static_cast<uint64_t>(c);
    Rng rng = Rng(seed).Fork(1000 + stream * kReadConnections + conn);
    threads.emplace_back([&, c, conn, rng] {
      ReaderLoop(rig, rig.readers[static_cast<size_t>(c)], rng, interval_us,
                 interval_us * c / kReadConnections, start, end,
                 (stream << 40) + (conn << 32), per[static_cast<size_t>(c)],
                 tracer);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Response> all;
  for (std::vector<Response>& p : per) {
    std::move(p.begin(), p.end(), std::back_inserter(all));
  }
  return all;
}

/// Whether a response body is right. Raw /embed and /embed_batch bytes
/// must equal the benchmark's own session (`oracle`). /topk and /similar
/// go through perfbench::ScoredAnswerMatches: the oracle never polls, so
/// it answers over the snapshot alone, and the writer's facts are scored
/// through `latest`, a session opened after the writer stopped. `served`
/// is when the prober first got each writer fact back, in that order.
bool BodyIsRight(const api::ServingSession& oracle,
                 const api::ServingSession& latest, const ServedLog& served,
                 const Response& resp) {
  const Request& r = resp.request;
  if (r.kind == Kind::kEmbed) {
    auto phi = oracle.Embed(r.fact);
    return phi.ok() && perfbench::RawBytesEqual(resp.body, phi.value().data(),
                                                phi.value().size());
  }
  if (r.kind == Kind::kBatch) {
    la::Matrix m(r.batch.size(), oracle.dim());
    return oracle.EmbedBatch(r.batch, m).ok() &&
           perfbench::RawBytesEqual(resp.body, m.RowPtr(0), m.rows() * m.cols());
  }
  const bool topk = r.kind == Kind::kTopk;
  auto snapshot =
      topk ? oracle.TopK(r.fact, kTopK, 0) : oracle.SimilarTopK(r.fact, kTopK);
  auto query = oracle.Embed(r.fact);
  if (!snapshot.ok() || !query.ok()) return false;
  std::vector<db::FactId> served_before;
  for (const auto& [seen, fact] : served) {
    if (seen >= resp.sent) break;
    served_before.push_back(fact);
  }
  const auto score_wal = [&](db::FactId g) -> std::optional<double> {
    if (topk) {
      auto score = latest.Score(r.fact, g, 0);
      if (!score.ok()) return std::nullopt;
      return score.value();
    }
    auto phi = latest.Embed(g);
    if (!phi.ok()) return std::nullopt;
    return ann::Score(oracle.similarity_metric(), query.value(), phi.value());
  };
  const std::string header = topk ? "\"target\":0"
                             : oracle.has_ann_index() ? "\"approx\":true"
                                                      : "\"approx\":false";
  return perfbench::ScoredAnswerMatches(resp.body, r.fact, header,
                                        std::move(snapshot.value()),
                                        served_before, kWriterFact, kTopK,
                                        score_wal);
}

/// Checks every body of a phase (independent read-only checks, fanned out
/// over the cores); a wrong one turns its response into a failure.
void Verify(const api::ServingSession& oracle, const api::ServingSession& latest,
            const ServedLog& served, std::vector<Response>& responses) {
  ParallelRunner runner;
  runner.ParallelFor(responses.size(), [&](size_t i) {
    Response& r = responses[i];
    if (r.ok) r.ok = BodyIsRight(oracle, latest, served, r);
  });
}

struct ServeTimes {
  double embed_client_us_mean = 0.0;
  double embed_handler_us_mean = 0.0;
  double api_embed_us_mean = 0.0;
};

Status RunServe(Setup& s, const Args& args, bool mixed, Ledger& ledger,
                Tracer& tracer, ServeTimes& times) {
  ServeRig& rig = *s.rig;
  const auto secs = [](double v) {
    return std::chrono::nanoseconds(static_cast<int64_t>(v * 1e9));
  };
  const double S = args.seconds;
  PhaseCounters writer_counters;  // the writer is the only appender here

  std::unique_ptr<WriterProber> mixed_writer;
  if (mixed) {
    mixed_writer = std::make_unique<WriterProber>(rig, args.seed, tracer);
  }
  std::vector<Response> warm;
  {
    // The connections sat idle through the dynamic phase; an untimed
    // open-loop half second brings the service back to its steady state.
    const auto w_start = Clock::now() + std::chrono::milliseconds(5);
    warm = RunReaders(rig, args.seed, kWarmupStream, true, w_start,
                      w_start + secs(kWarmupS), tracer);
  }

  // kRounds rounds of (open loop at the fixed rate, closed loop), with the
  // writer beside them iff mixed; each figure is taken over the rounds.
  struct Round {
    int window = 0;  // the freshness window of its open-loop segment
    std::vector<Response> open;
    std::vector<Response> closed;
    double closed_s = 0.0;
    CounterDelta counters;  // registry deltas over the open-loop segment
  };
  std::vector<Round> rounds;
  std::vector<Round> dropped;  // run again: counted and checked, not measured
  int attempts = 0;
  for (uint64_t r = 0; r < kRounds; ++r) {
    rounds.push_back(Steady(
        ledger, "round " + std::to_string(r),
        [&] {
          Round round;
          round.window = attempts++;
          const auto stream = 2 * static_cast<uint64_t>(round.window);
          const auto o_start = Clock::now() + std::chrono::milliseconds(5);
          if (mixed_writer) mixed_writer->set_window(round.window);
          PhaseCounters counters;
          round.open = RunReaders(rig, args.seed, stream, true, o_start,
                                  o_start + secs(kOpenShare * S / kRounds), tracer);
          round.counters = counters.Finish();
          if (mixed_writer) mixed_writer->set_window(kNoWindow);
          const auto c_start = Clock::now();
          const auto c_end = c_start + secs(kClosedShare * S / kRounds);
          round.closed = RunReaders(rig, args.seed, stream + 1, false, c_start,
                                    c_end, tracer);
          round.closed_s = std::chrono::duration<double>(c_end - c_start).count();
          return round;
        },
        [&](Round& round) { dropped.push_back(std::move(round)); }));
  }
  std::set<int> dropped_windows;  // freshness windows Steady() dropped
  FreshnessLogs fresh;
  if (mixed) {
    for (const Round& d : dropped) dropped_windows.insert(d.window);
    fresh = std::move(mixed_writer->Finish());
  } else {
    // serve_read: the writer and prober alone, after the reads, measured
    // in kRounds windows.
    WriterProber writer(rig, args.seed, tracer);
    int windows = 0;
    for (uint64_t k = 0; k < kRounds; ++k) {
      Steady(
          ledger, "freshness window " + std::to_string(k),
          [&] {
            const int w = windows++;
            writer.set_window(w);
            std::this_thread::sleep_for(secs(kFreshShare * S / kRounds));
            writer.set_window(kNoWindow);
            return w;
          },
          [&](int& w) { dropped_windows.insert(w); });
    }
    fresh = std::move(writer.Finish());
  }
  LatencyLog fresh_ms;
  for (const auto& [window, ms] : fresh.fresh_ms) {
    if (dropped_windows.count(window) > 0) continue;
    if (std::isfinite(ms)) {
      fresh_ms.Ok(ms);
    } else {
      fresh_ms.Fail();
    }
  }

  // Every body is checked before any figure is taken from it.
  {
    auto latest = api::ServingSession::Open(rig.dir);
    ledger.Check(latest.ok(), "a session over the serving store opens: " +
                                  latest.status().ToString());
    if (!latest.ok()) return latest.status();
    const auto verify = [&](std::vector<Response>& responses) {
      Verify(*rig.oracle, latest.value(), fresh.served, responses);
    };
    verify(warm);
    for (std::vector<Round>* list : {&rounds, &dropped}) {
      for (Round& round : *list) {
        verify(round.open);
        verify(round.closed);
      }
    }
  }
  ReadLogs open;
  ReadLogs closed;
  ReadLogs repeated;
  CounterDelta a;  // registry deltas over the measured open-loop segments
  std::vector<double> embed_p50, qps;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const ReadLogs o = Tally(rounds[r].open);
    const ReadLogs c = Tally(rounds[r].closed);
    ledger.Check(o.embed_us.Supports(0.5),
                 "an open-loop round holds too few /embed samples for a p50");
    embed_p50.push_back(o.embed_us.Percentile(0.5));
    qps.push_back(static_cast<double>(c.completed) / rounds[r].closed_s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "round %zu: embed p50 %.1f us, closed loop %.0f req/s", r,
                  embed_p50.back(), qps.back());
    ledger.notes.push_back(line);
    a += rounds[r].counters;
    Merge(open, o);
    Merge(closed, c);
  }
  for (const Round& round : dropped) {
    Merge(repeated, Tally(round.open));
    Merge(repeated, Tally(round.closed));
  }

  // Operation accounting and output checks.
  const ReadLogs warm_logs = Tally(warm);
  const char* wrong = " (HTTP error or wrong body)";
  ledger.Ops(warm_logs.all_us.count(), warm_logs.all_us.failed(),
             (std::string("warm-up reads") + wrong).c_str());
  ledger.Ops(open.all_us.count(), open.all_us.failed(),
             (std::string("open-loop reads") + wrong).c_str());
  ledger.Ops(closed.all_us.count(), closed.all_us.failed(),
             (std::string("closed-loop reads") + wrong).c_str());
  ledger.Ops(repeated.all_us.count(), repeated.all_us.failed(),
             (std::string("reads of repeated rounds") + wrong).c_str());
  ledger.Ops(fresh.writes, fresh.write_failures, "writer appends");
  ledger.Ops(fresh.writes - fresh.write_failures, fresh.probe_failures,
             "freshness probes (wrong bytes, error or not servable within 1s)");
  {
    std::lock_guard<std::mutex> lk(rig.writer_mu);
    ledger.Check(rig.store->Sync().ok(), "serving store Sync");
    ledger.Check(RecoversExactly(rig.dir, rig.store->model()),
                 "serving store: cold Open does not recover the journal "
                 "bit-exactly");
  }

  // End-to-end serving metrics: /embed p50 and capacity are medians over
  // the rounds. A round holds ~36 /similar and ~9 /topk requests, too few
  // for a steady p50, and ~900 requests, too few for a p99, so those
  // pool the rounds.
  ledger.e2e["embed_us_p50"] = {Median(embed_p50), open.embed_us.count()};
  ledger.Tail(ledger.e2e, "similar_us_p50", open.similar_us, 0.5, 1.0);
  ledger.Tail(ledger.e2e, "topk_ms_p50", open.topk_us, 0.5, 1e-3);
  ledger.Tail(ledger.e2e, "read_us_p99", open.all_us, 0.99, 1.0);
  ledger.e2e["read_qps"] = {Median(qps), closed.completed};
  ledger.Tail(ledger.e2e, "fresh_ms_p50", fresh_ms, 0.5, 1.0);
  ledger.Tail(ledger.e2e, "fresh_ms_p99", fresh_ms, 0.99, 1.0);

  // ANN recall against the exact scan (an output check and a layer value).
  {
    Rng rng = Rng(args.seed).Fork(40);
    api::SimilarOptions exact;
    exact.approx = false;
    size_t overlap = 0;
    size_t total = 0;
    for (size_t q = 0; q < kRecallQueries; ++q) {
      const db::FactId f = rig.base_facts[rng.NextIndex(rig.base_facts.size())];
      auto approx = rig.oracle->SimilarTopK(f, kTopK);
      auto truth = rig.oracle->SimilarTopK(f, kTopK, exact);
      if (!approx.ok() || !truth.ok()) continue;
      total += truth.value().size();
      for (const auto& hit : approx.value()) {
        for (const auto& t : truth.value()) overlap += hit.fact == t.fact;
      }
    }
    const double recall =
        total > 0 ? static_cast<double>(overlap) / static_cast<double>(total) : 0.0;
    ledger.layer["ann.recall_at_10"] = {recall, kRecallQueries};
    ledger.Check(recall >= kRecallGate, "ann.recall_at_10 below 0.95");
  }

  // Per-layer serving values over the measured open-loop segments.
  const auto per_endpoint = [&](const char* endpoint) {
    return a.HistMean("stedb_serve_request_seconds",
                      std::string("{endpoint=\"") + endpoint + "\"}") * 1e6;
  };
  times.embed_handler_us_mean = per_endpoint("embed");
  times.embed_client_us_mean = open.embed_client_us.Mean();
  ledger.layer["serve.embed_handler_us_mean"] = {times.embed_handler_us_mean,
                                                 open.embed_us.count()};
  ledger.layer["serve.similar_handler_us_mean"] = {per_endpoint("similar"),
                                                   open.similar_us.count()};
  ledger.layer["serve.topk_handler_us_mean"] = {per_endpoint("topk"),
                                                open.topk_us.count()};
  ledger.layer["serve.embed_transport_us_mean"] = {
      times.embed_client_us_mean - times.embed_handler_us_mean,
      open.embed_client_us.count()};
  ledger.layer["serve.coalesce_records_mean"] = {
      a.HistMean("stedb_serve_coalesced_batch_records"),
      static_cast<size_t>(a.HistCount("stedb_serve_coalesced_batch_records"))};
  ledger.layer["ann.visited_nodes_mean"] = {
      a.HistMean("stedb_ann_visited_nodes"),
      static_cast<size_t>(a.HistCount("stedb_ann_visited_nodes"))};
  ledger.layer["api.poll_us_mean"] = {a.HistMean("stedb_serving_poll_seconds") * 1e6,
                                      static_cast<size_t>(a.HistCount("stedb_serving_poll_seconds"))};
  ledger.layer["api.polls"] = {a.Get("stedb_serving_polls_total"), 1};
  ledger.layer["api.wal_records_applied"] = {
      a.Get("stedb_serving_wal_records_applied_total"), 1};
  ledger.layer["api.wal_lag_records_max"] = {mixed ? fresh.wal_lag_max : 0.0, 1};
  StoreLayer(ledger, "store.", fresh.append_us, writer_counters.Finish());
  ledger.layer["gen.late_us_p99"] = {open.late_us.Percentile(0.99),
                                     open.late_us.count()};
  ledger.layer["gen.sent"] = {static_cast<double>(open.all_us.count()), 1};
  ledger.layer["gen.failed"] = {static_cast<double>(open.all_us.failed()), 1};
  // A request queued behind a slow one on its connection is sent late by
  // design (it is timed from when it was due); a generator that is late
  // on a typical request could not keep the schedule at all.
  if (open.late_us.Percentile(0.5) > kLateFlagUs) {
    ledger.notes.push_back(
        "FLAG: the open-loop generator fell behind (median send over 100 us "
        "late)");
  }

  // Direct session calls with the same request sequence (per-layer
  // `api.*`), on the benchmark's own session over the same directory.
  if (tracer.enabled()) {
    LatencyLog embed_us, similar_us, topk_us;
    la::Matrix batch(kBatchFacts, rig.oracle->dim());
    size_t bad = 0;
    size_t calls = 0;
    for (const Round& round : rounds) {
      for (const Response& resp : round.open) {
        const Request& r = resp.request;
        ++calls;
        ScopedSpan span(tracer, r.kind == Kind::kEmbed     ? "api.embed"
                                : r.kind == Kind::kBatch   ? "api.embed_batch"
                                : r.kind == Kind::kSimilar ? "api.similar"
                                                           : "api.topk",
                        r.id);
        const auto t0 = Clock::now();
        bool ok = true;
        switch (r.kind) {
          case Kind::kEmbed: ok = rig.oracle->Embed(r.fact).ok(); break;
          case Kind::kBatch: ok = rig.oracle->EmbedBatch(r.batch, batch).ok(); break;
          case Kind::kSimilar: ok = rig.oracle->SimilarTopK(r.fact, kTopK).ok(); break;
          case Kind::kTopk: ok = rig.oracle->TopK(r.fact, kTopK, 0).ok(); break;
        }
        const double us = MicrosBetween(t0, Clock::now());
        bad += !ok;
        if (r.kind == Kind::kEmbed) embed_us.Ok(us);
        if (r.kind == Kind::kSimilar) similar_us.Ok(us);
        if (r.kind == Kind::kTopk) topk_us.Ok(us);
      }
    }
    ledger.Ops(calls, bad, "direct session calls");
    times.api_embed_us_mean = embed_us.Mean();
    ledger.layer["api.embed_us_p50"] = {embed_us.Percentile(0.5), embed_us.count()};
    ledger.layer["api.similar_us_p50"] = {similar_us.Percentile(0.5), similar_us.count()};
    ledger.layer["api.topk_ms_p50"] = {topk_us.Percentile(0.5) * 1e-3, topk_us.count()};
  }
  return Status::OK();
}

// ---- One pass ----------------------------------------------------------------

struct PassResult {
  Ledger ledger;
  DynamicTimes dyn;
  ServeTimes serve;
  std::vector<perfbench::SpanRecord> spans;
};

Status RunPassInto(const Args& args, bool traced, const std::string& dir,
                   PassResult& out) {
  Tracer tracer(traced);
  Ledger& ledger = out.ledger;
  const bool mixed = args.workload == "serve_mixed";

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();  // stop the previous service before building the next
    STEDB_ASSIGN_OR_RETURN(
        setup, Steady(
                   ledger, "setup " + std::to_string(r),
                   [&] {
                     return DoSetup(args.seed, dir + "/serve" + std::to_string(r),
                                    tracer);
                   },
                   [](auto&) {}));
    setup_s.push_back(setup->seconds);
  }
  ledger.e2e["setup_s"] = {Median(setup_s), setup_s.size()};
  ledger.layer["exp.partition_ms"] = {setup->partition_ms, 1};
  ledger.layer["store.create_s"] = {setup->store_create_s, 1};
  ledger.layer["ann.build_s"] = {setup->ann_build_s, 1};

  STEDB_RETURN_IF_ERROR(
      RunDynamic(*setup, args.seed, dir, ledger, tracer, out.dyn));

  STEDB_RETURN_IF_ERROR(RunServe(*setup, args, mixed, ledger, tracer, out.serve));
  for (const MetricSpec& m : kUnboundedEndToEnd) {
    auto it = ledger.e2e.find(m.name);
    if (it != ledger.e2e.end()) ledger.layer[m.layer] = it->second;
  }

  setup.reset();
  out.spans = tracer.spans();
  return Status::OK();
}

// ---- Reporting ------------------------------------------------------------------

/// JSON has no infinity; a failed operation's +inf percentile is printed
/// as the largest double (the run is incorrect anyway).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <size_t N>
std::string MetricsJson(const MetricSpec (&specs)[N],
                        const std::map<std::string, Value>& values) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + m.name + "\": {\"value\": " +
           JsonNumber(it == values.end() ? 0.0 : it->second.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

template <size_t N>
void PrintTable(const char* title, const MetricSpec (&specs)[N],
                const std::map<std::string, Value>& values) {
  std::printf("\n%s\n", title);
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      std::printf("  %-40s %14s %-6s\n", m.name, "(missing)", m.unit);
    } else {
      std::printf("  %-40s %14.6g %-6s n=%zu\n", m.name, it->second.value,
                  m.unit, it->second.samples);
    }
  }
}

template <size_t N>
void CheckComplete(Ledger& ledger, const MetricSpec (&specs)[N],
                   const std::map<std::string, Value>& values) {
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    ledger.Check(it != values.end() && std::isfinite(it->second.value),
                 std::string(m.name) + " was not measured");
  }
}

void PrintTraceReport(const PassResult& untraced, const PassResult& traced) {
  std::printf("\nSelf time per layer (traced pass, spans recorded around "
              "each library call):\n");
  for (const auto& [name, secs] : perfbench::SelfSeconds(traced.spans)) {
    std::printf("  %-28s %10.4f s\n", name.c_str(), secs);
  }

  const Ledger& l = traced.ledger;
  const auto layer = [&](const char* n) {
    auto it = l.layer.find(n);
    return it == l.layer.end() ? 0.0 : it->second.value;
  };
  std::printf("\nWhere the time goes (traced pass):\n");
  const ServeTimes& st = traced.serve;
  std::printf("  /embed client mean %.1f us = transport %.1f us + handler "
              "%.1f us (of which session Embed %.2f us)\n",
              st.embed_client_us_mean,
              st.embed_client_us_mean - st.embed_handler_us_mean,
              st.embed_handler_us_mean, st.api_embed_us_mean);
  for (const auto& [name, logs] :
       {std::pair<const char*, const StreamLogs*>{"fwd", &traced.dyn.fwd},
        std::pair<const char*, const StreamLogs*>{"n2v", &traced.dyn.n2v}}) {
    std::printf("  %s arrival mean %.3f ms = replay %.3f ms + extend compute "
                "%.3f ms + journal append %.3f ms (per-arrival medians)\n",
                name, logs->arrival_ms.Mean(), logs->replay_us.Mean() * 1e-3,
                logs->compute_ms.Mean(), logs->journal_ms.Mean());
  }
  std::printf("  n2v_train_s %.3f s = walks %.3f s + SGNS %.3f s + residual "
              "%.3f s\n",
              traced.dyn.n2v_train_s, layer("graph.walks_s"),
              layer("n2v.sgns_s"), layer("n2v.train_residual_s"));

  std::printf("\nTracing overhead (traced - untraced, same seed):\n");
  std::vector<MetricSpec> all(std::begin(kEndToEnd), std::end(kEndToEnd));
  all.insert(all.end(), std::begin(kUnboundedEndToEnd), std::end(kUnboundedEndToEnd));
  for (const MetricSpec& m : all) {
    auto a = untraced.ledger.e2e.find(m.name);
    auto b = traced.ledger.e2e.find(m.name);
    if (a == untraced.ledger.e2e.end() || b == traced.ledger.e2e.end()) continue;
    const double d = b->second.value - a->second.value;
    std::printf("  %-22s %+12.4g %-6s (%+.1f%%)\n", m.name, d, m.unit,
                a->second.value != 0.0 ? 100.0 * d / a->second.value : 0.0);
  }
}

void PrintFailures(const Ledger& l) {
  for (const std::string& n : l.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : l.failures) std::printf("FAILED: %s\n", f.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload serve_read|serve_mixed --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n"
               "       ledger --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const MetricSpec& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--workdir") {
      args.workdir = v;
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else {
      return Usage();
    }
  }
  if ((args.workload != "serve_read" && args.workload != "serve_mixed") ||
      args.seconds < 1 || args.workdir.empty()) {
    return Usage();
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (kGeneratorThreads > static_cast<int>(cores) ||
      kConnections > static_cast<int>(cores)) {
    std::fprintf(stderr,
                 "load-shape guard: %d generator threads and %d connections "
                 "need at least that many cores, have %u\n",
                 kGeneratorThreads, kConnections, cores);
    return 1;
  }
  std::printf("ledger: workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("  dynamic: %s scale %.2f, %.0f%% of prediction tuples held out; "
              "store: %zu facts + %s psi, HNSW on; reads: %.0f req/s open loop "
              "over %d connections; writer: %.0f appends/s%s\n",
              kDynDataset, kDynScale, kNewRatio * 100, kStoreFacts, kPsiDataset,
              kReadRate, kReadConnections, kWriteRate,
              args.workload == "serve_mixed" ? " beside the reads"
                                             : " after the reads");

  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  const CpuTicks ticks_before = ReadCpuTicks();
  PassResult untraced;
  Status st = RunPassInto(args, false, args.workdir + "/untraced", untraced);
  PassResult traced;
  if (st.ok() && args.trace) {
    st = RunPassInto(args, true, args.workdir + "/traced", traced);
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  std::filesystem::remove_all(args.workdir);
  if (!st.ok()) {
    std::fprintf(stderr, "ledger: %s\n", st.ToString().c_str());
    return 1;
  }

  PrintTable("End-to-end metrics (untraced pass):", kEndToEnd, untraced.ledger.e2e);
  PrintTable("End-to-end figures without a bound (untraced pass; reported "
             "as the per-layer n2v.*, fwd.* and serve.* figures):",
             kUnboundedEndToEnd, untraced.ledger.e2e);
  CheckComplete(untraced.ledger, kEndToEnd, untraced.ledger.e2e);
  CheckComplete(untraced.ledger, kUnboundedEndToEnd, untraced.ledger.e2e);
  PrintFailures(untraced.ledger);
  {
    // Timings of a run during which the host ran other tenants on this
    // machine's CPUs are not comparable with those of a quiet run.
    const double stolen = StealPercent(ticks_before, ticks_after);
    std::printf("host steal: %.1f%% of CPU time went to other tenants%s\n",
                stolen, stolen > kStealFlagPercent ? " (FLAG: noisy host)" : "");
  }
  size_t attempted = untraced.ledger.attempted;
  size_t failed = untraced.ledger.failed;
  if (args.trace) {
    PrintTable("Per-layer metrics (traced pass):", kPerLayer, traced.ledger.layer);
    CheckComplete(traced.ledger, kPerLayer, traced.ledger.layer);
    PrintFailures(traced.ledger);
    PrintTraceReport(untraced, traced);
    attempted += traced.ledger.attempted;
    failed += traced.ledger.failed;
    if (!args.trace_out.empty()) {
      if (perfbench::WriteSpans(traced.spans, args.trace_out)) {
        std::printf("\nspans: %zu written to %s\n", traced.spans.size(),
                    args.trace_out.c_str());
      } else {
        std::printf("\nspans: cannot write %s\n", args.trace_out.c_str());
      }
    }
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              args.trace ? MetricsJson(kPerLayer, traced.ledger.layer).c_str()
                         : MetricsJson(kEndToEnd, untraced.ledger.e2e).c_str());
  return 0;
}
