// The serving path: zero-copy mmap snapshot reads, WAL tailing via
// ServingSession::Poll, and the headline guarantee — every vector served
// from the store directory is bit-identical to the trainer's in-memory
// model, including after extension batches and a Compact().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/api/serving.h"
#include "src/fwd/codec.h"
#include "src/fwd/forward.h"
#include "src/fwd/trainer.h"
#include "src/n2v/codec.h"
#include "src/n2v/node2vec.h"
#include "src/store/embedding_store.h"
#include "src/store/format.h"
#include "src/store/mmap_snapshot.h"
#include "src/store/stored_model.h"
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

fwd::ForwardModel TrainSmall() {
  static db::Database database = MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);
  fwd::ForwardConfig cfg = SmallConfig();
  fwd::ForwardTrainer trainer(&database, &kernels, cfg);
  return std::move(
             trainer.Train(database.schema().RelationIndex("ACTORS"), {}))
      .value();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

la::Vector TestVector(size_t dim, int tag) {
  la::Vector v(dim);
  for (size_t i = 0; i < dim; ++i) {
    v[i] = 0.125 * static_cast<double>(tag) + static_cast<double>(i) / 7.0;
  }
  return v;
}

/// Bit-exact comparison of a served span against a model vector.
void ExpectSameBits(Span<const double> served, const la::Vector& expected) {
  ASSERT_EQ(served.size(), expected.size());
  EXPECT_EQ(std::memcmp(served.data(), expected.data(),
                        expected.size() * sizeof(double)),
            0);
}

// ---- MmapSnapshot ------------------------------------------------------

TEST(MmapSnapshotTest, ServesEveryVectorBitIdentically) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_basic");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  auto snap = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().dim(), model.dim());
  EXPECT_EQ(snap.value().relation(), model.relation());
  EXPECT_EQ(snap.value().num_embedded(), model.num_embedded());
  EXPECT_EQ(snap.value().mapped_bytes(),
            std::filesystem::file_size(path));
  for (const auto& [f, v] : model.all_phi()) {
    ExpectSameBits(snap.value().phi(f), v);
  }
  // fact_at enumerates ascending.
  for (size_t i = 1; i < snap.value().num_embedded(); ++i) {
    EXPECT_LT(snap.value().fact_at(i - 1), snap.value().fact_at(i));
  }
  EXPECT_TRUE(snap.value().phi(987654).empty());
}

TEST(MmapSnapshotTest, AgreesWithCopyingParser) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_vs_copy");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());
  std::string bytes;
  ASSERT_TRUE(store::ReadFileToString(path, &bytes).ok());
  auto copied = fwd::DecodeForwardSnapshot(bytes);
  auto mapped = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(copied.ok());
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(copied.value().num_embedded(), mapped.value().num_embedded());
  for (const auto& [f, v] : copied.value().all_phi()) {
    ExpectSameBits(mapped.value().phi(f), v);
  }
}

TEST(MmapSnapshotTest, RejectsCorruption) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_corrupt");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  std::string bytes;
  ASSERT_TRUE(store::ReadFileToString(path, &bytes).ok());
  // Flip one byte late in the file (inside the PHI payload).
  std::string flipped = bytes;
  flipped[flipped.size() - 9] ^= 0x40;
  ASSERT_TRUE(store::AtomicWriteFile(path, flipped).ok());
  EXPECT_FALSE(store::MmapSnapshot::Open(path).ok());

  // Truncation is rejected too.
  ASSERT_TRUE(
      store::AtomicWriteFile(path, bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(store::MmapSnapshot::Open(path).ok());

  // And a missing file.
  EXPECT_FALSE(store::MmapSnapshot::Open(dir + "/nope.snap").ok());
}

TEST(MmapSnapshotTest, ServesPsiMatricesZeroCopy) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("mmap_snapshot_psi");
  const std::string path = dir + "/model.snap";
  ASSERT_TRUE(
      store::AtomicWriteFile(path, fwd::EncodeForwardSnapshot(model)).ok());

  auto snap = store::MmapSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().method_tag(), fwd::kForwardMethodTag);
  ASSERT_EQ(snap.value().num_psi(), model.targets().size());
  for (size_t t = 0; t < model.targets().size(); ++t) {
    Span<const double> view = snap.value().psi(t);
    const la::Matrix& expected = model.psi(t);
    ASSERT_EQ(view.size(), expected.rows() * expected.cols());
    // Bit-exact, row-major, straight off the mapping — the layout a
    // serving-side φᵀψφ scorer would consume.
    EXPECT_EQ(std::memcmp(view.data(), expected.data().data(),
                          view.size() * sizeof(double)),
              0)
        << "psi " << t;
  }
  // Out-of-range target: empty view, not UB.
  EXPECT_TRUE(snap.value().psi(model.targets().size()).empty());
  EXPECT_TRUE(snap.value().psi(model.targets().size() + 7).empty());
}

TEST(MmapSnapshotTest, Node2VecSnapshotHasNoPsiAndStillServes) {
  const size_t dim = 6;
  auto model = std::make_unique<store::VectorSetModel>(dim, -1);
  for (int i = 0; i < 5; ++i) model->set_phi(10 + i, TestVector(dim, i));
  const std::string dir = FreshDir("mmap_snapshot_n2v");
  auto created =
      store::EmbeddingStore::Create(dir, "node2vec", std::move(model));
  ASSERT_TRUE(created.ok()) << created.status();

  auto snap = store::MmapSnapshot::Open(
      store::EmbeddingStore::SnapshotPath(dir));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().num_psi(), 0u);
  EXPECT_TRUE(snap.value().psi(0).empty());
  EXPECT_EQ(snap.value().dim(), dim);
  EXPECT_EQ(snap.value().num_embedded(), 5u);
  for (int i = 0; i < 5; ++i) {
    ExpectSameBits(snap.value().phi(10 + i), TestVector(dim, i));
  }
}

// ---- ServingSession ----------------------------------------------------

TEST(ServingSessionTest, ColdOpenServesTrainedModelBitIdentically) {
  db::Database database = MovieDatabase();
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  ASSERT_TRUE(emb.ok());
  const std::string dir = FreshDir("serving_cold");
  auto st = fwd::CreateForwardStore(dir, emb.value().model());
  ASSERT_TRUE(st.ok());

  auto session = api::ServingSession::Open(dir);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session.value().dim(), emb.value().dim());
  EXPECT_EQ(session.value().num_embedded(),
            emb.value().model().num_embedded());
  for (const auto& [f, v] : emb.value().model().all_phi()) {
    ExpectSameBits(session.value().Embed(f).value(), v);
  }
  EXPECT_EQ(session.value().Embed(424242).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingSessionTest, PollPicksUpLiveExtensions) {
  // Trainer process: train, journal, extend. Reader process: open cold
  // BEFORE the extension, Poll after it, serve the new fact bit-exactly.
  db::Database database = MovieDatabase();
  auto emb = fwd::ForwardEmbedder::TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {},
      SmallConfig());
  ASSERT_TRUE(emb.ok());
  const std::string dir = FreshDir("serving_poll");
  auto created = fwd::CreateForwardStore(dir, emb.value().model());
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  emb.value().set_extension_sink(store.MakeSink());

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(emb.value().ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());

  // Before Poll the new fact is invisible; after, bit-identical.
  EXPECT_EQ(session.Embed(c4).status().code(), StatusCode::kNotFound);
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  EXPECT_FALSE(session.reopened());
  ExpectSameBits(session.Embed(c4).value(), emb.value().model().phi(c4));
  // Idempotent: nothing new on a second Poll.
  EXPECT_EQ(session.Poll().value(), 0u);

  // The whole model — snapshot residents and the tailed fact — in one
  // batch read, bit-identical to the in-memory embedder.
  std::vector<db::FactId> facts;
  for (const auto& [f, v] : emb.value().model().all_phi()) {
    facts.push_back(f);
  }
  la::Matrix served(facts.size(), session.dim());
  ASSERT_TRUE(session.EmbedBatch(facts, served).ok());
  la::Matrix live(facts.size(), emb.value().dim());
  ASSERT_TRUE(emb.value().EmbedBatch(facts, live).ok());
  EXPECT_EQ(served.data(), live.data());
}

TEST(ServingSessionTest, MultipleExtensionBatchesAndCompact) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_compact");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const size_t dim = model.dim();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();

  // Batch 1.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Append(1000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 5u);
  // Batch 2.
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(store.Append(1000 + i, TestVector(dim, i)).ok());
  }
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 3u);
  for (int i = 0; i < 8; ++i) {
    ExpectSameBits(session.Embed(1000 + i).value(), TestVector(dim, i));
  }

  // Writer compacts: journal folds into a fresh snapshot. The session
  // notices the new snapshot identity, reopens, and serves the exact same
  // vectors (nothing new arrived).
  ASSERT_TRUE(store.Compact().ok());
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_TRUE(session.reopened());
  EXPECT_EQ(polled.value(), 0u);
  EXPECT_EQ(session.wal_records(), 0u);  // everything snapshot-resident now
  for (int i = 0; i < 8; ++i) {
    ExpectSameBits(session.Embed(1000 + i).value(), TestVector(dim, i));
  }
  store.model().ForEachPhi([&](db::FactId f, const la::Vector& v) {
    ExpectSameBits(session.Embed(f).value(), v);
  });

  // Appends after the compaction flow through the fresh journal.
  ASSERT_TRUE(store.Append(2000, TestVector(dim, 99)).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 1u);
  EXPECT_FALSE(session.reopened());
  ExpectSameBits(session.Embed(2000).value(), TestVector(dim, 99));
}

TEST(ServingSessionTest, OverlappingWalRecordCountsOnce) {
  // The compaction crash window can leave a journal record for a fact the
  // snapshot already holds. The overlay must win for reads and the fact
  // must count once in num_embedded().
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_overlap");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();
  const size_t baseline = session.num_embedded();
  ASSERT_EQ(baseline, model.num_embedded());

  const db::FactId existing = model.all_phi().begin()->first;
  const la::Vector replacement = TestVector(model.dim(), 55);
  ASSERT_TRUE(store.Append(existing, replacement).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Poll().value(), 1u);
  EXPECT_EQ(session.num_embedded(), baseline);  // same fact set
  ExpectSameBits(session.Embed(existing).value(), replacement);
}

TEST(ServingSessionTest, TornTailIsPendingDataNotCorruption) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_torn");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  ASSERT_TRUE(store.Close().ok());
  const size_t dim = model.dim();

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok());
  api::ServingSession session = std::move(session_result).value();

  // Hand-craft one full WAL record, then append it in two halves to
  // simulate racing a writer mid-append.
  const la::Vector phi = TestVector(dim, 3);
  std::string payload;
  store::AppendI64(payload, 777);
  for (double x : phi) store::AppendDouble(payload, x);
  std::string record;
  store::AppendU32(record, static_cast<uint32_t>(payload.size()));
  store::AppendU32(record, store::Crc32(payload.data(), payload.size()));
  record += payload;

  const std::string wal_path = store::EmbeddingStore::WalPath(dir);
  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal.write(record.data(),
              static_cast<std::streamsize>(record.size() / 2));
  }
  // Half a record on disk: Poll sees pending data, applies nothing, and
  // does not error or advance past it.
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 0u);
  EXPECT_EQ(session.Embed(777).status().code(), StatusCode::kNotFound);

  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal.write(record.data() + record.size() / 2,
              static_cast<std::streamsize>(record.size() -
                                           record.size() / 2));
  }
  // The record completed: the very next Poll serves it.
  EXPECT_EQ(session.Poll().value(), 1u);
  ExpectSameBits(session.Embed(777).value(), phi);
}

TEST(ServingSessionTest, BatchShapeAndMissingFactErrors) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_errors");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto session = api::ServingSession::Open(dir);
  ASSERT_TRUE(session.ok());

  std::vector<db::FactId> facts = {model.all_phi().begin()->first};
  la::Matrix wrong(facts.size(), model.dim() + 1);
  EXPECT_EQ(session.value().EmbedBatch(facts, wrong).code(),
            StatusCode::kInvalidArgument);
  facts.push_back(999999);
  la::Matrix out(facts.size(), model.dim());
  EXPECT_EQ(session.value().EmbedBatch(facts, out).code(),
            StatusCode::kNotFound);
}

TEST(ServingSessionTest, OpenFailsWithoutStore) {
  const std::string dir = FreshDir("serving_missing");
  EXPECT_FALSE(api::ServingSession::Open(dir).ok());
}

// ---- Serving any method ------------------------------------------------

TEST(ServingSessionTest, Node2VecTrainSnapshotExtendPollRoundTrip) {
  // The acceptance scenario for method-agnostic serving: a Node2Vec store
  // directory opens in a ServingSession and serves vectors bit-identical
  // to the live model — cold after the snapshot, and through Poll() for
  // extensions journaled later.
  db::Database database = MovieDatabase();
  n2v::Node2VecConfig cfg;
  cfg.sg.dim = 8;
  cfg.sg.epochs = 2;
  cfg.walk.walks_per_node = 4;
  cfg.walk.walk_length = 6;
  cfg.dynamic_epochs = 2;
  cfg.seed = 17;
  auto emb = n2v::Node2VecEmbedding::TrainStatic(&database, cfg);
  ASSERT_TRUE(emb.ok()) << emb.status();
  n2v::Node2VecEmbedding embedding = std::move(emb).value();

  const std::string dir = FreshDir("serving_n2v");
  auto created = store::EmbeddingStore::Create(
      dir, "node2vec", n2v::SnapshotVectors(embedding));
  ASSERT_TRUE(created.ok()) << created.status();
  store::EmbeddingStore store = std::move(created).value();
  embedding.set_extension_sink(store.MakeSink());

  auto session_result = api::ServingSession::Open(dir);
  ASSERT_TRUE(session_result.ok()) << session_result.status();
  api::ServingSession session = std::move(session_result).value();
  EXPECT_EQ(session.dim(), embedding.dim());
  const std::vector<db::FactId> trained = embedding.EmbeddedFacts();
  EXPECT_EQ(session.num_embedded(), trained.size());
  for (db::FactId f : trained) {
    ExpectSameBits(session.Embed(f).value(), embedding.Embed(f).value());
  }

  // Extend: the new fact's final vector goes through the sink into the
  // WAL; a Poll() catches the reader up, bit-identically.
  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(embedding.ExtendToFacts({c4}).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(session.Embed(c4).status().code(), StatusCode::kNotFound);
  auto polled = session.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status();
  EXPECT_EQ(polled.value(), 1u);
  ExpectSameBits(session.Embed(c4).value(), embedding.Embed(c4).value());

  // Batch read across snapshot residents + the tailed extension.
  std::vector<db::FactId> all = embedding.EmbeddedFacts();
  la::Matrix served(all.size(), session.dim());
  ASSERT_TRUE(session.EmbedBatch(all, served).ok());
  la::Matrix live(all.size(), embedding.dim());
  ASSERT_TRUE(embedding.EmbedBatch(all, live).ok());
  EXPECT_EQ(served.data(), live.data());

  // And the writer-side compaction folds through the Node2Vec codec with
  // the session transparently reopening.
  ASSERT_TRUE(store.Compact().ok());
  ASSERT_TRUE(session.Poll().ok());
  EXPECT_TRUE(session.reopened());
  ExpectSameBits(session.Embed(c4).value(), embedding.Embed(c4).value());
}

// ---- Serving-side scoring (φᵀψφ off the mapping) -----------------------

TEST(ServingScoreTest, ScoreIsBitEqualToTrainerKernel) {
  // The /topk acceptance bar: the serving-side scorer reads ψ straight
  // off the mmap'd snapshot and must produce the exact double the trainer
  // computes in memory — same BilinearForm core, same operation order,
  // same bytes, so equality is ==, not near.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const api::ServingSession& session = opened.value();
  ASSERT_EQ(session.num_psi(), model.targets().size());

  std::vector<db::FactId> facts;
  for (const auto& [f, v] : model.all_phi()) facts.push_back(f);
  std::sort(facts.begin(), facts.end());
  ASSERT_GE(facts.size(), 2u);
  for (size_t t = 0; t < model.targets().size(); ++t) {
    for (size_t i = 0; i + 1 < facts.size(); i += 2) {
      auto served = session.Score(facts[i], facts[i + 1], t);
      ASSERT_TRUE(served.ok()) << served.status();
      EXPECT_EQ(served.value(), model.Score(facts[i], facts[i + 1], t))
          << "target " << t << " pair " << facts[i] << "," << facts[i + 1];
    }
  }
}

TEST(ServingScoreTest, ScoreCoversWalResidentFacts) {
  // A fact that only lives in the journal tail scores against snapshot
  // residents — the overlay feeds the same BilinearForm as the mapping.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score_wal");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const la::Vector phi = TestVector(model.dim(), 4);
  ASSERT_TRUE(store.Append(7777, phi).ok());
  ASSERT_TRUE(store.Sync().ok());

  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const db::FactId resident = model.all_phi().begin()->first;
  auto served = opened.value().Score(7777, resident, 0);
  ASSERT_TRUE(served.ok()) << served.status();
  // Trainer-side reference: the identical operation on the same inputs.
  EXPECT_EQ(served.value(),
            la::BilinearForm(phi, model.psi(0), model.phi(resident)));
}

TEST(ServingScoreTest, TopKMatchesBruteForceAndBreaksTiesByFactId) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_topk");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const api::ServingSession& session = opened.value();

  std::vector<db::FactId> facts = session.ServedFacts();
  const db::FactId query = facts.front();
  const size_t k = 5;
  auto top = session.TopK(query, k, 0);
  ASSERT_TRUE(top.ok()) << top.status();
  ASSERT_EQ(top.value().size(), std::min(k, facts.size()));

  // Reference ranking from the trainer-side kernel.
  std::vector<api::ServingSession::Scored> expected;
  for (db::FactId g : facts) {
    expected.push_back({g, model.Score(query, g, 0)});
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.fact < b.fact;
            });
  for (size_t i = 0; i < top.value().size(); ++i) {
    EXPECT_EQ(top.value()[i].fact, expected[i].fact) << "rank " << i;
    EXPECT_EQ(top.value()[i].score, expected[i].score) << "rank " << i;
  }

  // k larger than the store: everything, still sorted.
  auto all = session.TopK(query, facts.size() + 100, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), facts.size());
}

TEST(ServingScoreTest, ScoreErrorCases) {
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_score_errors");
  ASSERT_TRUE(fwd::CreateForwardStore(dir, model).ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  const db::FactId f = model.all_phi().begin()->first;
  EXPECT_EQ(opened.value().Score(f, 999999, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      opened.value().Score(f, f, model.targets().size()).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(opened.value().TopK(999999, 3, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(ServingScoreTest, MethodsWithoutPsiFailPrecondition) {
  // Node2Vec persists no ψ sections; scoring must say so, not crash.
  const size_t dim = 6;
  auto vectors = std::make_unique<store::VectorSetModel>(dim, -1);
  for (int i = 0; i < 4; ++i) vectors->set_phi(10 + i, TestVector(dim, i));
  const std::string dir = FreshDir("serving_score_n2v");
  ASSERT_TRUE(
      store::EmbeddingStore::Create(dir, "node2vec", std::move(vectors))
          .ok());
  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().num_psi(), 0u);
  EXPECT_EQ(opened.value().Score(10, 11, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(opened.value().TopK(10, 3, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

// ---- Writer/reader stress ----------------------------------------------

TEST(ServingStressTest, ConcurrentWriterAndPollingReaderLoseNothing) {
  // One thread appends (and periodically compacts) while another Polls and
  // reads. The two processes share only the store directory — exactly the
  // deployment the serve layer runs. The reader must never see a torn or
  // wrong vector, and after the writer finishes, one final Poll must serve
  // every appended fact bit-exactly.
  fwd::ForwardModel model = TrainSmall();
  const std::string dir = FreshDir("serving_stress");
  auto created = fwd::CreateForwardStore(dir, model);
  ASSERT_TRUE(created.ok());
  store::EmbeddingStore store = std::move(created).value();
  const size_t dim = model.dim();
  constexpr int kFacts = 200;
  constexpr db::FactId kBase = 50000;

  auto opened = api::ServingSession::Open(dir);
  ASSERT_TRUE(opened.ok());
  api::ServingSession session = std::move(opened).value();

  std::atomic<bool> writer_done{false};
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kFacts; ++i) {
      if (!store.Append(kBase + i, TestVector(dim, i)).ok() ||
          !store.Sync().ok()) {
        write_failures.fetch_add(1);
        break;
      }
      if (i % 64 == 63 && !store.Compact().ok()) {
        write_failures.fetch_add(1);
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Reader: Poll and verify whatever is visible so far. Every served
  // vector must already be bit-correct — a fact is either absent or
  // exactly right, never torn.
  int verified = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    auto polled = session.Poll();
    ASSERT_TRUE(polled.ok()) << polled.status();
    for (int i = 0; i < kFacts; ++i) {
      auto v = session.Embed(kBase + i);
      if (!v.ok()) {
        EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
        continue;
      }
      ExpectSameBits(v.value(), TestVector(dim, i));
      ++verified;
    }
  }
  writer.join();
  ASSERT_EQ(write_failures.load(), 0);

  // Catch-up: after the writer is done, every fact is served bit-exactly.
  // (Two Polls: the first may consume a pre-compaction tail + reopen.)
  ASSERT_TRUE(session.Poll().ok());
  ASSERT_TRUE(session.Poll().ok());
  EXPECT_EQ(session.num_embedded(), model.num_embedded() + kFacts);
  for (int i = 0; i < kFacts; ++i) {
    ExpectSameBits(session.Embed(kBase + i).value(), TestVector(dim, i));
  }
  // The loop did real interleaved verification, not just the epilogue.
  EXPECT_GT(verified, 0);
}

}  // namespace
}  // namespace stedb
