// The public api layer: CreateMethod's name lookup, TrainStatic's null
// check, journaling through either method, the batch read path (EmbedBatch
// vs scalar Embed must be bit-identical for both methods, before and after
// dynamic extensions, at any thread count), and the fatal STEDB_SCALE
// rejection.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "src/api/embedder.h"
#include "src/data/registry.h"
#include "src/exp/embedding_method.h"
#include "src/exp/partition.h"
#include "src/exp/static_experiment.h"
#include "tests/test_util.h"

namespace stedb {
namespace {

using stedb::testing::InsertC4;
using stedb::testing::MovieDatabase;

exp::MethodConfig SmokeOptions() {
  return exp::MethodConfig::ForScale(exp::RunScale::kSmoke);
}

// ---- CreateMethod ------------------------------------------------------

/// CreateMethod + TrainStatic, failing the test on any error.
std::unique_ptr<api::Embedder> Trained(const db::Database& database,
                                       const std::string& method,
                                       const api::MethodOptions& options,
                                       uint64_t seed) {
  auto created = api::CreateMethod(method, options, seed);
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return nullptr;
  std::unique_ptr<api::Embedder> embedder = std::move(created).value();
  const Status st = embedder->TrainStatic(
      &database, database.schema().RelationIndex("COLLABORATIONS"), {});
  EXPECT_TRUE(st.ok()) << st;
  if (!st.ok()) return nullptr;
  return embedder;
}

TEST(CreateMethodTest, LookupIsCaseInsensitive) {
  EXPECT_TRUE(api::CreateMethod("FoRWaRD", SmokeOptions(), 1).ok());
  EXPECT_TRUE(api::CreateMethod("Node2Vec", SmokeOptions(), 1).ok());
}

TEST(CreateMethodTest, UnknownMethodIsNotFoundAndNamesBoth) {
  auto res = api::CreateMethod("no_such_method", SmokeOptions(), 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  // The error is actionable: it names the methods that do exist.
  EXPECT_NE(res.status().message().find("forward"), std::string::npos);
  EXPECT_NE(res.status().message().find("node2vec"), std::string::npos);
}

class MethodTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MethodTest, NullDatabaseRejected) {
  auto created = api::CreateMethod(GetParam(), SmokeOptions(), 1);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created.value()->TrainStatic(nullptr, 0, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(created.value()->dim(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, MethodTest,
                         ::testing::Values("forward", "node2vec"));

// ---- Journaling (either method) ----------------------------------------

class EngineJournalTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineJournalTest, AttachExtendVerifyIsBitExact) {
  // Every method journals through the same Embedder surface and recovers
  // bit-exactly.
  db::Database database = MovieDatabase();
  std::unique_ptr<api::Embedder> method =
      Trained(database, GetParam(), SmokeOptions(), 7);
  ASSERT_NE(method, nullptr);

  const std::string dir = ::testing::TempDir() + "/stedb_engine_journal_" +
                          std::string(GetParam());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(method->AttachJournal(dir).ok());

  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(method->ExtendToFacts({c4}).ok());

  auto drift = method->VerifyJournal();
  ASSERT_TRUE(drift.ok()) << drift.status();
  EXPECT_EQ(drift.value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, EngineJournalTest,
                         ::testing::Values("forward", "node2vec"));

// ---- Batch reads ---------------------------------------------------------

/// Allocating batch read: one row per fact.
la::Matrix EmbedBatch(const api::Embedder& method,
                      Span<const db::FactId> facts) {
  la::Matrix out(facts.size(), method.dim());
  const Status st = method.EmbedBatch(facts, out);
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

class EngineBatchTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineBatchTest, BatchMatchesScalarThroughExtension) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  std::unique_ptr<api::Embedder> method =
      Trained(database, GetParam(), SmokeOptions(), 42);
  ASSERT_NE(method, nullptr);
  EXPECT_GT(method->dim(), 0u);

  auto check_equivalence = [&](const std::vector<db::FactId>& facts) {
    la::Matrix batch(facts.size(), method->dim());
    ASSERT_TRUE(method->EmbedBatch(facts, batch).ok());
    for (size_t i = 0; i < facts.size(); ++i) {
      // Bit-identical, not approximately equal: the batch path must be
      // the same read, only vectorized.
      EXPECT_EQ(batch.Row(i), method->Embed(facts[i]).value())
          << "fact " << facts[i];
    }
  };

  std::vector<db::FactId> facts = database.FactsOf(collab);
  ASSERT_FALSE(facts.empty());
  check_equivalence(facts);

  // After a dynamic extension the new fact must round-trip too.
  db::FactId c4 = InsertC4(database);
  ASSERT_TRUE(method->ExtendToFacts({c4}).ok());
  facts.push_back(c4);
  check_equivalence(facts);
}

TEST_P(EngineBatchTest, ParallelBatchIsBitIdenticalToSerial) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  // Two instances, same seed, different thread pins: the batch gather
  // must not depend on the pool size.
  exp::MethodConfig serial_cfg = SmokeOptions();
  serial_cfg.forward.threads = 1;
  serial_cfg.node2vec.sg.threads = 1;
  serial_cfg.node2vec.walk.threads = 1;
  exp::MethodConfig parallel_cfg = SmokeOptions();
  parallel_cfg.forward.threads = 4;
  parallel_cfg.node2vec.sg.threads = 4;
  parallel_cfg.node2vec.walk.threads = 4;
  std::unique_ptr<api::Embedder> serial =
      Trained(database, GetParam(), serial_cfg, 42);
  std::unique_ptr<api::Embedder> parallel =
      Trained(database, GetParam(), parallel_cfg, 42);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  // Cycle the fact list well past the parallel-gather threshold so the
  // 4-thread instance actually fans out.
  const std::vector<db::FactId> base = database.FactsOf(collab);
  std::vector<db::FactId> many;
  for (size_t i = 0; i < 200; ++i) many.push_back(base[i % base.size()]);
  la::Matrix a = EmbedBatch(*serial, many);
  la::Matrix b = EmbedBatch(*parallel, many);
  EXPECT_EQ(a.data(), b.data());
}

TEST_P(EngineBatchTest, BatchErrorCases) {
  db::Database database = MovieDatabase();
  const db::RelationId collab =
      database.schema().RelationIndex("COLLABORATIONS");
  std::unique_ptr<api::Embedder> method =
      Trained(database, GetParam(), SmokeOptions(), 7);
  ASSERT_NE(method, nullptr);

  const std::vector<db::FactId> facts = database.FactsOf(collab);
  la::Matrix wrong_rows(facts.size() + 1, method->dim());
  EXPECT_EQ(method->EmbedBatch(facts, wrong_rows).code(),
            StatusCode::kInvalidArgument);
  la::Matrix wrong_cols(facts.size(), method->dim() + 1);
  EXPECT_EQ(method->EmbedBatch(facts, wrong_cols).code(),
            StatusCode::kInvalidArgument);

  std::vector<db::FactId> with_missing = facts;
  with_missing.push_back(123456);  // never embedded
  la::Matrix out(with_missing.size(), method->dim());
  EXPECT_EQ(method->EmbedBatch(with_missing, out).code(),
            StatusCode::kNotFound);

  la::Matrix empty(0, method->dim());
  EXPECT_TRUE(method->EmbedBatch(Span<const db::FactId>(), empty).ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, EngineBatchTest,
                         ::testing::Values("forward", "node2vec"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// ---- STEDB_SCALE hard rejection ---------------------------------------

using ScaleFromEnvDeathTest = ::testing::Test;

TEST(ScaleFromEnvDeathTest, UnknownScaleIsFatal) {
  EXPECT_EXIT(
      {
        ::setenv("STEDB_SCALE", "smokee", 1);
        exp::ScaleFromEnv();
      },
      ::testing::ExitedWithCode(1), "unknown STEDB_SCALE");
}

TEST(ScaleFromEnvTest, KnownScalesParse) {
  ::setenv("STEDB_SCALE", "smoke", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kSmoke);
  ::setenv("STEDB_SCALE", "default", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
  ::setenv("STEDB_SCALE", "paper", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kPaper);
  ::setenv("STEDB_SCALE", "", 1);
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
  ::unsetenv("STEDB_SCALE");
  EXPECT_EQ(exp::ScaleFromEnv(), exp::RunScale::kDefault);
}

}  // namespace
}  // namespace stedb
