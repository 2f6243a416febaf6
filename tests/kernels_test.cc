#include "src/la/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/fwd/kernel.h"
#include "src/fwd/trainer.h"
#include "src/n2v/skipgram.h"
#include "src/n2v/vocab.h"
#include "tests/test_util.h"

namespace stedb::la {
namespace {

using stedb::testing::HasAvx2;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality — EXPECT_EQ on doubles would conflate +0.0/-0.0 and
/// choke on NaN; the determinism contract is about bytes.
::testing::AssertionResult BitEq(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << Bits(a) << ") vs " << b << " (0x"
         << Bits(b) << ")";
}

::testing::AssertionResult BitEq(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << BitEq(a[i], b[i]).message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Lengths that exercise every tail shape of the blocked reduction: below
/// one lane group, partial groups, exact block multiples, one past.
std::vector<size_t> FuzzLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 17; ++n) lens.push_back(n);
  for (size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u, 255u,
                   511u, 512u, 513u}) {
    lens.push_back(n);
  }
  return lens;
}

/// A buffer of Gaussian doubles with `off` leading padding elements so the
/// payload pointer is deliberately misaligned relative to the allocation.
std::vector<double> RandomBuf(Rng& rng, size_t n, size_t off) {
  std::vector<double> buf(n + off);
  for (double& x : buf) x = rng.NextGaussian(0.0, 1.0);
  return buf;
}

TEST(KernelsDispatchTest, ActivePathIsCoherent) {
  const KernelOps& ops = Kernels();
  EXPECT_EQ(ops.path, ActiveSimdPath());
  EXPECT_STREQ(ops.name, ActiveSimdPathName());
  EXPECT_STREQ(SimdPathName(ops.path), ops.name);
  if (ops.path == SimdPath::kAvx2) {
    EXPECT_TRUE(HasAvx2());
  }
}

TEST(KernelsDispatchTest, ScalarOpsAlwaysAvailable) {
  const KernelOps& ops = internal::ScalarOps();
  EXPECT_EQ(ops.path, SimdPath::kScalar);
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(ops.dot(a, b, 3), 32.0);
}

TEST(KernelsDispatchTest, ParseSimdOverride) {
  SimdPath p;
  EXPECT_FALSE(internal::ParseSimdOverride(nullptr, &p));
  EXPECT_FALSE(internal::ParseSimdOverride("", &p));
  EXPECT_FALSE(internal::ParseSimdOverride("auto", &p));
  EXPECT_TRUE(internal::ParseSimdOverride("scalar", &p));
  EXPECT_EQ(p, SimdPath::kScalar);
  EXPECT_TRUE(internal::ParseSimdOverride("avx2", &p));
  EXPECT_EQ(p, SimdPath::kAvx2);
}

TEST(KernelsDispatchDeathTest, UnknownOverrideAborts) {
  SimdPath p;
  EXPECT_DEATH_IF_SUPPORTED(internal::ParseSimdOverride("sse9", &p),
                            "unknown STEDB_SIMD");
}

// ---- Scalar vs AVX2 bit-equality fuzz ---------------------------------
// The heart of the determinism contract: every kernel, every tail shape,
// every pointer misalignment, compared bit-for-bit between the two
// instantiations of the shared reduction template.

TEST(KernelsBitEqualityTest, ReductionsMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(1234);
  for (size_t n : FuzzLengths()) {
    for (size_t off = 0; off < 4; ++off) {
      std::vector<double> ab = RandomBuf(rng, n, off);
      std::vector<double> bb = RandomBuf(rng, n, off);
      const double* a = ab.data() + off;
      const double* b = bb.data() + off;
      EXPECT_TRUE(BitEq(sc.dot(a, b, n), vx.dot(a, b, n)))
          << "dot n=" << n << " off=" << off;
      EXPECT_TRUE(BitEq(sc.norm2sq(a, n), vx.norm2sq(a, n)))
          << "norm2sq n=" << n << " off=" << off;
      EXPECT_TRUE(BitEq(sc.dist2(a, b, n), vx.dist2(a, b, n)))
          << "dist2 n=" << n << " off=" << off;
    }
  }
}

TEST(KernelsBitEqualityTest, ElementwiseUpdatesMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(987);
  for (size_t n : FuzzLengths()) {
    for (size_t off = 0; off < 4; ++off) {
      const std::vector<double> src = RandomBuf(rng, n, off);
      const std::vector<double> src2 = RandomBuf(rng, n, off);
      const double s1 = rng.NextGaussian(0.0, 1.0);
      const double s2 = rng.NextGaussian(0.0, 1.0);

      std::vector<double> out_sc = RandomBuf(rng, n, off);
      std::vector<double> out_vx = out_sc;
      sc.axpy(s1, src.data() + off, out_sc.data() + off, n);
      vx.axpy(s1, src.data() + off, out_vx.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx)) << "axpy n=" << n << " off=" << off;

      sc.scale(out_sc.data() + off, s1, src.data() + off, n);
      vx.scale(out_vx.data() + off, s1, src.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx)) << "scale n=" << n << " off=" << off;

      sc.scale_add(out_sc.data() + off, s1, src.data() + off, s2,
                   src2.data() + off, n);
      vx.scale_add(out_vx.data() + off, s1, src.data() + off, s2,
                   src2.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx))
          << "scale_add n=" << n << " off=" << off;

      sc.copy_row(out_sc.data() + off, src.data() + off, n);
      vx.copy_row(out_vx.data() + off, src.data() + off, n);
      EXPECT_TRUE(BitEq(out_sc, out_vx))
          << "copy_row n=" << n << " off=" << off;

      // adam_step: three chained steps (bias corrections of t = 1..3),
      // the last with an all-zero gradient, on non-negative second
      // moments — every buffer compared after every step.
      std::vector<double> p_sc = RandomBuf(rng, n, off), p_vx = p_sc;
      std::vector<double> m_sc = RandomBuf(rng, n, off), m_vx = m_sc;
      std::vector<double> v_sc = RandomBuf(rng, n, off);
      for (double& x : v_sc) x = x * x;
      std::vector<double> v_vx = v_sc;
      const std::vector<double> zero(n + off, 0.0);
      for (int t = 1; t <= 3; ++t) {
        const AdamCoeffs c{0.9,
                           0.999,
                           1.0 - std::pow(0.9, t),
                           1.0 - std::pow(0.999, t),
                           0.01 * std::fabs(s1),
                           1e-8};
        const double* g = t < 3 ? src.data() + off : zero.data() + off;
        sc.adam_step(p_sc.data() + off, m_sc.data() + off, v_sc.data() + off,
                     g, n, c);
        vx.adam_step(p_vx.data() + off, m_vx.data() + off, v_vx.data() + off,
                     g, n, c);
        EXPECT_TRUE(BitEq(p_sc, p_vx))
            << "adam_step p n=" << n << " off=" << off << " t=" << t;
        EXPECT_TRUE(BitEq(m_sc, m_vx))
            << "adam_step m n=" << n << " off=" << off << " t=" << t;
        EXPECT_TRUE(BitEq(v_sc, v_vx))
            << "adam_step v n=" << n << " off=" << off << " t=" << t;
      }
    }
  }
}

TEST(KernelsBitEqualityTest, MatrixKernelsMatchScalarBitForBit) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(555);
  const size_t shapes[][2] = {{1, 1},  {1, 5},  {3, 5},   {5, 3},
                              {8, 8},  {7, 13}, {16, 16}, {4, 64},
                              {33, 17}};
  for (const auto& shape : shapes) {
    const size_t rows = shape[0], cols = shape[1];
    std::vector<double> m = RandomBuf(rng, rows * cols, 0);
    std::vector<double> x = RandomBuf(rng, rows, 0);
    std::vector<double> y = RandomBuf(rng, cols, 0);
    // Sprinkle zeros into x: BilinearImpl skips zero x_i rows and the skip
    // must not depend on the path.
    for (size_t i = 0; i < rows; i += 3) x[i] = 0.0;

    std::vector<double> out_sc(rows), out_vx(rows);
    sc.matvec(m.data(), rows, cols, y.data(), out_sc.data());
    vx.matvec(m.data(), rows, cols, y.data(), out_vx.data());
    EXPECT_TRUE(BitEq(out_sc, out_vx))
        << "matvec " << rows << "x" << cols;

    EXPECT_TRUE(BitEq(sc.bilinear(x.data(), m.data(), y.data(), rows, cols),
                      vx.bilinear(x.data(), m.data(), y.data(), rows, cols)))
        << "bilinear " << rows << "x" << cols;
  }
}

TEST(KernelsBitEqualityTest, KahanStressSumsStayIdentical) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  // Wildly mixed magnitudes, where any reordering of the reduction tree
  // would change the rounded result — the sharpest available probe that
  // the two paths really run the same summation order.
  const KernelOps& sc = internal::OpsFor(SimdPath::kScalar);
  const KernelOps& vx = internal::OpsFor(SimdPath::kAvx2);
  Rng rng(42);
  for (size_t n : {64u, 255u, 513u}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      const int exp10 = static_cast<int>(rng.NextUint(30)) - 15;
      a[i] = rng.NextGaussian(0.0, 1.0) * std::pow(10.0, exp10);
      b[i] = rng.NextGaussian(0.0, 1.0) * std::pow(10.0, -exp10);
    }
    EXPECT_TRUE(BitEq(sc.dot(a.data(), b.data(), n),
                      vx.dot(a.data(), b.data(), n)))
        << "stress dot n=" << n;
  }
}

// ---- End-to-end training bit-equality ---------------------------------
// Train entire models with the dispatch forced to each path and require
// byte-identical parameters: the property that keeps persisted models,
// journal bytes and served vectors stable across heterogeneous machines.

fwd::ForwardConfig TinyForwardConfig() {
  fwd::ForwardConfig cfg;
  cfg.dim = 8;
  cfg.max_walk_len = 2;
  cfg.nsamples = 8;
  cfg.epochs = 3;
  cfg.lr = 0.01;
  cfg.seed = 77;
  return cfg;
}

TEST(KernelsEndToEndTest, ForwardTrainingBitIdenticalAcrossPaths) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  stedb::testing::SimdPathGuard guard;
  db::Database database = stedb::testing::MovieDatabase();
  auto kernels = fwd::KernelRegistry::Defaults(database);

  auto train = [&](SimdPath path) {
    internal::ForceSimdPathForTest(path);
    fwd::ForwardTrainer trainer(&database, &kernels, TinyForwardConfig());
    auto model = trainer.Train(database.schema().RelationIndex("ACTORS"), {});
    EXPECT_TRUE(model.ok()) << model.status();
    return std::move(model).value();
  };
  fwd::ForwardModel scalar_model = train(SimdPath::kScalar);
  fwd::ForwardModel avx2_model = train(SimdPath::kAvx2);

  for (const auto& [f, v] : scalar_model.all_phi()) {
    EXPECT_TRUE(BitEq(v, avx2_model.phi(f))) << "phi of fact " << f;
  }
  for (size_t t = 0; t < scalar_model.targets().size(); ++t) {
    EXPECT_TRUE(BitEq(scalar_model.psi(t).data(), avx2_model.psi(t).data()))
        << "psi " << t;
  }
}

TEST(KernelsEndToEndTest, SkipGramTrainingBitIdenticalAcrossPaths) {
  if (!HasAvx2()) GTEST_SKIP() << "AVX2 path not available on this machine";
  stedb::testing::SimdPathGuard guard;

  auto train = [&](SimdPath path) {
    internal::ForceSimdPathForTest(path);
    Rng rng(9);
    n2v::SkipGramConfig cfg;
    cfg.dim = 12;
    cfg.window = 3;
    cfg.negatives = 4;
    n2v::SkipGramModel model(6, cfg, rng);
    std::vector<std::vector<graph::NodeId>> walks;
    for (int r = 0; r < 10; ++r) {
      walks.push_back({0, 1, 2, 0, 1, 2});
      walks.push_back({3, 4, 5, 3, 4, 5});
    }
    n2v::NodeVocab vocab(6);
    vocab.CountWalks(walks);
    vocab.BuildNoiseTable();
    model.Train(walks, vocab, 3, rng);
    return model;
  };
  n2v::SkipGramModel scalar_model = train(SimdPath::kScalar);
  n2v::SkipGramModel avx2_model = train(SimdPath::kAvx2);

  ASSERT_EQ(scalar_model.num_nodes(), avx2_model.num_nodes());
  EXPECT_TRUE(BitEq(scalar_model.embedding_matrix().data(),
                    avx2_model.embedding_matrix().data()));
}

}  // namespace
}  // namespace stedb::la
