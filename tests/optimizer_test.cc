#include "src/la/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "src/common/rng.h"
#include "src/la/kernels.h"
#include "src/la/matrix.h"
#include "tests/test_util.h"

namespace stedb::la {
namespace {

/// Minimize f(w) = 0.5 ||w - target||^2 with gradient w - target.
template <typename Opt>
double RunQuadratic(Opt& opt, int steps, size_t block = 0) {
  Vector w = {5.0, -3.0, 2.0};
  const Vector target = {1.0, 1.0, 1.0};
  Vector grad(3);
  for (int i = 0; i < steps; ++i) {
    for (size_t j = 0; j < 3; ++j) grad[j] = w[j] - target[j];
    opt.Step(block, w.data(), grad.data(), 3);
  }
  return Distance(w, target);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  SgdOptimizer opt(0.1);
  EXPECT_LT(RunQuadratic(opt, 200), 1e-6);
}

TEST(SgdTest, LearningRateScale) {
  SgdOptimizer opt(0.1);
  opt.SetLearningRateScale(0.0);  // zero lr: nothing moves
  Vector w = {1.0};
  Vector g = {1.0};
  opt.Step(0, w.data(), g.data(), 1);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  AdamOptimizer opt(0.1);
  EXPECT_LT(RunQuadratic(opt, 400), 1e-4);
}

TEST(AdamTest, BlocksHaveIndependentState) {
  AdamOptimizer opt(0.1);
  // Drive block 0 hard, then a first step on block 5 must look like a
  // fresh Adam step (bias-corrected => step size ~ lr).
  Vector w0 = {0.0};
  Vector g = {1.0};
  for (int i = 0; i < 50; ++i) opt.Step(0, w0.data(), g.data(), 1);
  Vector w5 = {0.0};
  opt.Step(5, w5.data(), g.data(), 1);
  EXPECT_NEAR(w5[0], -0.1, 1e-6);  // first Adam step == -lr * sign(g)
}

TEST(AdamTest, FirstStepIsSignedLr) {
  AdamOptimizer opt(0.05);
  Vector w = {1.0, 1.0};
  Vector g = {3.0, -0.001};
  opt.Step(0, w.data(), g.data(), 2);
  EXPECT_NEAR(w[0], 1.0 - 0.05, 1e-6);
  EXPECT_NEAR(w[1], 1.0 + 0.05, 1e-4);
}

/// The AdamOptimizer::Step loop as it stood before the update moved into
/// the kernel layer, copied verbatim (member names aside): the reference
/// the dispatched la::AdamStep must reproduce bit for bit on every path.
class HistoricalAdam {
 public:
  explicit HistoricalAdam(double lr) : lr_(lr) {}
  void SetLearningRateScale(double scale) { scale_ = scale; }

  void Step(size_t block, double* params, const double* grad, size_t n) {
    if (block >= states_.size()) states_.resize(block + 1);
    State& st = states_[block];
    if (st.m.size() != n) {
      st.m.assign(n, 0.0);
      st.v.assign(n, 0.0);
      st.t = 0;
    }
    ++st.t;
    const double lr = lr_ * scale_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(st.t));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(st.t));
    for (size_t i = 0; i < n; ++i) {
      st.m[i] = beta1_ * st.m[i] + (1.0 - beta1_) * grad[i];
      st.v[i] = beta2_ * st.v[i] + (1.0 - beta2_) * grad[i] * grad[i];
      const double mhat = st.m[i] / bc1;
      const double vhat = st.v[i] / bc2;
      params[i] -= lr * mhat / (std::sqrt(vhat) + eps_);
    }
  }

 private:
  struct State {
    std::vector<double> m;
    std::vector<double> v;
    long t = 0;
  };
  double lr_;
  double beta1_ = 0.9;
  double beta2_ = 0.999;
  double eps_ = 1e-8;
  double scale_ = 1.0;
  std::vector<State> states_;
};

TEST(AdamTest, MatchesHistoricalLoopBitForBit) {
  stedb::testing::SimdPathGuard guard;
  std::vector<SimdPath> paths = {SimdPath::kScalar};
  if (stedb::testing::HasAvx2()) paths.push_back(SimdPath::kAvx2);
  const size_t lens[] = {1, 3, 4, 17, 1024};
  for (SimdPath path : paths) {
    internal::ForceSimdPathForTest(path);
    Rng rng(42);
    AdamOptimizer opt(0.05);
    HistoricalAdam ref(0.05);
    std::vector<Vector> w(std::size(lens)), w_ref(std::size(lens));
    for (size_t b = 0; b < std::size(lens); ++b) {
      w[b] = RandomVector(lens[b], 1.0, rng);
      w_ref[b] = w[b];
    }
    for (int step = 0; step < 6; ++step) {
      if (step == 3) {  // an epoch-style decay between steps
        opt.SetLearningRateScale(0.8);
        ref.SetLearningRateScale(0.8);
      }
      for (size_t b = 0; b < std::size(lens); ++b) {
        Vector g = RandomVector(lens[b], 1.0, rng);
        if (step == 4) g[0] = 0.0;  // a zero gradient entry
        opt.Step(b, w[b].data(), g.data(), lens[b]);
        ref.Step(b, w_ref[b].data(), g.data(), lens[b]);
        ASSERT_EQ(std::memcmp(w[b].data(), w_ref[b].data(),
                              lens[b] * sizeof(double)),
                  0)
            << SimdPathName(path) << " n=" << lens[b] << " step=" << step;
      }
    }
  }
}

TEST(AdamTest, StateResizesWithBlockLength) {
  AdamOptimizer opt(0.1);
  Vector w2 = {0.0, 0.0};
  Vector g2 = {1.0, 1.0};
  opt.Step(0, w2.data(), g2.data(), 2);
  // Same block, different length: state must reset, not crash.
  Vector w3 = {0.0, 0.0, 0.0};
  Vector g3 = {1.0, 1.0, 1.0};
  opt.Step(0, w3.data(), g3.data(), 3);
  EXPECT_NEAR(w3[0], -0.1, 1e-6);
}

}  // namespace
}  // namespace stedb::la
