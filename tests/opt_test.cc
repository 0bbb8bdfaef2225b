// Optimizer tests: each update rule is checked against hand-computed
// reference sequences, plus config validation and state reset.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "opt/optimizer.h"
#include "tensor/simd_dispatch.h"
#include "util/rng.h"

namespace fedra {
namespace {

TEST(OptimizerConfigTest, FactoriesSetKinds) {
  EXPECT_EQ(OptimizerConfig::Sgd(0.1f).kind, OptimizerConfig::Kind::kSgd);
  EXPECT_EQ(OptimizerConfig::SgdMomentum(0.1f, 0.9f).kind,
            OptimizerConfig::Kind::kSgdMomentum);
  EXPECT_EQ(OptimizerConfig::Adam().kind, OptimizerConfig::Kind::kAdam);
  EXPECT_EQ(OptimizerConfig::AdamW().kind, OptimizerConfig::Kind::kAdamW);
}

TEST(OptimizerConfigTest, ValidationCatchesBadValues) {
  auto config = OptimizerConfig::Sgd(0.0f);
  EXPECT_FALSE(config.Validate().ok());
  config = OptimizerConfig::SgdMomentum(0.1f, 1.0f);
  EXPECT_FALSE(config.Validate().ok());
  config = OptimizerConfig::Adam(0.001f);
  config.beta1 = 1.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = OptimizerConfig::Adam(0.001f);
  config.epsilon = 0.0f;
  EXPECT_FALSE(config.Validate().ok());
  config = OptimizerConfig::Sgd(0.1f);
  config.weight_decay = -1.0f;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(OptimizerConfigTest, ValidationRejectsNaN) {
  // A NaN momentum or beta trains to an all-NaN model, so every range
  // check must fail on NaN rather than pass it.
  const float nan = std::nanf("");
  auto config = OptimizerConfig::SgdMomentum(0.1f, nan);
  EXPECT_FALSE(config.Validate().ok()) << "momentum";
  for (float OptimizerConfig::*field :
       {&OptimizerConfig::beta1, &OptimizerConfig::beta2,
        &OptimizerConfig::epsilon, &OptimizerConfig::weight_decay,
        &OptimizerConfig::learning_rate}) {
    config = OptimizerConfig::Adam(0.001f);
    config.*field = nan;
    EXPECT_FALSE(config.Validate().ok());
  }
  config = OptimizerConfig::Sgd(0.1f, nan);
  EXPECT_FALSE(config.Validate().ok()) << "weight_decay";
}

TEST(OptimizerConfigTest, ToStringNamesKind) {
  EXPECT_NE(OptimizerConfig::Adam().ToString().find("Adam"),
            std::string::npos);
  EXPECT_NE(OptimizerConfig::SgdMomentum(0.1f, 0.9f).ToString().find("SGD"),
            std::string::npos);
}

TEST(SgdTest, PlainStepIsLrTimesGrad) {
  auto opt = Optimizer::Create(OptimizerConfig::Sgd(0.5f), 3);
  std::vector<float> params = {1.0f, 2.0f, 3.0f};
  std::vector<float> grads = {0.2f, -0.4f, 0.0f};
  opt->Step(params.data(), grads.data(), 3);
  EXPECT_FLOAT_EQ(params[0], 1.0f - 0.5f * 0.2f);
  EXPECT_FLOAT_EQ(params[1], 2.0f + 0.5f * 0.4f);
  EXPECT_FLOAT_EQ(params[2], 3.0f);
}

TEST(SgdTest, WeightDecayAddsL2Term) {
  auto opt = Optimizer::Create(OptimizerConfig::Sgd(0.1f, /*wd=*/0.5f), 1);
  std::vector<float> params = {2.0f};
  std::vector<float> grads = {0.0f};
  opt->Step(params.data(), grads.data(), 1);
  // g_eff = 0 + 0.5*2 = 1.0; p = 2 - 0.1*1 = 1.9.
  EXPECT_FLOAT_EQ(params[0], 1.9f);
}

TEST(SgdMomentumTest, HeavyBallReference) {
  // v_t = mu*v + g; p -= lr*v (non-Nesterov).
  auto opt = Optimizer::Create(
      OptimizerConfig::SgdMomentum(0.1f, 0.9f, /*nesterov=*/false), 1);
  std::vector<float> params = {0.0f};
  std::vector<float> grads = {1.0f};
  opt->Step(params.data(), grads.data(), 1);  // v=1,   p=-0.1
  EXPECT_NEAR(params[0], -0.1f, 1e-6);
  opt->Step(params.data(), grads.data(), 1);  // v=1.9, p=-0.29
  EXPECT_NEAR(params[0], -0.29f, 1e-6);
  opt->Step(params.data(), grads.data(), 1);  // v=2.71, p=-0.561
  EXPECT_NEAR(params[0], -0.561f, 1e-6);
}

TEST(SgdMomentumTest, NesterovReference) {
  // Sutskever: v = mu*v + g; p -= lr*(g + mu*v).
  auto opt = Optimizer::Create(
      OptimizerConfig::SgdMomentum(0.1f, 0.9f, /*nesterov=*/true), 1);
  std::vector<float> params = {0.0f};
  std::vector<float> grads = {1.0f};
  opt->Step(params.data(), grads.data(), 1);
  // v=1; p -= 0.1*(1 + 0.9*1) = 0.19.
  EXPECT_NEAR(params[0], -0.19f, 1e-6);
  opt->Step(params.data(), grads.data(), 1);
  // v=1.9; p -= 0.1*(1+1.71)=0.271 => -0.461.
  EXPECT_NEAR(params[0], -0.461f, 1e-6);
}

TEST(SgdMomentumTest, NesterovBeatsPlainOnQuadratic) {
  // Minimize f(x) = 0.5*x^2 from x=10; momentum methods should converge.
  for (bool nesterov : {false, true}) {
    auto opt = Optimizer::Create(
        OptimizerConfig::SgdMomentum(0.05f, 0.9f, nesterov), 1);
    std::vector<float> x = {10.0f};
    for (int i = 0; i < 300; ++i) {
      std::vector<float> g = {x[0]};
      opt->Step(x.data(), g.data(), 1);
    }
    EXPECT_NEAR(x[0], 0.0f, 0.05f) << "nesterov=" << nesterov;
  }
}

TEST(AdamTest, FirstStepReference) {
  // Step 1 with defaults: m = (1-b1)*g, v = (1-b2)*g^2;
  // mhat = g, vhat = g^2; p -= lr * g / (|g| + eps) = lr * sign(g) approx.
  auto config = OptimizerConfig::Adam(0.001f);
  auto opt = Optimizer::Create(config, 2);
  std::vector<float> params = {1.0f, 1.0f};
  std::vector<float> grads = {0.5f, -3.0f};
  opt->Step(params.data(), grads.data(), 2);
  // Direction is -sign(g) * lr (up to eps), magnitude ~ lr.
  EXPECT_NEAR(params[0], 1.0f - 0.001f, 1e-5);
  EXPECT_NEAR(params[1], 1.0f + 0.001f, 1e-5);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  auto opt = Optimizer::Create(OptimizerConfig::Adam(0.05f), 1);
  std::vector<float> x = {4.0f};
  for (int i = 0; i < 500; ++i) {
    std::vector<float> g = {2.0f * x[0]};
    opt->Step(x.data(), g.data(), 1);
  }
  EXPECT_NEAR(x[0], 0.0f, 0.05f);
}

TEST(AdamTest, BiasCorrectionMatchesManualComputation) {
  const float lr = 0.01f;
  const float b1 = 0.9f;
  const float b2 = 0.999f;
  const float eps = 1e-7f;
  auto opt = Optimizer::Create(OptimizerConfig::Adam(lr), 1);
  std::vector<float> p = {0.0f};
  double m = 0.0;
  double v = 0.0;
  double ref = 0.0;
  for (int t = 1; t <= 5; ++t) {
    const float g = 0.3f * static_cast<float>(t);
    std::vector<float> grads = {g};
    opt->Step(p.data(), grads.data(), 1);
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * static_cast<double>(g) * g;
    const double mhat = m / (1 - std::pow(b1, t));
    const double vhat = v / (1 - std::pow(b2, t));
    ref -= lr * mhat / (std::sqrt(vhat) + eps);
    EXPECT_NEAR(p[0], ref, 5e-4) << "step " << t;
  }
}

TEST(AdamWTest, DecoupledDecayShrinksWeightsWithZeroGrad) {
  auto opt = Optimizer::Create(OptimizerConfig::AdamW(0.1f, 0.1f), 1);
  std::vector<float> p = {1.0f};
  std::vector<float> g = {0.0f};
  opt->Step(p.data(), g.data(), 1);
  // Adam part leaves p (grad 0), decay multiplies by (1 - lr*wd) = 0.99.
  EXPECT_NEAR(p[0], 0.99f, 1e-5);
}

TEST(AdamWTest, DiffersFromCoupledAdam) {
  auto adamw = Optimizer::Create(OptimizerConfig::AdamW(0.01f, 0.1f), 1);
  auto adam_config = OptimizerConfig::Adam(0.01f);
  adam_config.weight_decay = 0.1f;
  auto adam = Optimizer::Create(adam_config, 1);
  std::vector<float> pw = {1.0f};
  std::vector<float> pa = {1.0f};
  std::vector<float> g = {0.5f};
  for (int i = 0; i < 10; ++i) {
    adamw->Step(pw.data(), g.data(), 1);
    adam->Step(pa.data(), g.data(), 1);
  }
  EXPECT_NE(pw[0], pa[0]);
}

TEST(OptimizerTest, ResetClearsState) {
  auto opt = Optimizer::Create(
      OptimizerConfig::SgdMomentum(0.1f, 0.9f, false), 1);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  opt->Step(p.data(), g.data(), 1);
  opt->Reset();
  p[0] = 0.0f;
  opt->Step(p.data(), g.data(), 1);
  // After reset the first step behaves like a fresh optimizer.
  EXPECT_NEAR(p[0], -0.1f, 1e-6);
}

TEST(OptimizerTest, AdamResetRestartsBiasCorrection) {
  auto opt = Optimizer::Create(OptimizerConfig::Adam(0.001f), 1);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  opt->Step(p.data(), g.data(), 1);
  const float after_first = p[0];
  opt->Reset();
  p[0] = 0.0f;
  opt->Step(p.data(), g.data(), 1);
  EXPECT_FLOAT_EQ(p[0], after_first);
}

// Adam's element loop is a dispatched kernel; the optimizer must produce the
// same bytes at the level cpuid picked (or FEDRA_SIMD forced) as at kScalar.
TEST(AdamTest, ParamsAtActiveLevelMatchScalarByteForByte) {
  const size_t dim = 1003;
  auto adam_wd = OptimizerConfig::Adam(0.01f);
  adam_wd.weight_decay = 0.01f;
  const OptimizerConfig configs[] = {OptimizerConfig::Adam(0.01f), adam_wd,
                                     OptimizerConfig::AdamW(0.01f, 0.01f)};
  const simd::Level active = simd::ActiveLevel();
  for (const OptimizerConfig& config : configs) {
    SCOPED_TRACE(config.ToString());
    std::vector<float> params_at[2];
    const simd::Level levels[2] = {active, simd::Level::kScalar};
    for (int l = 0; l < 2; ++l) {
      simd::SetLevel(levels[l]);
      auto opt = Optimizer::Create(config, dim);
      Rng rng(77);
      std::vector<float> params(dim);
      for (float& p : params) {
        p = rng.NextGaussian(0.0f, 1.0f);
      }
      std::vector<float> grads(dim);
      for (int step = 0; step < 50; ++step) {
        for (size_t i = 0; i < dim; ++i) {
          grads[i] = 0.1f * params[i] + rng.NextGaussian(0.0f, 0.01f);
        }
        opt->Step(params.data(), grads.data(), dim);
      }
      params_at[l] = params;
    }
    simd::SetLevel(active);
    EXPECT_EQ(0, std::memcmp(params_at[0].data(), params_at[1].data(),
                             dim * sizeof(float)))
        << "at " << simd::LevelName(active);
  }
}

TEST(OptimizerDeathTest, InvalidConfigDies) {
  EXPECT_DEATH(Optimizer::Create(OptimizerConfig::Sgd(-1.0f), 4),
               "learning_rate");
}

}  // namespace
}  // namespace fedra
