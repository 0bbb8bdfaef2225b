// Layer tests: shape contracts, exact small cases, and finite-difference
// gradient checks for every layer type (the invariant that makes the whole
// DL substrate trustworthy). Layers execute through a LayerHarness — the
// standalone ParameterStore + LayerStateStore environment mirroring what a
// shared ModelGraph provides per execution slot.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/composite.h"
#include "nn/layers_basic.h"
#include "nn/layers_conv.h"
#include "nn/layers_norm.h"
#include "nn/loss.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

using testing::CheckInputGradient;
using testing::FillUniform;
using testing::LayerHarness;

// ------------------------------------------------------------------ Dense

TEST(DenseLayerTest, ForwardShapeAndBias) {
  DenseLayer layer(3, 2);
  LayerHarness harness(&layer);
  // Set known weights: W = [[1,0,0],[0,1,0]], b = [10, 20].
  float* w = harness.store().BlockParams(0);
  float* b = harness.store().BlockParams(1);
  for (int i = 0; i < 6; ++i) {
    w[i] = 0.0f;
  }
  w[0] = 1.0f;  // W(0,0)
  w[4] = 1.0f;  // W(1,1)
  b[0] = 10.0f;
  b[1] = 20.0f;
  Tensor x({1, 3});
  x[0] = 1.0f;
  x[1] = 2.0f;
  x[2] = 3.0f;
  Tensor y = harness.Forward(x);
  ASSERT_EQ(y.rank(), 2);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_FLOAT_EQ(y[0], 11.0f);
  EXPECT_FLOAT_EQ(y[1], 22.0f);
}

TEST(DenseLayerTest, InputGradientMatchesFiniteDifferences) {
  DenseLayer layer(5, 4);
  LayerHarness harness(&layer);
  Rng rng(2);
  Tensor x({3, 5});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 77);
  EXPECT_LT(result.max_rel_error, 2e-2) << "abs " << result.max_abs_error;
}

TEST(DenseLayerTest, ParamGradientAccumulates) {
  DenseLayer layer(2, 2);
  LayerHarness harness(&layer);
  Tensor x({1, 2});
  x[0] = 1.0f;
  x[1] = 1.0f;
  Tensor go({1, 2});
  go[0] = 1.0f;
  go[1] = 0.0f;
  harness.store().ZeroGrads();
  harness.Forward(x);
  harness.Backward(go);
  harness.Forward(x);
  harness.Backward(go);  // second pass must add, not overwrite
  EXPECT_FLOAT_EQ(harness.store().BlockGrads(0)[0], 2.0f);
}

TEST(DenseLayerTest, GlorotInitWithinLimit) {
  DenseLayer layer(100, 50);
  LayerHarness harness(&layer, 3);
  const float limit = std::sqrt(6.0f / 150.0f);
  const float* w = harness.store().BlockParams(0);
  float max_abs = 0.0f;
  for (size_t i = 0; i < 5000; ++i) {
    max_abs = std::max(max_abs, std::fabs(w[i]));
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.5f * limit);  // actually spread out
}

// ------------------------------------------------------------ Activations

TEST(ActivationTest, ReluClampsNegatives) {
  ActivationLayer relu(Activation::kRelu);
  LayerHarness harness(&relu);
  Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -3.0f;
  Tensor y = harness.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, GradientMatchesFiniteDifferences) {
  ActivationLayer layer(GetParam());
  LayerHarness harness(&layer);
  Rng rng(4);
  Tensor x({2, 8});
  FillUniform(&x, &rng, -2.0f, 2.0f);
  // Nudge values away from ReLU's kink where FD is ill-defined.
  for (size_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) {
      x[i] = 0.1f;
    }
  }
  auto result = CheckInputGradient(&harness, x, 88);
  EXPECT_LT(result.max_rel_error, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ActivationGradTest,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kGelu));

TEST(ActivationTest, GeluMatchesKnownValues) {
  ActivationLayer gelu(Activation::kGelu);
  LayerHarness harness(&gelu);
  Tensor x({1, 3});
  x[0] = 0.0f;
  x[1] = 1.0f;
  x[2] = -1.0f;
  Tensor y = harness.Forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3);
}

TEST(ActivationTest, TanhMatchesLibmAndItsBackwardTheRecomputedForm) {
  // The tanh layer caches its output y and scales the gradient by 1 - y*y.
  // That must give the bytes of g * (1 - t*t) with t = std::tanh(x)
  // recomputed from the input, for signed zeros, denormals, saturated
  // |x| >= 9, infinities and NaN too. The ordinary values are ones whose
  // tanhf glibc rounds correctly, so a correctly rounding libm agrees.
  const uint32_t special_bits[] = {
      0x00000000u, 0x80000000u,  // +-0
      0x00000001u, 0x80400000u,  // denormals
      0x7f800000u, 0xff800000u,  // +-inf
      0x7fc00000u, 0xffc12345u,  // NaNs
  };
  std::vector<float> xs = {0.01f, -0.1f, 0.25f,  -0.35f, -0.75f, 0.875f,
                           1.0f,  -1.5f, 2.0f,   3.0f,   4.0f,   -5.5f,
                           8.0f,  9.0f,  -9.5f,  12.0f,  -30.0f, 1e30f};
  for (uint32_t bits : special_bits) {
    float x;
    std::memcpy(&x, &bits, sizeof(float));
    xs.push_back(x);
  }
  const size_t n = xs.size();
  ActivationLayer layer(Activation::kTanh);
  LayerHarness harness(&layer);
  Tensor x({1, static_cast<int>(n)});
  Tensor g({1, static_cast<int>(n)});
  for (size_t i = 0; i < n; ++i) {
    x[i] = xs[i];
    g[i] = 0.75f - 0.5f * static_cast<float>(i % 5);
  }
  const Tensor y = harness.Forward(x);
  const Tensor grad_input = harness.Backward(g);
  for (size_t i = 0; i < n; ++i) {
    const float t = std::tanh(x[i]);
    const float want = g[i] * (1.0f - t * t);
    const float got_y = y[i];
    const float got_grad = grad_input[i];
    EXPECT_EQ(0, std::memcmp(&got_y, &t, sizeof(float)))
        << "forward, x = " << x[i] << ": " << got_y << " vs " << t;
    EXPECT_EQ(0, std::memcmp(&got_grad, &want, sizeof(float)))
        << "backward, x = " << x[i] << ": " << got_grad << " vs " << want;
  }
}

// ---------------------------------------------------------------- Dropout

TEST(DropoutTest, EvalModeIsIdentity) {
  DropoutLayer dropout(0.5f);
  LayerHarness harness(&dropout);
  Rng rng(5);
  Tensor x({4, 8});
  FillUniform(&x, &rng);
  harness.ctx().training = false;
  Tensor y = harness.Forward(x);
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y[i], x[i]);
  }
}

TEST(DropoutTest, TrainingZeroesAndRescales) {
  DropoutLayer dropout(0.5f);
  LayerHarness harness(&dropout);
  Rng rng(6);
  Tensor x = Tensor::Full({1, 1000}, 1.0f);
  harness.ctx().training = true;
  harness.ctx().rng = &rng;
  Tensor y = harness.Forward(x);
  int zeros = 0;
  for (size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  DropoutLayer dropout(0.3f);
  LayerHarness harness(&dropout);
  Rng rng(7);
  Tensor x = Tensor::Full({1, 100}, 1.0f);
  harness.ctx().training = true;
  harness.ctx().rng = &rng;
  Tensor y = harness.Forward(x);
  Tensor go = Tensor::Full({1, 100}, 1.0f);
  Tensor gi = harness.Backward(go);
  for (size_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(gi[i], y[i]);  // same scaling pattern
  }
}

TEST(DropoutTest, ZeroRateIsAlwaysIdentity) {
  DropoutLayer dropout(0.0f);
  LayerHarness harness(&dropout);
  Rng rng(8);
  Tensor x({2, 4});
  FillUniform(&x, &rng);
  harness.ctx().training = true;
  harness.ctx().rng = &rng;
  Tensor y = harness.Forward(x);
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y[i], x[i]);
  }
}

// ---------------------------------------------------------------- Flatten

TEST(FlattenTest, RoundTrip) {
  FlattenLayer flatten;
  LayerHarness harness(&flatten);
  Rng rng(9);
  Tensor x({2, 3, 4, 5});
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  EXPECT_EQ(y.rank(), 2);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 60);
  Tensor back = harness.Backward(y);
  EXPECT_TRUE(back.SameShape(x));
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(back[i], x[i]);
  }
}

// ------------------------------------------------------------ Conv layers

TEST(Conv2dLayerTest, OutputShape) {
  Conv2dLayer conv(3, 8, 3, 1, 1);
  LayerHarness harness(&conv);
  Tensor x({2, 3, 6, 6});
  Tensor y = harness.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 6);
  EXPECT_EQ(y.dim(3), 6);
}

TEST(Conv2dLayerTest, InputGradient) {
  Conv2dLayer conv(2, 3, 3, 1, 1);
  LayerHarness harness(&conv);
  Rng rng(10);
  Tensor x({1, 2, 5, 5});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 99);
  EXPECT_LT(result.max_rel_error, 3e-2);
}

TEST(DepthwiseLayerTest, InputGradient) {
  DepthwiseConv2dLayer conv(3, 3, 1, 1);
  LayerHarness harness(&conv);
  Rng rng(11);
  Tensor x({1, 3, 5, 5});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 100);
  EXPECT_LT(result.max_rel_error, 3e-2);
}

TEST(PoolLayerTest, MaxAndAvgGradients) {
  Rng rng(12);
  Tensor x({1, 2, 6, 6});
  FillUniform(&x, &rng);
  {
    Pool2dLayer pool(PoolKind::kAvg, 2, 2);
    LayerHarness harness(&pool);
    auto result = CheckInputGradient(&harness, x, 101);
    EXPECT_LT(result.max_rel_error, 2e-2);
  }
  {
    // MaxPool FD checks need distinct values; random uniform floats are
    // almost surely distinct.
    Pool2dLayer pool(PoolKind::kMax, 2, 2);
    LayerHarness harness(&pool);
    auto result = CheckInputGradient(&harness, x, 102);
    EXPECT_LT(result.max_rel_error, 2e-2);
  }
}

TEST(GlobalAvgPoolLayerTest, ShapeAndGradient) {
  GlobalAvgPoolLayer gap;
  LayerHarness harness(&gap);
  Rng rng(13);
  Tensor x({2, 3, 4, 4});
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  EXPECT_EQ(y.rank(), 2);
  EXPECT_EQ(y.dim(1), 3);
  auto result = CheckInputGradient(&harness, x, 103);
  EXPECT_LT(result.max_rel_error, 1e-2);
}

// ------------------------------------------------------------------ Norms

TEST(BatchNormTest, NormalizesPerChannel) {
  BatchNorm2dLayer bn(2);
  LayerHarness harness(&bn);
  Rng rng(14);
  Tensor x({4, 2, 3, 3});
  FillUniform(&x, &rng, -3.0f, 5.0f);
  Tensor y = harness.Forward(x);
  // With gamma=1, beta=0 the per-channel mean ~ 0 and variance ~ 1.
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sum_sq = 0.0;
    int count = 0;
    for (int n = 0; n < 4; ++n) {
      for (int h = 0; h < 3; ++h) {
        for (int w = 0; w < 3; ++w) {
          const float v = y.at(n, c, h, w);
          sum += v;
          sum_sq += static_cast<double>(v) * v;
          ++count;
        }
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InputGradient) {
  BatchNorm2dLayer bn(2);
  LayerHarness harness(&bn);
  Rng rng(15);
  Tensor x({3, 2, 4, 4});
  FillUniform(&x, &rng, -2.0f, 2.0f);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 104);
  EXPECT_LT(result.max_rel_error, 5e-2);
}

TEST(LayerNormTest, NormalizesAcrossChannels) {
  LayerNormChannelsLayer ln(8);
  LayerHarness harness(&ln);
  Rng rng(16);
  Tensor x({2, 8, 2, 2});
  FillUniform(&x, &rng, -4.0f, 4.0f);
  Tensor y = harness.Forward(x);
  // Each (n, h, w) position: mean over channels ~ 0, var ~ 1.
  for (int n = 0; n < 2; ++n) {
    for (int h = 0; h < 2; ++h) {
      for (int w = 0; w < 2; ++w) {
        double sum = 0.0;
        double sum_sq = 0.0;
        for (int c = 0; c < 8; ++c) {
          sum += y.at(n, c, h, w);
          sum_sq += static_cast<double>(y.at(n, c, h, w)) * y.at(n, c, h, w);
        }
        EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
        EXPECT_NEAR(sum_sq / 8.0, 1.0, 2e-2);
      }
    }
  }
}

TEST(LayerNormTest, AcceptsRank2Input) {
  LayerNormChannelsLayer ln(6);
  LayerHarness harness(&ln);
  Rng rng(17);
  Tensor x({3, 6});
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  EXPECT_TRUE(y.SameShape(x));
}

TEST(LayerNormTest, InputGradient) {
  LayerNormChannelsLayer ln(4);
  LayerHarness harness(&ln);
  Rng rng(18);
  Tensor x({2, 4, 3, 3});
  FillUniform(&x, &rng, -2.0f, 2.0f);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 105);
  EXPECT_LT(result.max_rel_error, 5e-2);
}

// ------------------------------------------------------------- Composites

TEST(SequentialTest, ChainsLayersInOrder) {
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<DenseLayer>(4, 8));
  seq->Add(std::make_unique<ActivationLayer>(Activation::kRelu));
  seq->Add(std::make_unique<DenseLayer>(8, 2));
  LayerHarness harness(seq.get());
  Rng rng(19);
  Tensor x({2, 4});
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(seq->size(), 3u);
}

TEST(SequentialTest, GradientFlowsThroughChain) {
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<DenseLayer>(4, 6));
  seq->Add(std::make_unique<ActivationLayer>(Activation::kTanh));
  seq->Add(std::make_unique<DenseLayer>(6, 3));
  LayerHarness harness(seq.get());
  Rng rng(20);
  Tensor x({2, 4});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 106);
  EXPECT_LT(result.max_rel_error, 2e-2);
}

TEST(ResidualTest, AddsIdentity) {
  // Residual around a zero-initialized dense layer = identity + bias(0).
  auto inner = std::make_unique<DenseLayer>(4, 4, init::Scheme::kZeros);
  ResidualLayer residual(std::move(inner));
  LayerHarness harness(&residual);
  Rng rng(21);
  Tensor x({2, 4});
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  for (size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(ResidualTest, Gradient) {
  auto inner = std::make_unique<DenseLayer>(5, 5);
  ResidualLayer residual(std::move(inner));
  LayerHarness harness(&residual);
  Rng rng(22);
  Tensor x({2, 5});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 107);
  EXPECT_LT(result.max_rel_error, 2e-2);
}

TEST(ConcatSliceTest, RoundTrip) {
  Rng rng(23);
  Tensor a({2, 3, 4, 4});
  Tensor b({2, 5, 4, 4});
  FillUniform(&a, &rng);
  FillUniform(&b, &rng);
  Tensor cat = ConcatChannels(a, b);
  EXPECT_EQ(cat.dim(1), 8);
  Tensor a2 = SliceChannels(cat, 0, 3);
  Tensor b2 = SliceChannels(cat, 3, 8);
  for (size_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a2[i], a[i]);
  }
  for (size_t i = 0; i < b.numel(); ++i) {
    EXPECT_EQ(b2[i], b[i]);
  }
}

TEST(DenseBlockTest, OutputChannels) {
  DenseBlockLayer block(8, 4, 3);
  EXPECT_EQ(block.out_channels(), 8 + 12);
  LayerHarness harness(&block);
  Tensor x({1, 8, 4, 4});
  Rng rng(24);
  FillUniform(&x, &rng);
  Tensor y = harness.Forward(x);
  EXPECT_EQ(y.dim(1), 20);
  EXPECT_EQ(y.dim(2), 4);
}

TEST(DenseBlockTest, Gradient) {
  DenseBlockLayer block(4, 3, 2);
  LayerHarness harness(&block);
  Rng rng(25);
  Tensor x({1, 4, 4, 4});
  FillUniform(&x, &rng);
  harness.store().ZeroGrads();
  auto result = CheckInputGradient(&harness, x, 108);
  EXPECT_LT(result.max_rel_error, 8e-2);
}

// ------------------------------------------------ unused input gradient

// Forwards everything to `inner` and counts the calls to its Backward.
class BackwardCounter : public Layer {
 public:
  BackwardCounter(LayerPtr inner, int* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  std::string name() const override { return inner_->name(); }
  void RegisterParams(ParameterStore* store) override {
    inner_->RegisterParams(store);
  }
  void BindOffsets(const ParameterStore& store) override {
    inner_->BindOffsets(store);
  }
  void InitParams(Rng* rng, const ParameterView& view) override {
    inner_->InitParams(rng, view);
  }
  Tensor Forward(const Tensor& input, ExecContext& ctx) override {
    return inner_->Forward(input, ctx);
  }
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override {
    ++*calls_;
    return inner_->Backward(grad_output, ctx);
  }

 private:
  LayerPtr inner_;
  int* calls_;
};

// One Forward/Backward pair through the harnessed layer with the input
// gradient requested or not; returns the parameter gradients it left.
std::vector<float> ParamGradsOfStep(LayerHarness* harness, const Tensor& x,
                                    const Tensor& grad_y, bool input_grad) {
  harness->Forward(x);
  harness->store().ZeroGrads();
  harness->ctx().input_grad = input_grad;
  const Tensor grad_x = harness->Backward(grad_y);
  if (input_grad) {
    EXPECT_TRUE(grad_x.SameShape(x));
  } else {
    EXPECT_TRUE(grad_x.empty());
  }
  const float* grads = harness->store().grads();
  return std::vector<float>(grads, grads + harness->store().num_params());
}

void ExpectSameBytes(const std::vector<float>& got,
                     const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)));
}

TEST(SequentialTest, UnusedInputGradientStopsAtFirstTrainableChild) {
  int flatten_calls = 0;
  Sequential seq;
  seq.Add(std::make_unique<BackwardCounter>(std::make_unique<FlattenLayer>(),
                                            &flatten_calls));
  seq.Add(std::make_unique<DenseLayer>(12, 5));
  LayerHarness harness(&seq);
  Rng rng(26);
  Tensor x({2, 3, 2, 2});
  Tensor grad_y({2, 5});
  FillUniform(&x, &rng);
  FillUniform(&grad_y, &rng);

  const auto full = ParamGradsOfStep(&harness, x, grad_y, true);
  EXPECT_EQ(flatten_calls, 1);
  const auto skipped = ParamGradsOfStep(&harness, x, grad_y, false);
  EXPECT_EQ(flatten_calls, 1) << "flatten's backward ran without a reader";
  ExpectSameBytes(skipped, full);
}

TEST(SequentialTest, UnusedInputGradientKeepsResidualParamGrads) {
  Sequential seq;
  seq.Add(std::make_unique<ActivationLayer>(Activation::kTanh));
  seq.Add(std::make_unique<ResidualLayer>(std::make_unique<DenseLayer>(6, 6)));
  seq.Add(std::make_unique<DenseLayer>(6, 3));
  LayerHarness harness(&seq);
  Rng rng(27);
  Tensor x({3, 6});
  Tensor grad_y({3, 3});
  FillUniform(&x, &rng);
  FillUniform(&grad_y, &rng);
  ExpectSameBytes(ParamGradsOfStep(&harness, x, grad_y, false),
                  ParamGradsOfStep(&harness, x, grad_y, true));
}

TEST(SequentialTest, UnusedInputGradientKeepsDenseBlockParamGrads) {
  Sequential seq;
  seq.Add(std::make_unique<Pool2dLayer>(PoolKind::kAvg, 2, 2));
  seq.Add(std::make_unique<DenseBlockLayer>(4, 3, 2));
  seq.Add(std::make_unique<GlobalAvgPoolLayer>());
  seq.Add(std::make_unique<DenseLayer>(10, 3));
  LayerHarness harness(&seq);
  Rng rng(28);
  Tensor x({2, 4, 8, 8});
  Tensor grad_y({2, 3});
  FillUniform(&x, &rng);
  FillUniform(&grad_y, &rng);
  ExpectSameBytes(ParamGradsOfStep(&harness, x, grad_y, false),
                  ParamGradsOfStep(&harness, x, grad_y, true));
}

// ------------------------------------------------------------------- Loss

TEST(LossTest, PerfectPredictionHasLowLoss) {
  Tensor logits({2, 3});
  logits.at(0, 0) = 100.0f;
  logits.at(1, 2) = 100.0f;
  LossResult result = SoftmaxCrossEntropy(logits, {0, 2});
  EXPECT_LT(result.loss, 1e-3);
  EXPECT_EQ(result.correct, 2u);
}

TEST(LossTest, UniformLogitsGiveLogC) {
  Tensor logits({1, 4});
  LossResult result = SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(LossTest, GradientSumsToZeroPerRow) {
  Rng rng(26);
  Tensor logits({3, 5});
  FillUniform(&logits, &rng, -2.0f, 2.0f);
  LossResult result = SoftmaxCrossEntropy(logits, {0, 3, 4});
  for (int b = 0; b < 3; ++b) {
    double sum = 0.0;
    for (int c = 0; c < 5; ++c) {
      sum += result.grad_logits.at(b, c);
    }
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(LossTest, GradientMatchesFiniteDifferences) {
  Rng rng(27);
  Tensor logits({2, 4});
  FillUniform(&logits, &rng, -1.0f, 1.0f);
  const std::vector<int> labels = {1, 3};
  LossResult base = SoftmaxCrossEntropy(logits, labels);
  const double eps = 1e-3;
  for (size_t i = 0; i < logits.numel(); ++i) {
    Tensor perturbed = logits;
    perturbed[i] += static_cast<float>(eps);
    const double hi = SoftmaxCrossEntropy(perturbed, labels).loss;
    perturbed[i] -= static_cast<float>(2 * eps);
    const double lo = SoftmaxCrossEntropy(perturbed, labels).loss;
    EXPECT_NEAR(base.grad_logits[i], (hi - lo) / (2 * eps), 1e-3);
  }
}

TEST(LossTest, NumericallyStableForHugeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1e4f;
  logits[1] = -1e4f;
  logits[2] = 0.0f;
  LossResult result = SoftmaxCrossEntropy(logits, {0});
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_LT(result.loss, 1e-3);
}

TEST(LossTest, CountCorrectMatches) {
  Tensor logits({3, 2});
  logits.at(0, 1) = 1.0f;  // pred 1
  logits.at(1, 0) = 1.0f;  // pred 0
  logits.at(2, 1) = 1.0f;  // pred 1
  EXPECT_EQ(CountCorrect(logits, {1, 0, 0}), 2u);
}

// -------------------------------------------------------- ParameterStore

TEST(ParameterStoreTest, LayoutIsContiguous) {
  ParameterStore store;
  const size_t a = store.Register("a", {2, 3});
  const size_t b = store.Register("b", {4});
  store.Finalize();
  EXPECT_EQ(store.num_params(), 10u);
  EXPECT_EQ(store.block(a).offset, 0u);
  EXPECT_EQ(store.block(b).offset, 6u);
  EXPECT_EQ(store.BlockParams(b), store.params() + 6);
}

TEST(ParameterStoreTest, ZeroGradsClears) {
  ParameterStore store;
  store.Register("a", {4});
  store.Finalize();
  store.grads()[2] = 5.0f;
  store.ZeroGrads();
  EXPECT_EQ(store.grads()[2], 0.0f);
}

TEST(ParameterStoreTest, LayoutOnlyModeCountsStateSlots) {
  ParameterStore store;
  store.Register("a", {2, 2});
  EXPECT_EQ(store.RegisterStateSlot(), 0u);
  EXPECT_EQ(store.RegisterStateSlot(), 1u);
  store.FinalizeLayout();
  EXPECT_TRUE(store.finalized());
  EXPECT_FALSE(store.has_buffers());
  EXPECT_EQ(store.num_params(), 4u);
  EXPECT_EQ(store.num_state_slots(), 2u);
}

TEST(ParameterStoreDeathTest, RegisterAfterFinalizeDies) {
  ParameterStore store;
  store.Register("a", {1});
  store.Finalize();
  EXPECT_DEATH(store.Register("b", {1}), "after Finalize");
}

TEST(ParameterStoreDeathTest, AccessBeforeFinalizeDies) {
  ParameterStore store;
  store.Register("a", {1});
  EXPECT_DEATH(store.params(), "finalized");
}

TEST(ParameterStoreDeathTest, LayoutOnlyBufferAccessDies) {
  ParameterStore store;
  store.Register("a", {1});
  store.FinalizeLayout();
  EXPECT_DEATH(store.params(), "buffers");
}

}  // namespace
}  // namespace fedra
