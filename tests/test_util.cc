#include "tests/test_util.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "util/check.h"

namespace fedra {
namespace testing {

namespace {

/// loss = sum_i weight_i * output_i with fixed random weights.
double WeightedLoss(const Tensor& output, const std::vector<float>& weights) {
  FEDRA_CHECK_EQ(output.numel(), weights.size());
  double loss = 0.0;
  for (size_t i = 0; i < output.numel(); ++i) {
    loss += static_cast<double>(output[i]) * weights[i];
  }
  return loss;
}

void UpdateErrors(double analytic, double numeric, GradCheckResult* result) {
  const double abs_error = std::fabs(analytic - numeric);
  // The scale floor absorbs central-difference noise on near-zero
  // gradients: float32 forward passes of deep nets perturb the loss by
  // ~1e-5, which divided by 2*eps would otherwise dominate the relative
  // error whenever the true gradient is ~0.
  const double scale =
      std::max({std::fabs(analytic), std::fabs(numeric), 2e-2});
  result->max_abs_error = std::max(result->max_abs_error, abs_error);
  result->max_rel_error = std::max(result->max_rel_error, abs_error / scale);
}

}  // namespace

GradCheckResult CheckInputGradient(LayerHarness* harness, const Tensor& input,
                                   uint64_t seed, double epsilon) {
  Rng rng(seed);
  harness->ctx().training = false;  // deterministic path (no dropout masks)

  Tensor base_output = harness->Forward(input);
  std::vector<float> weights(base_output.numel());
  FillUniform(weights.data(), weights.size(), &rng, -1.0f, 1.0f);

  // Analytic gradient: backprop the loss weights.
  Tensor grad_output(base_output.shape());
  for (size_t i = 0; i < weights.size(); ++i) {
    grad_output[i] = weights[i];
  }
  // Re-run forward so the layer's caches match this input.
  harness->Forward(input);
  Tensor analytic = harness->Backward(grad_output);

  GradCheckResult result;
  Tensor perturbed = input;
  for (size_t i = 0; i < input.numel(); ++i) {
    const float saved = perturbed[i];
    perturbed[i] = saved + static_cast<float>(epsilon);
    const double loss_hi = WeightedLoss(harness->Forward(perturbed), weights);
    perturbed[i] = saved - static_cast<float>(epsilon);
    const double loss_lo = WeightedLoss(harness->Forward(perturbed), weights);
    perturbed[i] = saved;
    const double numeric = (loss_hi - loss_lo) / (2.0 * epsilon);
    UpdateErrors(static_cast<double>(analytic[i]), numeric, &result);
  }
  return result;
}

GradCheckResult CheckParamGradient(Model* model, const Tensor& input,
                                   const std::vector<int>& labels,
                                   size_t num_probes, uint64_t seed,
                                   double epsilon) {
  Rng rng(seed);
  model->ZeroGrads();
  Tensor logits = model->Forward(input, /*training=*/false);
  LossResult loss = SoftmaxCrossEntropy(logits, labels);
  model->Backward(loss.grad_logits);

  GradCheckResult result;
  const size_t dim = model->num_params();
  for (size_t probe = 0; probe < num_probes; ++probe) {
    const size_t i = static_cast<size_t>(rng.NextBounded(dim));
    const float saved = model->params()[i];
    model->params()[i] = saved + static_cast<float>(epsilon);
    const double loss_hi =
        SoftmaxCrossEntropy(model->Forward(input, false), labels).loss;
    model->params()[i] = saved - static_cast<float>(epsilon);
    const double loss_lo =
        SoftmaxCrossEntropy(model->Forward(input, false), labels).loss;
    model->params()[i] = saved;
    const double numeric = (loss_hi - loss_lo) / (2.0 * epsilon);
    UpdateErrors(static_cast<double>(model->grads()[i]), numeric, &result);
  }
  return result;
}

void ExpectCommStatsConserved(const CommStats& stats) {
  ASSERT_EQ(stats.seconds_by_depth.size(), stats.bytes_by_depth.size());
  uint64_t depth_bytes = 0;
  double depth_seconds = 0.0;
  for (size_t d = 0; d < stats.bytes_by_depth.size(); ++d) {
    depth_bytes += stats.bytes_by_depth[d];
    depth_seconds += stats.seconds_by_depth[d];
  }
  EXPECT_EQ(depth_bytes, stats.bytes_total);
  EXPECT_EQ(stats.bytes_local_state + stats.bytes_model_sync,
            stats.bytes_total);
  EXPECT_LE(stats.bytes_model_downlink, stats.bytes_model_sync);
  const double tolerance = 1e-12 * stats.comm_seconds;
  EXPECT_NEAR(depth_seconds, stats.comm_seconds, tolerance);
  EXPECT_NEAR(stats.seconds_local_state + stats.seconds_model_sync,
              stats.comm_seconds, tolerance);
}

}  // namespace testing
}  // namespace fedra
