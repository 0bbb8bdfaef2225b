// Shared test helpers: random tensor filling, finite-difference gradient
// checking for layers and models, and the conservation laws of a run's
// communication accounting.

#ifndef FEDRA_TESTS_TEST_UTIL_H_
#define FEDRA_TESTS_TEST_UTIL_H_

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/model.h"
#include "sim/comm_stats.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedra {
namespace testing {

inline void FillUniform(Tensor* t, Rng* rng, float lo = -1.0f,
                        float hi = 1.0f) {
  for (size_t i = 0; i < t->numel(); ++i) {
    (*t)[i] = rng->NextUniform(lo, hi);
  }
}

inline void FillUniform(float* data, size_t n, Rng* rng, float lo = -1.0f,
                        float hi = 1.0f) {
  for (size_t i = 0; i < n; ++i) {
    data[i] = rng->NextUniform(lo, hi);
  }
}

/// Standalone execution environment for a single layer: a finalized
/// ParameterStore with owned buffers, a LayerStateStore, and the
/// ExecContext tying them together. Registers + binds + (optionally)
/// initializes the layer on construction.
class LayerHarness {
 public:
  explicit LayerHarness(Layer* layer, uint64_t init_seed = 1) : layer_(layer) {
    layer_->RegisterParams(&store_);
    store_.Finalize();
    layer_->BindOffsets(store_);
    states_ = std::make_unique<LayerStateStore>(store_.num_state_slots());
    ctx_.view = ParameterView{store_.params(), store_.grads(),
                              store_.num_params()};
    ctx_.states = states_.get();
    Rng rng(init_seed);
    layer_->InitParams(&rng, ctx_.view);
  }

  ParameterStore& store() { return store_; }
  ExecContext& ctx() { return ctx_; }

  Tensor Forward(const Tensor& input) { return layer_->Forward(input, ctx_); }
  Tensor Backward(const Tensor& grad_output) {
    return layer_->Backward(grad_output, ctx_);
  }

 private:
  Layer* layer_;
  ParameterStore store_;
  std::unique_ptr<LayerStateStore> states_;
  ExecContext ctx_;
};

/// Scalar loss used for gradient checks: weighted sum of the output.
/// Fixed random weights make the check sensitive to every output element.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

/// Checks d(loss)/d(input) of a harnessed layer against central finite
/// differences.
GradCheckResult CheckInputGradient(LayerHarness* harness, const Tensor& input,
                                   uint64_t seed, double epsilon = 1e-3);

/// Checks d(loss)/d(params) of a model (all parameters at once, sampled
/// `num_probes` coordinates to keep runtime bounded).
GradCheckResult CheckParamGradient(Model* model, const Tensor& input,
                                   const std::vector<int>& labels,
                                   size_t num_probes, uint64_t seed,
                                   double epsilon = 1e-3);

/// Expects the conservation laws every CommStats record obeys: the
/// per-depth bytes and the two traffic classes' bytes each sum exactly to
/// bytes_total, downlink bytes are a share of model-sync bytes, and the
/// per-depth and per-class seconds each sum to comm_seconds within 1e-12
/// relative (they accumulate in separate doubles).
void ExpectCommStatsConserved(const CommStats& stats);

}  // namespace testing
}  // namespace fedra

#endif  // FEDRA_TESTS_TEST_UTIL_H_
