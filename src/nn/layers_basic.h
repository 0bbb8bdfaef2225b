// Basic layers: Dense (fully connected), activations, Dropout, Flatten.
//
// Layer objects are shareable across concurrent executions: they hold only
// architecture constants and layout offsets; per-call caches live in the
// ExecContext's LayerStateStore (see layer.h).

#ifndef FEDRA_NN_LAYERS_BASIC_H_
#define FEDRA_NN_LAYERS_BASIC_H_

#include <string>
#include <vector>

#include "nn/init.h"
#include "nn/layer.h"

namespace fedra {

/// y = x W^T + b, with x [B, in], W [out, in], b [out].
class DenseLayer : public Layer {
 public:
  DenseLayer(int in_features, int out_features,
             init::Scheme scheme = init::Scheme::kGlorotUniform);

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  void BindOffsets(const ParameterStore& store) override;
  void InitParams(Rng* rng, const ParameterView& view) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  struct State : LayerState {
    Tensor cached_input;
  };

  int in_features_;
  int out_features_;
  init::Scheme scheme_;
  size_t weight_id_ = 0;
  size_t bias_id_ = 0;
  size_t weight_offset_ = 0;
  size_t bias_offset_ = 0;
  size_t state_slot_ = 0;
};

/// Elementwise activation selection.
enum class Activation { kRelu, kTanh, kGelu };

class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(Activation kind) : kind_(kind) {}

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    Tensor cached;  // ReLU and GELU: the input; tanh: the output
  };

  Activation kind_;
  size_t state_slot_ = 0;
};

/// Inverted dropout: scales kept units by 1/(1-rate) during training; the
/// identity in eval mode.
class DropoutLayer : public Layer {
 public:
  explicit DropoutLayer(float rate);

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    std::vector<float> mask;  // per-element keep-scale from the last Forward
    bool last_was_training = false;
  };

  float rate_;
  size_t state_slot_ = 0;
};

/// [B, ...] -> [B, prod(...)]
class FlattenLayer : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  void RegisterParams(ParameterStore* store) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    std::vector<int> cached_shape;
  };

  size_t state_slot_ = 0;
};

}  // namespace fedra

#endif  // FEDRA_NN_LAYERS_BASIC_H_
