// Convolution and pooling layers (NCHW). Layer objects are shareable
// across concurrent executions; per-call caches (cached inputs, geometry,
// conv workspaces, argmax maps) live in the ExecContext's state store.

#ifndef FEDRA_NN_LAYERS_CONV_H_
#define FEDRA_NN_LAYERS_CONV_H_

#include <string>
#include <vector>

#include "nn/init.h"
#include "nn/layer.h"
#include "tensor/ops.h"

namespace fedra {

/// Standard 2-D convolution with square kernel.
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(int in_channels, int out_channels, int kernel, int stride,
              int pad, init::Scheme scheme = init::Scheme::kHeNormal);

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  void BindOffsets(const ParameterStore& store) override;
  void InitParams(Rng* rng, const ParameterView& view) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

  int out_channels() const { return out_channels_; }

 private:
  struct State : LayerState {
    Tensor cached_input;
    ops::Conv2dGeometry geometry;
    // Per-execution packed weights, reused across steps: the inner training
    // loop allocates nothing once the buffers reach steady-state capacity.
    ops::Conv2dWorkspace workspace;
  };

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  init::Scheme scheme_;
  size_t weight_id_ = 0;
  size_t bias_id_ = 0;
  size_t weight_offset_ = 0;
  size_t bias_offset_ = 0;
  size_t state_slot_ = 0;
};

/// Depthwise 2-D convolution (one filter per channel); used by ConvNeXt.
class DepthwiseConv2dLayer : public Layer {
 public:
  DepthwiseConv2dLayer(int channels, int kernel, int stride, int pad,
                       init::Scheme scheme = init::Scheme::kHeNormal);

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  void BindOffsets(const ParameterStore& store) override;
  void InitParams(Rng* rng, const ParameterView& view) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    Tensor cached_input;
    ops::Conv2dGeometry geometry;
  };

  int channels_;
  int kernel_;
  int stride_;
  int pad_;
  init::Scheme scheme_;
  size_t weight_id_ = 0;
  size_t bias_id_ = 0;
  size_t weight_offset_ = 0;
  size_t bias_offset_ = 0;
  size_t state_slot_ = 0;
};

enum class PoolKind { kMax, kAvg };

/// Max or average pooling over square windows.
class Pool2dLayer : public Layer {
 public:
  Pool2dLayer(PoolKind kind, int kernel, int stride);

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    ops::Conv2dGeometry geometry;
    std::vector<int> argmax;
    std::vector<int> input_shape;
  };

  PoolKind kind_;
  int kernel_;
  int stride_;
  size_t state_slot_ = 0;
};

/// Global average pooling: [B, C, H, W] -> [B, C].
class GlobalAvgPoolLayer : public Layer {
 public:
  std::string name() const override { return "global_avg_pool"; }
  void RegisterParams(ParameterStore* store) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  struct State : LayerState {
    std::vector<int> input_shape;
  };

  size_t state_slot_ = 0;
};

}  // namespace fedra

#endif  // FEDRA_NN_LAYERS_CONV_H_
