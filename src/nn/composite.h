// Composite layers: Sequential, Residual, and DenseNet-style dense blocks
// (channel concatenation). Composites forward the parameter-layout protocol
// (Register/BindOffsets/Init) to their children in order, so a whole model
// is one flat parameter vector regardless of nesting.

#ifndef FEDRA_NN_COMPOSITE_H_
#define FEDRA_NN_COMPOSITE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace fedra {

/// Runs children in order; Backward in reverse order. When the caller does
/// not read the input gradient (ctx.input_grad false), Backward stops at
/// the first child with parameters and passes the flag on to it: the
/// children in front of it have no gradient to leave.
class Sequential : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<LayerPtr> layers)
      : layers_(std::move(layers)) {}

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(LayerPtr layer);

  size_t size() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }

  std::string name() const override { return "sequential"; }
  void RegisterParams(ParameterStore* store) override;
  void BindOffsets(const ParameterStore& store) override;
  void InitParams(Rng* rng, const ParameterView& view) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  std::vector<LayerPtr> layers_;
  // Index of the first child that registered a parameter block (size() when
  // none did); set by RegisterParams. 0 before registration, which walks
  // every child.
  size_t first_trainable_ = 0;
};

/// y = x + inner(x). Input and inner-output shapes must match.
class ResidualLayer : public Layer {
 public:
  explicit ResidualLayer(LayerPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return "residual(" + inner_->name() + ")"; }
  void RegisterParams(ParameterStore* store) override {
    inner_->RegisterParams(store);
  }
  void BindOffsets(const ParameterStore& store) override {
    inner_->BindOffsets(store);
  }
  void InitParams(Rng* rng, const ParameterView& view) override {
    inner_->InitParams(rng, view);
  }
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  LayerPtr inner_;
};

/// DenseNet dense block: L sub-layers, each BN-ReLU-Conv3x3(growth), each
/// consuming the concatenation of the block input and all previous feature
/// maps, the block output being the full concatenation.
class DenseBlockLayer : public Layer {
 public:
  /// `in_channels` at block entry, `growth` channels added per sub-layer.
  DenseBlockLayer(int in_channels, int growth, int num_layers);

  int out_channels() const {
    return in_channels_ + growth_ * num_layers_;
  }

  std::string name() const override;
  void RegisterParams(ParameterStore* store) override;
  void BindOffsets(const ParameterStore& store) override;
  void InitParams(Rng* rng, const ParameterView& view) override;
  Tensor Forward(const Tensor& input, ExecContext& ctx) override;
  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override;

 private:
  // No own per-call state: Backward reconstructs everything from
  // grad_output slices, and the sublayers cache their own inputs.
  int in_channels_;
  int growth_;
  int num_layers_;
  std::vector<LayerPtr> sublayers_;  // each: BN-ReLU-Conv3x3
};

/// Concatenates two NCHW tensors along channels.
Tensor ConcatChannels(const Tensor& a, const Tensor& b);

/// Returns channels [c0, c1) of an NCHW tensor.
Tensor SliceChannels(const Tensor& t, int c0, int c1);

}  // namespace fedra

#endif  // FEDRA_NN_COMPOSITE_H_
