#include "nn/layers_conv.h"

#include "util/string_util.h"

namespace fedra {

// --------------------------------------------------------------- Conv2d --

Conv2dLayer::Conv2dLayer(int in_channels, int out_channels, int kernel,
                         int stride, int pad, init::Scheme scheme)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      scheme_(scheme) {
  FEDRA_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
              stride > 0 && pad >= 0);
}

std::string Conv2dLayer::name() const {
  return StrFormat("conv%dx%d(%d->%d,s%d,p%d)", kernel_, kernel_,
                   in_channels_, out_channels_, stride_, pad_);
}

void Conv2dLayer::RegisterParams(ParameterStore* store) {
  weight_id_ = store->Register(
      name() + ".weight", {out_channels_, in_channels_, kernel_, kernel_});
  bias_id_ = store->Register(name() + ".bias", {out_channels_});
  state_slot_ = store->RegisterStateSlot();
}

void Conv2dLayer::BindOffsets(const ParameterStore& store) {
  weight_offset_ = store.block(weight_id_).offset;
  bias_offset_ = store.block(bias_id_).offset;
}

void Conv2dLayer::InitParams(Rng* rng, const ParameterView& view) {
  const size_t fan_in =
      static_cast<size_t>(in_channels_) * kernel_ * kernel_;
  const size_t fan_out =
      static_cast<size_t>(out_channels_) * kernel_ * kernel_;
  init::Fill(scheme_, view.params + weight_offset_,
             static_cast<size_t>(out_channels_) * fan_in, fan_in, fan_out,
             rng);
  init::Fill(init::Scheme::kZeros, view.params + bias_offset_,
             static_cast<size_t>(out_channels_), 0, 0, nullptr);
}

Tensor Conv2dLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  FEDRA_CHECK_EQ(input.dim(1), in_channels_);
  State& state = ctx.states->Get<State>(state_slot_);
  state.cached_input = input;
  state.geometry = {input.dim(0), in_channels_, input.dim(2), input.dim(3),
                    out_channels_, kernel_,     stride_,      pad_};
  Tensor output({state.geometry.batch, out_channels_, state.geometry.out_h(),
                 state.geometry.out_w()});
  ops::Conv2dForward(state.geometry, input.data(),
                     ctx.view.params + weight_offset_,
                     ctx.view.params + bias_offset_, output.data(),
                     &state.workspace);
  return output;
}

Tensor Conv2dLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  Tensor grad_input;
  if (ctx.input_grad) {
    grad_input = Tensor(state.cached_input.shape());
  }
  ops::Conv2dBackward(state.geometry, state.cached_input.data(),
                      ctx.view.params + weight_offset_, grad_output.data(),
                      ctx.input_grad ? grad_input.data() : nullptr,
                      ctx.view.grads + weight_offset_,
                      ctx.view.grads + bias_offset_, &state.workspace);
  return grad_input;
}

// ------------------------------------------------------ DepthwiseConv2d --

DepthwiseConv2dLayer::DepthwiseConv2dLayer(int channels, int kernel,
                                           int stride, int pad,
                                           init::Scheme scheme)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      scheme_(scheme) {
  FEDRA_CHECK(channels > 0 && kernel > 0 && stride > 0 && pad >= 0);
}

std::string DepthwiseConv2dLayer::name() const {
  return StrFormat("dwconv%dx%d(%d,s%d,p%d)", kernel_, kernel_, channels_,
                   stride_, pad_);
}

void DepthwiseConv2dLayer::RegisterParams(ParameterStore* store) {
  weight_id_ =
      store->Register(name() + ".weight", {channels_, kernel_, kernel_});
  bias_id_ = store->Register(name() + ".bias", {channels_});
  state_slot_ = store->RegisterStateSlot();
}

void DepthwiseConv2dLayer::BindOffsets(const ParameterStore& store) {
  weight_offset_ = store.block(weight_id_).offset;
  bias_offset_ = store.block(bias_id_).offset;
}

void DepthwiseConv2dLayer::InitParams(Rng* rng, const ParameterView& view) {
  const size_t fan_in = static_cast<size_t>(kernel_) * kernel_;
  init::Fill(scheme_, view.params + weight_offset_,
             static_cast<size_t>(channels_) * fan_in, fan_in, fan_in, rng);
  init::Fill(init::Scheme::kZeros, view.params + bias_offset_,
             static_cast<size_t>(channels_), 0, 0, nullptr);
}

Tensor DepthwiseConv2dLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  FEDRA_CHECK_EQ(input.dim(1), channels_);
  State& state = ctx.states->Get<State>(state_slot_);
  state.cached_input = input;
  state.geometry = {input.dim(0), channels_, input.dim(2), input.dim(3),
                    channels_,    kernel_,   stride_,      pad_};
  Tensor output({state.geometry.batch, channels_, state.geometry.out_h(),
                 state.geometry.out_w()});
  ops::DepthwiseConv2dForward(state.geometry, input.data(),
                              ctx.view.params + weight_offset_,
                              ctx.view.params + bias_offset_, output.data());
  return output;
}

Tensor DepthwiseConv2dLayer::Backward(const Tensor& grad_output,
                                      ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  Tensor grad_input;
  if (ctx.input_grad) {
    grad_input = Tensor(state.cached_input.shape());
  }
  ops::DepthwiseConv2dBackward(state.geometry, state.cached_input.data(),
                               ctx.view.params + weight_offset_,
                               grad_output.data(),
                               ctx.input_grad ? grad_input.data() : nullptr,
                               ctx.view.grads + weight_offset_,
                               ctx.view.grads + bias_offset_);
  return grad_input;
}

// --------------------------------------------------------------- Pool2d --

Pool2dLayer::Pool2dLayer(PoolKind kind, int kernel, int stride)
    : kind_(kind), kernel_(kernel), stride_(stride) {
  FEDRA_CHECK(kernel > 0 && stride > 0);
}

std::string Pool2dLayer::name() const {
  return StrFormat("%spool%dx%d(s%d)", kind_ == PoolKind::kMax ? "max" : "avg",
                   kernel_, kernel_, stride_);
}

void Pool2dLayer::RegisterParams(ParameterStore* store) {
  state_slot_ = store->RegisterStateSlot();
}

Tensor Pool2dLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  State& state = ctx.states->Get<State>(state_slot_);
  state.input_shape = input.shape();
  state.geometry = {input.dim(0), input.dim(1), input.dim(2), input.dim(3),
                    input.dim(1), kernel_,      stride_,      0};
  Tensor output({state.geometry.batch, state.geometry.in_channels,
                 state.geometry.out_h(), state.geometry.out_w()});
  if (kind_ == PoolKind::kMax) {
    state.argmax.assign(output.numel(), -1);
    ops::MaxPool2dForward(state.geometry, input.data(), output.data(),
                          state.argmax.data());
  } else {
    ops::AvgPool2dForward(state.geometry, input.data(), output.data());
  }
  return output;
}

Tensor Pool2dLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  Tensor grad_input(state.input_shape);
  if (kind_ == PoolKind::kMax) {
    ops::MaxPool2dBackward(state.geometry, grad_output.data(),
                           state.argmax.data(), grad_input.data());
  } else {
    ops::AvgPool2dBackward(state.geometry, grad_output.data(),
                           grad_input.data());
  }
  return grad_input;
}

// -------------------------------------------------------- GlobalAvgPool --

void GlobalAvgPoolLayer::RegisterParams(ParameterStore* store) {
  state_slot_ = store->RegisterStateSlot();
}

Tensor GlobalAvgPoolLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  State& state = ctx.states->Get<State>(state_slot_);
  state.input_shape = input.shape();
  Tensor output({input.dim(0), input.dim(1)});
  ops::GlobalAvgPoolForward(input.dim(0), input.dim(1), input.dim(2),
                            input.dim(3), input.data(), output.data());
  return output;
}

Tensor GlobalAvgPoolLayer::Backward(const Tensor& grad_output,
                                    ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  Tensor grad_input(state.input_shape);
  ops::GlobalAvgPoolBackward(state.input_shape[0], state.input_shape[1],
                             state.input_shape[2], state.input_shape[3],
                             grad_output.data(), grad_input.data());
  return grad_input;
}

}  // namespace fedra
