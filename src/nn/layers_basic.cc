#include "nn/layers_basic.h"

#include <cmath>

#include "tensor/ops.h"
#include "tensor/vec_ops.h"
#include "util/string_util.h"

namespace fedra {

// ---------------------------------------------------------------- Dense --

DenseLayer::DenseLayer(int in_features, int out_features, init::Scheme scheme)
    : in_features_(in_features),
      out_features_(out_features),
      scheme_(scheme) {
  FEDRA_CHECK_GT(in_features, 0);
  FEDRA_CHECK_GT(out_features, 0);
}

std::string DenseLayer::name() const {
  return StrFormat("dense(%d->%d)", in_features_, out_features_);
}

void DenseLayer::RegisterParams(ParameterStore* store) {
  weight_id_ = store->Register(name() + ".weight",
                               {out_features_, in_features_});
  bias_id_ = store->Register(name() + ".bias", {out_features_});
  state_slot_ = store->RegisterStateSlot();
}

void DenseLayer::BindOffsets(const ParameterStore& store) {
  weight_offset_ = store.block(weight_id_).offset;
  bias_offset_ = store.block(bias_id_).offset;
}

void DenseLayer::InitParams(Rng* rng, const ParameterView& view) {
  init::Fill(scheme_, view.params + weight_offset_,
             static_cast<size_t>(out_features_) * in_features_,
             static_cast<size_t>(in_features_),
             static_cast<size_t>(out_features_), rng);
  init::Fill(init::Scheme::kZeros, view.params + bias_offset_,
             static_cast<size_t>(out_features_), 0, 0, nullptr);
}

Tensor DenseLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 2);
  FEDRA_CHECK_EQ(input.dim(1), in_features_);
  const int batch = input.dim(0);
  State& state = ctx.states->Get<State>(state_slot_);
  state.cached_input = input;
  const float* weight = ctx.view.params + weight_offset_;
  const float* bias = ctx.view.params + bias_offset_;
  Tensor output({batch, out_features_});
  // y[B, out] = x[B, in] * W^T[in, out]
  ops::Gemm(/*trans_a=*/false, /*trans_b=*/true, batch, out_features_,
            in_features_, 1.0f, input.data(), weight, 0.0f, output.data());
  for (int b = 0; b < batch; ++b) {
    vec::Axpy(1.0f, bias, output.data() + static_cast<size_t>(b) *
                              out_features_,
              static_cast<size_t>(out_features_));
  }
  return output;
}

Tensor DenseLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  FEDRA_CHECK_EQ(grad_output.rank(), 2);
  FEDRA_CHECK_EQ(grad_output.dim(1), out_features_);
  const int batch = grad_output.dim(0);
  State& state = ctx.states->Get<State>(state_slot_);
  FEDRA_CHECK_EQ(batch, state.cached_input.dim(0));
  const float* weight = ctx.view.params + weight_offset_;
  float* grad_weight = ctx.view.grads + weight_offset_;
  float* grad_bias = ctx.view.grads + bias_offset_;
  // dW[out, in] += dY^T[out, B] * X[B, in]
  ops::Gemm(/*trans_a=*/true, /*trans_b=*/false, out_features_, in_features_,
            batch, 1.0f, grad_output.data(), state.cached_input.data(), 1.0f,
            grad_weight);
  // db[out] += column sums of dY
  for (int b = 0; b < batch; ++b) {
    vec::Axpy(1.0f,
              grad_output.data() + static_cast<size_t>(b) * out_features_,
              grad_bias, static_cast<size_t>(out_features_));
  }
  if (!ctx.input_grad) {
    return Tensor();
  }
  // dX[B, in] = dY[B, out] * W[out, in]
  Tensor grad_input({batch, in_features_});
  ops::Gemm(/*trans_a=*/false, /*trans_b=*/false, batch, in_features_,
            out_features_, 1.0f, grad_output.data(), weight, 0.0f,
            grad_input.data());
  return grad_input;
}

// ----------------------------------------------------------- Activation --

namespace {

inline float GeluValue(float x) {
  // tanh approximation (as used by ConvNeXt and most frameworks).
  const float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

inline float GeluGrad(float x) {
  const float kC = 0.7978845608028654f;
  const float x3 = x * x * x;
  const float inner = kC * (x + 0.044715f * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kC * (1.0f + 3.0f * 0.044715f * x * x);
}

}  // namespace

std::string ActivationLayer::name() const {
  switch (kind_) {
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
    case Activation::kGelu:
      return "gelu";
  }
  return "activation";
}

void ActivationLayer::RegisterParams(ParameterStore* store) {
  state_slot_ = store->RegisterStateSlot();
}

Tensor ActivationLayer::Forward(const Tensor& input, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  state.cached = input;
  if (kind_ == Activation::kTanh) {
    // The backward needs only tanh(x), so the cache holds the output,
    // computed in place and then copied out (cache first, then output: the
    // allocation order of the other kinds).
    vec::Tanh(state.cached.data(), state.cached.data(), state.cached.numel());
    return state.cached;
  }
  Tensor output = input;
  float* out = output.data();
  const size_t n = output.numel();
  switch (kind_) {
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        out[i] = out[i] > 0.0f ? out[i] : 0.0f;
      }
      break;
    case Activation::kTanh:  // returned above
      break;
    case Activation::kGelu:
      for (size_t i = 0; i < n; ++i) {
        out[i] = GeluValue(out[i]);
      }
      break;
  }
  return output;
}

Tensor ActivationLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  FEDRA_CHECK(grad_output.SameShape(state.cached));
  Tensor grad_input = grad_output;
  float* gi = grad_input.data();
  const float* cached = state.cached.data();
  const size_t n = grad_input.numel();
  switch (kind_) {
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        gi[i] = cached[i] > 0.0f ? gi[i] : 0.0f;
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) {
        gi[i] *= 1.0f - cached[i] * cached[i];
      }
      break;
    case Activation::kGelu:
      for (size_t i = 0; i < n; ++i) {
        gi[i] *= GeluGrad(cached[i]);
      }
      break;
  }
  return grad_input;
}

// -------------------------------------------------------------- Dropout --

DropoutLayer::DropoutLayer(float rate) : rate_(rate) {
  FEDRA_CHECK(rate >= 0.0f && rate < 1.0f) << "dropout rate in [0,1)";
}

std::string DropoutLayer::name() const {
  return StrFormat("dropout(%.2f)", static_cast<double>(rate_));
}

void DropoutLayer::RegisterParams(ParameterStore* store) {
  state_slot_ = store->RegisterStateSlot();
}

Tensor DropoutLayer::Forward(const Tensor& input, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  state.last_was_training = ctx.training && rate_ > 0.0f;
  if (!state.last_was_training) {
    return input;
  }
  FEDRA_CHECK(ctx.rng != nullptr) << "dropout needs an Rng during training";
  const float keep_scale = 1.0f / (1.0f - rate_);
  state.mask.assign(input.numel(), 0.0f);
  Tensor output = input;
  float* out = output.data();
  for (size_t i = 0; i < state.mask.size(); ++i) {
    if (!ctx.rng->NextBernoulli(rate_)) {
      state.mask[i] = keep_scale;
      out[i] *= keep_scale;
    } else {
      out[i] = 0.0f;
    }
  }
  return output;
}

Tensor DropoutLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  if (!state.last_was_training) {
    return grad_output;
  }
  FEDRA_CHECK_EQ(grad_output.numel(), state.mask.size());
  Tensor grad_input = grad_output;
  float* gi = grad_input.data();
  for (size_t i = 0; i < state.mask.size(); ++i) {
    gi[i] *= state.mask[i];
  }
  return grad_input;
}

// -------------------------------------------------------------- Flatten --

void FlattenLayer::RegisterParams(ParameterStore* store) {
  state_slot_ = store->RegisterStateSlot();
}

Tensor FlattenLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_GE(input.rank(), 2);
  State& state = ctx.states->Get<State>(state_slot_);
  state.cached_shape = input.shape();
  const int batch = input.dim(0);
  const int features = static_cast<int>(input.numel()) / batch;
  return input.Reshaped({batch, features});
}

Tensor FlattenLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  State& state = ctx.states->Get<State>(state_slot_);
  return grad_output.Reshaped(state.cached_shape);
}

}  // namespace fedra
