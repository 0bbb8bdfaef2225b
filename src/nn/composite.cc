#include "nn/composite.h"

#include <cstring>

#include "nn/layers_basic.h"
#include "nn/layers_conv.h"
#include "nn/layers_norm.h"
#include "util/string_util.h"

namespace fedra {

// ----------------------------------------------------------- Sequential --

Sequential& Sequential::Add(LayerPtr layer) {
  FEDRA_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::RegisterParams(ParameterStore* store) {
  first_trainable_ = layers_.size();
  for (size_t i = 0; i < layers_.size(); ++i) {
    const size_t blocks_before = store->num_blocks();
    layers_[i]->RegisterParams(store);
    if (first_trainable_ == layers_.size() &&
        store->num_blocks() > blocks_before) {
      first_trainable_ = i;
    }
  }
}

void Sequential::BindOffsets(const ParameterStore& store) {
  for (auto& layer : layers_) {
    layer->BindOffsets(store);
  }
}

void Sequential::InitParams(Rng* rng, const ParameterView& view) {
  for (auto& layer : layers_) {
    layer->InitParams(rng, view);
  }
}

Tensor Sequential::Forward(const Tensor& input, ExecContext& ctx) {
  Tensor current = input;
  for (auto& layer : layers_) {
    current = layer->Forward(current, ctx);
  }
  return current;
}

Tensor Sequential::Backward(const Tensor& grad_output, ExecContext& ctx) {
  const bool input_grad = ctx.input_grad;
  const size_t stop = input_grad ? 0 : first_trainable_;
  Tensor current = grad_output;
  for (size_t i = layers_.size(); i > stop; --i) {
    // Every child but the last one walked feeds its input gradient on.
    ctx.input_grad = input_grad || i - 1 > stop;
    current = layers_[i - 1]->Backward(current, ctx);
  }
  return input_grad ? current : Tensor();
}

// ------------------------------------------------------------- Residual --

Tensor ResidualLayer::Forward(const Tensor& input, ExecContext& ctx) {
  Tensor inner_out = inner_->Forward(input, ctx);
  FEDRA_CHECK(inner_out.SameShape(input))
      << "residual branch must preserve shape: " << input.ShapeString()
      << " vs " << inner_out.ShapeString();
  float* out = inner_out.data();
  const float* in = input.data();
  for (size_t i = 0; i < inner_out.numel(); ++i) {
    out[i] += in[i];
  }
  return inner_out;
}

Tensor ResidualLayer::Backward(const Tensor& grad_output, ExecContext& ctx) {
  ctx.input_grad = true;
  Tensor grad_inner = inner_->Backward(grad_output, ctx);
  FEDRA_CHECK(grad_inner.SameShape(grad_output));
  float* gi = grad_inner.data();
  const float* go = grad_output.data();
  for (size_t i = 0; i < grad_inner.numel(); ++i) {
    gi[i] += go[i];
  }
  return grad_inner;
}

// ------------------------------------------------------- channel concat --

Tensor ConcatChannels(const Tensor& a, const Tensor& b) {
  FEDRA_CHECK_EQ(a.rank(), 4);
  FEDRA_CHECK_EQ(b.rank(), 4);
  FEDRA_CHECK_EQ(a.dim(0), b.dim(0));
  FEDRA_CHECK_EQ(a.dim(2), b.dim(2));
  FEDRA_CHECK_EQ(a.dim(3), b.dim(3));
  const int batch = a.dim(0);
  const int ca = a.dim(1);
  const int cb = b.dim(1);
  const size_t plane = static_cast<size_t>(a.dim(2)) * a.dim(3);
  Tensor out({batch, ca + cb, a.dim(2), a.dim(3)});
  for (int n = 0; n < batch; ++n) {
    std::memcpy(out.data() + static_cast<size_t>(n) * (ca + cb) * plane,
                a.data() + static_cast<size_t>(n) * ca * plane,
                ca * plane * sizeof(float));
    std::memcpy(out.data() + (static_cast<size_t>(n) * (ca + cb) + ca) * plane,
                b.data() + static_cast<size_t>(n) * cb * plane,
                cb * plane * sizeof(float));
  }
  return out;
}

Tensor SliceChannels(const Tensor& t, int c0, int c1) {
  FEDRA_CHECK_EQ(t.rank(), 4);
  FEDRA_CHECK(0 <= c0 && c0 < c1 && c1 <= t.dim(1));
  const int batch = t.dim(0);
  const int channels = t.dim(1);
  const int out_c = c1 - c0;
  const size_t plane = static_cast<size_t>(t.dim(2)) * t.dim(3);
  Tensor out({batch, out_c, t.dim(2), t.dim(3)});
  for (int n = 0; n < batch; ++n) {
    std::memcpy(
        out.data() + static_cast<size_t>(n) * out_c * plane,
        t.data() + (static_cast<size_t>(n) * channels + c0) * plane,
        out_c * plane * sizeof(float));
  }
  return out;
}

// ----------------------------------------------------------- DenseBlock --

DenseBlockLayer::DenseBlockLayer(int in_channels, int growth, int num_layers)
    : in_channels_(in_channels), growth_(growth), num_layers_(num_layers) {
  FEDRA_CHECK(in_channels > 0 && growth > 0 && num_layers > 0);
  for (int i = 0; i < num_layers; ++i) {
    const int ch = in_channels + i * growth;
    auto sub = std::make_unique<Sequential>();
    sub->Add(std::make_unique<BatchNorm2dLayer>(ch));
    sub->Add(std::make_unique<ActivationLayer>(Activation::kRelu));
    sub->Add(std::make_unique<Conv2dLayer>(ch, growth, /*kernel=*/3,
                                           /*stride=*/1, /*pad=*/1,
                                           init::Scheme::kHeNormal));
    sublayers_.push_back(std::move(sub));
  }
}

std::string DenseBlockLayer::name() const {
  return StrFormat("dense_block(in=%d,g=%d,L=%d)", in_channels_, growth_,
                   num_layers_);
}

void DenseBlockLayer::RegisterParams(ParameterStore* store) {
  for (auto& sub : sublayers_) {
    sub->RegisterParams(store);
  }
}

void DenseBlockLayer::BindOffsets(const ParameterStore& store) {
  for (auto& sub : sublayers_) {
    sub->BindOffsets(store);
  }
}

void DenseBlockLayer::InitParams(Rng* rng, const ParameterView& view) {
  for (auto& sub : sublayers_) {
    sub->InitParams(rng, view);
  }
}

Tensor DenseBlockLayer::Forward(const Tensor& input, ExecContext& ctx) {
  FEDRA_CHECK_EQ(input.rank(), 4);
  FEDRA_CHECK_EQ(input.dim(1), in_channels_);
  Tensor features = input;
  for (int i = 0; i < num_layers_; ++i) {
    Tensor new_features = sublayers_[static_cast<size_t>(i)]->Forward(
        features, ctx);
    features = ConcatChannels(features, new_features);
  }
  return features;
}

Tensor DenseBlockLayer::Backward(const Tensor& grad_output,
                                 ExecContext& ctx) {
  FEDRA_CHECK_EQ(grad_output.dim(1), out_channels());
  // grad_accum holds d(loss)/d(concat state); sublayers peel off their
  // growth-channel slice from the top and push gradient into the prefix.
  Tensor grad_accum = grad_output;
  for (int i = num_layers_ - 1; i >= 0; --i) {
    const int prefix_ch = in_channels_ + i * growth_;
    Tensor grad_new = SliceChannels(grad_accum, prefix_ch,
                                    prefix_ch + growth_);
    Tensor grad_prefix = SliceChannels(grad_accum, 0, prefix_ch);
    ctx.input_grad = true;
    Tensor grad_sub_input =
        sublayers_[static_cast<size_t>(i)]->Backward(grad_new, ctx);
    FEDRA_CHECK(grad_sub_input.SameShape(grad_prefix));
    float* gp = grad_prefix.data();
    const float* gs = grad_sub_input.data();
    for (size_t j = 0; j < grad_prefix.numel(); ++j) {
      gp[j] += gs[j];
    }
    grad_accum = std::move(grad_prefix);
  }
  return grad_accum;
}

}  // namespace fedra
