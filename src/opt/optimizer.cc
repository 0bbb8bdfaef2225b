#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

OptimizerConfig OptimizerConfig::Sgd(float lr, float weight_decay) {
  OptimizerConfig config;
  config.kind = Kind::kSgd;
  config.learning_rate = lr;
  config.weight_decay = weight_decay;
  return config;
}

OptimizerConfig OptimizerConfig::SgdMomentum(float lr, float momentum,
                                             bool nesterov,
                                             float weight_decay) {
  OptimizerConfig config;
  config.kind = Kind::kSgdMomentum;
  config.learning_rate = lr;
  config.momentum = momentum;
  config.nesterov = nesterov;
  config.weight_decay = weight_decay;
  return config;
}

OptimizerConfig OptimizerConfig::Adam(float lr) {
  OptimizerConfig config;
  config.kind = Kind::kAdam;
  config.learning_rate = lr;
  return config;
}

OptimizerConfig OptimizerConfig::AdamW(float lr, float weight_decay) {
  OptimizerConfig config;
  config.kind = Kind::kAdamW;
  config.learning_rate = lr;
  config.weight_decay = weight_decay;
  return config;
}

size_t OptimizerConfig::StateSlots() const {
  switch (kind) {
    case Kind::kSgd:
      return 0;
    case Kind::kSgdMomentum:
      return 1;
    case Kind::kAdam:
    case Kind::kAdamW:
      return 2;
  }
  FEDRA_CHECK(false) << "unknown optimizer kind";
  return 0;
}

Status OptimizerConfig::Validate() const {
  if (!(learning_rate > 0.0f)) {
    return Status::InvalidArgument("learning_rate must be > 0");
  }
  // Every range is written as !(in range), so NaN fails it too.
  if (!(momentum >= 0.0f && momentum < 1.0f)) {
    return Status::InvalidArgument("momentum must be in [0, 1)");
  }
  if (kind == Kind::kAdam || kind == Kind::kAdamW) {
    if (!(beta1 > 0.0f && beta1 < 1.0f && beta2 > 0.0f && beta2 < 1.0f)) {
      return Status::InvalidArgument("Adam betas must be in (0, 1)");
    }
    if (!(epsilon > 0.0f)) {
      return Status::InvalidArgument("Adam epsilon must be > 0");
    }
  }
  if (!(weight_decay >= 0.0f)) {
    return Status::InvalidArgument("weight_decay must be >= 0");
  }
  return Status::Ok();
}

std::string OptimizerConfig::ToString() const {
  switch (kind) {
    case Kind::kSgd:
      return StrFormat("SGD(lr=%g, wd=%g)",
                       static_cast<double>(learning_rate),
                       static_cast<double>(weight_decay));
    case Kind::kSgdMomentum:
      return StrFormat("SGD-%sM(lr=%g, m=%g, wd=%g)", nesterov ? "N" : "",
                       static_cast<double>(learning_rate),
                       static_cast<double>(momentum),
                       static_cast<double>(weight_decay));
    case Kind::kAdam:
      return StrFormat("Adam(lr=%g)", static_cast<double>(learning_rate));
    case Kind::kAdamW:
      return StrFormat("AdamW(lr=%g, wd=%g)",
                       static_cast<double>(learning_rate),
                       static_cast<double>(weight_decay));
  }
  return "unknown";
}

namespace {

// Runs update(params + begin, grads + begin, begin, len) over ascending
// blocks of Optimizer::kStepBlock floats, each followed by its callback.
template <typename Update>
void UpdateInBlocks(float* params, const float* grads, size_t n,
                    Optimizer::BlockFn on_block, void* context,
                    const Update& update) {
  for (size_t begin = 0; begin < n; begin += Optimizer::kStepBlock) {
    const size_t len = std::min(Optimizer::kStepBlock, n - begin);
    update(params + begin, grads + begin, begin, len);
    if (on_block != nullptr) {
      on_block(context, params + begin, begin, len);
    }
  }
}

class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(const OptimizerConfig& config, size_t dim, float* state)
      : config_(config), dim_(dim) {
    if (config_.kind == OptimizerConfig::Kind::kSgdMomentum) {
      if (state != nullptr) {
        velocity_ = state;
      } else {
        owned_.assign(dim, 0.0f);
        velocity_ = owned_.data();
      }
      vec::Fill(velocity_, dim_, 0.0f);
    }
  }

  void Step(float* params, const float* grads, size_t n, BlockFn on_block,
            void* context) override {
    const float lr = config_.learning_rate;
    const float wd = config_.weight_decay;
    if (config_.kind == OptimizerConfig::Kind::kSgd) {
      UpdateInBlocks(params, grads, n, on_block, context,
                     [&](float* p, const float* g, size_t, size_t len) {
                       if (wd == 0.0f) {
                         vec::Axpy(-lr, g, p, len);  // p -= lr * g
                         return;
                       }
                       for (size_t i = 0; i < len; ++i) {
                         const float gi = g[i] + wd * p[i];
                         p[i] -= lr * gi;
                       }
                     });
      return;
    }
    FEDRA_CHECK_EQ(dim_, n);
    const float mu = config_.momentum;
    const bool nesterov = config_.nesterov;
    UpdateInBlocks(
        params, grads, n, on_block, context,
        [&](float* p, const float* g, size_t begin, size_t len) {
          float* velocity = velocity_ + begin;
          if (nesterov) {
            // v <- mu*v + g ; w <- w - lr*(g + mu*v)  (Sutskever)
            for (size_t i = 0; i < len; ++i) {
              const float gi = g[i] + wd * p[i];
              velocity[i] = mu * velocity[i] + gi;
              p[i] -= lr * (gi + mu * velocity[i]);
            }
          } else {
            // v <- mu*v + g ; w <- w - lr*v
            for (size_t i = 0; i < len; ++i) {
              const float gi = g[i] + wd * p[i];
              velocity[i] = mu * velocity[i] + gi;
              p[i] -= lr * velocity[i];
            }
          }
        });
  }

  void Reset() override {
    if (velocity_ != nullptr) {
      vec::Fill(velocity_, dim_, 0.0f);
    }
  }

  std::string name() const override { return config_.ToString(); }

 private:
  OptimizerConfig config_;
  size_t dim_;
  float* velocity_ = nullptr;   // external slab slice or owned_.data()
  std::vector<float> owned_;
};

class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(const OptimizerConfig& config, size_t dim, float* state)
      : config_(config), dim_(dim) {
    if (state != nullptr) {
      m_ = state;
      v_ = state + dim;
    } else {
      owned_.assign(2 * dim, 0.0f);
      m_ = owned_.data();
      v_ = owned_.data() + dim;
    }
    vec::Fill(m_, dim_, 0.0f);
    vec::Fill(v_, dim_, 0.0f);
  }

  // The bias correction stays in double here; the element loop is
  // vec::AdamStep, dispatched per SIMD level and bit-identical across them.
  void Step(float* params, const float* grads, size_t n, BlockFn on_block,
            void* context) override {
    FEDRA_CHECK_EQ(dim_, n);
    ++step_;
    vec::AdamStepArgs args;
    args.lr = config_.learning_rate;
    args.beta1 = config_.beta1;
    args.beta2 = config_.beta2;
    args.epsilon = config_.epsilon;
    args.weight_decay = config_.weight_decay;
    args.decoupled = config_.kind == OptimizerConfig::Kind::kAdamW;
    const double bias1 =
        1.0 - std::pow(static_cast<double>(args.beta1),
                       static_cast<double>(step_));
    const double bias2 =
        1.0 - std::pow(static_cast<double>(args.beta2),
                       static_cast<double>(step_));
    args.corrected_lr = args.lr * static_cast<float>(std::sqrt(bias2) / bias1);
    UpdateInBlocks(params, grads, n, on_block, context,
                   [&](float* p, const float* g, size_t begin, size_t len) {
                     vec::AdamStep(args, g, p, m_ + begin, v_ + begin, len);
                   });
  }

  void Reset() override {
    step_ = 0;
    vec::Fill(m_, dim_, 0.0f);
    vec::Fill(v_, dim_, 0.0f);
  }

  uint64_t step_count() const override { return step_; }
  void set_step_count(uint64_t steps) override { step_ = steps; }

  std::string name() const override { return config_.ToString(); }

 private:
  OptimizerConfig config_;
  size_t dim_;
  float* m_ = nullptr;  // external slab slices or owned_.data()
  float* v_ = nullptr;
  std::vector<float> owned_;
  uint64_t step_ = 0;
};

}  // namespace

std::unique_ptr<Optimizer> Optimizer::Create(const OptimizerConfig& config,
                                             size_t dim, float* state) {
  FEDRA_CHECK_OK(config.Validate());
  switch (config.kind) {
    case OptimizerConfig::Kind::kSgd:
    case OptimizerConfig::Kind::kSgdMomentum:
      return std::make_unique<SgdOptimizer>(config, dim, state);
    case OptimizerConfig::Kind::kAdam:
    case OptimizerConfig::Kind::kAdamW:
      return std::make_unique<AdamOptimizer>(config, dim, state);
  }
  FEDRA_CHECK(false) << "unknown optimizer kind";
  return nullptr;
}

}  // namespace fedra
