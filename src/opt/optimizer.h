// Optimizers over flat parameter vectors.
//
// The same interface serves two roles, mirroring the paper's setup:
//  - local optimizers on each worker (Table 2: Adam for LeNet-5 / VGG16*,
//    SGD with Nesterov momentum for the DenseNets, AdamW for ConvNeXt);
//  - *server* optimizers for the FedOpt family (FedAvgM = server SGD with
//    momentum, FedAdam = server Adam), which treat the negated average
//    client delta as a pseudo-gradient (Reddi et al., 2021).
//
// Adam and AdamW compute their bias correction per step in double and run
// the element loop as vec::AdamStep, a SIMD-dispatched kernel that produces
// the same bits at every level (docs/determinism.md §5). Both roles above
// use it.
//
// Every update is element-wise, and Step runs it over ascending blocks of
// kStepBlock floats. An optional per-block callback sees each block right
// after the update wrote it, while it is still in L1: the trainer folds the
// FDA monitor's local state there (VarianceMonitor::FoldBlock), so the
// round needs no second pass over the worker's params.

#ifndef FEDRA_OPT_OPTIMIZER_H_
#define FEDRA_OPT_OPTIMIZER_H_

#include <memory>
#include <string>

#include "util/status.h"

namespace fedra {

struct OptimizerConfig {
  enum class Kind { kSgd, kSgdMomentum, kAdam, kAdamW };

  Kind kind = Kind::kSgd;
  float learning_rate = 0.01f;
  float momentum = 0.0f;    // SGD-family only
  bool nesterov = false;    // SGD-family only
  float beta1 = 0.9f;       // Adam-family only
  float beta2 = 0.999f;     // Adam-family only
  float epsilon = 1e-7f;    // Adam-family only (Keras default)
  float weight_decay = 0.0f;  // L2 for SGD/Adam; decoupled for AdamW

  /// Plain SGD.
  static OptimizerConfig Sgd(float lr, float weight_decay = 0.0f);
  /// SGD with (optionally Nesterov) momentum; the paper's SGD-NM uses
  /// momentum 0.9.
  static OptimizerConfig SgdMomentum(float lr, float momentum,
                                     bool nesterov = true,
                                     float weight_decay = 0.0f);
  /// Adam with Kingma-Ba defaults.
  static OptimizerConfig Adam(float lr = 0.001f);
  /// AdamW (decoupled weight decay; Loshchilov-Hutter).
  static OptimizerConfig AdamW(float lr = 0.001f, float weight_decay = 0.01f);

  /// Validates ranges (lr > 0, momentum in [0,1), betas in (0,1), ...).
  Status Validate() const;

  /// Number of dim-length state vectors this optimizer kind maintains
  /// (0 for SGD, 1 for momentum, 2 for Adam/AdamW). A WorkerArena sizes
  /// its optimizer-state slab as num_workers * StateSlots() * dim.
  size_t StateSlots() const;

  std::string ToString() const;
};

class Optimizer {
 public:
  /// Floats per update block: 4 KB of params, which stay in L1 for the
  /// block callback. A multiple of vec::kFoldStep.
  static constexpr size_t kStepBlock = 1024;

  /// A per-block callback: `params` points at the updated
  /// params[begin, begin + n).
  using BlockFn = void (*)(void* context, const float* params, size_t begin,
                           size_t n);

  virtual ~Optimizer() = default;

  /// Applies one update step: params -= f(grads, state).
  void Step(float* params, const float* grads, size_t n) {
    Step(params, grads, n, nullptr, nullptr);
  }

  /// The same step, calling on_block(context, ...) after the update of each
  /// block [begin, begin + n), in ascending order; every block but the last
  /// spans kStepBlock floats. Blocking does not change the bits: every
  /// update is element-wise. on_block may be null.
  virtual void Step(float* params, const float* grads, size_t n,
                    BlockFn on_block, void* context) = 0;

  /// Clears internal state (momentum buffers, Adam moments, step count).
  virtual void Reset() = 0;

  virtual std::string name() const = 0;

  /// Scalar step counter for optimizers whose update depends on it (Adam's
  /// bias correction). The fleet layer persists it across check-in/out so a
  /// returning client resumes its schedule; stateless optimizers report 0
  /// and ignore the setter.
  virtual uint64_t step_count() const { return 0; }
  virtual void set_step_count(uint64_t steps) { (void)steps; }

  /// Creates an optimizer for a model of dimension `dim`.
  ///
  /// When `state` is non-null it must point at config.StateSlots() * dim
  /// floats that outlive the optimizer (a worker's slice of the trainer's
  /// arena slab); the optimizer zeroes and uses them in place of owned
  /// buffers, so the cohort's whole optimizer state is one contiguous
  /// [K x slots x dim] slab. When null the optimizer owns its state
  /// (standalone use, server-side FedOpt optimizers).
  static std::unique_ptr<Optimizer> Create(const OptimizerConfig& config,
                                           size_t dim,
                                           float* state = nullptr);
};

}  // namespace fedra

#endif  // FEDRA_OPT_OPTIMIZER_H_
