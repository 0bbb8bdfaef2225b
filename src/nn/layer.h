// Layer: the building block of models.
//
// A layer object is *immutable after construction + registration*: it holds
// architecture constants and offsets into a flat parameter layout, never
// parameter values or activations. Parameters live in whatever buffer the
// caller passes as a ParameterView (a worker's slice of the trainer's
// arena, a standalone Model's own vectors, a test's ParameterStore), and
// every per-call cache a backward pass needs (activations, masks, packed
// conv weights) lives in a LayerStateStore slot owned by the execution
// context.
// One layer graph can therefore run many workers concurrently: workers
// share the layer objects and differ only in the ExecContext they thread
// through Forward/Backward.
//
// The contract per execution context is unchanged: Forward precedes
// Backward with the same ExecContext, and Backward *accumulates* into
// parameter gradients (the caller zeroes grads per step). Backward returns
// d(loss)/d(input) unless ctx.input_grad is false: then nobody reads the
// input gradient, and a layer may skip computing it and return an empty
// tensor.

#ifndef FEDRA_NN_LAYER_H_
#define FEDRA_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter_store.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace fedra {

/// A model's parameters as one flat vector w in R^d plus its parallel
/// gradient vector — the representation FDA, the optimizers, and the
/// collectives operate on. Non-owning; typically a worker's slice of a
/// WorkerArena slab.
struct ParameterView {
  float* params = nullptr;
  float* grads = nullptr;
  size_t dim = 0;
};

/// True when [a, a + a_len) and [b, b + b_len) share at least one element.
/// Debug guard predicate for FEDRA_DCHECKs on view construction: a worker's
/// params and grads spans — and any two workers' spans — must be disjoint,
/// or concurrent worker execution silently corrupts a neighbor's row.
inline bool SpansOverlap(const float* a, size_t a_len, const float* b,
                         size_t b_len) {
  if (a == nullptr || b == nullptr || a_len == 0 || b_len == 0) {
    return false;
  }
  return a < b + b_len && b < a + a_len;
}

/// FEDRA_DCHECKs the view's invariants: non-null spans of the stated length
/// that do not alias each other. Called by WorkerArena::view and model
/// binding; cheap enough to run per construction, compiled out of Release.
inline void DcheckViewInvariants(const ParameterView& view) {
  FEDRA_DCHECK(view.params != nullptr);
  FEDRA_DCHECK(view.grads != nullptr);
  FEDRA_DCHECK_GT(view.dim, 0u);
  FEDRA_DCHECK(!SpansOverlap(view.params, view.dim, view.grads, view.dim))
      << "params/grads spans alias";
}

/// Base for per-execution mutable layer state (cached activations, dropout
/// masks, conv workspaces). Each stateful layer defines a nested subclass.
struct LayerState {
  virtual ~LayerState() = default;
};

/// One slot of mutable state per stateful layer of a graph; a ModelGraph
/// execution slot owns one store, so concurrent executions never share
/// mutable layer state. Slots are default-constructed on first use.
class LayerStateStore {
 public:
  explicit LayerStateStore(size_t num_slots) : slots_(num_slots) {}

  template <typename T>
  T& Get(size_t slot) {
    FEDRA_CHECK_LT(slot, slots_.size());
    std::unique_ptr<LayerState>& holder = slots_[slot];
    if (holder == nullptr) {
      holder = std::make_unique<T>();
    }
    T* state = dynamic_cast<T*>(holder.get());
    FEDRA_CHECK(state != nullptr) << "layer state slot type mismatch";
    return *state;
  }

  size_t size() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<LayerState>> slots_;
};

/// Everything one Forward/Backward pair executes against: the parameter
/// view, the per-execution layer state, and the per-call toggles (training
/// enables dropout/batch-stats; rng drives stochastic layers; input_grad
/// says whether the caller of Backward reads d(loss)/d(input)).
/// ModelGraph::Backward clears input_grad for the root, whose input is the
/// data batch; a composite sets it before each call to a child.
struct ExecContext {
  bool training = false;
  bool input_grad = true;
  Rng* rng = nullptr;
  ParameterView view;
  LayerStateStore* states = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Short identifier, e.g. "dense(64->10)".
  virtual std::string name() const = 0;

  /// Registers this layer's parameter blocks and claims a mutable-state
  /// slot if it caches anything between Forward and Backward. Default:
  /// stateless layer without parameters.
  virtual void RegisterParams(ParameterStore* store) { (void)store; }

  /// Caches flat-buffer *offsets* from the finalized layout (never
  /// pointers — the buffers belong to the ParameterView of each call).
  virtual void BindOffsets(const ParameterStore& store) { (void)store; }

  /// Writes initial parameter values (Glorot / He / constants) into `view`.
  virtual void InitParams(Rng* rng, const ParameterView& view) {
    (void)rng;
    (void)view;
  }

  /// Computes the layer output; caches whatever Backward needs in the
  /// context's state store.
  virtual Tensor Forward(const Tensor& input, ExecContext& ctx) = 0;

  /// Consumes d(loss)/d(output), accumulates parameter gradients into
  /// ctx.view.grads, and returns d(loss)/d(input) — or, when
  /// ctx.input_grad is false, may skip that gradient and return an empty
  /// tensor.
  virtual Tensor Backward(const Tensor& grad_output, ExecContext& ctx) = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fedra

#endif  // FEDRA_NN_LAYER_H_
