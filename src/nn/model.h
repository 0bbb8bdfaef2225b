// ModelGraph + Model.
//
// ModelGraph is the immutable, shareable half of a model: the layer
// topology with a finalized flat parameter *layout* (offsets only, no
// buffers). One graph serves any number of workers concurrently — each
// execution runs against a ParameterView (that worker's params/grads
// slices) and an ExecSlot (a leased LayerStateStore holding the cached
// activations / conv workspaces of one in-flight Forward/Backward pair).
// Slots are pooled and reused, so the number of live activation workspaces
// scales with the number of *concurrent* executions (threads), not with
// the worker count K.
//
// Model is the single-execution convenience wrapper: a graph plus its own
// params/grads buffers and a persistent slot. It is what the zoo factories
// build, what evaluation and serialization consume, and what trainers use
// as the source of the shared graph (their workers' buffers live in a
// WorkerArena instead).

#ifndef FEDRA_NN_MODEL_H_
#define FEDRA_NN_MODEL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/parameter_store.h"

namespace fedra {

class ModelGraph {
 public:
  /// Takes ownership of the root layer; registers parameters + state slots
  /// and finalizes the layout.
  ModelGraph(std::string name, LayerPtr root);

  ModelGraph(const ModelGraph&) = delete;
  ModelGraph& operator=(const ModelGraph&) = delete;

  const std::string& name() const { return name_; }
  size_t dim() const { return store_.num_params(); }
  const ParameterStore& store() const { return store_; }

  /// The root layer, for callers that drive Layer::Forward/Backward with an
  /// ExecContext of their own.
  Layer& root() { return *root_; }

  /// RAII lease of one execution slot (a LayerStateStore). Hold it across a
  /// Forward/Backward pair; concurrent executions must use distinct slots.
  class ExecSlot {
   public:
    ExecSlot(ExecSlot&& other) noexcept
        : graph_(other.graph_), index_(other.index_), states_(other.states_) {
      other.graph_ = nullptr;
    }
    ExecSlot& operator=(ExecSlot&&) = delete;
    ExecSlot(const ExecSlot&) = delete;
    ExecSlot& operator=(const ExecSlot&) = delete;
    ~ExecSlot();

    /// The store pointer is captured at acquisition (under the graph's
    /// mutex), so concurrent AcquireSlot() growth of the slot vector can
    /// never invalidate a held slot's access.
    LayerStateStore* states() const {
      FEDRA_CHECK(graph_ != nullptr) << "using a moved-from ExecSlot";
      return states_;
    }

   private:
    friend class ModelGraph;
    ExecSlot(ModelGraph* graph, size_t index, LayerStateStore* states)
        : graph_(graph), index_(index), states_(states) {}

    ModelGraph* graph_;
    size_t index_;
    LayerStateStore* states_;
  };

  /// Leases a free slot (creating one when all are in use). Thread-safe.
  ExecSlot AcquireSlot();

  /// Number of slots ever created (== peak concurrent executions).
  size_t num_slots() const;

  /// Writes initial parameter values into `view` with the layers'
  /// initializers; deterministic in `seed`.
  void InitParams(uint64_t seed, const ParameterView& view);

  /// Forward pass against `view` using `slot`'s workspaces; `rng` is needed
  /// only when training with dropout.
  Tensor Forward(const Tensor& input, const ParameterView& view,
                 ExecSlot& slot, bool training, Rng* rng = nullptr);

  /// Backward from d(loss)/d(output); accumulates into view.grads. Must use
  /// the slot of the preceding Forward. The input gradient is not computed
  /// (ExecContext::input_grad is false for the root).
  void Backward(const Tensor& grad_output, const ParameterView& view,
                ExecSlot& slot);

 private:
  void ReleaseSlot(size_t index);

  std::string name_;
  LayerPtr root_;
  ParameterStore store_;  // layout only; buffers belong to the callers

  mutable std::mutex slots_mutex_;
  std::vector<std::unique_ptr<LayerStateStore>> slot_states_;
  std::vector<size_t> free_slots_;
};

class Model {
 public:
  /// Takes ownership of the root layer; builds the graph and allocates one
  /// params/grads buffer pair.
  Model(std::string name, LayerPtr root);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Writes initial parameter values with the layer's initializers.
  void InitParams(uint64_t seed);

  const std::string& name() const { return graph_.name(); }
  size_t num_params() const { return graph_.dim(); }

  float* params() { return params_.data(); }
  const float* params() const { return params_.data(); }
  float* grads() { return grads_.data(); }
  const float* grads() const { return grads_.data(); }
  const ParameterStore& store() const { return graph_.store(); }

  /// The shareable graph (trainers run all their workers against it).
  ModelGraph& graph() { return graph_; }
  const ModelGraph& graph() const { return graph_; }

  /// This model's own buffers as a view.
  ParameterView view() {
    return ParameterView{params_.data(), grads_.data(), params_.size()};
  }

  void ZeroGrads();

  /// Forward pass; `rng` is needed only when training with dropout.
  Tensor Forward(const Tensor& input, bool training, Rng* rng = nullptr);

  /// Backward from d(loss)/d(output); accumulates into grads().
  void Backward(const Tensor& grad_output);

  /// Copies parameter values from another model with identical layout.
  void CopyParamsFrom(const Model& other);

 private:
  ModelGraph graph_;
  std::vector<float> params_;
  std::vector<float> grads_;
  ModelGraph::ExecSlot slot_;  // persistent: Model is single-execution
};

/// Builds a fresh model instance; every worker cohort calls the same
/// factory so all replicas have identical architecture and layout.
using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace fedra

#endif  // FEDRA_NN_MODEL_H_
