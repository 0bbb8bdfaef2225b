#include "nn/model.h"

#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

// ------------------------------------------------------------ ModelGraph --

ModelGraph::ModelGraph(std::string name, LayerPtr root)
    : name_(std::move(name)), root_(std::move(root)) {
  FEDRA_CHECK(root_ != nullptr);
  root_->RegisterParams(&store_);
  store_.FinalizeLayout();
  root_->BindOffsets(store_);
}

ModelGraph::ExecSlot::~ExecSlot() {
  if (graph_ != nullptr) {
    graph_->ReleaseSlot(index_);
  }
}

ModelGraph::ExecSlot ModelGraph::AcquireSlot() {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  if (!free_slots_.empty()) {
    const size_t index = free_slots_.back();
    free_slots_.pop_back();
    return ExecSlot(this, index, slot_states_[index].get());
  }
  slot_states_.push_back(
      std::make_unique<LayerStateStore>(store_.num_state_slots()));
  return ExecSlot(this, slot_states_.size() - 1,
                  slot_states_.back().get());
}

void ModelGraph::ReleaseSlot(size_t index) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  free_slots_.push_back(index);
}

size_t ModelGraph::num_slots() const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slot_states_.size();
}

void ModelGraph::InitParams(uint64_t seed, const ParameterView& view) {
  FEDRA_CHECK_EQ(view.dim, dim());
  Rng rng(seed);
  root_->InitParams(&rng, view);
}

Tensor ModelGraph::Forward(const Tensor& input, const ParameterView& view,
                           ExecSlot& slot, bool training, Rng* rng) {
  FEDRA_CHECK_EQ(view.dim, dim());
  ExecContext ctx;
  ctx.training = training;
  ctx.rng = rng;
  ctx.view = view;
  ctx.states = slot.states();
  return root_->Forward(input, ctx);
}

void ModelGraph::Backward(const Tensor& grad_output,
                          const ParameterView& view, ExecSlot& slot) {
  FEDRA_CHECK_EQ(view.dim, dim());
  ExecContext ctx;
  ctx.input_grad = false;  // the root's input is the data batch
  ctx.view = view;
  ctx.states = slot.states();
  root_->Backward(grad_output, ctx);
}

// ----------------------------------------------------------------- Model --

Model::Model(std::string name, LayerPtr root)
    : graph_(std::move(name), std::move(root)),
      params_(graph_.dim(), 0.0f),
      grads_(graph_.dim(), 0.0f),
      slot_(graph_.AcquireSlot()) {}

void Model::InitParams(uint64_t seed) { graph_.InitParams(seed, view()); }

void Model::ZeroGrads() { vec::Fill(grads_.data(), grads_.size(), 0.0f); }

Tensor Model::Forward(const Tensor& input, bool training, Rng* rng) {
  return graph_.Forward(input, view(), slot_, training, rng);
}

void Model::Backward(const Tensor& grad_output) {
  graph_.Backward(grad_output, view(), slot_);
}

void Model::CopyParamsFrom(const Model& other) {
  FEDRA_CHECK_EQ(num_params(), other.num_params())
      << "models must share an architecture";
  vec::Copy(other.params(), params(), num_params());
}

}  // namespace fedra
