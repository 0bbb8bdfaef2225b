#include "core/fda_policy.h"

#include <algorithm>

#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

// Active workers within [begin, end).
int ActiveInSpan(const std::vector<char>& mask, int begin, int end) {
  int count = 0;
  for (int w = begin; w < end; ++w) {
    count += mask[static_cast<size_t>(w)] != 0;
  }
  return count;
}

// (Alg. 1 line 6) every participating worker's drift + local state. Each
// worker runs the serial kernels into its own drift and state rows only, so
// the pass fans out over the global pool and stays bit-identical at any
// thread count (docs/determinism.md, mechanism 1); a 1-thread pool runs it
// inline. When the trainer's worker steps already folded the dense states
// into the rows (ctx.states_folded), the dense branch has nothing to do.
// The pass still runs: returning early would also drop the body's one
// std::function allocation per round, and that alone moved glibc's heap
// layout (tree_hierfda +2.1k minor faults per process in
// scripts/setup_faults.py).
//
// With a masking sync compressor the monitor sees the drift that would
// actually ship: the mask preview selects the kept coordinates (no
// mutation, no error-feedback side effects) and the state folds only those
// in — the AMS sketch accumulates the *compressed* drift, O(kept * rows)
// instead of O(dim * rows). MaskPreview fills the compressor's one shared
// selection scratch, so a masked pass runs the whole range as a single
// grain on the calling thread.
void ComputeWorkerStates(ClusterContext& ctx, const VarianceMonitor& monitor) {
  std::vector<WorkerState>& workers = *ctx.workers;
  const std::vector<char>& mask = ctx.participation;
  SyncCompressor* masking =
      ctx.compressor != nullptr && ctx.compressor->has_mask() ? ctx.compressor
                                                              : nullptr;
  const float* anchor = ctx.sync_params->data();
  const size_t dim = ctx.dim;
  const size_t n = workers.size();
  GlobalThreadPool().ParallelForRange(
      n, masking != nullptr ? n : 1, [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          if (mask[k] == 0) {
            continue;
          }
          WorkerState& worker = workers[k];
          if (masking == nullptr) {
            if (ctx.states_folded) {
              continue;
            }
            monitor.ComputeDriftAndState(worker.view.params, anchor,
                                         worker.drift, worker.state);
            continue;
          }
          vec::Sub(worker.view.params, anchor, worker.drift, dim);
          const size_t kept = masking->MaskPreview(worker.drift, dim);
          monitor.ComputeLocalStateSparse(worker.drift,
                                          masking->kept_indices().data(),
                                          kept, worker.state);
        }
      });
}

// (Alg. 1 line 7) AllReduces the participants' local states among
// themselves. Absent workers are excluded from the mean entirely —
// averaging their stale sketches in would corrupt the AMS aggregation (the
// estimate must reflect the fleet that can actually synchronize). Returns
// the participant count; the mean lands in every participant's row of
// `states` and *mean_state points at one of them.
int AverageParticipantStates(ClusterContext& ctx,
                             const std::vector<float*>& states,
                             size_t state_size, const float** mean_state) {
  const std::vector<int> active = ctx.ActiveWorkers();
  if (active.empty()) {
    return 0;
  }
  std::vector<float*> active_states;
  active_states.reserve(active.size());
  for (int k : active) {
    active_states.push_back(states[static_cast<size_t>(k)]);
  }
  ctx.network->AllReduceAverageSubset(active_states, active, state_size,
                                      TrafficClass::kLocalState);
  *mean_state = active_states[0];
  return static_cast<int>(active.size());
}

}  // namespace

FdaSyncPolicy::FdaSyncPolicy(std::unique_ptr<VarianceMonitor> monitor,
                             double theta)
    : monitor_(std::move(monitor)), theta_(theta) {
  FEDRA_CHECK(monitor_ != nullptr);
  FEDRA_CHECK_GE(theta, 0.0);
}

void FdaSyncPolicy::SetThetaController(
    std::unique_ptr<ThetaController> controller) {
  controller_ = std::move(controller);
}

void FdaSyncPolicy::Initialize(ClusterContext& ctx) {
  // One [K x state_size] arena slab backs every worker's monitor state.
  ctx.AllocateWorkerStates(monitor_->StateSize());
  // The fleet layer folds departing clients' states into the store's
  // off-cohort sum with this monitor.
  ctx.monitor = monitor_.get();
}

bool FdaSyncPolicy::MaybeSync(ClusterContext& ctx) {
  FEDRA_CHECK_EQ(monitor_->dim(), ctx.dim);
  std::vector<float*> states = ctx.arena->StatePointers();
  // (Alg. 1 line 6) every participant updates its local state from its
  // drift; with a masking codec the state covers the compressed drift only.
  ComputeWorkerStates(ctx, *monitor_);
  // (line 7) AllReduce the small states among the participants.
  const float* mean_state = nullptr;
  const int active_count = AverageParticipantStates(
      ctx, states, monitor_->StateSize(), &mean_state);
  if (active_count == 0) {
    return false;  // the trainer skips such rounds already
  }
  // (line 8) everyone evaluates H on the averaged state, with the
  // off-cohort population's stored states folded in (a bitwise no-op when
  // population == cohort).
  last_estimate_ =
      ctx.store->PopulationEstimate(*monitor_, mean_state, active_count);
  if (record_estimates_) {
    estimate_history_.push_back(last_estimate_);
  }
  if (controller_ != nullptr) {
    theta_ = controller_->Update(ctx.step,
                                 ctx.network->stats().bytes_total);
  }
  if (last_estimate_ <= theta_) {
    return false;  // Round Invariant still guaranteed; keep training.
  }
  // (line 9) conditional synchronization. Under message loss the sync can
  // lose every contribution — the anchor then stays put and the monitor
  // keeps estimating against the old synchronization.
  if (!ctx.SynchronizeModels()) {
    return false;
  }
  monitor_->OnSynchronized(ctx.sync_params->data(),
                           ctx.prev_sync_params->data());
  return true;
}

std::string FdaSyncPolicy::name() const { return monitor_->name(); }

// ----------------------------------------------------- hierarchical FDA --

HierarchicalFdaPolicy::HierarchicalFdaPolicy(
    std::unique_ptr<VarianceMonitor> monitor,
    std::vector<double> theta_by_depth)
    : monitor_(std::move(monitor)), theta_(std::move(theta_by_depth)) {
  FEDRA_CHECK(monitor_ != nullptr);
  FEDRA_CHECK(!theta_.empty()) << "need one theta per tier depth";
  for (double theta : theta_) {
    FEDRA_CHECK_GE(theta, 0.0);
  }
}

void HierarchicalFdaPolicy::Initialize(ClusterContext& ctx) {
  const TopologyTree& tree = ctx.network->tree();
  FEDRA_CHECK_EQ(theta_.size(), static_cast<size_t>(tree.depth()))
      << "theta_by_depth must have one threshold per tier depth";
  ctx.AllocateWorkerStates(monitor_->StateSize());
  ctx.monitor = monitor_.get();
}

void HierarchicalFdaPolicy::MaterializeNodeState(ClusterContext& ctx,
                                                 int id) {
  if (node_has_[static_cast<size_t>(id)]) {
    return;
  }
  const TopologyTree& tree = ctx.network->tree();
  const TopologyTree::Node& node = tree.node(id);
  // Leaf-group states were aggregated in step 2; an inactive leaf (no
  // workers, or none participating this round) never reaches here because
  // parents only weigh active children.
  FEDRA_CHECK(!node.children.empty());
  const std::vector<char>& mask = ctx.participation;
  // Locals, not members: materialization recurses through silent subtrees.
  std::vector<const float*> child_states;
  std::vector<double> child_weights;
  for (int child : node.children) {
    int begin = 0;
    int end = 0;
    tree.SubtreeSpan(child, ctx.num_workers(), &begin, &end);
    const int active_workers = ActiveInSpan(mask, begin, end);
    if (active_workers == 0) {
      continue;
    }
    MaterializeNodeState(ctx, child);
    child_states.push_back(node_state_[static_cast<size_t>(child)].data());
    child_weights.push_back(static_cast<double>(active_workers));
  }
  FEDRA_CHECK(!child_states.empty());
  const size_t state_size = monitor_->StateSize();
  if (child_states.size() > 1) {
    // One escalation round: child representatives push their aggregated
    // states to this node's representative and receive the combined state
    // back, over this node's link only. A single-child tier aggregates
    // for free (the child representative is the node's own) and does not
    // count as an escalation.
    ctx.network->AccountChildExchange(id, state_size,
                                      TrafficClass::kLocalState, &mask);
    ++escalations_;
  }
  node_state_[static_cast<size_t>(id)].resize(state_size);
  AggregateWeightedStates(child_states.data(), child_weights.data(),
                          child_states.size(), state_size,
                          node_state_[static_cast<size_t>(id)].data());
  node_estimate_[static_cast<size_t>(id)] = monitor_->EstimateVariance(
      node_state_[static_cast<size_t>(id)].data());
  node_has_[static_cast<size_t>(id)] = 1;
}

void HierarchicalFdaPolicy::CollectSyncScopes(
    const TopologyTree& tree, int id, std::vector<int>* scopes) const {
  if (node_trip_[static_cast<size_t>(id)]) {
    scopes->push_back(id);  // maximal: a tripped node subsumes descendants
    return;
  }
  for (int child : tree.node(id).children) {
    CollectSyncScopes(tree, child, scopes);
  }
}

bool HierarchicalFdaPolicy::MaybeSync(ClusterContext& ctx) {
  FEDRA_CHECK_EQ(monitor_->dim(), ctx.dim);
  const TopologyTree& tree = ctx.network->tree();
  const int num_nodes = tree.num_nodes();
  const int num_workers = ctx.num_workers();
  const size_t state_size = monitor_->StateSize();
  node_state_.resize(static_cast<size_t>(num_nodes));
  node_estimate_.assign(static_cast<size_t>(num_nodes), 0.0);
  node_has_.assign(static_cast<size_t>(num_nodes), 0);
  node_trip_.assign(static_cast<size_t>(num_nodes), 0);

  // Absent workers are masked out of every tier: their stale drifts
  // contribute to no estimate, silent groups stay node_has_ == 0, and
  // weights count participants only. A fault-free round is the all-ones
  // mask.
  const std::vector<char>& mask = ctx.participation;

  // (1) local states from drifts — identical to flat FDA; the anchor is
  // the last *global* synchronization. A masking codec monitors the
  // compressed drift (see ComputeWorkerStates).
  ComputeWorkerStates(ctx, *monitor_);

  // (2) leaf tier: states AllReduce within each worker group, on that
  // group's own link. Every participating group evaluates its subtree
  // estimate; fully-absent groups stay silent this round.
  std::vector<float*> states = ctx.arena->StatePointers();
  for (int g = 0; g < tree.num_leaf_groups(); ++g) {
    const int size = tree.GroupSize(g, num_workers);
    if (size == 0) {
      continue;
    }
    const int begin = tree.GroupBegin(g, num_workers);
    const int id = tree.NodeOfLeafGroup(g);
    span_ptrs_.clear();
    int first_active = -1;
    for (int w = begin; w < begin + size; ++w) {
      if (mask[static_cast<size_t>(w)] == 0) {
        continue;
      }
      if (first_active < 0) {
        first_active = w;
      }
      span_ptrs_.push_back(states[static_cast<size_t>(w)]);
    }
    if (span_ptrs_.empty()) {
      continue;
    }
    ctx.network->SubtreeAllReduceAverage(id, span_ptrs_, state_size,
                                         TrafficClass::kLocalState, &mask);
    auto& node_state = node_state_[static_cast<size_t>(id)];
    node_state.assign(states[static_cast<size_t>(first_active)],
                      states[static_cast<size_t>(first_active)] + state_size);
    node_estimate_[static_cast<size_t>(id)] =
        monitor_->EstimateVariance(node_state.data());
    node_has_[static_cast<size_t>(id)] = 1;
    node_trip_[static_cast<size_t>(id)] =
        node_estimate_[static_cast<size_t>(id)] >
                theta_[static_cast<size_t>(tree.node(id).depth)]
            ? 1
            : 0;
  }

  // (3) escalation sweep, deepest tier first (reverse preorder visits
  // children before parents): a node aggregates — paying one state-sized
  // exchange on its own link — only when some child's estimate already
  // crosses this node's threshold.
  for (int id = num_nodes - 1; id >= 0; --id) {
    const TopologyTree::Node& node = tree.node(id);
    if (node.children.empty()) {
      continue;
    }
    bool activate = false;
    for (int child : node.children) {
      if (node_has_[static_cast<size_t>(child)] &&
          node_estimate_[static_cast<size_t>(child)] >
              theta_[static_cast<size_t>(node.depth)]) {
        activate = true;
        break;
      }
    }
    if (!activate) {
      continue;
    }
    MaterializeNodeState(ctx, id);
    node_trip_[static_cast<size_t>(id)] =
        node_estimate_[static_cast<size_t>(id)] >
                theta_[static_cast<size_t>(node.depth)]
            ? 1
            : 0;
  }
  if (node_has_[0]) {
    // Population-scale correction at the decision tier only: the root
    // estimate folds the off-cohort clients' stored states in before the
    // comparison against the root threshold. Leaf and intermediate tiers
    // stay cohort-local — their subtrees only ever see resident clients.
    // Bitwise no-op when population == cohort.
    node_estimate_[0] = ctx.store->PopulationEstimate(
        *monitor_, node_state_[0].data(), ActiveInSpan(mask, 0, num_workers));
    node_trip_[0] = node_estimate_[0] > theta_[0] ? 1 : 0;
    last_root_estimate_ = node_estimate_[0];
  }

  // (4a) root tripped: the Round Invariant cannot be restored below the
  // root — full synchronization (anchor rotates, estimator direction
  // updates).
  if (node_trip_[0]) {
    if (!ctx.SynchronizeModels()) {
      return false;  // every contribution lost; the anchor stays put
    }
    monitor_->OnSynchronized(ctx.sync_params->data(),
                             ctx.prev_sync_params->data());
    ++global_syncs_;
    return true;
  }

  // (4b) otherwise every maximal tripped subtree averages its members on
  // its own tiers: within-subtree variance drops to zero while the global
  // anchor — and the uplink — stay untouched.
  sync_scopes_.clear();
  CollectSyncScopes(tree, 0, &sync_scopes_);
  if (!sync_scopes_.empty()) {
    std::vector<float*> params = ctx.arena->ParamPointers();
    for (int id : sync_scopes_) {
      int begin = 0;
      int end = 0;
      tree.SubtreeSpan(id, num_workers, &begin, &end);
      scope_members_.clear();
      for (int w = begin; w < end; ++w) {
        if (mask[static_cast<size_t>(w)] == 0) {
          continue;
        }
        scope_members_.push_back(w);
      }
      if (scope_members_.size() <= 1) {
        continue;  // a single member is already its own average
      }
      if (ctx.compressor != nullptr) {
        // Compressed subtree resolution: members exchange coded deltas
        // from the shared global anchor over this subtree's own tiers, and
        // every member re-bases on anchor + mean delta — members equalize
        // (within-subtree variance -> 0) while the anchor and the uplink
        // stay untouched.
        const float* mean_delta = ctx.ExchangeDeltas(scope_members_, id);
        for (int w : scope_members_) {
          float* member_params = params[static_cast<size_t>(w)];
          vec::Copy(ctx.sync_params->data(), member_params, ctx.dim);
          vec::Axpy(1.0f, mean_delta, member_params, ctx.dim);
        }
      } else {
        span_ptrs_.clear();
        for (int w : scope_members_) {
          span_ptrs_.push_back(params[static_cast<size_t>(w)]);
        }
        ctx.network->SubtreeAllReduceAverage(
            id, span_ptrs_, ctx.dim, TrafficClass::kModelSync, &mask);
      }
      ++local_syncs_;
    }
  }
  return false;
}

std::string HierarchicalFdaPolicy::name() const {
  return "Hier" + monitor_->name();
}

Status HierarchicalFdaConfig::Validate() const {
  FEDRA_RETURN_IF_ERROR(monitor.Validate());
  if (theta_by_depth.empty()) {
    return Status::InvalidArgument(
        "theta_by_depth needs one threshold per tier depth");
  }
  for (double theta : theta_by_depth) {
    if (!(theta >= 0.0)) {  // NaN fails too
      return Status::InvalidArgument("thresholds must be >= 0");
    }
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<HierarchicalFdaPolicy>> MakeHierarchicalFdaPolicy(
    const HierarchicalFdaConfig& config, size_t dim) {
  FEDRA_RETURN_IF_ERROR(config.Validate());
  auto monitor = MakeVarianceMonitor(config.monitor, dim);
  if (!monitor.ok()) {
    return monitor.status();
  }
  return std::make_unique<HierarchicalFdaPolicy>(std::move(monitor).value(),
                                                 config.theta_by_depth);
}

}  // namespace fedra
