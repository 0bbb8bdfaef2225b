// FdaSyncPolicy: the paper's Algorithm 1, lines 6-9.
//
// After every local step, each worker computes its local state S_k from its
// drift u_k = w_k - w_t0; the states are AllReduce-averaged (cheap: a few
// floats to a few KB); every worker evaluates H(S_bar); if H exceeds the
// variance threshold Theta, the Round Invariant Var(w_t) <= Theta can no
// longer be guaranteed and the costly model synchronization runs.
//
// HierarchicalFdaPolicy is the topology-aware extension of that schedule
// for TopologyTree networks (cf. Kamp et al.'s hierarchical dynamic
// averaging, arXiv:1807.03210): drift is controlled on the cheapest tier
// that can control it, and traffic escalates one tier at a time only when
// a subtree's aggregated variance estimate crosses the tier above.

#ifndef FEDRA_CORE_FDA_POLICY_H_
#define FEDRA_CORE_FDA_POLICY_H_

#include <memory>
#include <vector>

#include "core/theta_controller.h"
#include "core/trainer.h"
#include "core/variance_monitor.h"

namespace fedra {

class FdaSyncPolicy : public SyncPolicy {
 public:
  FdaSyncPolicy(std::unique_ptr<VarianceMonitor> monitor, double theta);

  /// Enables the dynamic-Theta extension (paper §5); optional.
  void SetThetaController(std::unique_ptr<ThetaController> controller);

  void Initialize(ClusterContext& ctx) override;
  bool MaybeSync(ClusterContext& ctx) override;
  std::string name() const override;

  double theta() const { return theta_; }
  const VarianceMonitor& monitor() const { return *monitor_; }

  /// The H(S_bar) value computed at the last step (diagnostics).
  double last_variance_estimate() const { return last_estimate_; }

  /// Per-step H values (kept only when recording is enabled).
  void set_record_estimates(bool record) { record_estimates_ = record; }
  const std::vector<double>& estimate_history() const {
    return estimate_history_;
  }

 private:
  std::unique_ptr<VarianceMonitor> monitor_;
  double theta_;
  std::unique_ptr<ThetaController> controller_;
  double last_estimate_ = 0.0;
  bool record_estimates_ = false;
  std::vector<double> estimate_history_;
};

/// Topology-aware FDA scheduling over the network's TopologyTree. A flat
/// network is a one-tier hierarchy: one theta, and the same syncs and
/// models as flat FDA at that theta. Per step:
///
///   1. every worker computes its local state from its drift u_k = w_k -
///      w_t0 (the *global* sync anchor — cluster-local averaging never
///      moves the anchor, so the paper's variance identity stays valid);
///   2. states AllReduce within each leaf group only (billed on that
///      group's own tier — the uplink carries nothing), and every group
///      evaluates its subtree variance estimate H_g;
///   3. escalation: a node one tier up aggregates its children's states
///      (one child-representative exchange over its link, state-sized)
///      only when some child's estimate exceeds *that node's* threshold —
///      so parent tiers are entirely silent while the cheap tiers control
///      drift. Escalation repeats tier by tier toward the root.
///   4. resolution: if the root's aggregated estimate crosses the global
///      threshold, a full synchronization runs (anchor rotates, the
///      monitor's OnSynchronized fires, MaybeSync returns true). Otherwise
///      every maximal tripped subtree averages its participating members'
///      models over its own tiers only (SimNetwork::SubtreeAllReduceAverage,
///      model-sized but cheap), which zeroes the within-subtree variance
///      while the global anchor stands.
///
/// theta_by_depth[d] is the variance threshold of tier depth d (0 = root /
/// global, depth()-1 = leaf groups); one entry per tier. Deeper thresholds
/// are normally smaller (cheap tiers trip early and often), but any
/// ordering is legal: theta_by_depth[leaf] = +inf with a finite root
/// threshold degenerates to escalate-always, i.e. plain FDA over the tree.
///
/// Composes with TrainerConfig::sync_compression: subtree resolutions move
/// coded deltas from the global anchor through
/// ClusterContext::ExchangeDeltas on the tripped node's subtree collective
/// (billed at the compressed wire size on its own tiers), and a masking
/// codec makes step 1 monitor the *compressed* drift via
/// SyncCompressor::MaskPreview — the AMS sketch accumulates only the kept
/// coordinates, so monitoring cost shrinks with the payload.
class HierarchicalFdaPolicy : public SyncPolicy {
 public:
  HierarchicalFdaPolicy(std::unique_ptr<VarianceMonitor> monitor,
                        std::vector<double> theta_by_depth);

  void Initialize(ClusterContext& ctx) override;
  bool MaybeSync(ClusterContext& ctx) override;
  std::string name() const override;

  const VarianceMonitor& monitor() const { return *monitor_; }
  const std::vector<double>& theta_by_depth() const { return theta_; }

  /// Subtree (below-root) model averages performed so far.
  uint64_t local_sync_count() const { return local_syncs_; }
  /// Full global synchronizations performed so far.
  uint64_t global_sync_count() const { return global_syncs_; }
  /// Billed parent-tier state exchanges (escalations) so far — always
  /// equal to the network's child_exchange_calls. Single-child tiers
  /// aggregate for free and are not counted.
  uint64_t escalation_count() const { return escalations_; }
  /// The root-tier estimate from the last step that escalated all the way
  /// up (0 until the root first aggregates).
  double last_root_estimate() const { return last_root_estimate_; }

 private:
  // Ensures node `id`'s aggregated state/estimate exist, recursively
  // aggregating children (weighted by subtree worker counts) and billing
  // one child exchange per newly aggregated internal node.
  void MaterializeNodeState(ClusterContext& ctx, int id);
  // Collects the maximal tripped nodes of the resolution (no tripped
  // ancestors), preorder.
  void CollectSyncScopes(const TopologyTree& tree, int id,
                         std::vector<int>* scopes) const;

  std::unique_ptr<VarianceMonitor> monitor_;
  std::vector<double> theta_;  // one threshold per tier depth
  // Per-node scratch, rebuilt every step.
  std::vector<std::vector<float>> node_state_;
  std::vector<double> node_estimate_;
  std::vector<char> node_has_;
  std::vector<char> node_trip_;
  std::vector<float*> span_ptrs_;  // member pointers of one subtree
  std::vector<int> scope_members_;  // worker ids of one sync scope
  std::vector<int> sync_scopes_;
  uint64_t local_syncs_ = 0;
  uint64_t global_syncs_ = 0;
  uint64_t escalations_ = 0;
  double last_root_estimate_ = 0.0;
};

struct HierarchicalFdaConfig {
  MonitorConfig monitor;
  /// One variance threshold per tier depth; [0] is the global (root)
  /// threshold. Must match the topology's depth().
  std::vector<double> theta_by_depth;

  Status Validate() const;
};

StatusOr<std::unique_ptr<HierarchicalFdaPolicy>> MakeHierarchicalFdaPolicy(
    const HierarchicalFdaConfig& config, size_t dim);

}  // namespace fedra

#endif  // FEDRA_CORE_FDA_POLICY_H_
