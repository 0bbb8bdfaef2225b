// SimNetwork: the collectives of the simulated cluster, with exact byte and
// simulated-time accounting. The arithmetic result of AllReduceAverage is
// the exact elementwise mean regardless of the chosen transport algorithm
// or topology (flat vs ring vs recursive-halving vs tree only changes cost
// accounting) — collectives are supposed to be numerically transparent, and
// tests assert this.
//
// The arithmetic runs on a parallel reduction engine: model-sized spans are
// split into fixed GlobalThreadPool chunks and each chunk runs the fused
// vec::ReduceScale tree-reduce (double accumulators, fixed combine order).
// Chunk boundaries depend only on the span length, so results are
// bit-deterministic for any thread count.
//
// Every network is a TopologyTree and bills through its cost model: a flat
// network (one shared NetworkModel) is the one-node tree
// TopologyTree::SingleTier, and deeper trees model edge -> cloud, device ->
// site -> cloud and beyond. Cluster-scoped collectives — AllReduces
// confined to one subtree, billed only on that subtree's tiers — let the
// hierarchical FDA scheduler keep drift control on the cheap tiers; on a
// flat network the one subtree is the whole cohort.
//
// Averaging has four entry points: three of global scope (a full cohort, a
// participant subset, and a subset billed at per-member wire sizes) and one
// subtree collective, SubtreeAllReduceAverage, whose optional participation
// mask and per-member wire sizes cover the same three forms. Every one runs
// the same reduce, and each scope bills through one accounting body; a full
// cohort is the all-participants subset. The trainers always pass a
// participation mask (all ones when fault-free), so the subset forms carry
// every training run; ClusterContext::ExchangeDeltas is the one caller that
// bills per-member wire sizes.

#ifndef FEDRA_SIM_COLLECTIVES_H_
#define FEDRA_SIM_COLLECTIVES_H_

#include <cstddef>
#include <vector>

#include "sim/comm_stats.h"
#include "sim/network_model.h"
#include "sim/topology_tree.h"

namespace fedra {

/// Averages `num_srcs` spans of length n into dst (exact elementwise mean,
/// double accumulation) on the same parallel reduction engine the
/// collectives use. No network accounting — this is the trainers'
/// measurement-only eval-model averaging. dst may alias srcs[0].
void ReduceMeanInto(const float* const* srcs, size_t num_srcs, size_t n,
                    float* dst);

class SimNetwork {
 public:
  /// Flat network: the one-node tree TopologyTree::SingleTier(model), so
  /// every collective is costed by `model` under `algorithm`.
  SimNetwork(int num_workers, NetworkModel model,
             AllReduceAlgorithm algorithm);

  /// Arbitrary-depth topology: collectives run the tree's recursive
  /// grouped schedule (level-synchronized reduce-up, root-tier AllReduce
  /// under `root_algorithm`, broadcast-down) and CommStats carries a
  /// per-depth breakdown.
  SimNetwork(int num_workers, TopologyTree tree,
             AllReduceAlgorithm root_algorithm);

  int num_workers() const { return num_workers_; }
  AllReduceAlgorithm algorithm() const { return algorithm_; }
  /// The topology tree; a flat network's is one node holding every
  /// worker.
  const TopologyTree& tree() const { return tree_; }

  /// Straggler-aware collective cost: per-worker link-speed factors (>= 1,
  /// e.g. the trainer's persistent straggler speed factors). When set,
  /// collectives bill the *slowest participating link*: each gather phase
  /// paces on the slowest member of that subtree and the root tier on the
  /// slowest participating representative (on a flat network, the channel
  /// bandwidth divided by the slowest participant's factor). Bytes are
  /// unaffected. All-ones (or never calling this) keeps the homogeneous
  /// formulas bit-identical.
  void SetWorkerLinkFactors(std::vector<double> factors);
  const std::vector<double>& worker_link_factors() const {
    return worker_link_factors_;
  }

  // Four averaging entry points over one reduce path (the chunk-parallel
  // mean installed into every member) and one accounting path per scope.
  // `participants` are ascending, unique worker ids; buffers[i] is
  // participants[i]'s span. The mean over the participants installs into
  // their buffers only — absent workers transmit and receive nothing and
  // keep their state. Cost is billed for the participant count: empty
  // groups drop out of every phase, and each phase paces on its slowest
  // *participating* link. The full-cohort forms are the all-participants
  // case of the subset forms, bit for bit.

  /// In-place AllReduce-average over every worker: each buffers[k] (length
  /// n) is replaced by the elementwise mean. Accounts bytes to `traffic`.
  void AllReduceAverage(const std::vector<float*>& buffers, size_t n,
                        TrafficClass traffic);

  /// Partial-participation AllReduceAverage.
  void AllReduceAverageSubset(const std::vector<float*>& buffers,
                              const std::vector<int>& participants, size_t n,
                              TrafficClass traffic);

  /// Partial-participation AllReduce billed at per-worker wire sizes:
  /// payload_bytes[i] is participants[i]'s compressed payload (the path
  /// compressed synchronization takes; variable-rate codecs bill the exact
  /// sum of wire bytes). The arithmetic is identical to
  /// AllReduceAverageSubset, which bills n floats per participant.
  void AllReduceAverageSubsetWithPayloads(
      const std::vector<float*>& buffers,
      const std::vector<int>& participants, size_t n,
      const std::vector<size_t>& payload_bytes, TrafficClass traffic);

  /// Cluster-scoped AllReduce-average confined to node `node_id`'s subtree
  /// of the topology tree. `active` (optional) is the full-length
  /// per-worker participation mask; null means every member of the subtree
  /// participates. `buffers` are the spans of the subtree's participating
  /// members in worker order (size must equal their count). The mean
  /// installs into every one of them; cost is billed as gather + broadcast
  /// along the subtree's own tiers only — tiers above `node_id` carry
  /// nothing (the hierarchical scheduler's cheap local averaging).
  /// `payload_bytes` (optional) holds the i-th buffer's wire size (a coded
  /// delta's); null bills n floats per member. Counts as a
  /// subtree_allreduce_calls entry, and as subtree_sync_count (never
  /// model_sync_count) when `traffic` is kModelSync.
  void SubtreeAllReduceAverage(
      int node_id, const std::vector<float*>& buffers, size_t n,
      TrafficClass traffic, const std::vector<char>* active = nullptr,
      const std::vector<size_t>* payload_bytes = nullptr);

  /// Bills `retries` retransmissions of one lost sync contribution of
  /// `payload_bytes` on the wire (a compressed payload is retried at its
  /// compressed size) from `worker`: retry i waits
  /// backoff_base_seconds * 2^i and resends the payload over the worker's
  /// own path (its link factor; one hop per tier). Every second and byte
  /// lands in the normal class/depth breakdowns and is additionally
  /// accumulated in CommStats::seconds_retry / retries.
  void AccountSyncRetries(int worker, size_t payload_bytes, int retries,
                          double backoff_base_seconds, TrafficClass traffic);

  /// Records a sync contribution abandoned after the retry budget.
  void AccountDroppedMessage() { ++stats_.dropped_messages; }

  /// Bills the catch-up model download a rejoining worker pays: n floats
  /// of kModelSync point-to-point traffic over `worker`'s path, counted in
  /// CommStats::catch_up_syncs.
  void AccountCatchUpSync(size_t n, int worker);

  /// Bills the model download a freshly sampled fleet client pays on
  /// check-in (re-anchoring to the current global model): n floats of
  /// kModelSync point-to-point traffic over the slot's path, counted in
  /// CommStats::check_in_syncs. Sticky occupants (re-sampled residents)
  /// pay nothing.
  void AccountCheckInSync(size_t n, int worker);

  /// One worker uploads `n` floats to a coordinator (async FDA traffic).
  /// Passing the uploading `worker` bills *that* worker's link: its
  /// straggler factor (when SetWorkerLinkFactors is active) on each hop,
  /// one hop per tier on the path from its leaf group to the root.
  /// worker < 0 takes leaf group 0's path (the homogeneous default links).
  void PointToPoint(size_t n, TrafficClass traffic, int worker = -1);

  /// Bills an escalation state exchange at internal node `node_id`: its
  /// child representatives gather `n` floats to the node's representative
  /// and receive the aggregate back, over that node's link only. No
  /// arithmetic — the scheduler aggregates the states itself. Counts as a
  /// child_exchange_calls entry. `node_id` must be an internal node (a
  /// flat network has none). `active` (optional full-length per-worker
  /// mask) drops children whose subtrees hold no active workers from the
  /// exchange; null is identical to all-ones.
  void AccountChildExchange(int node_id, size_t n, TrafficClass traffic,
                            const std::vector<char>* active = nullptr);

  /// Simulated duration of one full-model collective of `payload_bytes` per
  /// worker under the configured topology/algorithm (no accounting) — async
  /// FDA's synchronization stall.
  double ModelSyncSeconds(size_t payload_bytes) const;

  const CommStats& stats() const { return stats_; }
  void ResetStats() { stats_.Clear(); }

 private:
  // The one accounting path of the global collectives: bills an AllReduce
  // among `participants` whose payloads sum to `payload_bytes_sum` bytes.
  void AccountAllReduceSubset(size_t payload_bytes_sum,
                              const std::vector<int>& participants,
                              TrafficClass traffic);
  // Validates a subset participant list (ascending, unique, in range).
  void CheckParticipants(const std::vector<int>& participants,
                         size_t num_buffers) const;
  // Splits a per-depth tree charge across the class/depth breakdowns.
  void ChargeTree(const TreeCost& cost, TrafficClass traffic);
  // One transfer of `payload_bytes` over `worker`'s own path (leaf group
  // 0's for worker < 0) at its link factor. `edge_depth` (optional)
  // receives the depth of the path's leaf tier.
  TreeCost PathCost(size_t payload_bytes, int worker,
                    size_t* edge_depth = nullptr) const;
  // The worker-factor vector to hand the tree cost model, or null when
  // unset (homogeneous links).
  const std::vector<double>* LinkFactorsOrNull() const;

  int num_workers_;
  TopologyTree tree_;
  AllReduceAlgorithm algorithm_;
  CommStats stats_;
  std::vector<double> worker_link_factors_;  // empty => homogeneous links
  std::vector<char> active_scratch_;  // participant mask per subset call
};

}  // namespace fedra

#endif  // FEDRA_SIM_COLLECTIVES_H_
