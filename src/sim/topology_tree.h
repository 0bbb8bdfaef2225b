// TopologyTree: arbitrary-depth network topologies for the simulated
// cluster — the two-tier edge->cloud layout of the dynamic-averaging
// literature (Kamp et al.) and real deployment shapes beyond it
// (device -> rack -> site -> cloud).
//
// A tree is a recursive arrangement of tier nodes. Each node owns one
// NetworkModel: the link over which the node's children (for an internal
// node: the representatives of its child subtrees; for a leaf node: its
// member workers) reach the node's representative. Workers attach to the
// leaf nodes ("worker groups") in DFS order, contiguously and as equal as
// possible.
//
// Collective cost model (the recursive grouped AllReduce):
//   reduce-up:   level-synchronized gather phases, deepest tier first —
//                members push payloads to their group representative, then
//                child representatives push partials to their parent's
//                representative, one tier at a time. Sibling subtrees run
//                concurrently, so each tier is paced by its slowest phase
//                (straggler-aware: the slowest participating link, i.e. the
//                max of member/representative link factors and the optional
//                per-child factors).
//   root tier:   the root's children AllReduce across the root link with a
//                configurable AllReduceAlgorithm (a single-node tree is
//                therefore the flat single-tier network, which is how
//                SimNetwork runs one).
//   broadcast:   the mirror image back down.
// Per-tier charges are keyed by depth (0 = root tier) and feed the
// CommStats per-depth breakdown. Bytes follow the paper's "total data
// transmitted by all workers" convention and never depend on link speed.

#ifndef FEDRA_SIM_TOPOLOGY_TREE_H_
#define FEDRA_SIM_TOPOLOGY_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_model.h"
#include "util/status.h"

namespace fedra {

/// Structural description of one tier node (the builder-side type; the
/// TopologyTree constructor flattens it).
struct TopologyNode {
  std::string name = "node";
  /// The link of this node's tier: the medium its children (or member
  /// workers, for a leaf group) use to reach the node's representative.
  NetworkModel link;
  std::vector<TopologyNode> children;  // empty => leaf worker group
  /// Optional per-child link slowdowns (>= 1), one per child: child i's
  /// transfers over this node's link run at bandwidth / factor[i]. Empty
  /// means every child gets the full link.
  std::vector<double> child_link_factors;
};

/// Per-depth cost of one tree collective; index 0 is the root tier.
struct TreeCost {
  std::vector<double> seconds_by_depth;
  std::vector<uint64_t> bytes_by_depth;

  double SecondsAt(size_t depth) const {
    return depth < seconds_by_depth.size() ? seconds_by_depth[depth] : 0.0;
  }
  uint64_t BytesAt(size_t depth) const {
    return depth < bytes_by_depth.size() ? bytes_by_depth[depth] : 0;
  }
  double total_seconds() const;
  uint64_t total_bytes() const;
};

class TopologyTree {
 public:
  /// Disabled tree: no topology configured (TrainerConfig's flat default).
  TopologyTree() = default;

  /// Flattens `root` into the compiled preorder node table.
  explicit TopologyTree(TopologyNode root, std::string name = "tree");

  bool enabled() const { return !nodes_.empty(); }
  const std::string& name() const { return name_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Number of tiers: 1 for a single leaf-group root, 2 for the edge->cloud
  /// cluster/uplink layout, etc.
  int depth() const { return num_tiers_; }
  int num_leaf_groups() const { return num_leaf_groups_; }

  /// Compiled node. Preorder ids: the root is node 0 and every parent id is
  /// smaller than its children's (reverse-id iteration visits children
  /// before parents).
  struct Node {
    std::string name;
    NetworkModel link;
    int parent = -1;
    int depth = 0;                    // root tier = 0
    std::vector<int> children;        // empty => leaf worker group
    int leaf_group = -1;              // dense DFS index; -1 for internal
    int first_leaf = 0;               // leaf-group range of the subtree:
    int num_leaves = 0;               // [first_leaf, first_leaf+num_leaves)
    int subtree_end = 0;              // preorder ids of the subtree are
                                      // [own id, subtree_end)
    double parent_link_factor = 1.0;  // slowdown on the parent's link
  };
  const Node& node(int id) const;

  // ------------------------------------------------------- worker layout --
  // Workers are placed contiguously over the leaf groups in DFS order, as
  // equal as possible (the first num_workers % groups get one extra).
  // Groups beyond num_workers stay empty.
  int GroupSize(int leaf_group, int num_workers) const;
  int GroupBegin(int leaf_group, int num_workers) const;
  int LeafGroupOfWorker(int worker, int num_workers) const;
  int NodeOfLeafGroup(int leaf_group) const;
  /// Worker range [begin, end) of node `id`'s subtree.
  void SubtreeSpan(int id, int num_workers, int* begin, int* end) const;

  // ----------------------------------------------------------- cost model --
  // All cost functions take `payload_bytes` per worker as a double (mean
  // wire size for variable-rate compressed payloads) and an optional
  // worker_link_factors vector (one slowdown >= 1 per worker; null or
  // all-ones keeps the homogeneous cost bit-identical). Bytes never depend
  // on link factors. Collectives additionally take an optional `active`
  // participation mask (one char per worker; the fault layer's survivors):
  // absent workers transmit nothing, groups with no active member drop out
  // of every phase, and phases pace on the slowest *active* participant. A
  // null mask is bit-identical to all-ones.

  /// Full-tree grouped AllReduce: level-synchronized reduce-up, root-tier
  /// AllReduce under `root_algorithm`, broadcast back down.
  TreeCost GroupedAllReduceCost(
      double payload_bytes, int num_workers,
      AllReduceAlgorithm root_algorithm,
      const std::vector<double>* worker_link_factors = nullptr,
      const std::vector<char>* active = nullptr) const;

  /// One worker uploads to the (root-side) coordinator: one hop per tier on
  /// the path from its leaf group to the root. `link_factor` applies the
  /// worker's straggler slowdown to every hop.
  TreeCost PointToPointCost(size_t payload_bytes, int num_workers,
                            int leaf_group, double link_factor = 1.0) const;

  /// Reduce-up + broadcast-down confined to node `id`'s subtree — the
  /// hierarchical FDA scheduler's cluster-local synchronization. The
  /// subtree root's own tier gathers the child representatives to the
  /// subtree representative and broadcasts back (no AllReduce algorithm:
  /// the subtree representative acts as the local coordinator); no tier
  /// above `id` is billed.
  TreeCost SubtreeSyncCost(
      int id, double payload_bytes, int num_workers,
      const std::vector<double>* worker_link_factors = nullptr,
      const std::vector<char>* active = nullptr) const;

  /// Gather + broadcast of `payload_bytes` among node `id`'s child
  /// representatives over its link only — the scheduler's escalation state
  /// exchange. `id` must be an internal node.
  TreeCost ChildExchangeCost(
      int id, double payload_bytes, int num_workers,
      const std::vector<double>* worker_link_factors = nullptr,
      const std::vector<char>* active = nullptr) const;

  Status Validate() const;
  std::string ToString() const;

  // ------------------------------------------------ conversions / presets --
  /// Two-tier edge->cloud preset: a root on a Federated() uplink over
  /// `num_clusters` leaf groups `cluster<c>` on EdgeLan() links.
  static TopologyTree EdgeCloud(int num_clusters);
  /// Single-node tree: all workers in one group on `link`. This is the
  /// flat single-tier network (SimNetwork's NetworkModel constructor).
  static TopologyTree SingleTier(NetworkModel link,
                                 std::string name = "single-tier");
  /// Three-tier device -> site -> cloud preset: `sites` site nodes joined
  /// by a Federated() WAN at the root, each site holding
  /// `groups_per_site` EdgeLan() device groups over a Balanced() site
  /// backbone.
  static TopologyTree DeviceSiteCloud(int sites, int groups_per_site);

 private:
  int Flatten(const TopologyNode& source, int parent, int depth,
              double parent_link_factor);

  // Per-node gather-phase summary of one reduce-up sweep (see .cc).
  struct UpSweep {
    std::vector<double> phase_by_depth;       // slowest gather phase / tier
    std::vector<int64_t> transfers_by_depth;  // payload transmissions
    std::vector<int> subtree_workers;         // per node
    std::vector<double> rep_factor;    // per node: representative's link
    std::vector<int> active_children;  // per node: children with workers
    std::vector<double> gather_factor;  // per node: slowest gather link
  };
  UpSweep SweepUp(int root_id, double payload_bytes, int num_workers,
                  const std::vector<double>* worker_link_factors,
                  bool include_root_phase,
                  const std::vector<char>* active = nullptr) const;

  std::string name_ = "tree";
  std::vector<Node> nodes_;
  int num_tiers_ = 0;
  int num_leaf_groups_ = 0;
  std::vector<int> leaf_group_nodes_;  // leaf_group index -> node id
};

}  // namespace fedra

#endif  // FEDRA_SIM_TOPOLOGY_TREE_H_
