#include "sim/topology_tree.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

namespace {

// A worker's link slowdown (1.0 without factors). Factors never speed a
// link up.
double WorkerFactor(const std::vector<double>* factors, int worker) {
  if (factors == nullptr) {
    return 1.0;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), factors->size());
  return std::max(1.0, (*factors)[static_cast<size_t>(worker)]);
}

}  // namespace

double TreeCost::total_seconds() const {
  // Deepest tier first: the golden histories pin totals summed in this
  // order (every deeper tier before the root tier).
  double total = 0.0;
  for (size_t d = seconds_by_depth.size(); d > 0; --d) {
    total += seconds_by_depth[d - 1];
  }
  return total;
}

uint64_t TreeCost::total_bytes() const {
  uint64_t total = 0;
  for (uint64_t b : bytes_by_depth) {
    total += b;
  }
  return total;
}

TopologyTree::TopologyTree(TopologyNode root, std::string name)
    : name_(std::move(name)) {
  Flatten(root, /*parent=*/-1, /*depth=*/0, /*parent_link_factor=*/1.0);
}

int TopologyTree::Flatten(const TopologyNode& source, int parent, int depth,
                          double parent_link_factor) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  // Only index-based access below: recursion reallocates nodes_.
  nodes_[id].name = source.name;
  nodes_[id].link = source.link;
  nodes_[id].parent = parent;
  nodes_[id].depth = depth;
  nodes_[id].parent_link_factor = parent_link_factor;
  num_tiers_ = std::max(num_tiers_, depth + 1);
  if (source.children.empty()) {
    nodes_[id].leaf_group = num_leaf_groups_;
    nodes_[id].first_leaf = num_leaf_groups_;
    nodes_[id].num_leaves = 1;
    ++num_leaf_groups_;
    leaf_group_nodes_.push_back(id);
  } else {
    if (!source.child_link_factors.empty()) {
      FEDRA_CHECK_EQ(source.child_link_factors.size(),
                     source.children.size())
          << "child_link_factors must have one entry per child";
    }
    nodes_[id].first_leaf = num_leaf_groups_;
    for (size_t i = 0; i < source.children.size(); ++i) {
      const double factor = source.child_link_factors.empty()
                                ? 1.0
                                : source.child_link_factors[i];
      const int child = Flatten(source.children[i], id, depth + 1, factor);
      nodes_[id].children.push_back(child);
    }
    nodes_[id].num_leaves = num_leaf_groups_ - nodes_[id].first_leaf;
  }
  nodes_[id].subtree_end = static_cast<int>(nodes_.size());
  return id;
}

const TopologyTree::Node& TopologyTree::node(int id) const {
  FEDRA_CHECK(id >= 0 && id < num_nodes());
  return nodes_[static_cast<size_t>(id)];
}

int TopologyTree::GroupSize(int leaf_group, int num_workers) const {
  FEDRA_CHECK(enabled());
  FEDRA_CHECK(leaf_group >= 0 && leaf_group < num_leaf_groups_);
  FEDRA_CHECK_GT(num_workers, 0);
  const int base = num_workers / num_leaf_groups_;
  const int remainder = num_workers % num_leaf_groups_;
  return base + (leaf_group < remainder ? 1 : 0);
}

int TopologyTree::GroupBegin(int leaf_group, int num_workers) const {
  FEDRA_CHECK(enabled());
  FEDRA_CHECK(leaf_group >= 0 && leaf_group <= num_leaf_groups_);
  FEDRA_CHECK_GT(num_workers, 0);
  const int base = num_workers / num_leaf_groups_;
  const int remainder = num_workers % num_leaf_groups_;
  return leaf_group * base + std::min(leaf_group, remainder);
}

int TopologyTree::LeafGroupOfWorker(int worker, int num_workers) const {
  FEDRA_CHECK(enabled());
  FEDRA_CHECK(worker >= 0 && worker < num_workers);
  const int base = num_workers / num_leaf_groups_;
  const int remainder = num_workers % num_leaf_groups_;
  const int fat = remainder * (base + 1);  // workers in the base+1 groups
  if (worker < fat) {
    return worker / (base + 1);
  }
  return remainder + (worker - fat) / base;
}

int TopologyTree::NodeOfLeafGroup(int leaf_group) const {
  FEDRA_CHECK(leaf_group >= 0 && leaf_group < num_leaf_groups_);
  return leaf_group_nodes_[static_cast<size_t>(leaf_group)];
}

void TopologyTree::SubtreeSpan(int id, int num_workers, int* begin,
                               int* end) const {
  const Node& n = node(id);
  *begin = GroupBegin(n.first_leaf, num_workers);
  *end = GroupBegin(n.first_leaf + n.num_leaves, num_workers);
}

TopologyTree::UpSweep TopologyTree::SweepUp(
    int root_id, double payload_bytes, int num_workers,
    const std::vector<double>* worker_link_factors, bool include_root_phase,
    const std::vector<char>* active) const {
  if (active != nullptr) {
    FEDRA_CHECK_EQ(active->size(), static_cast<size_t>(num_workers));
  }
  UpSweep up;
  up.phase_by_depth.assign(static_cast<size_t>(num_tiers_), 0.0);
  up.transfers_by_depth.assign(static_cast<size_t>(num_tiers_), 0);
  up.subtree_workers.assign(nodes_.size(), 0);
  up.rep_factor.assign(nodes_.size(), 1.0);
  up.active_children.assign(nodes_.size(), 0);
  up.gather_factor.assign(nodes_.size(), 1.0);
  // Reverse preorder visits every child before its parent.
  for (int id = nodes_[static_cast<size_t>(root_id)].subtree_end - 1;
       id >= root_id; --id) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    const size_t uid = static_cast<size_t>(id);
    int transfers = 0;  // payload transmissions of this node's gather phase
    if (n.children.empty()) {
      const int size = GroupSize(n.leaf_group, num_workers);
      const int begin = GroupBegin(n.leaf_group, num_workers);
      // Active members only: the group's representative is its first
      // active worker, the gather paces on its slowest active link. With a
      // null mask this reduces to the full-group formula bit-for-bit.
      int members = 0;
      double rep = 1.0;
      double factor = 1.0;
      for (int w = begin; w < begin + size; ++w) {
        if (active != nullptr && (*active)[static_cast<size_t>(w)] == 0) {
          continue;
        }
        if (members == 0) {
          rep = WorkerFactor(worker_link_factors, w);
        }
        factor = std::max(factor, WorkerFactor(worker_link_factors, w));
        ++members;
      }
      up.subtree_workers[uid] = members;
      if (members == 0) {
        continue;
      }
      up.rep_factor[uid] = rep;
      up.gather_factor[uid] = factor;
      transfers = members - 1;
    } else {
      int workers = 0;
      int active = 0;
      double factor = 1.0;
      double rep = 1.0;
      for (int child : n.children) {
        const size_t cid = static_cast<size_t>(child);
        if (up.subtree_workers[cid] == 0) {
          continue;
        }
        workers += up.subtree_workers[cid];
        if (active == 0) {
          // First active child: its representative is this node's too.
          rep = up.rep_factor[cid];
        }
        ++active;
        factor = std::max(factor, nodes_[cid].parent_link_factor *
                                      up.rep_factor[cid]);
      }
      up.subtree_workers[uid] = workers;
      if (workers == 0) {
        continue;
      }
      up.active_children[uid] = active;
      up.rep_factor[uid] = rep;
      up.gather_factor[uid] = factor;
      transfers = active - 1;
    }
    if (transfers > 0 && (include_root_phase || id != root_id)) {
      // One gather phase: `transfers` payloads reach this node's
      // representative over its link, paced by the slowest participant.
      // The expression is the closed form topology_tree_test's two-tier
      // oracle computes, operation for operation.
      const size_t d = static_cast<size_t>(n.depth);
      const double phase =
          n.link.latency_seconds +
          static_cast<double>(transfers) * payload_bytes /
              (n.link.bandwidth_bytes_per_sec / up.gather_factor[uid]);
      up.phase_by_depth[d] = std::max(up.phase_by_depth[d], phase);
      up.transfers_by_depth[d] += transfers;
    }
  }
  return up;
}

TreeCost TopologyTree::GroupedAllReduceCost(
    double payload_bytes, int num_workers,
    AllReduceAlgorithm root_algorithm,
    const std::vector<double>* worker_link_factors,
    const std::vector<char>* active) const {
  FEDRA_CHECK(enabled());
  FEDRA_CHECK_GT(num_workers, 0);
  TreeCost cost;
  cost.seconds_by_depth.assign(static_cast<size_t>(num_tiers_), 0.0);
  cost.bytes_by_depth.assign(static_cast<size_t>(num_tiers_), 0);
  if (num_workers == 1) {
    return cost;
  }
  if (active != nullptr) {
    int total = 0;
    for (int w = 0; w < num_workers; ++w) {
      total += (*active)[static_cast<size_t>(w)] != 0;
    }
    if (total <= 1) {
      return cost;  // nothing to exchange among <= 1 survivor
    }
  }
  const UpSweep up = SweepUp(/*root_id=*/0, payload_bytes, num_workers,
                             worker_link_factors,
                             /*include_root_phase=*/false, active);
  // Root tier: the root's children (or, for a single-node tree, all active
  // workers) AllReduce across the root link under `root_algorithm`, paced
  // by the slowest participating representative.
  const Node& root = nodes_[0];
  const int participants =
      root.children.empty() ? up.subtree_workers[0] : up.active_children[0];
  NetworkModel effective = root.link;
  effective.bandwidth_bytes_per_sec /= up.gather_factor[0];
  cost.seconds_by_depth[0] = effective.AllReduceSeconds(
      payload_bytes, participants, root_algorithm);
  cost.bytes_by_depth[0] = static_cast<uint64_t>(
      std::llround(NetworkModel::AllReduceTotalBytesFromSum(
          static_cast<double>(participants) * payload_bytes, participants,
          root_algorithm)));
  // Deeper tiers: reduce-up and broadcast-down are symmetric phases.
  for (int d = 1; d < num_tiers_; ++d) {
    const size_t ud = static_cast<size_t>(d);
    cost.seconds_by_depth[ud] = 2.0 * up.phase_by_depth[ud];
    cost.bytes_by_depth[ud] =
        2u * static_cast<uint64_t>(std::llround(
                 static_cast<double>(up.transfers_by_depth[ud]) *
                 payload_bytes));
  }
  return cost;
}

TreeCost TopologyTree::PointToPointCost(size_t payload_bytes,
                                        int num_workers, int leaf_group,
                                        double link_factor) const {
  FEDRA_CHECK(enabled());
  FEDRA_CHECK_GT(num_workers, 0);
  FEDRA_CHECK_GE(link_factor, 1.0);
  TreeCost cost;
  cost.seconds_by_depth.assign(static_cast<size_t>(num_tiers_), 0.0);
  cost.bytes_by_depth.assign(static_cast<size_t>(num_tiers_), 0);
  int id = NodeOfLeafGroup(leaf_group);
  double factor = link_factor;
  while (id >= 0) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    const size_t d = static_cast<size_t>(n.depth);
    cost.seconds_by_depth[d] +=
        n.link.latency_seconds +
        static_cast<double>(payload_bytes) /
            (n.link.bandwidth_bytes_per_sec / factor);
    cost.bytes_by_depth[d] += payload_bytes;
    factor *= n.parent_link_factor;
    id = n.parent;
  }
  return cost;
}

TreeCost TopologyTree::SubtreeSyncCost(
    int id, double payload_bytes, int num_workers,
    const std::vector<double>* worker_link_factors,
    const std::vector<char>* active) const {
  FEDRA_CHECK(enabled());
  const Node& n = node(id);
  TreeCost cost;
  cost.seconds_by_depth.assign(static_cast<size_t>(num_tiers_), 0.0);
  cost.bytes_by_depth.assign(static_cast<size_t>(num_tiers_), 0);
  int begin = 0;
  int end = 0;
  SubtreeSpan(id, num_workers, &begin, &end);
  int members = end - begin;
  if (active != nullptr) {
    members = 0;
    for (int w = begin; w < end; ++w) {
      members += (*active)[static_cast<size_t>(w)] != 0;
    }
  }
  if (members <= 1) {
    return cost;  // one member holds the mean already
  }
  const UpSweep up = SweepUp(id, payload_bytes, num_workers,
                             worker_link_factors,
                             /*include_root_phase=*/true, active);
  // Gather to the subtree representative and broadcast back: symmetric
  // phases on every tier of the subtree, nothing above it.
  for (int d = n.depth; d < num_tiers_; ++d) {
    const size_t ud = static_cast<size_t>(d);
    cost.seconds_by_depth[ud] = 2.0 * up.phase_by_depth[ud];
    cost.bytes_by_depth[ud] =
        2u * static_cast<uint64_t>(std::llround(
                 static_cast<double>(up.transfers_by_depth[ud]) *
                 payload_bytes));
  }
  return cost;
}

TreeCost TopologyTree::ChildExchangeCost(
    int id, double payload_bytes, int num_workers,
    const std::vector<double>* worker_link_factors,
    const std::vector<char>* active) const {
  FEDRA_CHECK(enabled());
  const Node& n = node(id);
  FEDRA_CHECK(!n.children.empty())
      << "child exchange needs an internal node";
  TreeCost cost;
  cost.seconds_by_depth.assign(static_cast<size_t>(num_tiers_), 0.0);
  cost.bytes_by_depth.assign(static_cast<size_t>(num_tiers_), 0);
  const UpSweep up = SweepUp(id, payload_bytes, num_workers,
                             worker_link_factors,
                             /*include_root_phase=*/false, active);
  const size_t uid = static_cast<size_t>(id);
  const int children = up.active_children[uid];
  if (children <= 1) {
    return cost;  // the only child representative is the node's own
  }
  const size_t d = static_cast<size_t>(n.depth);
  const double phase =
      n.link.latency_seconds +
      static_cast<double>(children - 1) * payload_bytes /
          (n.link.bandwidth_bytes_per_sec / up.gather_factor[uid]);
  cost.seconds_by_depth[d] = 2.0 * phase;
  cost.bytes_by_depth[d] =
      2u * static_cast<uint64_t>(std::llround(
               static_cast<double>(children - 1) * payload_bytes));
  return cost;
}

Status TopologyTree::Validate() const {
  if (!enabled()) {
    return Status::InvalidArgument("topology tree has no nodes");
  }
  for (const Node& n : nodes_) {
    if (n.link.bandwidth_bytes_per_sec <= 0.0) {
      return Status::InvalidArgument("tree link bandwidth must be > 0 (" +
                                     n.name + ")");
    }
    if (n.link.latency_seconds < 0.0) {
      return Status::InvalidArgument("tree link latency must be >= 0 (" +
                                     n.name + ")");
    }
    if (n.parent_link_factor < 1.0) {
      return Status::InvalidArgument(
          "child link factors are slowdowns (>= 1) (" + n.name + ")");
    }
  }
  return Status::Ok();
}

std::string TopologyTree::ToString() const {
  if (!enabled()) {
    return "TopologyTree{disabled}";
  }
  return StrFormat("TopologyTree{%s, depth=%d, nodes=%d, groups=%d}",
                   name_.c_str(), num_tiers_, num_nodes(),
                   num_leaf_groups_);
}

TopologyTree TopologyTree::EdgeCloud(int num_clusters) {
  FEDRA_CHECK_GT(num_clusters, 0);
  TopologyNode root;
  root.name = "root";
  root.link = NetworkModel::Federated();
  root.children.resize(static_cast<size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    TopologyNode& cluster = root.children[static_cast<size_t>(c)];
    cluster.name = "cluster" + std::to_string(c);
    cluster.link = NetworkModel::EdgeLan();
  }
  return TopologyTree(std::move(root), "EdgeCloud");
}

TopologyTree TopologyTree::SingleTier(NetworkModel link, std::string name) {
  TopologyNode root;
  root.name = "workers";
  root.link = std::move(link);
  return TopologyTree(std::move(root), std::move(name));
}

TopologyTree TopologyTree::DeviceSiteCloud(int sites, int groups_per_site) {
  FEDRA_CHECK_GT(sites, 0);
  FEDRA_CHECK_GT(groups_per_site, 0);
  TopologyNode root;
  root.name = "cloud";
  root.link = NetworkModel::Federated();
  root.children.resize(static_cast<size_t>(sites));
  for (int s = 0; s < sites; ++s) {
    TopologyNode& site = root.children[static_cast<size_t>(s)];
    site.name = "site" + std::to_string(s);
    site.link = NetworkModel::Balanced();
    site.children.resize(static_cast<size_t>(groups_per_site));
    for (int g = 0; g < groups_per_site; ++g) {
      TopologyNode& devices = site.children[static_cast<size_t>(g)];
      devices.name =
          "devices" + std::to_string(s) + "." + std::to_string(g);
      devices.link = NetworkModel::EdgeLan();
    }
  }
  return TopologyTree(std::move(root), "DeviceSiteCloud");
}

}  // namespace fedra
