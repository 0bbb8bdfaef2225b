// Property suite for the arbitrary-depth TopologyTree.
//
// Four locks, per the tree's contract:
//   1. numeric transparency — a tree AllReduce over any random topology
//      produces the flat ref:: oracle's mean, bitwise-identical to the
//      flat engine (topology only changes cost accounting);
//   2. bit-determinism across FEDRA_NUM_THREADS in {1, 4, 16} — checked by
//      re-executing this binary with the env var pinned and comparing
//      result hashes (the global pool size is fixed at first use, so the
//      sweep needs fresh processes);
//   3. depth-2 parity — a random two-tier tree costs exactly (to the last
//      byte and the last double bit) what the closed-form edge-cluster /
//      uplink formulas compute; those formulas are implemented here as the
//      independent reference;
//   4. degeneracy — a single-node tree reproduces the flat single-tier
//      network's accounting exactly.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/collectives.h"
#include "sim/network_model.h"
#include "sim/topology_tree.h"
#include "tensor/ref_ops.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace fedra {
namespace {

std::vector<std::vector<float>> RandomBuffers(int num_workers, size_t n,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> buffers(static_cast<size_t>(num_workers));
  for (auto& buffer : buffers) {
    buffer.resize(n);
    for (auto& x : buffer) {
      x = rng.NextUniform(-5.0f, 5.0f);
    }
  }
  return buffers;
}

std::vector<float*> Pointers(std::vector<std::vector<float>>& buffers) {
  std::vector<float*> pointers;
  for (auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  return pointers;
}

std::vector<const float*> ConstPointers(
    const std::vector<std::vector<float>>& buffers) {
  std::vector<const float*> pointers;
  for (const auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  return pointers;
}

NetworkModel RandomLink(Rng& rng) {
  NetworkModel link;
  link.name = "random";
  link.bandwidth_bytes_per_sec = 1e8 * (1.0 + 50.0 * rng.NextDouble());
  link.latency_seconds = 1e-5 * (1.0 + 100.0 * rng.NextDouble());
  return link;
}

// Random tree: depth 1-4, uneven fan-out 1-4, random links, sometimes
// per-child link factors.
TopologyNode RandomNode(Rng& rng, int remaining_depth) {
  TopologyNode node;
  node.link = RandomLink(rng);
  if (remaining_depth <= 1 || rng.NextBernoulli(0.25)) {
    return node;  // leaf worker group
  }
  const int fanout = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < fanout; ++i) {
    node.children.push_back(RandomNode(rng, remaining_depth - 1));
  }
  if (rng.NextBernoulli(0.5)) {
    for (size_t i = 0; i < node.children.size(); ++i) {
      node.child_link_factors.push_back(1.0 + 3.0 * rng.NextDouble());
    }
  }
  return node;
}

TopologyTree RandomTree(Rng& rng) {
  const int max_depth = 1 + static_cast<int>(rng.NextBounded(4));
  return TopologyTree(RandomNode(rng, max_depth), "random");
}

std::vector<double> RandomFactors(Rng& rng, int num_workers) {
  std::vector<double> factors(static_cast<size_t>(num_workers));
  for (auto& f : factors) {
    f = 1.0 + 4.0 * rng.NextDouble();
  }
  return factors;
}

// ------------------------------------------------- numeric transparency --

TEST(TopologyTreeTest, RandomTreeAllReduceMatchesFlatOracle) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    TopologyTree tree = RandomTree(rng);
    ASSERT_TRUE(tree.Validate().ok()) << tree.ToString();
    const int workers = 1 + static_cast<int>(rng.NextBounded(12));
    const size_t n =
        1 + static_cast<size_t>(rng.NextBounded((size_t{1} << 16) + 7));
    auto original = RandomBuffers(workers, n, 9000 + trial);
    std::vector<float> expected(n);
    ref::ReduceScale(ConstPointers(original).data(),
                     static_cast<size_t>(workers), n, 1.0 / workers,
                     expected.data());

    auto tree_buffers = original;
    auto tree_pointers = Pointers(tree_buffers);
    SimNetwork tree_network(workers, tree, AllReduceAlgorithm::kFlat);
    tree_network.AllReduceAverage(tree_pointers, n,
                                  TrafficClass::kModelSync);

    auto flat_buffers = original;
    auto flat_pointers = Pointers(flat_buffers);
    SimNetwork flat_network(workers, NetworkModel::Hpc(),
                            AllReduceAlgorithm::kFlat);
    flat_network.AllReduceAverage(flat_pointers, n,
                                  TrafficClass::kModelSync);

    for (int k = 0; k < workers; ++k) {
      const auto& got = tree_buffers[static_cast<size_t>(k)];
      for (size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-5)
            << tree.ToString() << " worker " << k << " i " << i;
      }
      // The engine is shared: topology changes cost, never bits.
      ASSERT_EQ(0, std::memcmp(got.data(),
                               flat_buffers[static_cast<size_t>(k)].data(),
                               n * sizeof(float)))
          << tree.ToString() << " worker " << k;
    }
  }
}

TEST(TopologyTreeTest, SubtreeAllReduceAveragesMembersOnly) {
  // 3-tier tree, 8 workers in 4 device groups of 2. Averaging site 0's
  // subtree (workers 0-3) must install the members' mean into exactly
  // those spans, leave workers 4-7 untouched, and bill nothing on the
  // root tier.
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  const int workers = 8;
  const size_t n = (size_t{1} << 15) + 13;
  auto buffers = RandomBuffers(workers, n, 41);
  const auto original = buffers;
  std::vector<float> expected(n);
  {
    auto srcs = ConstPointers(original);
    std::vector<const float*> members(srcs.begin(), srcs.begin() + 4);
    ref::ReduceScale(members.data(), members.size(), n, 1.0 / 4.0,
                     expected.data());
  }
  SimNetwork network(workers, tree, AllReduceAlgorithm::kFlat);
  // Site 0 is node 1 in preorder (root=0, site0=1, devices=2,3, site1=4).
  const int site0 = 1;
  int begin = 0;
  int end = 0;
  network.tree().SubtreeSpan(site0, workers, &begin, &end);
  ASSERT_EQ(begin, 0);
  ASSERT_EQ(end, 4);
  auto pointers = Pointers(buffers);
  std::vector<float*> members(pointers.begin(), pointers.begin() + 4);
  network.SubtreeAllReduceAverage(site0, members, n,
                                  TrafficClass::kModelSync);
  for (int k = 0; k < 4; ++k) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffers[static_cast<size_t>(k)][i], expected[i], 1e-5);
    }
  }
  for (int k = 4; k < 8; ++k) {
    ASSERT_EQ(0, std::memcmp(buffers[static_cast<size_t>(k)].data(),
                             original[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
  const CommStats& stats = network.stats();
  EXPECT_EQ(stats.subtree_allreduce_calls, 1u);
  EXPECT_EQ(stats.subtree_sync_count, 1u);
  EXPECT_EQ(stats.model_sync_count, 0u);
  // Root tier (the uplink) carries nothing; the site and device tiers do.
  EXPECT_EQ(stats.BytesAtDepth(0), 0u);
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(0), 0.0);
  EXPECT_GT(stats.SecondsAtDepth(1), 0.0);
  EXPECT_GT(stats.SecondsAtDepth(2), 0.0);
  const size_t p = n * sizeof(float);
  // Gather+broadcast: device tier moves 2 members per group x 2 groups,
  // site tier 1 child representative, each in both directions.
  EXPECT_EQ(stats.BytesAtDepth(2), 2u * 2u * p);
  EXPECT_EQ(stats.BytesAtDepth(1), 2u * 1u * p);
}

// ------------------------------------------ legacy closed-form reference --

// The two-tier closed-form cost formulas the tree generalized, kept
// verbatim as the independent oracle for the depth-2 parity property.
namespace legacy {

// The two-tier layout the formulas read: `num_clusters` contiguous blocks
// of workers (sizes as equal as possible), cluster c reaching its leader
// over intra[c], the leaders joined by `uplink`.
struct TwoTier {
  NetworkModel uplink;
  std::vector<NetworkModel> intra;  // one link per cluster
  int num_clusters = 0;

  const NetworkModel& IntraModel(int cluster) const {
    return intra[static_cast<size_t>(cluster)];
  }
  int ClusterSize(int cluster, int num_workers) const {
    const int clusters = std::min(num_clusters, num_workers);
    const int base = num_workers / clusters;
    const int remainder = num_workers % clusters;
    return base + (cluster < remainder ? 1 : 0);
  }
  // The same layout as a depth-2 tree: the uplink at the root over one
  // leaf group per cluster.
  TopologyTree Tree() const {
    TopologyNode root;
    root.link = uplink;
    for (const NetworkModel& link : intra) {
      TopologyNode cluster;
      cluster.link = link;
      root.children.push_back(cluster);
    }
    return TopologyTree(root);
  }
};

struct TierCost {
  double intra_seconds = 0.0;
  double uplink_seconds = 0.0;
  size_t intra_bytes = 0;
  size_t uplink_bytes = 0;
};

double MaxLinkFactor(const std::vector<double>* factors, int begin,
                     int size) {
  if (factors == nullptr) {
    return 1.0;
  }
  double max_factor = 1.0;
  for (int i = begin; i < begin + size; ++i) {
    max_factor = std::max(max_factor, (*factors)[static_cast<size_t>(i)]);
  }
  return max_factor;
}

struct IntraPhase {
  double seconds = 0.0;
  double max_leader_factor = 1.0;
};

IntraPhase SlowestIntraPhase(const TwoTier& h,
                             double payload_bytes, int num_workers,
                             const std::vector<double>* factors) {
  const int clusters = std::min(h.num_clusters, num_workers);
  IntraPhase phase;
  int begin = 0;
  for (int c = 0; c < clusters; ++c) {
    const int size = h.ClusterSize(c, num_workers);
    phase.max_leader_factor = std::max(phase.max_leader_factor,
                                       MaxLinkFactor(factors, begin, 1));
    if (size > 1) {
      const NetworkModel& link = h.IntraModel(c);
      const double factor = MaxLinkFactor(factors, begin, size);
      phase.seconds = std::max(
          phase.seconds,
          link.latency_seconds + static_cast<double>(size - 1) *
                                     payload_bytes /
                                     (link.bandwidth_bytes_per_sec / factor));
    }
    begin += size;
  }
  return phase;
}

TierCost GroupedAllReduceCost(const TwoTier& h, double payload_bytes,
                              int num_workers,
                              AllReduceAlgorithm cross_algorithm,
                              const std::vector<double>* factors) {
  TierCost cost;
  if (num_workers == 1) {
    return cost;
  }
  const int clusters = std::min(h.num_clusters, num_workers);
  const double members = static_cast<double>(num_workers - clusters);
  const size_t member_bytes =
      static_cast<size_t>(std::llround(members * payload_bytes));
  const IntraPhase phase =
      SlowestIntraPhase(h, payload_bytes, num_workers, factors);
  if (phase.seconds > 0.0) {
    cost.intra_seconds += 2.0 * phase.seconds;
    cost.intra_bytes += 2 * member_bytes;
  }
  if (clusters > 1) {
    NetworkModel effective_uplink = h.uplink;
    effective_uplink.bandwidth_bytes_per_sec /= phase.max_leader_factor;
    cost.uplink_seconds += effective_uplink.AllReduceSeconds(
        payload_bytes, clusters, cross_algorithm);
    cost.uplink_bytes += static_cast<size_t>(
        std::llround(NetworkModel::AllReduceTotalBytesFromSum(
            static_cast<double>(clusters) * payload_bytes, clusters,
            cross_algorithm)));
  }
  return cost;
}

}  // namespace legacy

// A random two-tier layout: one shared cluster link or, half the time, a
// distinct link per cluster.
legacy::TwoTier RandomTwoTier(Rng& rng) {
  legacy::TwoTier h;
  h.num_clusters = 1 + static_cast<int>(rng.NextBounded(5));
  const NetworkModel shared_intra = RandomLink(rng);
  h.uplink = RandomLink(rng);
  h.intra.assign(static_cast<size_t>(h.num_clusters), shared_intra);
  if (rng.NextBernoulli(0.5)) {
    for (NetworkModel& link : h.intra) {
      link = RandomLink(rng);
    }
  }
  return h;
}

// Depth-2 parity to the last byte and the last double bit, randomized over
// cluster counts, heterogeneous cluster links, straggler factors,
// fractional (compressed-wire-size) payloads, algorithms, and worker
// counts. Depth 0 is the uplink tier, depth 1 the cluster tier.
TEST(TopologyTreeTest, Depth2TreeMatchesLegacyHierarchicalFormulasExactly) {
  Rng rng(7);
  const AllReduceAlgorithm algorithms[] = {
      AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
      AllReduceAlgorithm::kRecursiveHalving};
  for (int trial = 0; trial < 200; ++trial) {
    const legacy::TwoTier h = RandomTwoTier(rng);
    const TopologyTree tree = h.Tree();
    const int workers =
        h.num_clusters + static_cast<int>(rng.NextBounded(12));
    const double payload =
        rng.NextBernoulli(0.5)
            ? static_cast<double>(4 * (1 + rng.NextBounded(1 << 20)))
            : 1e6 * rng.NextDouble() + 0.37;  // fractional wire size
    const AllReduceAlgorithm algorithm = algorithms[rng.NextBounded(3)];
    std::vector<double> factors;
    const std::vector<double>* factors_ptr = nullptr;
    if (rng.NextBernoulli(0.5)) {
      factors = RandomFactors(rng, workers);
      factors_ptr = &factors;
    }
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " clusters " << h.num_clusters
                 << " workers " << workers << " payload " << payload);

    const auto expected = legacy::GroupedAllReduceCost(
        h, payload, workers, algorithm, factors_ptr);
    const TreeCost got =
        tree.GroupedAllReduceCost(payload, workers, algorithm, factors_ptr);
    EXPECT_EQ(expected.intra_seconds, got.SecondsAt(1));
    EXPECT_EQ(expected.uplink_seconds, got.SecondsAt(0));
    EXPECT_EQ(expected.intra_bytes, got.BytesAt(1));
    EXPECT_EQ(expected.uplink_bytes, got.BytesAt(0));
  }
}

// --------------------------------------------------------- degeneracy ----

TEST(TopologyTreeTest, SingleNodeTreeMatchesFlatNetworkExactly) {
  Rng rng(55);
  const AllReduceAlgorithm algorithms[] = {
      AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
      AllReduceAlgorithm::kRecursiveHalving};
  for (int trial = 0; trial < 30; ++trial) {
    const NetworkModel model = RandomLink(rng);
    const int workers = 1 + static_cast<int>(rng.NextBounded(10));
    const size_t n = 1 + rng.NextBounded(4096);
    const AllReduceAlgorithm algorithm = algorithms[rng.NextBounded(3)];
    const bool with_factors = rng.NextBernoulli(0.5);
    std::vector<double> factors =
        with_factors ? RandomFactors(rng, workers) : std::vector<double>();
    const int p2p_worker = static_cast<int>(rng.NextBounded(workers));
    auto run = [&](SimNetwork network) {
      if (with_factors) {
        network.SetWorkerLinkFactors(factors);
      }
      auto buffers = RandomBuffers(workers, n, 800 + trial);
      auto pointers = Pointers(buffers);
      network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
      network.PointToPoint(n, TrafficClass::kLocalState, p2p_worker);
      struct Result {
        CommStats stats;
        double model_sync_seconds;
      };
      return Result{network.stats(),
                    network.ModelSyncSeconds(n * sizeof(float))};
    };
    const auto flat = run(SimNetwork(workers, model, algorithm));
    const auto tree =
        run(SimNetwork(workers, TopologyTree::SingleTier(model), algorithm));
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " workers " << workers
                 << " algorithm " << AllReduceAlgorithmName(algorithm));
    EXPECT_EQ(flat.stats.bytes_total, tree.stats.bytes_total);
    EXPECT_EQ(flat.stats.comm_seconds, tree.stats.comm_seconds);
    EXPECT_EQ(flat.stats.seconds_local_state, tree.stats.seconds_local_state);
    EXPECT_EQ(flat.stats.seconds_model_sync, tree.stats.seconds_model_sync);
    EXPECT_EQ(flat.stats.BytesAtDepth(0), tree.stats.BytesAtDepth(0));
    EXPECT_EQ(flat.stats.SecondsAtDepth(0), tree.stats.SecondsAtDepth(0));
    EXPECT_EQ(flat.model_sync_seconds, tree.model_sync_seconds);
  }
}

// ---------------------------------------------------- three-tier golden --

TEST(TopologyTreeTest, ThreeTierGroupedAllReduceGolden) {
  // Hand-computed closed form for a fixed 3-tier tree: root (1e-2 s,
  // 1e8 B/s) over 2 sites (1e-3 s, 1e9 B/s) over 2 device groups each
  // (1e-4 s, 2e9 B/s); K = 8 workers -> groups of 2.
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  for (int s = 0; s < 2; ++s) {
    TopologyNode site;
    site.link.bandwidth_bytes_per_sec = 1e9;
    site.link.latency_seconds = 1e-3;
    for (int g = 0; g < 2; ++g) {
      TopologyNode devices;
      devices.link.bandwidth_bytes_per_sec = 2e9;
      devices.link.latency_seconds = 1e-4;
      site.children.push_back(devices);
    }
    root.children.push_back(site);
  }
  TopologyTree tree(root, "golden3tier");
  ASSERT_EQ(tree.depth(), 3);
  ASSERT_EQ(tree.num_leaf_groups(), 4);

  const size_t n = 1024;
  const double p = static_cast<double>(n * sizeof(float));
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 8, AllReduceAlgorithm::kFlat);
  // Device tier: each group gathers 1 member payload; 4 transfers per
  // direction; phases are symmetric up/down.
  const double device_phase = 1e-4 + p / 2e9;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(2), 2.0 * device_phase);
  EXPECT_EQ(cost.BytesAt(2), 2u * 4u * static_cast<uint64_t>(p));
  // Site tier: each site gathers 1 child-representative payload.
  const double site_phase = 1e-3 + p / 1e9;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * site_phase);
  EXPECT_EQ(cost.BytesAt(1), 2u * 2u * static_cast<uint64_t>(p));
  // Root tier: flat AllReduce of the 2 site representatives.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), 1e-2 + 2.0 * p / 1e8);
  EXPECT_EQ(cost.BytesAt(0), 2u * static_cast<uint64_t>(p));

  // The SimNetwork charge lands per depth, and everything sums to
  // comm_seconds.
  SimNetwork network(8, tree, AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(8, n, 17);
  auto pointers = Pointers(buffers);
  const double predicted = network.ModelSyncSeconds(n * sizeof(float));
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  const CommStats& stats = network.stats();
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(stats.SecondsAtDepth(d), cost.SecondsAt(d)) << d;
    EXPECT_EQ(stats.BytesAtDepth(d), cost.BytesAt(d)) << d;
  }
  testing::ExpectCommStatsConserved(stats);
  EXPECT_DOUBLE_EQ(stats.comm_seconds, predicted);
  EXPECT_NEAR(stats.SecondsAtDepth(0) + stats.SecondsAtDepth(1) +
                  stats.SecondsAtDepth(2),
              stats.comm_seconds, 1e-15);
  EXPECT_EQ(stats.bytes_total,
            cost.BytesAt(0) + cost.BytesAt(1) + cost.BytesAt(2));

  // Point-to-point crosses all three tiers: one hop per depth.
  network.ResetStats();
  network.PointToPoint(100, TrafficClass::kLocalState, /*worker=*/5);
  const size_t p2p = 400;
  EXPECT_EQ(network.stats().bytes_total, 3u * p2p);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(2),
                   1e-4 + static_cast<double>(p2p) / 2e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-3 + static_cast<double>(p2p) / 1e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p2p) / 1e8);
}

TEST(TopologyTreeTest, PerChildLinkFactorsSlowTheParentTier) {
  // Two sites; site 1's edge into the root is 5x slow. The root gather is
  // paced by that child, the site-internal phases are not.
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  for (int s = 0; s < 2; ++s) {
    TopologyNode site;
    site.link.bandwidth_bytes_per_sec = 1e9;
    site.link.latency_seconds = 1e-3;
    root.children.push_back(site);
  }
  root.child_link_factors = {1.0, 5.0};
  TopologyTree tree(root, "slowchild");
  const double p = 1 << 20;
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat);
  // Root AllReduce at bandwidth / 5.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), 1e-2 + 2.0 * p / (1e8 / 5.0));
  // Site gathers keep their own full links.
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * (1e-3 + p / 1e9));
}

// ------------------------------------------------------- worker layout ----

TEST(TopologyTreeTest, WorkerLayoutIsContiguousBalancedAndConsistent) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    TopologyTree tree = RandomTree(rng);
    const int groups = tree.num_leaf_groups();
    const int workers = 1 + static_cast<int>(rng.NextBounded(
                                static_cast<uint64_t>(3 * groups + 4)));
    int covered = 0;
    for (int g = 0; g < groups; ++g) {
      ASSERT_EQ(tree.GroupBegin(g, workers), covered);
      covered += tree.GroupSize(g, workers);
    }
    ASSERT_EQ(covered, workers);
    for (int w = 0; w < workers; ++w) {
      const int g = tree.LeafGroupOfWorker(w, workers);
      ASSERT_GE(w, tree.GroupBegin(g, workers));
      ASSERT_LT(w, tree.GroupBegin(g, workers) + tree.GroupSize(g, workers));
    }
    // Sizes differ by at most one and are non-increasing (balanced fill).
    for (int g = 1; g < groups; ++g) {
      ASSERT_LE(tree.GroupSize(g, workers), tree.GroupSize(g - 1, workers));
      ASSERT_GE(tree.GroupSize(g, workers),
                tree.GroupSize(g - 1, workers) - 1);
    }
  }
}

TEST(TopologyTreeTest, Depth2LayoutMatchesHierarchicalClusterBlocks) {
  legacy::TwoTier h;
  h.num_clusters = 3;
  TopologyTree tree = TopologyTree::EdgeCloud(3);
  ASSERT_EQ(tree.depth(), 2);
  ASSERT_EQ(tree.num_leaf_groups(), 3);
  for (int workers : {3, 4, 7, 8, 11}) {
    int begin = 0;
    for (int c = 0; c < 3; ++c) {
      const int size = h.ClusterSize(c, workers);
      EXPECT_EQ(tree.GroupSize(c, workers), size)
          << "workers " << workers << " cluster " << c;
      for (int w = begin; w < begin + size; ++w) {
        EXPECT_EQ(tree.LeafGroupOfWorker(w, workers), c)
            << "workers " << workers << " worker " << w;
      }
      begin += size;
    }
  }
}

// --------------------------------- bit-determinism across thread counts --

// FNV-1a over the raw float bytes of every worker buffer.
uint64_t HashBuffers(const std::vector<std::vector<float>>& buffers) {
  uint64_t hash = 1469598103934665603ull;
  for (const auto& buffer : buffers) {
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(buffer.data());
    for (size_t i = 0; i < buffer.size() * sizeof(float); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// The deterministic workload whose result hash must be identical for any
// pool size: a large tree AllReduce + a subtree AllReduce spanning several
// reduction-engine chunks.
uint64_t ComputeThreadSweepHash() {
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  const int workers = 8;
  const size_t n = (size_t{1} << 17) + 311;
  auto buffers = RandomBuffers(workers, n, 4242);
  auto pointers = Pointers(buffers);
  SimNetwork network(workers, tree, AllReduceAlgorithm::kRing);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  std::vector<float*> site0(pointers.begin(), pointers.begin() + 4);
  network.SubtreeAllReduceAverage(1, site0, n, TrafficClass::kModelSync);
  return HashBuffers(buffers);
}

// Prints the workload hash; also a plain determinism check within one
// process. The sweep test below re-runs this test in child processes with
// FEDRA_NUM_THREADS pinned.
TEST(TopologyTreeThreadSweepTest, HashModePrintsWorkloadHash) {
  const uint64_t hash = ComputeThreadSweepHash();
  EXPECT_EQ(hash, ComputeThreadSweepHash());
  std::printf("TREEHASH %016llx\n",
              static_cast<unsigned long long>(hash));
}

TEST(TopologyTreeThreadSweepTest, BitIdenticalAcrossThreadCounts) {
  if (std::getenv("FEDRA_TREE_SWEEP_CHILD") != nullptr) {
    GTEST_SKIP() << "child process of the sweep";
  }
  // The global pool is sized once per process, so the sweep re-executes
  // this binary with FEDRA_NUM_THREADS pinned and compares the workload
  // hashes printed by HashModePrintsWorkloadHash.
  char exe[4096];
  const ssize_t len =
      readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "cannot resolve /proc/self/exe on this platform";
  }
  exe[len] = '\0';
  auto hash_with_threads = [&](int threads) {
    std::string command =
        "FEDRA_TREE_SWEEP_CHILD=1 FEDRA_NUM_THREADS=" +
        std::to_string(threads) + " '" + std::string(exe) +
        "' --gtest_filter='TopologyTreeThreadSweepTest."
        "HashModePrintsWorkloadHash' 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      return std::string("popen-failed");
    }
    std::string hash;
    char line[256];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "TREEHASH ", 9) == 0) {
        hash.assign(line + 9);
        while (!hash.empty() && (hash.back() == '\n' || hash.back() == '\r')) {
          hash.pop_back();
        }
      }
    }
    const int status = pclose(pipe);
    if (status != 0 || hash.empty()) {
      return std::string("child-failed");
    }
    return hash;
  };
  const std::string h1 = hash_with_threads(1);
  const std::string h4 = hash_with_threads(4);
  const std::string h16 = hash_with_threads(16);
  ASSERT_NE(h1, "popen-failed");
  ASSERT_NE(h1, "child-failed");
  EXPECT_EQ(h1, h4);
  EXPECT_EQ(h1, h16);
  // And the in-process result (whatever FEDRA_NUM_THREADS this run uses)
  // agrees with the sweep.
  char expected[32];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(ComputeThreadSweepHash()));
  EXPECT_EQ(h1, expected);
}

// ----------------------------------------------------------- validation --

TEST(TopologyTreeTest, ValidateRejectsBadLinksAndFactors) {
  TopologyNode root;
  root.link.bandwidth_bytes_per_sec = 0.0;
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.link.bandwidth_bytes_per_sec = 1e9;
  root.link.latency_seconds = -1.0;
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.link.latency_seconds = 1e-3;
  TopologyNode child;
  child.link = root.link;
  root.children.push_back(child);
  root.child_link_factors = {0.5};  // speedups are not allowed
  EXPECT_FALSE(TopologyTree(root).Validate().ok());
  root.child_link_factors = {2.0};
  EXPECT_TRUE(TopologyTree(root).Validate().ok());
  EXPECT_FALSE(TopologyTree().enabled());
}

TEST(TopologyTreeTest, PresetShapes) {
  const TopologyTree single = TopologyTree::SingleTier(NetworkModel::Hpc());
  EXPECT_EQ(single.depth(), 1);
  EXPECT_EQ(single.num_leaf_groups(), 1);
  const TopologyTree dsc = TopologyTree::DeviceSiteCloud(3, 2);
  EXPECT_EQ(dsc.depth(), 3);
  EXPECT_EQ(dsc.num_leaf_groups(), 6);
  EXPECT_EQ(dsc.num_nodes(), 1 + 3 + 6);
  const TopologyTree two = TopologyTree::EdgeCloud(4);
  EXPECT_EQ(two.depth(), 2);
  EXPECT_EQ(two.num_leaf_groups(), 4);
  EXPECT_EQ(two.name(), "EdgeCloud");
  EXPECT_EQ(two.node(1).name, "cluster0");
}

}  // namespace
}  // namespace fedra
