// Collectives regression suite: the parallel reduction engine is
// numerically transparent (identical means for every transport algorithm
// and topology, matching the serial scalar oracle), bit-deterministic
// across runs, and the byte/time accounting matches the cost model
// formulas exactly — including two historical accounting bugs: flat
// AllReduce time now charges K payloads through the shared channel, and
// variable-size compressed payloads are billed at the per-worker sum.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <numeric>
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

// A network model with round-number parameters so golden values are exact.
NetworkModel TestModel() {
  NetworkModel model;
  model.name = "test";
  model.bandwidth_bytes_per_sec = 1e9;
  model.latency_seconds = 1e-3;
  return model;
}

// ----------------------------------------------------- numeric parity ----

// The engine's mean must be independent of the transport algorithm and
// topology (they only change cost accounting), and must match the serial
// scalar oracle. Spans larger than one 32768-element pool chunk exercise
// the chunked parallel path.
TEST(ReductionEngineTest, MeanMatchesOracleForEveryAlgorithmAndTopology) {
  for (int workers : {2, 5, 8}) {
    for (size_t n : {size_t{1}, size_t{37}, size_t{1} << 13,
                     (size_t{1} << 16) + 7}) {
      auto original = RandomBuffers(workers, n, 1000 + n + workers);
      std::vector<float> expected(n);
      ref::ReduceScale(ConstPointers(original).data(),
                       static_cast<size_t>(workers), n,
                       1.0 / workers, expected.data());

      auto run = [&](SimNetwork network) {
        auto buffers = original;
        auto pointers = Pointers(buffers);
        network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
        return buffers;
      };
      const auto flat = run(SimNetwork(workers, TestModel(),
                                       AllReduceAlgorithm::kFlat));
      const auto ring = run(SimNetwork(workers, TestModel(),
                                       AllReduceAlgorithm::kRing));
      const auto halving = run(SimNetwork(
          workers, TestModel(), AllReduceAlgorithm::kRecursiveHalving));
      const auto grouped = run(SimNetwork(
          workers, TopologyTree::EdgeCloud(2), AllReduceAlgorithm::kFlat));

      for (int k = 0; k < workers; ++k) {
        for (size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(flat[static_cast<size_t>(k)][i], expected[i], 1e-5)
              << "worker " << k << " i " << i;
          // Identical engine => bitwise-identical results across transports.
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    ring[static_cast<size_t>(k)][i]);
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    halving[static_cast<size_t>(k)][i]);
          ASSERT_EQ(flat[static_cast<size_t>(k)][i],
                    grouped[static_cast<size_t>(k)][i]);
        }
      }
    }
  }
}

TEST(ReductionEngineTest, BitDeterministicAcrossRuns) {
  const int workers = 7;
  const size_t n = (size_t{1} << 17) + 311;  // several pool chunks
  auto original = RandomBuffers(workers, n, 77);
  auto run = [&] {
    auto buffers = original;
    auto pointers = Pointers(buffers);
    SimNetwork network(workers, NetworkModel::Hpc(),
                       AllReduceAlgorithm::kRing);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    return buffers;
  };
  const auto a = run();
  const auto b = run();
  for (int k = 0; k < workers; ++k) {
    ASSERT_EQ(0, std::memcmp(a[static_cast<size_t>(k)].data(),
                             b[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
}

TEST(ReductionEngineTest, ReduceMeanIntoMatchesOracle) {
  // The trainers' eval-model averaging helper (no accounting).
  const size_t n = (size_t{1} << 16) + 9;
  const int workers = 6;
  auto buffers = RandomBuffers(workers, n, 321);
  std::vector<float> expected(n), got(n);
  auto srcs = ConstPointers(buffers);
  ref::ReduceScale(srcs.data(), srcs.size(), n, 1.0 / workers,
                   expected.data());
  ReduceMeanInto(srcs.data(), srcs.size(), n, got.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-5);
  }
}

// ------------------------------------------------ accounting goldens ----

TEST(AccountingTest, FlatTimeChargesKPayloadsThroughSharedChannel) {
  // Historical bug: flat time charged 1 payload while flat bytes charged K.
  const size_t n = 100;
  const size_t payload = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 1);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, workers * payload);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds,
                   1e-3 + static_cast<double>(workers * payload) / 1e9);
}

TEST(AccountingTest, RecursiveHalvingFormulas) {
  const size_t payload = 1000;
  // K = 8: 3 halving + 3 doubling rounds, 2 * 7/8 payload per worker.
  EXPECT_DOUBLE_EQ(NetworkModel::AllReduceTotalBytesFromSum(
                       8.0 * payload, 8, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * payload * 7);
  EXPECT_DOUBLE_EQ(TestModel().AllReduceSeconds(
                       payload, 8, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * 3 * 1e-3 + 2.0 * 7 * payload / (8 * 1e9));
  // Non-power-of-two K = 5: ceil(log2 5) = 3 rounds each way.
  EXPECT_DOUBLE_EQ(NetworkModel::AllReduceTotalBytesFromSum(
                       5.0 * payload, 5, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * payload * 4);
  EXPECT_DOUBLE_EQ(TestModel().AllReduceSeconds(
                       payload, 5, AllReduceAlgorithm::kRecursiveHalving),
                   2.0 * 3 * 1e-3 + 2.0 * 4 * payload / (5 * 1e9));
  EXPECT_DOUBLE_EQ(NetworkModel::AllReduceTotalBytesFromSum(
                       1.0 * payload, 1, AllReduceAlgorithm::kRecursiveHalving),
                   0.0);
}

TEST(AccountingTest, HalvingBeatsRingOnLatencyBoundPayloads) {
  // The reason kRecursiveHalving exists: log K latency rounds instead of
  // 2 (K-1). Tiny payload on a high-latency link => halving wins.
  NetworkModel model = NetworkModel::Federated();
  const double ring =
      model.AllReduceSeconds(64, 16, AllReduceAlgorithm::kRing);
  const double halving =
      model.AllReduceSeconds(64, 16, AllReduceAlgorithm::kRecursiveHalving);
  EXPECT_LT(halving, ring);
}

TEST(AccountingTest, VariablePayloadsBillThePerWorkerSum) {
  // Historical bug: the compressed-sync path billed the collective at the
  // *last* worker's wire size. With per-worker sizes the total is the sum.
  const size_t n = 64;
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 4);
  auto pointers = Pointers(buffers);
  const std::vector<size_t> payloads = {100, 200, 300, 400};
  network.AllReduceAverageSubsetWithPayloads(pointers, {0, 1, 2, 3}, n,
                                             payloads,
                                             TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, 1000u);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, 1e-3 + 1000.0 / 1e9);
  // The sum-based byte mapping is shared by every algorithm: ring moves
  // 2 (K-1)/K of the summed wire size.
  EXPECT_DOUBLE_EQ(NetworkModel::AllReduceTotalBytesFromSum(
                       1000.0, 4, AllReduceAlgorithm::kRing),
                   1500.0);
  // The arithmetic still averaged the n floats exactly.
  std::vector<float> expected(n);
  auto original = RandomBuffers(workers, n, 4);
  ref::ReduceScale(ConstPointers(original).data(),
                   static_cast<size_t>(workers), n, 1.0 / workers,
                   expected.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(buffers[0][i], expected[i], 1e-5);
  }
}

TEST(AccountingTest, PerTrafficClassSecondsSumToTotal) {
  SimNetwork network(4, TestModel(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(4, 256, 5);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, 2, TrafficClass::kLocalState);
  network.AllReduceAverage(pointers, 256, TrafficClass::kModelSync);
  network.PointToPoint(16, TrafficClass::kLocalState);
  const CommStats& stats = network.stats();
  EXPECT_GT(stats.seconds_local_state, 0.0);
  EXPECT_GT(stats.seconds_model_sync, 0.0);
  // The splits accumulate in separate doubles; sums agree up to rounding.
  EXPECT_NEAR(stats.seconds_local_state + stats.seconds_model_sync,
              stats.comm_seconds, 1e-12);
  testing::ExpectCommStatsConserved(stats);
  EXPECT_EQ(stats.p2p_calls, 1u);
}

// --------------------------------------------------------- hierarchical ----

// A depth-2 tree with round-number links so golden values are exact: a
// 1e8 B/s, 10 ms uplink at the root (depth 0) over `num_clusters` leaf
// groups on 2e9 B/s, 0.1 ms cluster links (depth 1).
TopologyNode TwoTierNode(int num_clusters) {
  TopologyNode root;
  root.link = TestModel();
  root.link.bandwidth_bytes_per_sec = 1e8;
  root.link.latency_seconds = 1e-2;
  root.children.resize(static_cast<size_t>(num_clusters));
  for (TopologyNode& cluster : root.children) {
    cluster.link = TestModel();
    cluster.link.bandwidth_bytes_per_sec = 2e9;
    cluster.link.latency_seconds = 1e-4;
  }
  return root;
}

TopologyTree TwoTierTree(int num_clusters) {
  return TopologyTree(TwoTierNode(num_clusters));
}

TEST(HierarchicalTest, SingleClusterMatchesFlatNumerically) {
  const int workers = 6;
  const size_t n = (size_t{1} << 15) + 3;
  auto original = RandomBuffers(workers, n, 6);

  auto flat_buffers = original;
  auto flat_pointers = Pointers(flat_buffers);
  SimNetwork flat(workers, TestModel(), AllReduceAlgorithm::kFlat);
  flat.AllReduceAverage(flat_pointers, n, TrafficClass::kModelSync);

  auto grouped_buffers = original;
  auto grouped_pointers = Pointers(grouped_buffers);
  SimNetwork grouped(workers, TwoTierTree(1), AllReduceAlgorithm::kFlat);
  grouped.AllReduceAverage(grouped_pointers, n, TrafficClass::kModelSync);

  for (int k = 0; k < workers; ++k) {
    ASSERT_EQ(0, std::memcmp(flat_buffers[static_cast<size_t>(k)].data(),
                             grouped_buffers[static_cast<size_t>(k)].data(),
                             n * sizeof(float)));
  }
  // One cluster: no uplink traffic at all; gather + broadcast stay on the
  // cluster link.
  EXPECT_EQ(grouped.stats().bytes_total,
            2u * 5u * n * sizeof(float));  // 2 phases x (K-1) payloads
  EXPECT_GT(grouped.stats().SecondsAtDepth(1), 0.0);
  EXPECT_DOUBLE_EQ(grouped.stats().SecondsAtDepth(0), 0.0);
  EXPECT_DOUBLE_EQ(grouped.stats().SecondsAtDepth(1),
                   grouped.stats().comm_seconds);
}

TEST(HierarchicalTest, TwoClusterGroupedAllReduceGolden) {
  // K = 4 workers in 2 clusters of 2. Per-worker payload p:
  //   gather:    intra latency + 1 payload over the 2 GB/s link, 2p bytes
  //   cross:     flat AllReduce of 2 leaders over the uplink, 2p bytes
  //   broadcast: same as gather.
  const size_t n = 1024;
  const size_t p = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TwoTierTree(2), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(workers, n, 7);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  const CommStats& stats = network.stats();
  const double intra_phase = 1e-4 + static_cast<double>(p) / 2e9;
  const double uplink_phase = 1e-2 + 2.0 * static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(1), 2.0 * intra_phase);
  EXPECT_DOUBLE_EQ(stats.SecondsAtDepth(0), uplink_phase);
  EXPECT_DOUBLE_EQ(stats.comm_seconds, 2.0 * intra_phase + uplink_phase);
  EXPECT_EQ(stats.bytes_total, 6u * p);
  EXPECT_EQ(stats.bytes_model_sync, 6u * p);
  EXPECT_EQ(stats.model_sync_count, 1u);
}

TEST(HierarchicalTest, ModelSyncSecondsMatchesAccountedCharge) {
  const size_t n = 4096;
  const int workers = 8;
  SimNetwork network(workers, TwoTierTree(2),
                     AllReduceAlgorithm::kRecursiveHalving);
  auto buffers = RandomBuffers(workers, n, 8);
  auto pointers = Pointers(buffers);
  const double predicted = network.ModelSyncSeconds(n * sizeof(float));
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, predicted);
}

TEST(HierarchicalTest, PointToPointCrossesBothTiers) {
  SimNetwork network(4, TwoTierTree(2), AllReduceAlgorithm::kFlat);
  network.PointToPoint(100, TrafficClass::kLocalState);
  const size_t p = 400;
  EXPECT_EQ(network.stats().bytes_total, 2u * p);  // cluster hop + uplink hop
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / 2e9);
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p) / 1e8);
}

TEST(HierarchicalTest, UnevenClustersUseLargestForTime) {
  // K = 5 in 2 clusters -> sizes {3, 2}; phases pace on the 3-cluster.
  const size_t p = 1000;
  const TopologyTree tree = TwoTierTree(2);
  EXPECT_EQ(tree.GroupSize(0, 5), 3);
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 5, AllReduceAlgorithm::kFlat);
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1),
                   2.0 * (1e-4 + 2.0 * static_cast<double>(p) / 2e9));
  // Members: 5 workers - 2 leaders = 3 payloads per cluster phase.
  EXPECT_EQ(cost.BytesAt(1), 2u * 3u * p);
}

TEST(HierarchicalTest, HeterogeneousClusterLinksPaceOnTheirOwnModel) {
  // K = 4 in 2 clusters of 2; cluster 1's link is 10x slower than
  // cluster 0's, so both cluster phases pace on cluster 1 even though the
  // cluster sizes match.
  const size_t p = 1 << 20;
  TopologyNode root = TwoTierNode(2);
  root.children[1].link.bandwidth_bytes_per_sec = 2e8;  // 10x slower
  const TopologyTree tree(root);
  EXPECT_EQ(tree.GroupSize(0, 4), 2);
  EXPECT_EQ(tree.GroupSize(1, 4), 2);
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat);
  const double slow_phase = 1e-4 + static_cast<double>(p) / 2e8;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * slow_phase);
  // Bytes do not depend on link speed: 2 members x 2 phases.
  EXPECT_EQ(cost.BytesAt(1), 2u * 2u * p);

  // A fast link for cluster 1 instead hands pacing back to cluster 0.
  root.children[1].link.bandwidth_bytes_per_sec = 2e10;
  const TreeCost fast = TopologyTree(root).GroupedAllReduceCost(
      p, 4, AllReduceAlgorithm::kFlat);
  const double shared_phase = 1e-4 + static_cast<double>(p) / 2e9;
  EXPECT_DOUBLE_EQ(fast.SecondsAt(1), 2.0 * shared_phase);
}

TEST(HierarchicalTest, ClusterSizesAreContiguousAndBalanced) {
  const TopologyTree tree = TwoTierTree(3);
  // 8 workers over 3 clusters: sizes {3, 3, 2}.
  EXPECT_EQ(tree.GroupSize(0, 8), 3);
  EXPECT_EQ(tree.GroupSize(1, 8), 3);
  EXPECT_EQ(tree.GroupSize(2, 8), 2);
}

TEST(AccountingTest, SlowestLinkPacesFlatCollectives) {
  // Golden straggler accounting: with a 4x-slow worker on the shared
  // channel, the flat AllReduce takes latency + K * p / (bw / 4) — the
  // slowest participating link paces everyone. Bytes stay unchanged.
  const size_t n = 1024;
  const size_t p = n * sizeof(float);
  const int workers = 4;
  SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kFlat);
  network.SetWorkerLinkFactors({1.0, 4.0, 1.0, 1.0});
  auto buffers = RandomBuffers(workers, n, 21);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds,
                   1e-3 + 4.0 * static_cast<double>(workers) *
                              static_cast<double>(p) / 1e9);
  EXPECT_EQ(network.stats().bytes_total,
            static_cast<size_t>(workers) * p);
}

TEST(AccountingTest, AllOnesLinkFactorsMatchHomogeneousExactly) {
  const size_t n = 2048;
  const int workers = 5;
  auto run = [&](bool with_factors) {
    SimNetwork network(workers, TestModel(), AllReduceAlgorithm::kRing);
    if (with_factors) {
      network.SetWorkerLinkFactors(std::vector<double>(workers, 1.0));
    }
    auto buffers = RandomBuffers(workers, n, 22);
    auto pointers = Pointers(buffers);
    network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
    return network.stats();
  };
  const CommStats plain = run(false);
  const CommStats ones = run(true);
  EXPECT_DOUBLE_EQ(plain.comm_seconds, ones.comm_seconds);
  EXPECT_EQ(plain.bytes_total, ones.bytes_total);
}

TEST(AccountingTest, SlowestMemberPacesItsClusterOnly) {
  // K = 4 in 2 clusters of 2; worker 3 (cluster 1) is 8x slow. Cluster 1's
  // phases slow 8x, cluster 0's do not — pacing takes the max. The uplink
  // is paced by leaders (workers 0 and 2), both factor 1.
  const size_t p = 1 << 20;
  const TopologyTree tree = TwoTierTree(2);
  const std::vector<double> factors = {1.0, 1.0, 1.0, 8.0};
  const TreeCost cost =
      tree.GroupedAllReduceCost(p, 4, AllReduceAlgorithm::kFlat, &factors);
  const double slow_phase = 1e-4 + static_cast<double>(p) / (2e9 / 8.0);
  EXPECT_DOUBLE_EQ(cost.SecondsAt(1), 2.0 * slow_phase);
  const double uplink_phase = 1e-2 + 2.0 * static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(cost.SecondsAt(0), uplink_phase);

  // A slow *leader* (worker 2) instead slows the uplink phase.
  const std::vector<double> slow_leader = {1.0, 1.0, 8.0, 1.0};
  const TreeCost leader_cost = tree.GroupedAllReduceCost(
      p, 4, AllReduceAlgorithm::kFlat, &slow_leader);
  EXPECT_DOUBLE_EQ(leader_cost.SecondsAt(0),
                   1e-2 + 2.0 * static_cast<double>(p) / (1e8 / 8.0));
}

TEST(AccountingTest, PointToPointBillsTheUploadingWorkersLink) {
  // A slow worker's state uploads transit *its* link: the same straggler
  // factor that paces collectives also paces its point-to-point traffic,
  // and under heterogeneous cluster links the upload uses its cluster's
  // link. Workers without a factor stay at homogeneous cost.
  const size_t n = 100;
  const size_t p = n * sizeof(float);
  TopologyNode root = TwoTierNode(2);
  root.children[1].link.bandwidth_bytes_per_sec = 4e8;  // workers 2, 3
  SimNetwork network(4, TopologyTree(root), AllReduceAlgorithm::kFlat);
  network.SetWorkerLinkFactors({1.0, 1.0, 1.0, 5.0});

  network.PointToPoint(n, TrafficClass::kLocalState, 0);  // fast cluster
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / 2e9);
  const double uplink_fast = 1e-2 + static_cast<double>(p) / 1e8;
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0), uplink_fast);

  network.ResetStats();
  network.PointToPoint(n, TrafficClass::kLocalState, 3);  // slow worker
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(1),
                   1e-4 + static_cast<double>(p) / (4e8 / 5.0));
  EXPECT_DOUBLE_EQ(network.stats().SecondsAtDepth(0),
                   1e-2 + static_cast<double>(p) / (1e8 / 5.0));
  // Bytes are link-speed independent.
  EXPECT_EQ(network.stats().bytes_total, 2u * p);
}

TEST(AccountingTest, ModelSyncSecondsReflectsSlowestLink) {
  SimNetwork network(4, TestModel(), AllReduceAlgorithm::kFlat);
  const double before = network.ModelSyncSeconds(1 << 20);
  network.SetWorkerLinkFactors({1.0, 1.0, 6.0, 1.0});
  const double after = network.ModelSyncSeconds(1 << 20);
  EXPECT_DOUBLE_EQ(after - 1e-3, 6.0 * (before - 1e-3));
}

TEST(AccountingTest, AlgorithmNames) {
  EXPECT_STREQ(AllReduceAlgorithmName(AllReduceAlgorithm::kFlat), "flat");
  EXPECT_STREQ(AllReduceAlgorithmName(AllReduceAlgorithm::kRing), "ring");
  EXPECT_STREQ(
      AllReduceAlgorithmName(AllReduceAlgorithm::kRecursiveHalving),
      "halving");
}

TEST(HierarchicalTest, EdgeCloudPresetIsTwoTier) {
  const TopologyTree preset = TopologyTree::EdgeCloud(3);
  EXPECT_TRUE(preset.enabled());
  EXPECT_EQ(preset.depth(), 2);
  EXPECT_EQ(preset.num_leaf_groups(), 3);
  const NetworkModel& uplink = preset.node(0).link;
  const NetworkModel& cluster = preset.node(1).link;
  EXPECT_GT(cluster.bandwidth_bytes_per_sec, uplink.bandwidth_bytes_per_sec);
  EXPECT_LT(cluster.latency_seconds, uplink.latency_seconds);
  EXPECT_FALSE(TopologyTree().enabled());
}

// ------------------------------------------------ flat billing golden ----
//
// A seeded sweep drives the flat (NetworkModel) constructor under every
// AllReduceAlgorithm, with and without worker link factors, through every
// billing entry point, one call at a time from cleared stats. Two checks:
//   - each call against FlatBill, the flat closed forms: every integer and
//     every non-retry second exactly; a retry's seconds at 1e-9 relative,
//     since its latency, transfer and backoff terms may be summed in either
//     order;
//   - each case's totals against kFlatBillGolden, captured from the flat
//     formula path that billed before a flat network was a one-node tree
//     (FEDRA_GOLDEN_PRINT=1 prints the table): integers exactly, seconds at
//     golden_history_test's 1e-9 relative tolerance, because a native build
//     contracts the recursive-halving formula into an FMA and a
//     baseline-ISA build does not.

NetworkModel RandomLink(Rng& rng) {
  NetworkModel link;
  link.name = "random";
  link.bandwidth_bytes_per_sec = 1e8 * (1.0 + 50.0 * rng.NextDouble());
  link.latency_seconds = 1e-5 * (1.0 + 100.0 * rng.NextDouble());
  return link;
}

// The flat cost model: every charge lands on the one shared channel (depth
// 0); a collective paces on its slowest participating link, a transfer or
// retry on its sender's own link.
struct FlatBill {
  NetworkModel model;
  AllReduceAlgorithm algorithm;
  std::vector<double> factors;  // empty: homogeneous links
  CommStats stats;

  double Factor(int worker) const {
    return worker >= 0 && !factors.empty()
               ? factors[static_cast<size_t>(worker)]
               : 1.0;
  }
  double AllReduceSeconds(double payload_bytes,
                          const std::vector<int>& members) const {
    double slowest = 1.0;
    for (int worker : members) {
      slowest = std::max(slowest, Factor(worker));
    }
    NetworkModel effective = model;
    effective.bandwidth_bytes_per_sec /= slowest;
    return effective.AllReduceSeconds(
        payload_bytes, static_cast<int>(members.size()), algorithm);
  }
  void Charge(uint64_t bytes, double seconds, TrafficClass traffic) {
    stats.bytes_total += bytes;
    stats.comm_seconds += seconds;
    stats.ChargeDepth(0, bytes, seconds);
    const bool local = traffic == TrafficClass::kLocalState;
    (local ? stats.bytes_local_state : stats.bytes_model_sync) += bytes;
    (local ? stats.seconds_local_state : stats.seconds_model_sync) += seconds;
  }

  void AllReduce(size_t payload_bytes_sum, const std::vector<int>& members,
                 TrafficClass traffic) {
    ++stats.allreduce_calls;
    stats.model_sync_count += traffic == TrafficClass::kModelSync;
    const int m = static_cast<int>(members.size());
    if (m > 1) {
      const double sum = static_cast<double>(payload_bytes_sum);
      Charge(static_cast<uint64_t>(std::llround(
                 NetworkModel::AllReduceTotalBytesFromSum(sum, m, algorithm))),
             AllReduceSeconds(sum / m, members), traffic);
    }
  }
  void PointToPoint(size_t n, TrafficClass traffic, int worker) {
    const size_t payload = n * sizeof(float);
    ++stats.p2p_calls;
    Charge(payload,
           model.latency_seconds +
               static_cast<double>(payload) /
                   (model.bandwidth_bytes_per_sec / Factor(worker)),
           traffic);
  }
  // A catch-up or check-in model download, counted in `counter`.
  void Download(size_t n, int worker, uint64_t CommStats::*counter) {
    PointToPoint(n, TrafficClass::kModelSync, worker);
    ++(stats.*counter);
    stats.bytes_model_downlink += n * sizeof(float);
  }
  void Retries(int worker, size_t payload_bytes, int retries,
               double backoff_base_seconds, TrafficClass traffic) {
    for (int attempt = 0; attempt < retries; ++attempt) {
      // Backoff first, as the flat formula path summed it.
      const double seconds =
          std::ldexp(backoff_base_seconds, attempt) + model.latency_seconds +
          static_cast<double>(payload_bytes) /
              (model.bandwidth_bytes_per_sec / Factor(worker));
      ++stats.retries;
      stats.seconds_retry += seconds;
      Charge(payload_bytes, seconds, traffic);
    }
  }
};

// Every integer field of a bill, and every second.
std::vector<uint64_t> Counts(const CommStats& s) {
  return {s.allreduce_calls,   s.p2p_calls,
          s.model_sync_count,  s.subtree_allreduce_calls,
          s.retries,           s.catch_up_syncs,
          s.check_in_syncs,    s.bytes_total,
          s.bytes_local_state, s.bytes_model_sync,
          s.bytes_model_downlink, s.bytes_by_depth.size(),
          s.BytesAtDepth(0)};
}
std::vector<double> Seconds(const CommStats& s) {
  return {s.comm_seconds, s.seconds_local_state, s.seconds_model_sync,
          s.seconds_retry, s.SecondsAtDepth(0)};
}

void ExpectNear(const std::vector<double>& got,
                const std::vector<double>& want, double rel) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], rel * std::fabs(want[i])) << "second " << i;
  }
}

struct FlatBillTotals {
  CommStats stats;                  // every call's bill, merged
  double model_sync_seconds = 0.0;  // ModelSyncSeconds' returns, summed
};

// One case of the sweep: eight random flat networks (1-16 workers, random
// link), 250 calls each, drawn uniformly over the billing entry points.
FlatBillTotals SweepFlatBilling(AllReduceAlgorithm algorithm,
                                bool with_factors, uint64_t seed) {
  constexpr size_t kMaxFloats = 1024;  // collective spans
  Rng rng(seed);
  FlatBillTotals totals;
  for (int net = 0; net < 8; ++net) {
    const int workers = 1 + static_cast<int>(rng.NextBounded(16));
    FlatBill want{RandomLink(rng), algorithm, {}, {}};
    SimNetwork network(workers, want.model, algorithm);
    if (with_factors) {
      want.factors.resize(static_cast<size_t>(workers));
      for (double& factor : want.factors) {
        factor = 1.0 + 4.0 * rng.NextDouble();
      }
      network.SetWorkerLinkFactors(want.factors);
    }
    auto buffers = RandomBuffers(workers, kMaxFloats, seed + net);
    const std::vector<float*> all = Pointers(buffers);
    std::vector<int> everyone(static_cast<size_t>(workers));
    std::iota(everyone.begin(), everyone.end(), 0);
    for (int call = 0; call < 250; ++call) {
      network.ResetStats();
      want.stats.Clear();
      const TrafficClass traffic = rng.NextBernoulli(0.5)
                                       ? TrafficClass::kLocalState
                                       : TrafficClass::kModelSync;
      // -1 takes the default (homogeneous) path.
      const int worker = static_cast<int>(rng.NextBounded(workers + 1)) - 1;
      const size_t floats = 1 + rng.NextBounded(size_t{1} << 22);
      const uint64_t op = rng.NextBounded(7);
      SCOPED_TRACE(::testing::Message()
                   << "network " << net << " workers " << workers
                   << " call " << call << " op " << op);
      bool retry = false;
      if (op <= 1) {
        const size_t n = 1 + rng.NextBounded(kMaxFloats);
        const double keep = rng.NextDouble();
        std::vector<int> members;
        std::vector<float*> spans;
        std::vector<size_t> wire;
        size_t wire_sum = 0;
        for (int k = 0; k < workers; ++k) {
          if (rng.NextBernoulli(keep)) {
            members.push_back(k);
            spans.push_back(all[static_cast<size_t>(k)]);
            wire.push_back(rng.NextBounded(size_t{1} << 24));
            wire_sum += wire.back();
          }
        }
        if (op == 0) {
          network.AllReduceAverageSubset(spans, members, n, traffic);
          want.AllReduce(n * sizeof(float) * members.size(), members,
                         traffic);
        } else {
          network.AllReduceAverageSubsetWithPayloads(spans, members, n, wire,
                                                     traffic);
          want.AllReduce(wire_sum, members, traffic);
        }
      } else if (op == 2) {
        network.PointToPoint(floats, traffic, worker);
        want.PointToPoint(floats, traffic, worker);
      } else if (op == 3) {
        network.AccountCatchUpSync(floats, worker);
        want.Download(floats, worker, &CommStats::catch_up_syncs);
      } else if (op == 4) {
        network.AccountCheckInSync(floats, worker);
        want.Download(floats, worker, &CommStats::check_in_syncs);
      } else if (op == 5) {
        const int retries = static_cast<int>(rng.NextBounded(6));
        const double backoff = 0.05 * rng.NextDouble();
        const size_t payload = rng.NextBounded(size_t{1} << 22);
        network.AccountSyncRetries(worker, payload, retries, backoff,
                                   traffic);
        want.Retries(worker, payload, retries, backoff, traffic);
        retry = true;
      } else {
        const size_t payload = rng.NextBounded(size_t{1} << 26);
        const double got = network.ModelSyncSeconds(payload);
        EXPECT_EQ(got, want.AllReduceSeconds(static_cast<double>(payload),
                                             everyone));
        totals.model_sync_seconds += got;
      }
      EXPECT_EQ(Counts(network.stats()), Counts(want.stats));
      if (retry) {
        ExpectNear(Seconds(network.stats()), Seconds(want.stats), 1e-9);
      } else {
        EXPECT_EQ(Seconds(network.stats()), Seconds(want.stats));
      }
      totals.stats.Merge(network.stats());
    }
  }
  return totals;
}

struct FlatBillGolden {
  std::vector<uint64_t> counts;  // Counts() of the merged bill
  std::vector<double> seconds;   // Seconds(), then ModelSyncSeconds' sum
};

// Captured with FEDRA_GOLDEN_PRINT=1 from the flat formula path, one row
// per case: {kFlat, kRing, kRecursiveHalving} x {no factors, factors}.
const FlatBillGolden kFlatBillGolden[] = {
    {{560, 872, 283, 0, 662, 296, 288, 20278375526, 7538360084, 12740015442, 4807976056, 1, 20278375526},
     {74.022933960695028, 36.368960640307478, 37.653973320387578, 61.091526629232526, 74.022933960695028, 59.577147265782649}},
    {{533, 861, 262, 0, 789, 291, 295, 19216930589, 7658812556, 11558118033, 5169676396, 1, 19216930589},
     {134.01627106940705, 62.031481365062611, 71.984789704344365, 80.995201456114685, 134.01627106940705, 354.50400955287438}},
    {{592, 860, 309, 0, 733, 257, 305, 24352458940, 9095288589, 15257170351, 4714740820, 1, 24352458940},
     {83.246739139293254, 44.509237646172195, 38.737501493121044, 74.716015157608851, 83.246739139293254, 7.1129668685790133}},
    {{583, 872, 276, 0, 658, 288, 288, 26669491501, 11083892547, 15585598954, 4669717684, 1, 26669491501},
     {94.736905847928981, 45.935027643727345, 48.801878204201728, 59.591812133428469, 94.736905847928981, 83.205955655686026}},
    {{593, 840, 299, 0, 781, 276, 287, 30584221234, 12378471323, 18205749911, 4933366884, 1, 30584221234},
     {79.301727301185736, 43.351025720785799, 35.950701580399915, 72.696801556277691, 79.301727301185736, 7.7280940887853804}},
    {{588, 814, 277, 0, 661, 280, 279, 21656519563, 8860742266, 12795777297, 4683225480, 1, 21656519563},
     {85.958944426030243, 35.303271159056585, 50.6556732669737, 66.84277455223517, 85.958944426030243, 48.917192076917416}},
};

TEST(FlatBillingTest, SweepMatchesFlatClosedFormsAndGolden) {
  const char* env = std::getenv("FEDRA_GOLDEN_PRINT");
  const bool print = env != nullptr && env[0] == '1';
  size_t row = 0;
  for (AllReduceAlgorithm algorithm :
       {AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
        AllReduceAlgorithm::kRecursiveHalving}) {
    for (bool with_factors : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << AllReduceAlgorithmName(algorithm)
                   << (with_factors ? " with" : " without")
                   << " link factors");
      const FlatBillTotals totals =
          SweepFlatBilling(algorithm, with_factors, 7000 + row);
      testing::ExpectCommStatsConserved(totals.stats);
      const std::vector<uint64_t> counts = Counts(totals.stats);
      std::vector<double> seconds = Seconds(totals.stats);
      seconds.push_back(totals.model_sync_seconds);
      ASSERT_LT(row, std::size(kFlatBillGolden));
      const FlatBillGolden& golden = kFlatBillGolden[row++];
      if (print) {
        const char* sep = "    {{";
        for (uint64_t c : counts) {
          std::printf("%s%llu", sep, static_cast<unsigned long long>(c));
          sep = ", ";
        }
        sep = "},\n     {";
        for (double x : seconds) {
          std::printf("%s%.17g", sep, x);
          sep = ", ";
        }
        std::printf("}},\n");
        continue;
      }
      EXPECT_EQ(counts, golden.counts);
      ExpectNear(seconds, golden.seconds, 1e-9);
    }
  }
}

}  // namespace
}  // namespace fedra
