// Simulator tests: collectives compute exact means with correct byte and
// time accounting; network and straggler models behave as specified.

#include <vector>

#include <gtest/gtest.h>

#include "sim/collectives.h"
#include "sim/network_model.h"
#include "sim/straggler.h"
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

// ------------------------------------------------------------- AllReduce

class AllReduceTest
    : public ::testing::TestWithParam<std::tuple<int, AllReduceAlgorithm>> {};

TEST_P(AllReduceTest, ComputesExactMeanForAllWorkers) {
  const auto [num_workers, algorithm] = GetParam();
  const size_t n = 37;
  auto buffers = RandomBuffers(num_workers, n, 42);
  // Reference mean.
  std::vector<double> mean(n, 0.0);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      mean[i] += buffer[i];
    }
  }
  for (auto& m : mean) {
    m /= num_workers;
  }
  SimNetwork network(num_workers, NetworkModel::Hpc(), algorithm);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffer[i], mean[i], 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndAlgorithms, AllReduceTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 16),
                       ::testing::Values(AllReduceAlgorithm::kFlat,
                                         AllReduceAlgorithm::kRing)));

TEST(AllReduceAccountingTest, FlatCountsOnePayloadPerWorker) {
  const size_t n = 100;
  SimNetwork network(4, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(4, n, 1);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, 4u * n * sizeof(float));
  EXPECT_EQ(network.stats().bytes_model_sync, 4u * n * sizeof(float));
  EXPECT_EQ(network.stats().bytes_local_state, 0u);
  EXPECT_EQ(network.stats().allreduce_calls, 1u);
  EXPECT_EQ(network.stats().model_sync_count, 1u);
}

TEST(AllReduceAccountingTest, RingCountsTwoKMinusOnePayloads) {
  const size_t n = 64;
  SimNetwork network(5, NetworkModel::Hpc(), AllReduceAlgorithm::kRing);
  auto buffers = RandomBuffers(5, n, 2);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, n, TrafficClass::kLocalState);
  EXPECT_EQ(network.stats().bytes_total, 2u * 4u * n * sizeof(float));
  EXPECT_EQ(network.stats().bytes_local_state,
            network.stats().bytes_total);
}

TEST(AllReduceAccountingTest, SingleWorkerIsFree) {
  SimNetwork network(1, NetworkModel::Federated(),
                     AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(1, 10, 3);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, 10, TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_total, 0u);
  EXPECT_EQ(network.stats().comm_seconds, 0.0);
}

TEST(AllReduceAccountingTest, TrafficClassesAccumulateSeparately) {
  SimNetwork network(2, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(2, 8, 4);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, 8, TrafficClass::kLocalState);
  network.AllReduceAverage(pointers, 8, TrafficClass::kModelSync);
  EXPECT_EQ(network.stats().bytes_local_state,
            network.stats().bytes_model_sync);
  EXPECT_EQ(network.stats().bytes_total,
            network.stats().bytes_local_state +
                network.stats().bytes_model_sync);
  EXPECT_EQ(network.stats().model_sync_count, 1u);
}

TEST(PointToPointTest, AccountsPayload) {
  SimNetwork network(3, NetworkModel::Federated(),
                     AllReduceAlgorithm::kFlat);
  network.PointToPoint(100, TrafficClass::kLocalState);
  EXPECT_EQ(network.stats().bytes_total, 400u);
  EXPECT_GT(network.stats().comm_seconds, 0.0);
}

TEST(SimNetworkTest, ResetStatsClears) {
  SimNetwork network(2, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  auto buffers = RandomBuffers(2, 8, 5);
  auto pointers = Pointers(buffers);
  network.AllReduceAverage(pointers, 8, TrafficClass::kModelSync);
  network.ResetStats();
  EXPECT_EQ(network.stats().bytes_total, 0u);
  EXPECT_EQ(network.stats().allreduce_calls, 0u);
}

// ---------------------------------------------------------- NetworkModel

TEST(NetworkModelTest, PresetsAreOrderedByBandwidth) {
  EXPECT_GT(NetworkModel::Hpc().bandwidth_bytes_per_sec,
            NetworkModel::Balanced().bandwidth_bytes_per_sec);
  EXPECT_GT(NetworkModel::Balanced().bandwidth_bytes_per_sec,
            NetworkModel::Federated().bandwidth_bytes_per_sec);
}

TEST(NetworkModelTest, TimeGrowsWithPayload) {
  NetworkModel model = NetworkModel::Federated();
  const double small =
      model.AllReduceSeconds(1000, 4, AllReduceAlgorithm::kFlat);
  const double large =
      model.AllReduceSeconds(1000000, 4, AllReduceAlgorithm::kFlat);
  EXPECT_GT(large, small);
}

TEST(NetworkModelTest, SlowNetworkIsSlower) {
  const size_t payload = 10 * 1000 * 1000;
  const double fast = NetworkModel::Hpc().AllReduceSeconds(
      payload, 8, AllReduceAlgorithm::kFlat);
  const double slow = NetworkModel::Federated().AllReduceSeconds(
      payload, 8, AllReduceAlgorithm::kFlat);
  EXPECT_GT(slow, 10.0 * fast);
}

TEST(NetworkModelTest, TotalBytesFormulas) {
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(100, 4,
                                              AllReduceAlgorithm::kFlat),
            400u);
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(100, 4,
                                              AllReduceAlgorithm::kRing),
            600u);
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(
                100, 4, AllReduceAlgorithm::kRecursiveHalving),
            600u);
  EXPECT_EQ(NetworkModel::AllReduceTotalBytes(100, 1,
                                              AllReduceAlgorithm::kFlat),
            0u);
}

// -------------------------------------------------------------- straggler

TEST(StragglerTest, NoneIsDeterministicBase) {
  StragglerModel model = StragglerModel::None(0.02);
  Rng rng(1);
  EXPECT_EQ(model.SampleWorkerFactor(&rng), 1.0);
  EXPECT_DOUBLE_EQ(model.SampleStepSeconds(1.0, &rng), 0.02);
}

TEST(StragglerTest, HeavyProducesSlowWorkers) {
  StragglerModel model = StragglerModel::Heavy(0.01);
  Rng rng(2);
  int slow = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (model.SampleWorkerFactor(&rng) > 1.0) {
      ++slow;
    }
  }
  EXPECT_NEAR(static_cast<double>(slow) / n, 0.2, 0.05);
}

TEST(StragglerTest, SlowFactorScalesStepTime) {
  StragglerModel model = StragglerModel::None(0.01);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(model.SampleStepSeconds(8.0, &rng), 0.08);
}

TEST(StragglerTest, JitterHasExpectedSpread) {
  StragglerModel model;
  model.base_step_seconds = 0.01;
  model.lognormal_sigma = 0.5;
  Rng rng(4);
  double min_t = 1e9;
  double max_t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = model.SampleStepSeconds(1.0, &rng);
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  EXPECT_LT(min_t, 0.01);
  EXPECT_GT(max_t, 0.01);
  EXPECT_GT(max_t / min_t, 2.0);
}

// -------------------------------------------------------------- CommStats

TEST(CommStatsTest, MergeAccumulates) {
  CommStats a;
  a.allreduce_calls = 2;
  a.broadcast_calls = 1;
  a.p2p_calls = 3;
  a.bytes_total = 100;
  a.bytes_model_sync = 60;
  a.bytes_local_state = 40;
  a.comm_seconds = 1.5;
  a.seconds_local_state = 0.5;
  a.seconds_model_sync = 1.0;
  a.ChargeDepth(0, 60, 1.25);
  a.ChargeDepth(1, 40, 0.25);
  CommStats b = a;
  a.Merge(b);
  EXPECT_EQ(a.allreduce_calls, 4u);
  EXPECT_EQ(a.broadcast_calls, 2u);
  EXPECT_EQ(a.p2p_calls, 6u);
  EXPECT_EQ(a.bytes_total, 200u);
  EXPECT_DOUBLE_EQ(a.comm_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.seconds_local_state, 1.0);
  EXPECT_DOUBLE_EQ(a.seconds_model_sync, 2.0);
  EXPECT_DOUBLE_EQ(a.SecondsAtDepth(0), 2.5);
  EXPECT_DOUBLE_EQ(a.SecondsAtDepth(1), 0.5);
  EXPECT_EQ(a.BytesAtDepth(0), 120u);
  EXPECT_EQ(a.BytesAtDepth(1), 80u);
}

TEST(CommStatsTest, GigabytesConversion) {
  CommStats stats;
  stats.bytes_total = 2ULL * 1024 * 1024 * 1024;
  EXPECT_DOUBLE_EQ(stats.gigabytes_total(), 2.0);
}

TEST(CommStatsTest, ToStringMentionsTotals) {
  CommStats stats;
  stats.bytes_total = 1024;
  EXPECT_NE(stats.ToString().find("1.00 KB"), std::string::npos);
  // One depth prints no split; two or more print the time per depth.
  stats.ChargeDepth(0, 1024, 1.0);
  EXPECT_EQ(stats.ToString().find("by_depth"), std::string::npos);
  stats.ChargeDepth(1, 0, 0.25);
  EXPECT_NE(stats.ToString().find("by_depth=[1.000s, 0.250s]"),
            std::string::npos);
}

}  // namespace
}  // namespace fedra
