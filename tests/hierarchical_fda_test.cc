// Escalation-accounting regression tests for HierarchicalFdaPolicy.
//
// The scheduler's contract is that tiers are billed only when they are
// used: when the cheap cluster-local condition trips every round but the
// escalation threshold is never crossed, the uplink (root tier) must carry
// exactly zero seconds and zero bytes — and vice versa, when every round
// escalates straight to a global synchronization, no cluster-local model
// average may be billed. Plus counter-consistency and determinism checks
// of the scheduler itself.

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"

namespace fedra {
namespace {

SynthImageData SmallMnistLike() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 512;
  config.num_test = 256;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

ModelFactory SmallMlpFactory() {
  return [] { return zoo::Mlp(16 * 16, {24}, 10); };
}

TrainerConfig TreeConfig(int num_workers, TopologyTree topology) {
  TrainerConfig config;
  config.num_workers = num_workers;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 23;
  config.max_steps = 40;
  config.eval_every_steps = 20;
  config.eval_subset = 128;
  config.topology = std::move(topology);
  return config;
}

std::unique_ptr<HierarchicalFdaPolicy> MakePolicy(
    std::vector<double> theta_by_depth, size_t dim) {
  HierarchicalFdaConfig config;
  config.monitor.kind = MonitorKind::kLinear;
  config.theta_by_depth = std::move(theta_by_depth);
  auto policy = MakeHierarchicalFdaPolicy(config, dim);
  FEDRA_CHECK(policy.ok()) << policy.status();
  return std::move(policy).value();
}

// Cluster-local condition trips every round (theta_leaf = 0), the global
// one never does (theta_root astronomically high): the uplink must bill
// exactly zero seconds and zero bytes while the cheap tier does all the
// drift control.
TEST(HierarchicalFdaTest, LocalOnlyTripsBillZeroUplink) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = TreeConfig(4, TopologyTree::EdgeCloud(2));
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakePolicy({1e18, 0.0}, trainer.model_dim());
  auto result = trainer.Run(policy.get());
  ASSERT_TRUE(result.ok()) << result.status();

  // Both clusters average locally on every step...
  EXPECT_EQ(policy->local_sync_count(), 2ull * config.max_steps);
  EXPECT_EQ(result->comm.subtree_sync_count, 2ull * config.max_steps);
  // ...and nothing ever escalates or synchronizes globally.
  EXPECT_EQ(policy->global_sync_count(), 0u);
  EXPECT_EQ(policy->escalation_count(), 0u);
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.model_sync_count, 0u);
  EXPECT_EQ(result->comm.child_exchange_calls, 0u);
  // The contract: the uplink tier carries zero seconds and zero bytes.
  EXPECT_DOUBLE_EQ(result->comm.SecondsAtDepth(0), 0.0);
  EXPECT_EQ(result->comm.BytesAtDepth(0), 0u);
  // The cheap tier is where everything happened.
  EXPECT_GT(result->comm.SecondsAtDepth(1), 0.0);
  EXPECT_GT(result->comm.BytesAtDepth(1), 0u);
  EXPECT_DOUBLE_EQ(result->comm.SecondsAtDepth(1), result->comm.comm_seconds);
}

// Vice versa: the escalation threshold trips every round (theta_root = 0)
// while the cluster-local condition never does (theta_leaf astronomically
// high): every step pays the uplink for a global synchronization and not
// one cluster-local model average is billed.
TEST(HierarchicalFdaTest, GlobalOnlyTripsBillNoLocalModelSyncs) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = TreeConfig(4, TopologyTree::EdgeCloud(2));
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakePolicy({0.0, 1e18}, trainer.model_dim());
  auto result = trainer.Run(policy.get());
  ASSERT_TRUE(result.ok()) << result.status();

  // Every step escalates (one root child-exchange) and syncs globally.
  EXPECT_EQ(policy->global_sync_count(),
            static_cast<uint64_t>(config.max_steps));
  EXPECT_EQ(policy->escalation_count(),
            static_cast<uint64_t>(config.max_steps));
  EXPECT_EQ(result->comm.child_exchange_calls,
            static_cast<uint64_t>(config.max_steps));
  EXPECT_EQ(result->total_syncs, static_cast<uint64_t>(config.max_steps));
  EXPECT_EQ(result->comm.model_sync_count,
            static_cast<uint64_t>(config.max_steps));
  // No cluster-local model averaging was ever billed.
  EXPECT_EQ(policy->local_sync_count(), 0u);
  EXPECT_EQ(result->comm.subtree_sync_count, 0u);
  // The uplink carried the global syncs and the escalation states.
  EXPECT_GT(result->comm.SecondsAtDepth(0), 0.0);
  EXPECT_GT(result->comm.BytesAtDepth(0), 0u);
}

// Middle ground on a 3-tier tree: cheap-tier averaging happens often, the
// uplink only on escalated rounds, and the trainer's sync counter sees
// exactly the global syncs.
TEST(HierarchicalFdaTest, ThreeTierCountersAreConsistent) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = TreeConfig(8, TopologyTree::DeviceSiteCloud(2, 2));
  config.max_steps = 60;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakePolicy({1.2, 0.5, 0.2}, trainer.model_dim());
  auto result = trainer.Run(policy.get());
  ASSERT_TRUE(result.ok()) << result.status();

  // The trainer's model_sync_count counts global syncs only; subtree
  // averages are tracked separately.
  EXPECT_EQ(result->comm.model_sync_count, policy->global_sync_count());
  EXPECT_EQ(result->total_syncs, policy->global_sync_count());
  EXPECT_EQ(result->comm.subtree_sync_count, policy->local_sync_count());
  // With an increasing threshold ladder the cheap tier trips first.
  EXPECT_GT(policy->local_sync_count(), 0u);
  EXPECT_GT(policy->global_sync_count(), 0u);
  EXPECT_GE(policy->escalation_count(), policy->global_sync_count());
  // Per-depth seconds cover all three tiers and sum to the total.
  EXPECT_GT(result->comm.SecondsAtDepth(1), 0.0);
  EXPECT_GT(result->comm.SecondsAtDepth(2), 0.0);
  EXPECT_NEAR(result->comm.SecondsAtDepth(0) +
                  result->comm.SecondsAtDepth(1) +
                  result->comm.SecondsAtDepth(2),
              result->comm.comm_seconds,
              1e-12 * std::max(1.0, result->comm.comm_seconds));
  // Training still converges sanely under local averaging.
  EXPECT_GT(result->final_test_accuracy, 0.3);
}

// The scheduler is deterministic: two identical runs produce bit-identical
// histories and counters.
TEST(HierarchicalFdaTest, RunsAreDeterministic) {
  SynthImageData data = SmallMnistLike();
  auto run = [&] {
    TrainerConfig config =
        TreeConfig(8, TopologyTree::DeviceSiteCloud(2, 2));
    config.max_steps = 30;
    config.eval_every_steps = 10;
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakePolicy({1.2, 0.5, 0.2}, trainer.model_dim());
    auto result = trainer.Run(policy.get());
    FEDRA_CHECK(result.ok());
    struct Summary {
      std::vector<EvalPoint> history;
      uint64_t local_syncs;
      uint64_t global_syncs;
      uint64_t escalations;
    };
    return Summary{result->history, policy->local_sync_count(),
                   policy->global_sync_count(), policy->escalation_count()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.local_syncs, b.local_syncs);
  EXPECT_EQ(a.global_syncs, b.global_syncs);
  EXPECT_EQ(a.escalations, b.escalations);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].test_accuracy, b.history[i].test_accuracy);
    EXPECT_EQ(a.history[i].bytes, b.history[i].bytes);
    EXPECT_EQ(a.history[i].sim_seconds, b.history[i].sim_seconds);
  }
}

TEST(HierarchicalFdaTest, ConfigValidation) {
  HierarchicalFdaConfig config;
  config.theta_by_depth = {};
  EXPECT_FALSE(MakeHierarchicalFdaPolicy(config, 100).ok());
  config.theta_by_depth = {1.0, -0.5};
  EXPECT_FALSE(MakeHierarchicalFdaPolicy(config, 100).ok());
  config.theta_by_depth = {1.0, 0.5};
  EXPECT_TRUE(MakeHierarchicalFdaPolicy(config, 100).ok());
}

// A NaN threshold is a Status from the factory, never an abort in the
// policy's constructor.
TEST(HierarchicalFdaTest, NanThresholdIsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  HierarchicalFdaConfig config;
  for (std::vector<double> thetas : {std::vector<double>{nan, 0.5},
                                     std::vector<double>{1.0, nan}}) {
    config.theta_by_depth = thetas;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(MakeHierarchicalFdaPolicy(config, 100).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace fedra
