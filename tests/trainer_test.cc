// Integration tests of the distributed trainer with every sync policy:
// worker consistency, the FDA Round Invariant, communication accounting,
// accuracy targets, determinism, and the paper's headline ordering
// (FDA communicates orders of magnitude less than Synchronous).

#include <limits>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"
#include "tests/test_util.h"

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

TrainerConfig BaseConfig(int num_workers) {
  TrainerConfig config;
  config.num_workers = num_workers;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 11;
  config.max_steps = 120;
  config.eval_every_steps = 30;
  config.eval_subset = 128;
  return config;
}

TEST(TrainerTest, SynchronousKeepsWorkersIdentical) {
  SynthImageData data = SmallMnistLike();
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             BaseConfig(3));
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();
  // Every step synchronizes: sync count == steps.
  EXPECT_EQ(result->total_syncs, static_cast<uint64_t>(result->total_steps));
  EXPECT_EQ(result->comm.model_sync_count,
            static_cast<uint64_t>(result->total_steps));
  EXPECT_EQ(result->comm.bytes_local_state, 0u);
}

TEST(TrainerTest, SynchronousCommMatchesFormula) {
  SynthImageData data = SmallMnistLike();
  auto factory = SmallMlpFactory();
  const size_t dim = factory()->num_params();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 50;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok());
  // Flat accounting: steps * K * d * 4 bytes.
  EXPECT_EQ(result->comm.bytes_total,
            50ull * 4ull * dim * sizeof(float));
}

TEST(TrainerTest, LocalSgdSyncsEveryTauSteps) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 60;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  LocalSgdPolicy policy(TauSchedule::Fixed(10));
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_syncs, 6u);
}

TEST(TrainerTest, DecayingTauSyncsMoreOverTime) {
  TauSchedule decaying = TauSchedule::Decaying(32, 0.5);
  EXPECT_EQ(decaying.TauForRound(0), 32u);
  EXPECT_EQ(decaying.TauForRound(1), 16u);
  EXPECT_EQ(decaying.TauForRound(5), 1u);
  TauSchedule increasing = TauSchedule::Increasing(4, 2.0);
  EXPECT_EQ(increasing.TauForRound(0), 4u);
  EXPECT_EQ(increasing.TauForRound(2), 16u);
}

TEST(TrainerTest, FdaStateTrafficIsCheapAndSyncsAreRare) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 80;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(/*theta=*/1e9),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok());
  // Huge theta: no syncs at all; only per-step state traffic (2 floats).
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.bytes_model_sync, 0u);
  EXPECT_EQ(result->comm.bytes_local_state,
            80ull * 4ull * 2ull * sizeof(float));
}

TEST(TrainerTest, FdaThetaZeroSyncsEveryStep) {
  // Paper footnote 3: Synchronous == FDA with Theta = 0 (plus state cost).
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 40;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.0),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok());
  // Every step the variance exceeds 0 (models move apart) => sync.
  EXPECT_GE(result->total_syncs, 38u);
}

TEST(TrainerTest, RoundInvariantHoldsWithExactMonitor) {
  // With the exact (oracle) monitor, FDA's estimate history must never
  // leave the variance above Theta *after* the sync decision: whenever the
  // estimate exceeded Theta a sync followed immediately, so the recorded
  // estimate at any non-sync step is <= Theta.
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 60;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto monitor = MakeVarianceMonitor(
      [] {
        MonitorConfig c;
        c.kind = MonitorKind::kExact;
        return c;
      }(),
      trainer.model_dim());
  ASSERT_TRUE(monitor.ok());
  const double theta = 0.05;
  FdaSyncPolicy policy(std::move(monitor).value(), theta);
  policy.set_record_estimates(true);
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_syncs, 0u);
  // The RI: Var <= Theta is preserved across training in the sense that
  // every estimate above Theta triggered a sync (variance drops to 0).
  // Count steps where the estimate stayed above Theta with no sync: zero
  // by construction; instead verify estimates were actually monitored.
  EXPECT_EQ(policy.estimate_history().size(), 60u);
  for (double h : policy.estimate_history()) {
    EXPECT_GE(h, -1e-6);  // variance estimates are non-negative
  }
}

TEST(TrainerTest, FedOptSyncsOncePerLocalEpoch) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  // 512 train / 4 workers = 128 per worker; batch 16 => 8 steps/epoch.
  config.max_steps = 40;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::FedAvg(1),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_syncs, 5u);  // 40 steps / 8 per round
}

TEST(TrainerTest, FedAvgEqualsPlainAveragingOnSyncStep) {
  // After a FedAvg round (server SGD lr=1), the global model equals the
  // plain average of the worker models — i.e., equals what LocalSGD with
  // tau = steps_per_epoch produces at the same step.
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 16;
  auto run = [&](AlgorithmConfig algo) {
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(algo, trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return result->final_test_accuracy;
  };
  // 512/2/16 = 16 steps per epoch => both sync exactly once, at step 16.
  const double fedavg = run(AlgorithmConfig::FedAvg(1));
  const double local_sgd =
      run(AlgorithmConfig::LocalSgd(TauSchedule::Fixed(16)));
  EXPECT_NEAR(fedavg, local_sgd, 1e-9);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 30;
  auto run_once = [&] {
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::SketchFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return *result;
  };
  TrainResult a = run_once();
  TrainResult b = run_once();
  EXPECT_EQ(a.total_syncs, b.total_syncs);
  EXPECT_EQ(a.comm.bytes_total, b.comm.bytes_total);
  EXPECT_EQ(a.final_test_accuracy, b.final_test_accuracy);
}

TEST(TrainerTest, ParallelWorkersMatchSequential) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 20;
  auto run_with = [&](bool parallel) {
    TrainerConfig c = config;
    c.parallel_workers = parallel;
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test, c);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return *result;
  };
  TrainResult sequential = run_with(false);
  TrainResult parallel = run_with(true);
  EXPECT_EQ(sequential.total_syncs, parallel.total_syncs);
  EXPECT_EQ(sequential.final_test_accuracy, parallel.final_test_accuracy);
}

TEST(TrainerTest, ReachesAccuracyTargetAndStops) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.accuracy_target = 0.5;  // easy target on the MNIST-like task
  config.max_steps = 600;
  config.eval_every_steps = 25;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->reached_target);
  EXPECT_LT(result->steps_to_target, 600u);
  EXPECT_GT(result->final_test_accuracy, 0.45);
}

TEST(TrainerTest, FdaCommunicatesFarLessThanSynchronousAtSameTarget) {
  // The paper's headline claim, in miniature.
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.accuracy_target = 0.6;
  config.max_steps = 800;
  config.eval_every_steps = 25;
  auto run = [&](AlgorithmConfig algo) {
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(algo, trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return *result;
  };
  TrainResult synchronous = run(AlgorithmConfig::Synchronous());
  TrainResult fda = run(AlgorithmConfig::LinearFda(0.5));
  ASSERT_TRUE(synchronous.reached_target);
  ASSERT_TRUE(fda.reached_target);
  EXPECT_LT(fda.bytes_to_target, synchronous.bytes_to_target / 5);
}

TEST(TrainerTest, SetInitialParamsIsUsed) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 2;
  config.eval_every_steps = 1;
  auto factory = SmallMlpFactory();
  DistributedTrainer trainer(factory, data.train, data.test, config);
  std::vector<float> zeros(trainer.model_dim(), 0.0f);
  trainer.SetInitialParams(zeros);
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok());
  // From an all-zero MLP, 2 steps cannot reach high accuracy — but mostly
  // this asserts the override path executes without touching random init.
  EXPECT_LE(result->final_test_accuracy, 0.6);
}

TEST(TrainerTest, ValidationErrorsSurface) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(0);  // invalid worker count
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  EXPECT_FALSE(trainer.Run(&policy).ok());
}

// Every run rotates its cohort every cohort_steps rounds, a resident one
// too: cohort_steps = 0 is a Status from Validate, Run and RunAsync, never
// a division by zero.
TEST(TrainerTest, ResidentConfigRejectsZeroCohortSteps) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 2;
  config.cohort_steps = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  EXPECT_EQ(trainer.Run(&policy).status().code(),
            StatusCode::kInvalidArgument);
  AsyncFdaConfig async_config;
  async_config.max_total_worker_steps = 4;
  EXPECT_EQ(trainer.RunAsync(async_config).status().code(),
            StatusCode::kInvalidArgument);
}

// TrainResult::total_worker_steps counts the local steps the workers took:
// K per round when nobody is down, fewer under churn (a crashed worker
// computes nothing), and the whole budget for an async run that never
// reaches its target.
TEST(TrainerTest, TotalWorkerStepsCountsLocalSteps) {
  SynthImageData data = SmallMnistLike();
  auto run = [&](const TrainerConfig& config) {
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return std::move(result).value();
  };
  TrainerConfig config = BaseConfig(4);
  const TrainResult fault_free = run(config);
  EXPECT_EQ(fault_free.total_worker_steps, 4 * fault_free.total_steps);

  config.faults = FaultConfig::Churn(8.0, 2.0);
  const TrainResult churned = run(config);
  EXPECT_LT(churned.total_worker_steps, 4 * churned.total_steps);
  config.parallel_workers = true;
  EXPECT_EQ(run(config).total_worker_steps, churned.total_worker_steps);

  AsyncFdaConfig async;
  async.theta = 0.02;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 400;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             BaseConfig(4));
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->reached_target);
  EXPECT_EQ(result->total_worker_steps, 400u);
}

// Fault chains index clients by int, so a population beyond INT_MAX is a
// Status. At 2^32 + 4 the uint32 client ids would also wrap; Run returns
// before allocating anything population-sized.
TEST(TrainerTest, PopulationBeyondIntIsInvalidArgument) {
  TrainerConfig config = BaseConfig(4);
  config.population = static_cast<size_t>(std::numeric_limits<int>::max());
  EXPECT_TRUE(config.Validate().ok());
  config.population += 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.population = (size_t{1} << 32) + 4;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  SynthImageData data = SmallMnistLike();
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  EXPECT_EQ(trainer.Run(&policy).status().code(),
            StatusCode::kInvalidArgument);
}

// A NaN fedprox_mu is a Status from Validate and Run: it must not run
// silently without FedProx (NaN > 0 is false).
TEST(TrainerTest, NanFedProxMuIsInvalidArgument) {
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 2;
  config.fedprox_mu = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  SynthImageData data = SmallMnistLike();
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  EXPECT_EQ(trainer.Run(&policy).status().code(),
            StatusCode::kInvalidArgument);
}

// A link that cannot carry traffic is a Status from Validate and Run, on a
// flat network and at any node of a tree: never an abort on the first
// collective (bandwidth 0 or NaN), nor a run billed in negative or NaN
// seconds (latency -1 or NaN).
TEST(TrainerTest, BadNetworkLinksAreInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SynthImageData data = SmallMnistLike();
  auto expect_invalid = [&](const TrainerConfig& config) {
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    SynchronousPolicy policy;
    EXPECT_EQ(trainer.Run(&policy).status().code(),
              StatusCode::kInvalidArgument);
  };
  TrainerConfig flat = BaseConfig(2);
  flat.max_steps = 2;
  TopologyNode root;
  root.children.resize(2);
  TrainerConfig tree = flat;
  tree.topology = TopologyTree(root);
  ASSERT_TRUE(flat.Validate().ok());
  ASSERT_TRUE(tree.Validate().ok());
  const std::pair<double, double> bad_links[] = {
      {0.0, 1e-3}, {nan, 1e-3}, {1e9, -1.0}, {1e9, nan}};
  for (const auto& [bandwidth, latency] : bad_links) {
    SCOPED_TRACE(::testing::Message() << "bandwidth " << bandwidth
                                      << " latency " << latency);
    TrainerConfig bad_flat = flat;
    bad_flat.network.bandwidth_bytes_per_sec = bandwidth;
    bad_flat.network.latency_seconds = latency;
    expect_invalid(bad_flat);
    TopologyNode bad_root = root;
    bad_root.children[1].link.bandwidth_bytes_per_sec = bandwidth;
    bad_root.children[1].link.latency_seconds = latency;
    TrainerConfig bad_tree = flat;
    bad_tree.topology = TopologyTree(bad_root);
    expect_invalid(bad_tree);
  }
  // A NaN child link factor fails the tree's slowdown check too.
  TopologyNode nan_factor = root;
  nan_factor.child_link_factors = {1.0, nan};
  tree.topology = TopologyTree(nan_factor);
  expect_invalid(tree);
}

// A flat network is a one-tier hierarchy: HierarchicalFDA(LinearFDA, {theta})
// decides on the same cohort-wide state average as LinearFDA(theta), so
// under churn and message loss both sync in the same rounds and end on the
// same model. Only the bytes differ: the hierarchical policy bills its
// state averages as subtree collectives.
TEST(TrainerTest, HierarchicalFdaOnFlatNetworkMatchesLinearFda) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(6);
  config.faults = FaultConfig::Churn(10.0, 2.0);
  config.faults.message_loss_prob = 0.2;
  const double theta = 0.05;
  struct Outcome {
    TrainResult result;
    uint64_t params_hash = 1469598103934665603ull;  // FNV-1a
  };
  auto run = [&](bool hierarchical) {
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    HierarchicalFdaConfig hier;
    hier.monitor.kind = MonitorKind::kLinear;
    hier.theta_by_depth = {theta};
    auto flat_policy =
        MakeSyncPolicy(AlgorithmConfig::LinearFda(theta), trainer.model_dim());
    auto hier_policy = MakeHierarchicalFdaPolicy(hier, trainer.model_dim());
    FEDRA_CHECK(flat_policy.ok() && hier_policy.ok());
    auto result = trainer.Run(hierarchical ? hier_policy->get()
                                           : flat_policy->get());
    FEDRA_CHECK(result.ok()) << result.status();
    Outcome outcome{std::move(result).value()};
    const auto* bytes = reinterpret_cast<const unsigned char*>(
        trainer.shared_model().params());
    for (size_t i = 0; i < trainer.model_dim() * sizeof(float); ++i) {
      outcome.params_hash = (outcome.params_hash ^ bytes[i]) * 1099511628211ull;
    }
    return outcome;
  };
  const Outcome flat = run(false);
  const Outcome hier = run(true);
  EXPECT_GT(flat.result.total_syncs, 0u);
  EXPECT_GT(flat.result.comm.retries, 0u);
  EXPECT_EQ(hier.result.total_syncs, flat.result.total_syncs);
  EXPECT_EQ(hier.result.comm.model_sync_count,
            flat.result.comm.model_sync_count);
  ASSERT_EQ(hier.result.history.size(), flat.result.history.size());
  for (size_t i = 0; i < flat.result.history.size(); ++i) {
    EXPECT_EQ(hier.result.history[i].train_accuracy,
              flat.result.history[i].train_accuracy);
    EXPECT_EQ(hier.result.history[i].test_accuracy,
              flat.result.history[i].test_accuracy);
  }
  EXPECT_EQ(hier.params_hash, flat.params_hash);
  testing::ExpectCommStatsConserved(hier.result.comm);
}

TEST(TrainerTest, HistoryIsMonotoneInStepsAndBytes) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 90;
  config.eval_every_steps = 30;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::SketchFda(0.5),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->history.size(), 3u);
  for (size_t i = 1; i < result->history.size(); ++i) {
    EXPECT_GT(result->history[i].step, result->history[i - 1].step);
    EXPECT_GE(result->history[i].bytes, result->history[i - 1].bytes);
    EXPECT_GE(result->history[i].sync_count,
              result->history[i - 1].sync_count);
  }
}

TEST(TrainerTest, HierarchicalTopologyRunsAndSplitsTiers) {
  // 2-cluster edge->cloud topology: the same training run, but every
  // collective is grouped and its time lands in the per-tier breakdown.
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 40;
  config.topology = TopologyTree::EdgeCloud(2);
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_syncs, 0u);
  EXPECT_GT(result->comm.SecondsAtDepth(1), 0.0);
  EXPECT_GT(result->comm.SecondsAtDepth(0), 0.0);
  testing::ExpectCommStatsConserved(result->comm);
}

TEST(TrainerTest, PerClusterIntraLinksSlowTheIntraTier) {
  // Heterogeneous cluster tier: replacing one cluster's EdgeLan link with a
  // 100x slower one must strictly increase cluster-tier (depth 1) seconds
  // while moving exactly the same bytes.
  SynthImageData data = SmallMnistLike();
  auto run_with = [&](bool slow_cluster) {
    TrainerConfig config = BaseConfig(4);
    config.max_steps = 20;
    // EdgeCloud(2), built by hand so cluster 1's link can differ.
    TopologyNode root;
    root.link = NetworkModel::Federated();
    root.children.resize(2);
    for (TopologyNode& cluster : root.children) {
      cluster.link = NetworkModel::EdgeLan();
    }
    if (slow_cluster) {
      root.children[1].link.bandwidth_bytes_per_sec /= 100.0;
    }
    config.topology = TopologyTree(root);
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.2),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return *result;
  };
  TrainResult uniform = run_with(false);
  TrainResult hetero = run_with(true);
  ASSERT_GT(uniform.total_syncs, 0u);
  EXPECT_EQ(hetero.comm.bytes_total, uniform.comm.bytes_total);
  EXPECT_GT(hetero.comm.SecondsAtDepth(1), uniform.comm.SecondsAtDepth(1));
  EXPECT_DOUBLE_EQ(hetero.comm.SecondsAtDepth(0),
                   uniform.comm.SecondsAtDepth(0));
}

TEST(TrainerTest, StragglerSlowsCollectivesViaSlowestLink) {
  // With every worker persistently 8x slow (slow_worker_prob = 1), the
  // slowest-link formula must bill strictly more comm seconds than the
  // homogeneous cluster at identical bytes.
  SynthImageData data = SmallMnistLike();
  auto run_with = [&](double slow_prob) {
    TrainerConfig config = BaseConfig(3);
    config.max_steps = 20;
    config.straggler = StragglerModel::None(0.01);
    config.straggler.slow_worker_prob = slow_prob;
    config.straggler.slow_factor = 8.0;
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    SynchronousPolicy policy;
    auto result = trainer.Run(&policy);
    FEDRA_CHECK(result.ok());
    return *result;
  };
  TrainResult uniform = run_with(0.0);
  TrainResult straggling = run_with(1.0);
  EXPECT_EQ(straggling.comm.bytes_total, uniform.comm.bytes_total);
  EXPECT_GT(straggling.comm.comm_seconds, uniform.comm.comm_seconds);
}

TEST(TrainerTest, TreeWithMoreLeafGroupsThanWorkersRuns) {
  // Five edge clusters for two workers: the layout fills groups 0 and 1
  // and leaves the other three empty. Synchronous, flat FDA, hierarchical
  // FDA and a fleet cohort all run over the empty groups.
  SynthImageData data = SmallMnistLike();
  const size_t dim = SmallMlpFactory()()->num_params();
  auto run = [&](TrainerConfig config, SyncPolicy* policy) {
    config.max_steps = 20;
    config.topology = TopologyTree::EdgeCloud(5);
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto result = trainer.Run(policy);
    ASSERT_TRUE(result.ok()) << result.status();
    testing::ExpectCommStatsConserved(result->comm);
  };
  SynchronousPolicy synchronous;
  run(BaseConfig(2), &synchronous);
  auto fda = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5), dim);
  ASSERT_TRUE(fda.ok());
  run(BaseConfig(2), fda->get());
  HierarchicalFdaConfig hierarchical_config;
  hierarchical_config.theta_by_depth = {1.0, 0.5};
  auto hierarchical = MakeHierarchicalFdaPolicy(hierarchical_config, dim);
  ASSERT_TRUE(hierarchical.ok());
  run(BaseConfig(2), hierarchical->get());
  TrainerConfig fleet = BaseConfig(2);
  fleet.population = 50;
  auto fleet_fda = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5), dim);
  ASSERT_TRUE(fleet_fda.ok());
  run(fleet, fleet_fda->get());
}

TEST(TrainerTest, FedProxProximalTermPullsWorkersTogether) {
  // The fused proximal kernel must act: with a large mu, worker models stay
  // near the anchor, so drift-based FDA variance stays lower and fewer
  // syncs fire than with mu = 0 at the same theta.
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.max_steps = 60;
  auto syncs_with_mu = [&](float mu) {
    TrainerConfig c = config;
    c.fedprox_mu = mu;
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test, c);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.02),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    return result->total_syncs;
  };
  // Strict: if the proximal term silently became a no-op the counts would
  // be equal and this must fail.
  EXPECT_LT(syncs_with_mu(10.0f), syncs_with_mu(0.0f));
}

TEST(TrainerTest, HeterogeneityConfigsRun) {
  SynthImageData data = SmallMnistLike();
  for (const PartitionConfig& partition :
       {PartitionConfig::Iid(), PartitionConfig::SortedFraction(0.6),
        PartitionConfig::LabelToFew(0, 2)}) {
    TrainerConfig config = BaseConfig(4);
    config.partition = partition;
    config.max_steps = 30;
    DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                               config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    ASSERT_TRUE(policy.ok());
    auto result = trainer.Run(policy->get());
    ASSERT_TRUE(result.ok()) << partition.ToString();
    EXPECT_GT(result->final_test_accuracy, 0.05);
  }
}

TEST(AlgorithmConfigTest, ValidationAndNames) {
  EXPECT_TRUE(AlgorithmConfig::Synchronous().Validate().ok());
  EXPECT_FALSE(AlgorithmConfig::SketchFda(-1.0).Validate().ok());
  auto bad_tau = AlgorithmConfig::LocalSgd(TauSchedule::Fixed(1));
  bad_tau.tau.tau0 = 0;
  EXPECT_FALSE(bad_tau.Validate().ok());
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kSketchFda)), "SketchFDA");
  EXPECT_NE(AlgorithmConfig::FedAdam(2).ToString().find("E=2"),
            std::string::npos);
}

// A NaN theta is a Status from the factory, never an abort in
// FdaSyncPolicy's constructor.
TEST(AlgorithmConfigTest, NanThetaIsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const AlgorithmConfig& config :
       {AlgorithmConfig::SketchFda(nan), AlgorithmConfig::LinearFda(nan),
        AlgorithmConfig::ExactFda(nan)}) {
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(MakeSyncPolicy(config, 100).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(AlgorithmConfigTest, FactoryBuildsEveryAlgorithm) {
  for (auto config :
       {AlgorithmConfig::Synchronous(),
        AlgorithmConfig::LocalSgd(TauSchedule::Fixed(8)),
        AlgorithmConfig::SketchFda(1.0), AlgorithmConfig::LinearFda(1.0),
        AlgorithmConfig::ExactFda(1.0), AlgorithmConfig::FedAvg(1),
        AlgorithmConfig::FedAvgM(1), AlgorithmConfig::FedAdam(1)}) {
    auto policy = MakeSyncPolicy(config, 64);
    ASSERT_TRUE(policy.ok()) << config.ToString();
    EXPECT_FALSE((*policy)->name().empty());
  }
}

}  // namespace
}  // namespace fedra
