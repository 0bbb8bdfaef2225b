// Golden-history parity tests for the shared-graph / arena refactor.
//
// The hard guarantee of the PR that introduced ModelGraph + WorkerArena is
// that execution is *bit-identical* to the old one-Model-per-worker trainer:
// for a fixed seed, DistributedTrainer::Run and RunAsync must produce the
// same EvalPoint history (step, accuracies, bytes, sync_count) they
// produced before the refactor, with parallel_workers on or off.
//
// The GOLDEN arrays below were captured from the pre-refactor trainer
// (commit c11813b) by running this test with FEDRA_GOLDEN_PRINT=1; the
// refactored trainer must keep reproducing them. Integer fields compare
// exactly; accuracies are exact sample-count ratios so they compare exactly
// too; simulated seconds compare at 1e-9 relative tolerance (double sums
// whose last bits may legitimately differ across FMA-contraction choices of
// other toolchains). Every run also checks that its CommStats obey the
// accounting conservation laws (testing::ExpectCommStatsConserved).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/topology_tree.h"
#include "tensor/simd_dispatch.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

// The GOLDEN arrays are bit-exact for one accumulation pattern. Pin the
// portable SIMD level so they hold on every machine regardless of which
// intrinsics tier cpuid would pick (or what FEDRA_SIMD says): kScalar is
// supported on every build and host (docs/determinism.md, "ISA levels").
[[maybe_unused]] const bool kSimdLevelPinned = [] {
  simd::SetLevel(simd::Level::kScalar);
  return true;
}();

struct GoldenPoint {
  size_t step;
  double train_accuracy;
  double test_accuracy;
  uint64_t bytes;
  uint64_t sync_count;
  double sim_seconds;
};

void PrintHistory(const char* name, const std::vector<EvalPoint>& history) {
  std::printf("const GoldenPoint k%s[] = {\n", name);
  for (const EvalPoint& p : history) {
    std::printf("    {%zu, %.17g, %.17g, %lluull, %lluull, %.17g},\n", p.step,
                p.train_accuracy, p.test_accuracy,
                static_cast<unsigned long long>(p.bytes),
                static_cast<unsigned long long>(p.sync_count), p.sim_seconds);
  }
  std::printf("};\n");
}

bool GoldenPrintMode() {
  const char* env = std::getenv("FEDRA_GOLDEN_PRINT");
  return env != nullptr && env[0] == '1';
}

template <size_t N>
void ExpectHistoryMatches(const char* name,
                          const std::vector<EvalPoint>& history,
                          const GoldenPoint (&golden)[N]) {
  if (GoldenPrintMode()) {
    PrintHistory(name, history);
    return;
  }
  ASSERT_EQ(history.size(), N) << name;
  for (size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(::testing::Message() << name << " point " << i);
    EXPECT_EQ(history[i].step, golden[i].step);
    EXPECT_DOUBLE_EQ(history[i].train_accuracy, golden[i].train_accuracy);
    EXPECT_DOUBLE_EQ(history[i].test_accuracy, golden[i].test_accuracy);
    EXPECT_EQ(history[i].bytes, golden[i].bytes);
    EXPECT_EQ(history[i].sync_count, golden[i].sync_count);
    EXPECT_NEAR(history[i].sim_seconds, golden[i].sim_seconds,
                1e-9 * std::max(1.0, golden[i].sim_seconds));
  }
}

/// Every history must be bit-identical between the two runs (the refactor's
/// determinism claim: each worker writes only its own slab slice).
void ExpectHistoriesBitIdentical(const std::vector<EvalPoint>& a,
                                 const std::vector<EvalPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(a[i].step, b[i].step);
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].train_accuracy, b[i].train_accuracy);
    EXPECT_EQ(a[i].test_accuracy, b[i].test_accuracy);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].sync_count, b[i].sync_count);
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
}

SynthImageData SmallMnistLike() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 512;
  config.num_test = 256;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

// Captured pre-refactor (see file comment).
const GoldenPoint kMlpLinearFda[] = {
    {20, 0.484375, 0.6796875, 103328ull, 1ull, 0.20011976114285718},
    {40, 0.7734375, 0.8046875, 206656ull, 2ull, 0.40023952228571447},
    {60, 0.9375, 0.90625, 309984ull, 3ull, 0.6003592834285717},
};

const GoldenPoint kLenetSync[] = {
    {5, 0.328125, 0.25, 855440ull, 5ull, 0.050147205714285714},
    {10, 0.625, 0.671875, 1710880ull, 10ull, 0.10029441142857141},
};

const GoldenPoint kMlpFedAvg[] = {
    {8, 0.2734375, 0.296875, 0ull, 0ull, 0.080000000000000002},
    {16, 0.4609375, 0.5390625, 51344ull, 1ull, 0.16001233485714286},
};

const GoldenPoint kMlpAsync[] = {
    {10, 0.4609375, 0.484375, 77256ull, 1ull, 0.11001600228571427},
    {20, 0.578125, 0.6328125, 77496ull, 1ull, 0.21001600228571435},
    {30, 0.6953125, 0.75, 154752ull, 2ull, 0.31003200457142871},
    {40, 0.7578125, 0.828125, 154992ull, 2ull, 0.4100320045714288},
    {50, 0.9140625, 0.859375, 232248ull, 3ull, 0.51004800685714313},
};

TrainerConfig MlpConfig(int num_workers) {
  TrainerConfig config;
  config.num_workers = num_workers;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 11;
  config.max_steps = 60;
  config.eval_every_steps = 20;
  config.eval_subset = 128;
  return config;
}

TEST(GoldenHistoryTest, MlpLinearFdaSequentialAndParallel) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  auto run_with = [&](bool parallel) {
    TrainerConfig config = MlpConfig(4);
    config.parallel_workers = parallel;
    DistributedTrainer trainer(factory, data.train, data.test, config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    testing::ExpectCommStatsConserved(result->comm);
    return result->history;
  };
  std::vector<EvalPoint> sequential = run_with(false);
  std::vector<EvalPoint> parallel = run_with(true);
  ExpectHistoryMatches("MlpLinearFda", sequential, kMlpLinearFda);
  ExpectHistoriesBitIdentical(sequential, parallel);
}

TEST(GoldenHistoryTest, LenetSynchronous) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::LeNet5(1, 16, 10); };
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::SgdMomentum(0.05f, 0.9f, true);
  config.seed = 7;
  config.max_steps = 10;
  config.eval_every_steps = 5;
  config.eval_subset = 64;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::Synchronous(),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("LenetSync", result->history, kLenetSync);
}

// The conv zoo models under synchronous SGD, in LenetSynchronous's setting.
// Each pins a conv geometry LeNet's 5x5 convs do not reach: VggStar's 3x3
// pad-1 convs (its 32->32 layer has ickk = 288, two GEMM depth chunks),
// DenseNet121Lite's 3x3 dense-block convs (ickk up to 432) and 1x1
// transitions, ConvNeXtLite's 4x4 stride-4 and 2x2 stride-2 downsamplers.
// Captured with FEDRA_GOLDEN_PRINT=1 before Conv2d stopped building a
// per-sample im2col matrix.
const GoldenPoint kVggSync[] = {
    {5, 0.09375, 0.03125, 1244240ull, 5ull, 0.050202748571428576},
    {10, 0.140625, 0.109375, 2488480ull, 10ull, 0.10040549714285714},
};

const GoldenPoint kDenseNetSync[] = {
    {5, 0.328125, 0.25, 1390000ull, 5ull, 0.05022357142857143},
    {10, 0.375, 0.46875, 2780000ull, 10ull, 0.10044714285714285},
};

const GoldenPoint kConvNeXtSync[] = {
    {5, 0.203125, 0.265625, 350160ull, 5ull, 0.05007502285714286},
    {10, 0.21875, 0.28125, 700320ull, 10ull, 0.10015004571428571},
};

template <size_t N>
void ExpectSynchronousGolden(const char* name, const ModelFactory& factory,
                             const GoldenPoint (&golden)[N]) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::SgdMomentum(0.05f, 0.9f, true);
  config.seed = 7;
  config.max_steps = 10;
  config.eval_every_steps = 5;
  config.eval_subset = 64;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::Synchronous(),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches(name, result->history, golden);
}

TEST(GoldenHistoryTest, VggStar) {
  ExpectSynchronousGolden(
      "VggSync", [] { return zoo::VggStar(1, 16, 10); }, kVggSync);
}

TEST(GoldenHistoryTest, DenseNet121Lite) {
  ExpectSynchronousGolden(
      "DenseNetSync", [] { return zoo::DenseNet121Lite(1, 16, 10); },
      kDenseNetSync);
}

TEST(GoldenHistoryTest, ConvNeXtLite) {
  ExpectSynchronousGolden(
      "ConvNeXtSync", [] { return zoo::ConvNeXtLite(1, 16, 10, 8); },
      kConvNeXtSync);
}

TEST(GoldenHistoryTest, MlpFedAvg) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config;
  config.num_workers = 2;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Sgd(0.05f);
  config.seed = 13;
  config.max_steps = 16;
  config.eval_every_steps = 8;
  config.eval_subset = 128;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::FedAvg(1),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpFedAvg", result->history, kMlpFedAvg);
}

TEST(GoldenHistoryTest, MlpAsyncFda) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(3);
  config.eval_every_steps = 10;
  config.straggler = StragglerModel::None(0.01);
  AsyncFdaConfig async_config;
  async_config.theta = 0.5;
  async_config.monitor.kind = MonitorKind::kLinear;
  async_config.max_total_worker_steps = 150;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto result = trainer.RunAsync(async_config);
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpAsync", result->history, kMlpAsync);
}

// Captured at the parity-verified introduction of the hierarchical FDA
// scheduler (TopologyTree PR) with FEDRA_GOLDEN_PRINT=1: a 3-tier
// device->site->cloud run whose escalation decisions — which steps average
// at which tier and which pay the uplink — are encoded in the bytes and
// sync_count columns. A refactor that silently changes the scheduler's
// tier decisions changes these numbers.
const GoldenPoint kMlpHier3Tier[] = {
    {20, 0.5, 0.6953125, 3030816ull, 1ull, 0.42608227840000024},
    {40, 0.78125, 0.8203125, 7088512ull, 1ull, 0.81832862720000166},
    {60, 0.9453125, 0.8984375, 9297792ull, 2ull, 1.2237536511999991},
};

TEST(GoldenHistoryTest, ThreeTierHierarchicalFdaSequentialAndParallel) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  auto run_with = [&](bool parallel) {
    TrainerConfig config = MlpConfig(8);
    config.parallel_workers = parallel;
    config.topology = TopologyTree::DeviceSiteCloud(2, 2);
    DistributedTrainer trainer(factory, data.train, data.test, config);
    HierarchicalFdaConfig policy_config;
    policy_config.monitor.kind = MonitorKind::kLinear;
    policy_config.theta_by_depth = {1.2, 0.5, 0.2};
    auto policy =
        MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    testing::ExpectCommStatsConserved(result->comm);
    return result->history;
  };
  std::vector<EvalPoint> sequential = run_with(false);
  std::vector<EvalPoint> parallel = run_with(true);
  ExpectHistoryMatches("MlpHier3Tier", sequential, kMlpHier3Tier);
  ExpectHistoriesBitIdentical(sequential, parallel);
}

// ---------------------------------------------------------------------------
// SketchFDA and ExactFDA: the AMS-sketch and full-drift state kernels and
// the decisions they feed. Theta = 0.2 makes each run sync several times and
// skip most rounds. Captured with FEDRA_GOLDEN_PRINT=1 before the
// per-worker state pass moved onto the thread pool; the sequential and
// parallel-worker runs must both reproduce them.
const GoldenPoint kMlpSketchFda[] = {
    {20, 0.484375, 0.6796875, 605696ull, 2ull, 0.20019652800000004},
    {40, 0.78125, 0.8046875, 1108704ull, 3ull, 0.40037338628571445},
    {60, 0.9296875, 0.8984375, 1611712ull, 4ull, 0.60055024457142892},
};

const GoldenPoint kMlpExactFda[] = {
    {20, 0.4921875, 0.6796875, 2156768ull, 1ull, 0.20041310971428575},
    {40, 0.7734375, 0.8125, 4313536ull, 2ull, 0.40082621942857161},
    {60, 0.9375, 0.90625, 6572992ull, 4ull, 0.60125899885714318},
};

template <size_t N>
void ExpectFdaGolden(const char* name, const AlgorithmConfig& algorithm,
                     const GoldenPoint (&golden)[N], uint64_t bytes_total,
                     uint64_t model_syncs) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  auto run_with = [&](bool parallel) {
    TrainerConfig config = MlpConfig(4);
    config.parallel_workers = parallel;
    DistributedTrainer trainer(factory, data.train, data.test, config);
    auto policy = MakeSyncPolicy(algorithm, trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    testing::ExpectCommStatsConserved(result->comm);
    return std::move(result).value();
  };
  const TrainResult sequential = run_with(false);
  const TrainResult parallel = run_with(true);
  ExpectHistoryMatches(name, sequential.history, golden);
  ExpectHistoriesBitIdentical(sequential.history, parallel.history);
  if (GoldenPrintMode()) {
    std::printf("bytes_total=%lluull model_syncs=%lluull\n",
                static_cast<unsigned long long>(sequential.comm.bytes_total),
                static_cast<unsigned long long>(
                    sequential.comm.model_sync_count));
    return;
  }
  for (const TrainResult* result : {&sequential, &parallel}) {
    EXPECT_EQ(result->comm.bytes_total, bytes_total) << name;
    EXPECT_EQ(result->comm.model_sync_count, model_syncs) << name;
  }
  // Some rounds synced and some did not.
  EXPECT_GE(model_syncs, 2u) << name;
  EXPECT_LT(model_syncs, static_cast<uint64_t>(MlpConfig(4).max_steps))
      << name;
}

TEST(GoldenHistoryTest, MlpSketchFdaSequentialAndParallel) {
  ExpectFdaGolden("MlpSketchFda", AlgorithmConfig::SketchFda(0.2),
                  kMlpSketchFda, 1611712ull, 4ull);
}

TEST(GoldenHistoryTest, MlpExactFdaSequentialAndParallel) {
  ExpectFdaGolden("MlpExactFda", AlgorithmConfig::ExactFda(0.2), kMlpExactFda,
                  6572992ull, 4ull);
}

/// Composite coverage (BatchNorm, Dropout, DenseBlock, transitions) under
/// the shared graph: parallel and sequential worker execution must be
/// bit-identical. Runtime-compared (no hard-coded floats) so it holds on
/// any toolchain.
TEST(GoldenHistoryTest, DenseNetParallelMatchesSequentialBitExact) {
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 64;
  synth.num_test = 32;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  ASSERT_TRUE(data.ok());
  auto factory = [] { return zoo::DenseNet121Lite(1, 16, 10); };
  auto run_with = [&](bool parallel) {
    TrainerConfig config;
    config.num_workers = 2;
    config.batch_size = 4;
    config.local_optimizer = OptimizerConfig::SgdMomentum(0.01f, 0.9f, true);
    config.seed = 5;
    config.max_steps = 4;
    config.eval_every_steps = 2;
    config.eval_subset = 32;
    config.parallel_workers = parallel;
    DistributedTrainer trainer(factory, data->train, data->test, config);
    auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.1),
                                 trainer.model_dim());
    FEDRA_CHECK(policy.ok());
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok());
    testing::ExpectCommStatsConserved(result->comm);
    return result->history;
  };
  std::vector<EvalPoint> sequential = run_with(false);
  std::vector<EvalPoint> parallel = run_with(true);
  ASSERT_FALSE(sequential.empty());
  ExpectHistoriesBitIdentical(sequential, parallel);
}

// ---------------------------------------------------------------------------
// Fleet parity: with population == cohort_size == K the fleet layer (paged
// ClientStateStore + CohortSampler + per-round rotation) must be a bitwise
// no-op — every rotation samples the identity cohort with zero rng draws,
// resident slots stay sticky with zero float roundtrips, and the population
// variance correction short-circuits. The fleet runs below must keep
// reproducing the SAME golden arrays as the resident-cohort runs above.

TEST(GoldenHistoryTest, FleetPopulationEqualsCohortMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(4);
  config.population = 4;
  config.cohort_size = 4;
  config.cohort_steps = 1;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpLinearFdaFleet", result->history, kMlpLinearFda);
  EXPECT_EQ(result->comm.check_in_syncs, 0ull);
}

TEST(GoldenHistoryTest, FleetHierarchicalPopulationEqualsCohortMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(8);
  config.topology = TopologyTree::DeviceSiteCloud(2, 2);
  config.population = 8;
  config.cohort_size = 8;
  config.cohort_steps = 5;  // sparse rotations are no-ops too
  DistributedTrainer trainer(factory, data.train, data.test, config);
  HierarchicalFdaConfig policy_config;
  policy_config.monitor.kind = MonitorKind::kLinear;
  policy_config.theta_by_depth = {1.2, 0.5, 0.2};
  auto policy = MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpHier3TierFleet", result->history, kMlpHier3Tier);
}

TEST(GoldenHistoryTest, FleetAsyncPopulationEqualsCohortMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(3);
  config.eval_every_steps = 10;
  config.straggler = StragglerModel::None(0.01);
  config.population = 3;
  config.cohort_size = 3;
  AsyncFdaConfig async_config;
  async_config.theta = 0.5;
  async_config.monitor.kind = MonitorKind::kLinear;
  async_config.max_total_worker_steps = 150;
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto result = trainer.RunAsync(async_config);
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpAsyncFleet", result->history, kMlpAsync);
}

// ---------------------------------------------------------------------------
// Compressed fleet: a top-5% + q8 WireCodec with error feedback on a churned
// fleet of K = 8 slots over a 256-client population. The mask stage feeds
// both the FDA monitor (masked drift) and every coded sync, and the EF
// residuals page through the client store, so any change to which
// coordinates the mask keeps, in which order, or to the quantized values
// moves these numbers. Captured with FEDRA_GOLDEN_PRINT=1 before the
// mask stage's top-k selection was rewritten; the rewrite must reproduce
// them unmodified.
const GoldenPoint kMlpCodecFleet[] = {
    {20, 0.234375, 0.421875, 681472ull, 1ull, 0.20033235314285719},
    {40, 0.3046875, 0.453125, 1666180ull, 6ull, 0.40077802571428589},
    {60, 0.3984375, 0.484375, 2788744ull, 13ull, 0.60127839200000033},
};

TEST(GoldenHistoryTest, CompressedChurnedFleetMatchesGolden) {
  SynthImageData data = SmallMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  TrainerConfig config = MlpConfig(8);
  config.population = 256;
  config.cohort_size = 8;
  config.cohort_steps = 5;
  config.cohort_schedule = CohortScheduleKind::kAvailability;
  config.faults = FaultConfig::Churn(10.0, 2.5);
  config.sync_compression = CompressionConfig::TopKQuantize(0.05, 8);
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.15),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  ExpectHistoryMatches("MlpCodecFleet", result->history, kMlpCodecFleet);
  if (GoldenPrintMode()) {
    std::printf("bytes_total=%lluull rejoins=%lluull check_in_syncs=%lluull\n",
                static_cast<unsigned long long>(result->comm.bytes_total),
                static_cast<unsigned long long>(result->rejoin_count),
                static_cast<unsigned long long>(result->comm.check_in_syncs));
    return;
  }
  EXPECT_EQ(result->comm.bytes_total, 2788744ull);
  EXPECT_EQ(result->rejoin_count, 16ull);
  EXPECT_EQ(result->comm.check_in_syncs, 87ull);
}

// ---------------------------------------------------------------------------
// Sync paths that fault-free and faulted runs share: compressed flat FDA,
// compressed hierarchical FDA, compressed FedAvg (fault-free and under
// churn + message loss), and async FDA under churn + message loss. A
// fault-free run is the identity fault schedule of the same code path, so
// these pin the merged paths' arithmetic and their loss/retry/drop billing.
// Captured with FEDRA_GOLDEN_PRINT=1 before the fault-free copies of the
// sync paths were deleted; each run must reproduce them with
// parallel_workers off and on.

struct GoldenTotals {
  uint64_t bytes_total;
  uint64_t retries;
  uint64_t dropped_messages;
  uint64_t rejoin_count;
};

// Per-depth simulated seconds: depth 0 is the root tier (the whole channel
// of a flat network), depth 1 the tier below it.
struct GoldenDepthSeconds {
  double depth0;
  double depth1;
};

template <typename RunFn, size_t N>
void ExpectRunGolden(const char* name, const RunFn& run,
                     const GoldenPoint (&golden)[N],
                     const GoldenTotals& totals,
                     const GoldenDepthSeconds* depth_seconds = nullptr) {
  const TrainResult sequential = run(/*parallel=*/false);
  const TrainResult parallel = run(/*parallel=*/true);
  testing::ExpectCommStatsConserved(sequential.comm);
  testing::ExpectCommStatsConserved(parallel.comm);
  ExpectHistoryMatches(name, sequential.history, golden);
  ExpectHistoriesBitIdentical(sequential.history, parallel.history);
  if (GoldenPrintMode()) {
    if (depth_seconds != nullptr) {
      std::printf("{%.17g, %.17g}  // depth seconds\n",
                  sequential.comm.SecondsAtDepth(0),
                  sequential.comm.SecondsAtDepth(1));
    }
    std::printf(
        "{%lluull, %lluull, %lluull, %lluull}  // model_syncs=%llu "
        "subtree_syncs=%llu\n",
        static_cast<unsigned long long>(sequential.comm.bytes_total),
        static_cast<unsigned long long>(sequential.comm.retries),
        static_cast<unsigned long long>(sequential.comm.dropped_messages),
        static_cast<unsigned long long>(sequential.rejoin_count),
        static_cast<unsigned long long>(sequential.comm.model_sync_count),
        static_cast<unsigned long long>(sequential.comm.subtree_sync_count));
    return;
  }
  for (const TrainResult* result : {&sequential, &parallel}) {
    EXPECT_EQ(result->comm.bytes_total, totals.bytes_total) << name;
    EXPECT_EQ(result->comm.retries, totals.retries) << name;
    EXPECT_EQ(result->comm.dropped_messages, totals.dropped_messages) << name;
    EXPECT_EQ(result->rejoin_count, totals.rejoin_count) << name;
    if (depth_seconds != nullptr) {
      EXPECT_NEAR(result->comm.SecondsAtDepth(0), depth_seconds->depth0,
                  1e-9 * std::max(1.0, depth_seconds->depth0))
          << name;
      EXPECT_NEAR(result->comm.SecondsAtDepth(1), depth_seconds->depth1,
                  1e-9 * std::max(1.0, depth_seconds->depth1))
          << name;
    }
  }
}

const SynthImageData& SharedMnistLike() {
  static const SynthImageData data = SmallMnistLike();
  return data;
}

TrainResult RunMlp(const TrainerConfig& config, const AlgorithmConfig& algo) {
  const SynthImageData& data = SharedMnistLike();
  auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto policy = MakeSyncPolicy(algo, trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  return std::move(result).value();
}

// K=4 plain SGD for the FedAvg goldens.
TrainerConfig FedAvgConfig(bool parallel) {
  TrainerConfig config = MlpConfig(4);
  config.local_optimizer = OptimizerConfig::Sgd(0.05f);
  config.sync_compression = CompressionConfig::TopKQuantize(0.1, 8);
  config.parallel_workers = parallel;
  return config;
}

const GoldenPoint kMlpCodecLinearFda[] = {
    {20, 0.4140625, 0.59375, 7056ull, 1ull, 0.20010600800000003},
    {40, 0.4921875, 0.6640625, 14112ull, 2ull, 0.40021201600000017},
    {60, 0.71875, 0.703125, 27584ull, 4ull, 0.6003239405714289},
};
const GoldenTotals kMlpCodecLinearFdaTotals = {27584ull, 0ull, 0ull, 0ull};

TEST(GoldenHistoryTest, CompressedLinearFdaSequentialAndParallel) {
  ExpectRunGolden(
      "MlpCodecLinearFda",
      [](bool parallel) {
        TrainerConfig config = MlpConfig(4);
        config.sync_compression = CompressionConfig::TopKQuantize(0.05, 8);
        config.parallel_workers = parallel;
        return RunMlp(config, AlgorithmConfig::LinearFda(0.15));
      },
      kMlpCodecLinearFda, kMlpCodecLinearFdaTotals);
}

const GoldenPoint kMlpCodecHier3Tier[] = {
    {20, 0.1796875, 0.3203125, 39776ull, 0ull, 0.29203182080000012},
    {40, 0.3359375, 0.5, 362192ull, 0ull, 0.71429002240000039},
    {60, 0.65625, 0.640625, 598088ull, 1ull, 1.2515208383999989},
};
const GoldenTotals kMlpCodecHier3TierTotals = {598088ull, 0ull, 0ull, 0ull};

TEST(GoldenHistoryTest, CompressedHierarchicalFdaSequentialAndParallel) {
  ExpectRunGolden(
      "MlpCodecHier3Tier",
      [](bool parallel) {
        const SynthImageData& data = SharedMnistLike();
        auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
        TrainerConfig config = MlpConfig(8);
        config.topology = TopologyTree::DeviceSiteCloud(2, 2);
        config.sync_compression = CompressionConfig::TopKQuantize(0.05, 8);
        config.parallel_workers = parallel;
        DistributedTrainer trainer(factory, data.train, data.test, config);
        HierarchicalFdaConfig policy_config;
        policy_config.monitor.kind = MonitorKind::kLinear;
        policy_config.theta_by_depth = {1.2, 0.5, 0.2};
        auto policy =
            MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
        FEDRA_CHECK(policy.ok());
        auto result = trainer.Run(policy->get());
        FEDRA_CHECK(result.ok());
        return std::move(result).value();
      },
      kMlpCodecHier3Tier, kMlpCodecHier3TierTotals);
}

const GoldenPoint kMlpCodecFedAvg[] = {
    {20, 0.3359375, 0.46875, 25672ull, 2ull, 0.20001366742857146},
    {40, 0.5, 0.625, 64180ull, 5ull, 0.40003416857142876},
    {60, 0.78125, 0.75, 89852ull, 7ull, 0.60004783600000033},
};
const GoldenTotals kMlpCodecFedAvgTotals = {89852ull, 0ull, 0ull, 0ull};

TEST(GoldenHistoryTest, CompressedFedAvgSequentialAndParallel) {
  ExpectRunGolden(
      "MlpCodecFedAvg",
      [](bool parallel) {
        return RunMlp(FedAvgConfig(parallel), AlgorithmConfig::FedAvg(1));
      },
      kMlpCodecFedAvg, kMlpCodecFedAvgTotals);
}

const GoldenPoint kMlpCodecFedAvgChurnLoss[] = {
    {20, 0.2734375, 0.375, 266347ull, 2ull, 0.24011304957142862},
    {40, 0.34375, 0.4453125, 500604ull, 5ull, 0.48021651485714306},
    {60, 0.546875, 0.515625, 818295ull, 7ull, 0.68032689928571466},
};
const GoldenTotals kMlpCodecFedAvgChurnLossTotals = {818295ull, 8ull, 1ull,
                                                     29ull};

TEST(GoldenHistoryTest, CompressedFedAvgChurnAndLossSequentialAndParallel) {
  ExpectRunGolden(
      "MlpCodecFedAvgChurnLoss",
      [](bool parallel) {
        TrainerConfig config = FedAvgConfig(parallel);
        config.faults = FaultConfig::Churn(6.0, 2.0);
        config.faults.message_loss_prob = 0.2;
        return RunMlp(config, AlgorithmConfig::FedAvg(1));
      },
      kMlpCodecFedAvgChurnLoss, kMlpCodecFedAvgChurnLossTotals);
}

const GoldenPoint kMlpAsyncChurnLoss[] = {
    {10, 0.15625, 0.28125, 128664ull, 0ull, 0.12999999999999998},
    {20, 0.453125, 0.53125, 308632ull, 1ull, 0.24001600228571435},
    {30, 0.453125, 0.609375, 360240ull, 1ull, 0.35001600228571444},
    {40, 0.5234375, 0.6796875, 488864ull, 1ull, 0.50001600228571452},
    {50, 0.625, 0.625, 591792ull, 2ull, 0.62003200457142893},
};
const GoldenTotals kMlpAsyncChurnLossTotals = {591792ull, 37ull, 0ull, 18ull};

TEST(GoldenHistoryTest, AsyncFdaUnderChurnAndLoss) {
  ExpectRunGolden(
      "MlpAsyncChurnLoss",
      [](bool parallel) {
        const SynthImageData& data = SharedMnistLike();
        auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
        TrainerConfig config = MlpConfig(3);
        config.eval_every_steps = 10;
        config.straggler = StragglerModel::None(0.01);
        config.faults = FaultConfig::Churn(8.0, 2.0);
        config.faults.message_loss_prob = 0.2;
        config.parallel_workers = parallel;
        AsyncFdaConfig async_config;
        async_config.theta = 0.5;
        async_config.monitor.kind = MonitorKind::kLinear;
        async_config.max_total_worker_steps = 150;
        DistributedTrainer trainer(factory, data.train, data.test, config);
        auto result = trainer.RunAsync(async_config);
        FEDRA_CHECK(result.ok());
        return std::move(result).value();
      },
      kMlpAsyncChurnLoss, kMlpAsyncChurnLossTotals);
}

// ---------------------------------------------------------------------------
// Two-tier edge->cloud runs and the q8 / q4 / top-k codec presets, pinned
// with their per-depth time split. Captured with FEDRA_GOLDEN_PRINT=1 while
// two-tier networks and single-codec presets still had config surfaces of
// their own; the TopologyTree and stage-pipeline forms reproduce them.

// Each worker is persistently 4x slow with probability 0.3.
StragglerModel EdgeStragglers() {
  StragglerModel straggler = StragglerModel::None(0.01);
  straggler.slow_worker_prob = 0.3;
  straggler.slow_factor = 4.0;
  return straggler;
}

const GoldenPoint kMlpTwoTierStragglers[] = {
    {20, 0.5078125, 0.703125, 1080464ull, 3ull, 1.2869514112},
    {40, 0.7734375, 0.8203125, 1801520ull, 5ull, 2.5515884160000017},
    {60, 0.9453125, 0.90625, 2522576ull, 7ull, 3.816225420800003},
};
const GoldenTotals kMlpTwoTierStragglersTotals = {2522576ull, 0ull, 0ull, 0ull};
const GoldenDepthSeconds kMlpTwoTierStragglersDepths =
    {1.3457658880000014, 0.070459532799999947};

TEST(GoldenHistoryTest, TwoTierStragglersSequentialAndParallel) {
  ExpectRunGolden(
      "MlpTwoTierStragglers",
      [](bool parallel) {
        TrainerConfig config = MlpConfig(8);
        config.topology = TopologyTree::EdgeCloud(2);
        config.straggler = EdgeStragglers();
        config.parallel_workers = parallel;
        return RunMlp(config, AlgorithmConfig::LinearFda(0.15));
      },
      kMlpTwoTierStragglers, kMlpTwoTierStragglersTotals,
      &kMlpTwoTierStragglersDepths);
}

const GoldenPoint kMlpTwoTierSlowCluster[] = {
    {20, 0.5078125, 0.703125, 1080464ull, 3ull, 0.72251411199999982},
    {40, 0.7734375, 0.8203125, 1801520ull, 5ull, 1.4108841599999995},
    {60, 0.9453125, 0.90625, 2522576ull, 7ull, 2.0992542079999987},
};
const GoldenTotals kMlpTwoTierSlowClusterTotals =
    {2522576ull, 0ull, 0ull, 0ull};
const GoldenDepthSeconds kMlpTwoTierSlowClusterDepths =
    {1.3457658880000014, 0.15348832000000021};

TEST(GoldenHistoryTest, TwoTierSlowClusterSequentialAndParallel) {
  ExpectRunGolden(
      "MlpTwoTierSlowCluster",
      [](bool parallel) {
        TrainerConfig config = MlpConfig(8);
        // EdgeCloud(2) with cluster 1's edge link 100x slower.
        TopologyNode root;
        root.link = NetworkModel::Federated();
        root.children.resize(2);
        for (TopologyNode& cluster : root.children) {
          cluster.link = NetworkModel::EdgeLan();
        }
        root.children[1].link.bandwidth_bytes_per_sec /= 100.0;
        config.topology = TopologyTree(root);
        config.parallel_workers = parallel;
        return RunMlp(config, AlgorithmConfig::LinearFda(0.15));
      },
      kMlpTwoTierSlowCluster, kMlpTwoTierSlowClusterTotals,
      &kMlpTwoTierSlowClusterDepths);
}

template <size_t N>
void ExpectCodecPresetGolden(const char* name, const CompressionConfig& codec,
                             const GoldenPoint (&golden)[N],
                             const GoldenTotals& totals,
                             const GoldenDepthSeconds& depth_seconds) {
  ExpectRunGolden(
      name,
      [&codec](bool parallel) {
        TrainerConfig config = MlpConfig(4);
        config.sync_compression = codec;
        config.parallel_workers = parallel;
        return RunMlp(config, AlgorithmConfig::LinearFda(0.15));
      },
      golden, totals, &depth_seconds);
}

const GoldenPoint kMlpQuantize8[] = {
    {20, 0.4921875, 0.671875, 52016ull, 2ull, 0.2001174308571429},
    {40, 0.78125, 0.8046875, 104032ull, 4ull, 0.40023486171428591},
    {60, 0.9375, 0.8984375, 156048ull, 6ull, 0.60035229257142886},
};
const GoldenTotals kMlpQuantize8Totals = {156048ull, 0ull, 0ull, 0ull};
const GoldenDepthSeconds kMlpQuantize8Depths = {0.00035229257142857116, 0.0};

TEST(GoldenHistoryTest, Quantize8PresetSequentialAndParallel) {
  ExpectCodecPresetGolden("MlpQuantize8", CompressionConfig::Quantize8(),
                          kMlpQuantize8, kMlpQuantize8Totals,
                          kMlpQuantize8Depths);
}

const GoldenPoint kMlpQuantize4[] = {
    {20, 0.4921875, 0.671875, 26344ull, 2ull, 0.20011376342857146},
    {40, 0.78125, 0.8046875, 52688ull, 4ull, 0.40022752685714302},
    {60, 0.9375, 0.8984375, 79032ull, 6ull, 0.60034129028571459},
};
const GoldenTotals kMlpQuantize4Totals = {79032ull, 0ull, 0ull, 0ull};
const GoldenDepthSeconds kMlpQuantize4Depths = {0.00034129028571428541, 0.0};

TEST(GoldenHistoryTest, Quantize4PresetSequentialAndParallel) {
  ExpectCodecPresetGolden("MlpQuantize4", CompressionConfig::Quantize4(),
                          kMlpQuantize4, kMlpQuantize4Totals,
                          kMlpQuantize4Depths);
}

const GoldenPoint kMlpTopK[] = {
    {20, 0.4140625, 0.59375, 10880ull, 1ull, 0.20010655428571433},
    {40, 0.4921875, 0.6640625, 21760ull, 2ull, 0.40021310857142878},
    {60, 0.71875, 0.703125, 42880ull, 4ull, 0.60032612571428601},
};
const GoldenTotals kMlpTopKTotals = {42880ull, 0ull, 0ull, 0ull};
const GoldenDepthSeconds kMlpTopKDepths = {0.00032612571428571404, 0.0};

TEST(GoldenHistoryTest, TopKPresetSequentialAndParallel) {
  ExpectCodecPresetGolden("MlpTopK", CompressionConfig::TopK(0.05), kMlpTopK,
                          kMlpTopKTotals, kMlpTopKDepths);
}

const GoldenPoint kMlpAsyncTwoTier[] = {
    {10, 0.3515625, 0.484375, 771680ull, 1ull, 0.1923144064},
    {20, 0.46875, 0.5625, 1645824ull, 2ull, 0.39462881280000012},
    {30, 0.609375, 0.703125, 1904224ull, 2ull, 0.5546288128000002},
    {40, 0.6953125, 0.75, 2521968ull, 3ull, 0.72694321920000038},
    {50, 0.7890625, 0.78125, 3293536ull, 4ull, 0.92925762560000058},
};
const GoldenTotals kMlpAsyncTwoTierTotals = {3293536ull, 118ull, 2ull, 42ull};
const GoldenDepthSeconds kMlpAsyncTwoTierDepths =
    {10.386369024000016, 1.0137971584000045};

TEST(GoldenHistoryTest, AsyncFdaTwoTierUnderChurnAndLoss) {
  ExpectRunGolden(
      "MlpAsyncTwoTier",
      [](bool parallel) {
        const SynthImageData& data = SharedMnistLike();
        auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
        TrainerConfig config = MlpConfig(8);
        config.eval_every_steps = 10;
        config.topology = TopologyTree::EdgeCloud(2);
        config.straggler = EdgeStragglers();
        config.faults = FaultConfig::Churn(8.0, 2.0);
        config.faults.message_loss_prob = 0.2;
        config.parallel_workers = parallel;
        AsyncFdaConfig async_config;
        async_config.theta = 0.5;
        async_config.monitor.kind = MonitorKind::kLinear;
        async_config.max_total_worker_steps = 400;
        DistributedTrainer trainer(factory, data.train, data.test, config);
        auto result = trainer.RunAsync(async_config);
        FEDRA_CHECK(result.ok());
        return std::move(result).value();
      },
      kMlpAsyncTwoTier, kMlpAsyncTwoTierTotals, &kMlpAsyncTwoTierDepths);
}

// ---------------------------------------------------------------------------
// Population defaults to the cohort: the fleet layer at N == K.

/// Fault chains must also agree at population == K: a churned, lossy run
/// with the default population (0, i.e. K) and one with population = K and
/// availability-weighted sampling (the sampler's fault-reading path) both
/// reproduce this golden. Captured with FEDRA_GOLDEN_PRINT=1 while the two
/// configs still ran separate resident and fleet code paths.
const GoldenPoint kMlpChurnLossFleet[] = {
    {20, 0.203125, 0.3125, 359784ull, 0ull, 0.20020639771428575},
    {40, 0.4765625, 0.6484375, 694016ull, 1ull, 0.40540914514285731},
    {60, 0.4765625, 0.515625, 1079456ull, 1ull, 0.59562420800000027},
};

TEST(GoldenHistoryTest, FleetFaultedPopulationEqualsCohortMatchesGolden) {
  for (const size_t population : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "population " << population);
    TrainerConfig config = MlpConfig(4);
    config.faults.worker_mttf_rounds = 4.0;
    config.faults.worker_mttr_rounds = 2.0;
    config.faults.message_loss_prob = 0.15;
    config.population = population;
    if (population > 0) {
      config.cohort_size = 4;
      config.cohort_schedule = CohortScheduleKind::kAvailability;
    }
    const TrainResult result =
        RunMlp(config, AlgorithmConfig::LinearFda(0.5));
    testing::ExpectCommStatsConserved(result.comm);
    ExpectHistoryMatches("MlpChurnLossFleet", result.history,
                         kMlpChurnLossFleet);
    if (GoldenPrintMode()) {
      std::printf("rejoins=%lluull bytes_total=%lluull\n",
                  static_cast<unsigned long long>(result.rejoin_count),
                  static_cast<unsigned long long>(result.comm.bytes_total));
      continue;
    }
    EXPECT_EQ(result.rejoin_count, 39ull);
    EXPECT_EQ(result.comm.bytes_total, 1079456ull);
    EXPECT_EQ(result.comm.check_in_syncs, 0ull);
  }
}

// ---------------------------------------------------------------------------
// Link outages and round deadlines: every participation mask a run builds
// from LinkUp and ApplyDeadline, on a 3-tier tree (one link entity per leaf
// group) and on a flat network (one link per worker). Step times carry
// lognormal jitter, so the 0.013 s deadline cuts their slow tail.
// Captured with FEDRA_GOLDEN_PRINT=1 while fault chains were still built
// from the topology tree directly; each run must reproduce them with
// parallel_workers off and on.

struct GoldenOutageTotals {
  uint64_t bytes_total;
  uint64_t zero_participant_rounds;
  uint64_t subtree_sync_count;
  double seconds_at_depth[3];
};

template <typename RunFn, size_t N>
void ExpectOutageGolden(const char* name, const RunFn& run,
                        const GoldenPoint (&golden)[N],
                        const GoldenOutageTotals& totals) {
  const TrainResult sequential = run(/*parallel=*/false);
  const TrainResult parallel = run(/*parallel=*/true);
  testing::ExpectCommStatsConserved(sequential.comm);
  testing::ExpectCommStatsConserved(parallel.comm);
  ExpectHistoryMatches(name, sequential.history, golden);
  ExpectHistoriesBitIdentical(sequential.history, parallel.history);
  if (GoldenPrintMode()) {
    std::printf("{%lluull, %lluull, %lluull, {%.17g, %.17g, %.17g}}\n",
                static_cast<unsigned long long>(sequential.comm.bytes_total),
                static_cast<unsigned long long>(
                    sequential.zero_participant_rounds),
                static_cast<unsigned long long>(
                    sequential.comm.subtree_sync_count),
                sequential.comm.SecondsAtDepth(0),
                sequential.comm.SecondsAtDepth(1),
                sequential.comm.SecondsAtDepth(2));
    return;
  }
  for (const TrainResult* result : {&sequential, &parallel}) {
    EXPECT_EQ(result->comm.bytes_total, totals.bytes_total) << name;
    EXPECT_EQ(result->zero_participant_rounds,
              totals.zero_participant_rounds)
        << name;
    EXPECT_EQ(result->comm.subtree_sync_count, totals.subtree_sync_count)
        << name;
    for (size_t depth = 0; depth < 3; ++depth) {
      EXPECT_NEAR(result->comm.SecondsAtDepth(depth),
                  totals.seconds_at_depth[depth],
                  1e-9 * std::max(1.0, totals.seconds_at_depth[depth]))
          << name << " depth " << depth;
    }
  }
}

// Link outages (MTTF 6, MTTR 2 rounds) and a 0.013 s deadline over jittered
// 0.01 s steps.
TrainerConfig OutageConfig(int num_workers, double link_mttf, bool parallel) {
  TrainerConfig config = MlpConfig(num_workers);
  config.straggler = StragglerModel::None(0.01);
  config.straggler.lognormal_sigma = 0.3;
  config.faults.link_mttf_rounds = link_mttf;
  config.faults.link_mttr_rounds = 2.0;
  config.faults.round_deadline_seconds = 0.013;
  config.parallel_workers = parallel;
  return config;
}

const GoldenPoint kMlpHier3TierOutages[] = {
    {20, 0.5, 0.6953125, 1541136ull, 1ull, 0.397044180091428},
    {40, 0.78125, 0.8203125, 4520224ull, 2ull, 0.8602930915482353},
    {60, 0.9375, 0.8984375, 6061216ull, 2ull, 1.195904713389196},
};
const GoldenOutageTotals kMlpHier3TierOutagesTotals = {
    6061216ull, 0ull, 77ull,
    {0.12164352, 0.12805473279999993, 0.20416437760000025}};

TEST(GoldenHistoryTest, ThreeTierLinkOutagesAndDeadline) {
  ExpectOutageGolden(
      "MlpHier3TierOutages",
      [](bool parallel) {
        const SynthImageData& data = SharedMnistLike();
        auto factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };
        TrainerConfig config = OutageConfig(8, 6.0, parallel);
        config.topology = TopologyTree::DeviceSiteCloud(2, 2);
        DistributedTrainer trainer(factory, data.train, data.test, config);
        HierarchicalFdaConfig policy_config;
        policy_config.monitor.kind = MonitorKind::kLinear;
        policy_config.theta_by_depth = {1.2, 0.5, 0.2};
        auto policy =
            MakeHierarchicalFdaPolicy(policy_config, trainer.model_dim());
        FEDRA_CHECK(policy.ok());
        auto result = trainer.Run(policy->get());
        FEDRA_CHECK(result.ok());
        return std::move(result).value();
      },
      kMlpHier3TierOutages, kMlpHier3TierOutagesTotals);
}

const GoldenPoint kMlpFlatOutages[] = {
    {20, 0.4921875, 0.6875, 77320ull, 3ull, 0.22752390286387719},
    {40, 0.765625, 0.8046875, 308816ull, 6ull, 0.45119928273210913},
    {60, 0.9296875, 0.8984375, 360376ull, 7ull, 0.68434669194144904},
};
const GoldenOutageTotals kMlpFlatOutagesTotals = {
    360376ull, 2ull, 0ull, {0.00029648228571428571, 0.0, 0.0}};

TEST(GoldenHistoryTest, FlatLinkOutagesAndDeadline) {
  ExpectOutageGolden(
      "MlpFlatOutages",
      [](bool parallel) {
        return RunMlp(OutageConfig(4, 5.0, parallel),
                      AlgorithmConfig::LinearFda(0.5));
      },
      kMlpFlatOutages, kMlpFlatOutagesTotals);
}

}  // namespace
}  // namespace fedra
