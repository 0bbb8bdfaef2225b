// Tests for asynchronous FDA (paper §3.3, DistributedTrainer::RunAsync): it
// trains, it synchronizes on variance, it composes with compressed sync,
// and under heavy stragglers it makes faster simulated-time progress than
// BSP-style FDA because fast workers never wait.

#include <tuple>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "tests/test_util.h"

namespace fedra {
namespace {

SynthImageData SmallData() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 384;
  config.num_test = 128;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

ModelFactory MlpFactory() {
  return [] { return zoo::Mlp(16 * 16, {16}, 10); };
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.num_workers = 4;
  config.batch_size = 16;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 21;
  config.max_steps = 200;
  config.eval_subset = 128;
  config.straggler = StragglerModel::None(0.01);
  return config;
}

TEST(AsyncFdaTest, RunsAndSynchronizes) {
  SynthImageData data = SmallData();
  AsyncFdaConfig async;
  async.theta = 0.02;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 400;
  DistributedTrainer trainer(MlpFactory(), data.train, data.test,
                             BaseConfig());
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->total_syncs, 0u);
  EXPECT_GT(result->sim_seconds_to_target, 0.0);
  EXPECT_GT(result->comm.bytes_local_state, 0u);
}

TEST(AsyncFdaTest, HistoryCarriesEpochAndTrainAccuracy) {
  // Regression: async history rows used to carry epoch=0 and no train
  // accuracy, making async CSV/plots incomparable with the sync trainer's.
  SynthImageData data = SmallData();
  AsyncFdaConfig async;
  async.theta = 0.05;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 400;
  DistributedTrainer trainer(MlpFactory(), data.train, data.test,
                             BaseConfig());
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->history.empty());
  double prev_epoch = 0.0;
  for (const EvalPoint& point : result->history) {
    EXPECT_GT(point.epoch, prev_epoch);
    prev_epoch = point.epoch;
    // 384 train samples / 4 workers / batch 16 = 6 steps per local epoch.
    EXPECT_DOUBLE_EQ(point.epoch, static_cast<double>(point.step) / 6.0);
    EXPECT_GT(point.train_accuracy, 0.02);  // recorded, not default zero
  }
}

TEST(AsyncFdaTest, HugeThetaMeansNoSyncs) {
  SynthImageData data = SmallData();
  AsyncFdaConfig async;
  async.theta = 1e12;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 200;
  DistributedTrainer trainer(MlpFactory(), data.train, data.test,
                             BaseConfig());
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.bytes_model_sync, 0u);
}

TEST(AsyncFdaTest, DeterministicAcrossRuns) {
  SynthImageData data = SmallData();
  AsyncFdaConfig async;
  async.theta = 0.05;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 200;
  auto run_once = [&] {
    DistributedTrainer trainer(MlpFactory(), data.train, data.test,
                               BaseConfig());
    auto result = trainer.RunAsync(async);
    FEDRA_CHECK(result.ok());
    return *result;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.total_syncs, b.total_syncs);
  EXPECT_DOUBLE_EQ(a.sim_seconds_to_target, b.sim_seconds_to_target);
  EXPECT_EQ(a.comm.bytes_total, b.comm.bytes_total);
}

TEST(AsyncFdaTest, FasterThanBspUnderHeavyStragglers) {
  // The §3.3 claim: async lets fast workers proceed. Compare simulated
  // seconds per completed worker step against the synchronous trainer's
  // BSP barrier (which pays the slowest worker's time every step).
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.num_workers = 5;
  // Half the workers are 8x slower in expectation; Run and RunAsync derive
  // the same per-worker factors from the seed (shared fork id), so the
  // comparison is apples-to-apples.
  config.straggler = StragglerModel::Heavy(0.01);
  config.straggler.slow_worker_prob = 0.5;
  config.seed = 31;

  // BSP-style: the synchronous trainer accounts max-over-workers per step.
  TrainerConfig bsp_config = config;
  bsp_config.max_steps = 100;
  DistributedTrainer bsp_trainer(MlpFactory(), data.train, data.test,
                                 bsp_config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.05),
                               bsp_trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto bsp = bsp_trainer.Run(policy->get());
  ASSERT_TRUE(bsp.ok());
  const double bsp_seconds_per_step =
      bsp->compute_seconds / static_cast<double>(bsp->total_steps);

  AsyncFdaConfig async;
  async.theta = 0.05;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 100 * 5;
  DistributedTrainer async_trainer(MlpFactory(), data.train, data.test,
                                   config);
  auto result = async_trainer.RunAsync(async);
  ASSERT_TRUE(result.ok());
  const double async_seconds_per_step =
      result->sim_seconds_to_target /
      (static_cast<double>(result->total_worker_steps) / 5.0);

  // With ~20% of workers 8x slower, BSP pays ~8x base per step while async
  // pays ~mean; require a clear separation.
  EXPECT_LT(async_seconds_per_step, 0.7 * bsp_seconds_per_step);
}

TEST(AsyncFdaTest, ReachesAccuracyTarget) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.accuracy_target = 0.5;
  AsyncFdaConfig async;
  async.theta = 0.02;
  async.monitor.kind = MonitorKind::kSketch;
  async.monitor.sketch_cols = 64;
  async.max_total_worker_steps = 4000;
  DistributedTrainer trainer(MlpFactory(), data.train, data.test, config);
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->reached_target);
  EXPECT_GT(result->final_test_accuracy, 0.45);
  // The shared result body reports the final train accuracy too.
  EXPECT_GT(result->final_train_accuracy, 0.45);
}

// Every CommStats counter, byte, second and per-depth entry.
auto CommFields(const CommStats& c) {
  return std::make_tuple(
      c.allreduce_calls, c.broadcast_calls, c.p2p_calls, c.model_sync_count,
      c.subtree_allreduce_calls, c.subtree_sync_count, c.child_exchange_calls,
      c.retries, c.dropped_messages, c.catch_up_syncs, c.check_in_syncs,
      c.bytes_total, c.bytes_local_state, c.bytes_model_sync,
      c.bytes_model_downlink, c.comm_seconds, c.seconds_local_state,
      c.seconds_model_sync, c.seconds_retry, c.seconds_by_depth,
      c.bytes_by_depth);
}

void ExpectBitIdenticalRuns(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(a.history[i].step, b.history[i].step);
    EXPECT_EQ(a.history[i].train_accuracy, b.history[i].train_accuracy);
    EXPECT_EQ(a.history[i].test_accuracy, b.history[i].test_accuracy);
    EXPECT_EQ(a.history[i].bytes, b.history[i].bytes);
    EXPECT_EQ(a.history[i].sync_count, b.history[i].sync_count);
    EXPECT_EQ(a.history[i].sim_seconds, b.history[i].sim_seconds);
  }
  EXPECT_TRUE(CommFields(a.comm) == CommFields(b.comm));
}

// Async FDA syncs through the shared ClusterContext::SynchronizeModels, so
// a codec applies to it as it does to Run: the live workers exchange coded
// deltas and the sync bills their wire size. On a fault-free flat cohort
// every sync is K fixed-rate payloads billed as their sum, and there is no
// catch-up or check-in traffic, so the model-sync bytes are exact.
TEST(AsyncFdaTest, CompressedSyncBillsCodedWireBytes) {
  SynthImageData data = SmallData();
  AsyncFdaConfig async;
  async.theta = 0.02;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 400;
  for (const CompressionConfig& codec :
       {CompressionConfig::Quantize8(),
        CompressionConfig::TopKQuantize(0.05, 8)}) {
    SCOPED_TRACE(codec.ToString());
    TrainerConfig config = BaseConfig();
    config.sync_compression = codec;
    auto run_once = [&] {
      DistributedTrainer trainer(MlpFactory(), data.train, data.test,
                                 config);
      auto result = trainer.RunAsync(async);
      EXPECT_TRUE(result.ok()) << result.status();
      return std::move(result).value();
    };
    const TrainResult a = run_once();
    const TrainResult b = run_once();
    ExpectBitIdenticalRuns(a, b);
    testing::ExpectCommStatsConserved(a.comm);
    ASSERT_GT(a.total_syncs, 0u);
    const size_t dim = zoo::Mlp(16 * 16, {16}, 10)->num_params();
    const SyncCompressor sizer(codec, dim, config.num_workers);
    EXPECT_EQ(a.comm.bytes_model_sync,
              a.total_syncs * static_cast<uint64_t>(config.num_workers) *
                  sizer.WireBytes(dim));
  }
}

// A churned, lossy N >> K fleet with top-5% + q8: error-feedback residuals
// page through the cohort rotation at every sync and reset on rejoin.
TEST(AsyncFdaTest, CompressedChurnedFleetIsConserved) {
  SynthImageData data = SmallData();
  TrainerConfig config = BaseConfig();
  config.population = 64;
  config.sync_compression = CompressionConfig::TopKQuantize(0.05, 8);
  config.faults = FaultConfig::Churn(8.0, 2.0);
  config.faults.message_loss_prob = 0.2;
  AsyncFdaConfig async;
  async.theta = 0.02;
  async.monitor.kind = MonitorKind::kLinear;
  async.max_total_worker_steps = 400;
  DistributedTrainer trainer(MlpFactory(), data.train, data.test, config);
  auto result = trainer.RunAsync(async);
  ASSERT_TRUE(result.ok()) << result.status();
  testing::ExpectCommStatsConserved(result->comm);
  EXPECT_EQ(result->total_worker_steps, async.max_total_worker_steps);
  EXPECT_GT(result->total_syncs, 0u);
  EXPECT_GT(result->comm.check_in_syncs, 0u);
  EXPECT_GT(result->rejoin_count, 0u);
}

}  // namespace
}  // namespace fedra
