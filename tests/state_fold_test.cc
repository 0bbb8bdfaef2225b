// The FDA local state folded into the optimizer step (VarianceMonitor::
// FoldBlock driven by Optimizer::Step's per-block callback) must have the
// bits of the unfused pass it replaces: Step, then ComputeDriftAndState.
//
//   * Kernel level: every SIMD level, model sizes that straddle the
//     optimizer's 1,024-float blocks and the sketch's 4,096-coordinate
//     blocks, every dense monitor and every optimizer kind, on inputs with
//     signed zeros, denormals, infinities and NaNs planted at chosen
//     positions. Params, optimizer rows and state compare byte for byte.
//   * Trainer level: Run folds the state of every worker that steps; a
//     policy that checks each participant's row against the dense pass at
//     every round, and a run that recomputes every state with the dense
//     pass (ClusterContext::states_folded cleared), give the same history
//     and the same FNV-1a hash of the final params, over flat and
//     hierarchical topologies with deadline-cut and link-down workers.
//     RunAsync has no policy to recompute the states; its folded runs are
//     pinned by golden_history_test's Async*UnderChurnAndLoss goldens,
//     captured from the unfused trainer, and guard builds compare every
//     folded state with the dense pass inside WorkerStep.
//
// CMake registers this binary twice, at FEDRA_NUM_THREADS=1 and 4.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "core/variance_monitor.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "opt/optimizer.h"
#include "sim/topology_tree.h"
#include "tensor/simd_dispatch.h"
#include "util/rng.h"

namespace fedra {
namespace {

// Byte equality of n floats, NaN payloads included.
::testing::AssertionResult SameBytes(const float* got, const float* want,
                                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": got 0x" << std::hex
             << std::bit_cast<uint32_t>(got[i]) << ", want 0x"
             << std::bit_cast<uint32_t>(want[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t Fnv1a(const float* data, size_t n) {
  uint64_t hash = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

// Restores the level resolution picked, so other suites in the binary see
// an unchanged dispatch state.
class StateFoldTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = simd::ActiveLevel(); }
  void TearDown() override { simd::SetLevel(saved_level_); }

  simd::Level saved_level_;
};

// ------------------------------------------------------------ kernel level --

struct MonitorCase {
  const char* name;
  MonitorKind kind;
  bool xi_valid;  // LinearFDA only: synchronize twice first
};

const MonitorCase kMonitorCases[] = {
    {"linear_xi", MonitorKind::kLinear, true},
    {"linear_zero_xi", MonitorKind::kLinear, false},
    {"sketch", MonitorKind::kSketch, false},
    {"exact", MonitorKind::kExact, false},
};

struct OptimizerCase {
  const char* name;
  OptimizerConfig config;
};

std::vector<OptimizerCase> OptimizerCases() {
  return {{"adam", OptimizerConfig::Adam(0.01f)},
          {"adamw", OptimizerConfig::AdamW(0.01f, 0.05f)},
          {"sgd", OptimizerConfig::Sgd(0.05f)},
          {"sgd_decay", OptimizerConfig::Sgd(0.05f, 0.01f)},
          {"momentum", OptimizerConfig::SgdMomentum(0.05f, 0.9f, false, 0.01f)},
          {"nesterov", OptimizerConfig::SgdMomentum(0.05f, 0.9f, true)}};
}

// One kind of special value per case, planted in the params, the anchor
// and the gradients at different positions: the block edges of the
// optimizer (1,024) and the sketch (4,096), both ends, and a few inside.
// One kind at a time keeps a single NaN payload in flight, so a sum that
// meets two NaNs cannot depend on its operand order.
struct SpecialCase {
  const char* name;
  float values[2];
};

const SpecialCase kSpecialCases[] = {
    {"none", {0.0f, 0.0f}},
    {"signed_zeros", {0.0f, -0.0f}},
    {"denormals", {1e-40f, -3e-39f}},
    {"infinities", {std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}},
    {"nan", {std::numeric_limits<float>::quiet_NaN(),
             std::numeric_limits<float>::quiet_NaN()}},
};

void Plant(const SpecialCase& special, size_t offset, std::vector<float>* v) {
  if (std::string(special.name) == "none") {
    return;
  }
  const size_t n = v->size();
  const size_t positions[] = {0,    1,    31,   32,    1023,  1024, 1025,
                              4095, 4096, 4097, 40000, n / 2, n - 1};
  size_t i = 0;
  for (size_t pos : positions) {
    const size_t at = pos + offset;
    if (at < n) {
      (*v)[at] = special.values[i++ % 2];
    }
  }
}

std::vector<float> Gaussian(size_t n, uint64_t seed, float stddev) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.NextGaussian(0.0f, stddev);
  }
  return v;
}

std::unique_ptr<VarianceMonitor> MakeMonitor(const MonitorCase& c, size_t d) {
  MonitorConfig config;
  config.kind = c.kind;
  auto monitor = MakeVarianceMonitor(config, d);
  FEDRA_CHECK(monitor.ok());
  if (c.xi_valid) {
    const std::vector<float> older = Gaussian(d, 7, 1.0f);
    const std::vector<float> newer = Gaussian(d, 8, 1.0f);
    (*monitor)->OnSynchronized(newer.data(), older.data());
  }
  return std::move(monitor).value();
}

TEST_F(StateFoldTest, FoldedStepMatchesStepThenComputeDriftAndState) {
  constexpr size_t kDims[] = {1,    31,   33,    1023,  1025,
                              4095, 4097, 68362, 265482};
  constexpr int kSteps = 2;
  const std::vector<OptimizerCase> optimizers = OptimizerCases();
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t d : kDims) {
      SCOPED_TRACE(::testing::Message() << "d=" << d);
      std::vector<std::unique_ptr<VarianceMonitor>> monitors;
      monitors.reserve(std::size(kMonitorCases));
      for (const MonitorCase& c : kMonitorCases) {
        monitors.push_back(MakeMonitor(c, d));
      }
      for (const SpecialCase& special : kSpecialCases) {
        SCOPED_TRACE(special.name);
        std::vector<float> start = Gaussian(d, 11 + d, 1.0f);
        std::vector<float> anchor = start;
        const std::vector<float> offsets = Gaussian(d, 12 + d, 0.05f);
        for (size_t i = 0; i < d; ++i) {
          anchor[i] += offsets[i];
        }
        std::vector<std::vector<float>> grads;
        grads.reserve(kSteps);
        for (int t = 0; t < kSteps; ++t) {
          grads.push_back(Gaussian(d, 13 + d + t, 0.1f));
          Plant(special, 2, &grads.back());
        }
        Plant(special, 0, &start);
        Plant(special, 1, &anchor);
        for (const OptimizerCase& opt : optimizers) {
          SCOPED_TRACE(opt.name);
          const size_t opt_floats = opt.config.StateSlots() * d;
          for (size_t m = 0; m < monitors.size(); ++m) {
            SCOPED_TRACE(kMonitorCases[m].name);
            const VarianceMonitor& monitor = *monitors[m];
            const size_t state_size = monitor.StateSize();
            // Unfused: Step, then the dense pass into a drift row.
            std::vector<float> want_params = start;
            std::vector<float> want_opt(opt_floats);
            std::vector<float> want_state(state_size);
            std::vector<float> drift(d);
            auto want_optimizer = Optimizer::Create(
                opt.config, d, opt_floats > 0 ? want_opt.data() : nullptr);
            // Folded: the step's per-block callback; the state row starts
            // as garbage so every element must be written.
            std::vector<float> got_params = start;
            std::vector<float> got_opt(opt_floats);
            std::vector<float> got_state(state_size,
                                         std::bit_cast<float>(0x7fa5a5a5u));
            auto got_optimizer = Optimizer::Create(
                opt.config, d, opt_floats > 0 ? got_opt.data() : nullptr);
            for (int t = 0; t < kSteps; ++t) {
              SCOPED_TRACE(::testing::Message() << "step " << t);
              want_optimizer->Step(want_params.data(), grads[t].data(), d);
              monitor.ComputeDriftAndState(want_params.data(), anchor.data(),
                                           drift.data(), want_state.data());
              StateFold fold(monitor, anchor.data(), got_state.data());
              got_optimizer->Step(got_params.data(), grads[t].data(), d,
                                  &VarianceMonitor::FoldBlockFn, &fold);
              ASSERT_TRUE(SameBytes(got_params.data(), want_params.data(), d))
                  << "params";
              ASSERT_TRUE(
                  SameBytes(got_opt.data(), want_opt.data(), opt_floats))
                  << "optimizer rows";
              ASSERT_TRUE(SameBytes(got_state.data(), want_state.data(),
                                    state_size))
                  << "state";
            }
          }
        }
      }
    }
  }
}

// The carried-lane kernel itself, split at other kFoldStep multiples: the
// double <xi, u> equals the same level's dot kernel bit for bit, and
// ||u||^2 and the stored drift equal a one-block pass (vec::SubSquaredNorm),
// so carrying the lanes changes nothing. The float state rounds most
// last-bit differences of these sums away, so this compares them before
// the rounding, over many lengths and values scaled by 2^-7 to 2^7: a dot
// lane combine or tail in another order shows here.
TEST_F(StateFoldTest, DriftFoldMatchesOnePassKernelsAtEveryLevel) {
  std::vector<size_t> dims = {0, 1, 7, 31, 32, 33};
  for (size_t n = 40; n < 9000; n = n * 5 / 4 + 7) {
    dims.push_back(n);
  }
  auto spread = [](size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> v(n);
    for (float& x : v) {
      x = std::ldexp(rng.NextGaussian(0.0f, 1.0f),
                     static_cast<int>(rng.NextUniform(-8.0f, 8.0f)));
    }
    return v;
  };
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : dims) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const std::vector<float> a = spread(n, 21 + n);
      const std::vector<float> b = spread(n, 22 + n);
      const std::vector<float> xi = spread(n, 23 + n);
      std::vector<float> want_drift(n);
      const double want_sq =
          vec::SubSquaredNorm(a.data(), b.data(), want_drift.data(), n);
      const double want_dot = simd::Kernels().dot(xi.data(), want_drift.data(),
                                                  n);
      for (size_t block : {size_t{32}, size_t{96}, size_t{1024}}) {
        SCOPED_TRACE(::testing::Message() << "block=" << block);
        vec::DriftFoldLanes lanes;
        std::vector<float> drift(n);
        size_t begin = 0;
        do {
          const size_t len = std::min(block, n - begin);
          vec::DriftFoldArgs args;
          args.a = a.data() + begin;
          args.b = b.data() + begin;
          args.xi = xi.data() + begin;
          args.out = drift.data() + begin;
          args.n = len;
          args.last = begin + len == n;
          args.lanes = &lanes;
          vec::DriftFold(args);
          begin += len;
        } while (begin < n);
        ASSERT_EQ(std::bit_cast<uint64_t>(lanes.sq_sum),
                  std::bit_cast<uint64_t>(want_sq));
        ASSERT_EQ(std::bit_cast<uint64_t>(lanes.dot_sum),
                  std::bit_cast<uint64_t>(want_dot));
        ASSERT_TRUE(SameBytes(drift.data(), want_drift.data(), n));
      }
    }
  }
}

// ----------------------------------------------------------- trainer level --

SynthImageData SmallMnistLike() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 512;
  config.num_test = 256;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

const SynthImageData& SharedData() {
  static const SynthImageData data = SmallMnistLike();
  return data;
}

// Link outages (MTTF 6, MTTR 2 rounds) and a 0.013 s deadline over jittered
// 0.01 s steps: some rounds cut workers that stepped, and some lose links.
TrainerConfig FaultedConfig(const OptimizerConfig& optimizer, bool tree,
                            bool parallel) {
  TrainerConfig config;
  config.num_workers = 8;
  config.batch_size = 16;
  config.local_optimizer = optimizer;
  config.seed = 23;
  config.max_steps = 40;
  config.eval_every_steps = 10;
  config.eval_subset = 128;
  config.straggler = StragglerModel::None(0.01);
  config.straggler.lognormal_sigma = 0.3;
  config.faults.link_mttf_rounds = 6.0;
  config.faults.link_mttr_rounds = 2.0;
  config.faults.round_deadline_seconds = 0.013;
  if (tree) {
    config.topology = TopologyTree::DeviceSiteCloud(2, 2);
  }
  config.parallel_workers = parallel;
  return config;
}

std::unique_ptr<SyncPolicy> MakePolicy(MonitorKind kind, bool tree,
                                       size_t dim) {
  if (tree) {
    HierarchicalFdaConfig config;
    config.monitor.kind = kind;
    config.theta_by_depth = {1.2, 0.5, 0.2};
    auto policy = MakeHierarchicalFdaPolicy(config, dim);
    FEDRA_CHECK(policy.ok());
    return std::move(policy).value();
  }
  AlgorithmConfig algorithm = AlgorithmConfig::LinearFda(0.3);
  algorithm.monitor.kind = kind;
  auto policy = MakeSyncPolicy(algorithm, dim);
  FEDRA_CHECK(policy.ok());
  return std::move(policy).value();
}

// Checks at every round, before the wrapped policy runs, that the trainer
// folded the states and that each participant's row holds the bits of the
// dense pass over its params; with `unfused` it instead clears
// states_folded, so the wrapped policy recomputes every state itself.
class FoldProbePolicy : public SyncPolicy {
 public:
  FoldProbePolicy(std::unique_ptr<SyncPolicy> inner, bool unfused)
      : inner_(std::move(inner)), unfused_(unfused) {}

  void Initialize(ClusterContext& ctx) override { inner_->Initialize(ctx); }

  bool MaybeSync(ClusterContext& ctx) override {
    if (unfused_) {
      ctx.states_folded = false;
      return inner_->MaybeSync(ctx);
    }
    EXPECT_TRUE(ctx.states_folded);
    const VarianceMonitor& monitor = *ctx.monitor;
    std::vector<float> drift(ctx.dim);
    std::vector<float> want(monitor.StateSize());
    for (int k : ctx.ActiveWorkers()) {
      const WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
      monitor.ComputeDriftAndState(worker.view.params,
                                   ctx.sync_params->data(), drift.data(),
                                   want.data());
      EXPECT_TRUE(SameBytes(worker.state, want.data(), want.size()))
          << "round " << ctx.step << " worker " << k;
      ++checked_rows_;
    }
    return inner_->MaybeSync(ctx);
  }

  std::string name() const override { return inner_->name(); }

  size_t checked_rows() const { return checked_rows_; }

 private:
  std::unique_ptr<SyncPolicy> inner_;
  bool unfused_;
  size_t checked_rows_ = 0;
};

struct RunOutcome {
  TrainResult result;
  uint64_t params_hash = 0;
  size_t checked_rows = 0;
};

RunOutcome RunOnce(const TrainerConfig& config, MonitorKind kind, bool tree,
                   bool unfused) {
  const SynthImageData& data = SharedData();
  DistributedTrainer trainer([] { return zoo::Mlp(16 * 16, {24}, 10); },
                             data.train, data.test, config);
  FoldProbePolicy policy(MakePolicy(kind, tree, trainer.model_dim()),
                         unfused);
  auto result = trainer.Run(&policy);
  FEDRA_CHECK(result.ok()) << result.status().ToString();
  RunOutcome outcome;
  outcome.result = std::move(result).value();
  outcome.params_hash = Fnv1a(trainer.shared_model().params(),
                              trainer.shared_model().num_params());
  outcome.checked_rows = policy.checked_rows();
  return outcome;
}

void ExpectSameHistory(const std::vector<EvalPoint>& got,
                       const std::vector<EvalPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point " << i);
    EXPECT_EQ(got[i].step, want[i].step);
    EXPECT_EQ(got[i].train_accuracy, want[i].train_accuracy);
    EXPECT_EQ(got[i].test_accuracy, want[i].test_accuracy);
    EXPECT_EQ(got[i].bytes, want[i].bytes);
    EXPECT_EQ(got[i].sync_count, want[i].sync_count);
    EXPECT_EQ(got[i].sim_seconds, want[i].sim_seconds);
  }
}

TEST_F(StateFoldTest, RunMatchesTheUnfusedPassUnderDeadlinesAndOutages) {
  const MonitorKind kinds[] = {MonitorKind::kLinear, MonitorKind::kSketch,
                               MonitorKind::kExact};
  const OptimizerConfig optimizers[] = {OptimizerConfig::Adam(0.002f),
                                        OptimizerConfig::Sgd(0.05f)};
  size_t cut_or_down = 0;
  for (bool tree : {false, true}) {
    for (MonitorKind kind : kinds) {
      for (const OptimizerConfig& optimizer : optimizers) {
        for (bool parallel : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << (tree ? "tree " : "flat ") << static_cast<int>(kind)
                       << " " << optimizer.ToString()
                       << (parallel ? " parallel" : " sequential"));
          const TrainerConfig config = FaultedConfig(optimizer, tree,
                                                     parallel);
          const RunOutcome folded = RunOnce(config, kind, tree, false);
          const RunOutcome unfused = RunOnce(config, kind, tree, true);
          EXPECT_GT(folded.checked_rows, 0u);
          // Fewer rows than worker-rounds: deadlines and outages removed
          // some workers that stepped.
          cut_or_down += static_cast<size_t>(config.num_workers) *
                             config.max_steps -
                         folded.checked_rows;
          ExpectSameHistory(folded.result.history, unfused.result.history);
          EXPECT_EQ(folded.result.comm.bytes_total,
                    unfused.result.comm.bytes_total);
          EXPECT_EQ(folded.params_hash, unfused.params_hash);
        }
      }
    }
  }
  EXPECT_GT(cut_or_down, 0u);
}

}  // namespace
}  // namespace fedra
