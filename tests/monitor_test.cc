// Variance-monitor tests: the paper's central mathematical claims.
//
//  - Eq. (4) identity: Var(w) == mean ||u_k||^2 - ||u_bar||^2, verified by
//    the Exact monitor against the definition Eq. (2).
//  - Theorem 3.2: LinearFDA's H over-estimates the variance ALWAYS.
//  - Theorem 3.1: SketchFDA's H over-estimates with confidence ~(1-delta).
//  - LinearFDA's heuristic xi update from the last two synchronized models.
//  - One monitor shared by concurrent callers on distinct rows reproduces a
//    serial pass bit for bit (the FDA policies' pooled state pass).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/variance_monitor.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"

namespace fedra {
namespace {

/// Var(w) by the definition Eq. (2): (1/K) sum ||w_k - w_bar||^2.
double VarianceByDefinition(const std::vector<std::vector<float>>& models) {
  const size_t dim = models[0].size();
  std::vector<double> mean(dim, 0.0);
  for (const auto& w : models) {
    for (size_t i = 0; i < dim; ++i) {
      mean[i] += w[i];
    }
  }
  for (auto& m : mean) {
    m /= static_cast<double>(models.size());
  }
  double var = 0.0;
  for (const auto& w : models) {
    for (size_t i = 0; i < dim; ++i) {
      const double diff = w[i] - mean[i];
      var += diff * diff;
    }
  }
  return var / static_cast<double>(models.size());
}

struct Cohort {
  std::vector<std::vector<float>> models;  // w_k
  std::vector<float> sync_point;           // w_t0
  std::vector<std::vector<float>> drifts;  // u_k = w_k - w_t0
};

Cohort MakeCohort(int num_workers, size_t dim, double drift_scale,
                  uint64_t seed) {
  Rng rng(seed);
  Cohort cohort;
  cohort.sync_point.resize(dim);
  for (auto& x : cohort.sync_point) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  // A shared direction plus per-worker noise mimics real training drifts.
  std::vector<float> shared(dim);
  for (auto& x : shared) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  for (int k = 0; k < num_workers; ++k) {
    std::vector<float> w = cohort.sync_point;
    std::vector<float> u(dim);
    for (size_t i = 0; i < dim; ++i) {
      u[i] = static_cast<float>(
          drift_scale * (0.6 * shared[i] + rng.NextGaussian(0.0f, 0.8f)));
      w[i] += u[i];
    }
    cohort.models.push_back(std::move(w));
    cohort.drifts.push_back(std::move(u));
  }
  return cohort;
}

/// Runs a monitor over a cohort: compute per-worker states, average them
/// (what AllReduce produces), return H(S_bar).
double MonitorEstimate(VarianceMonitor* monitor, const Cohort& cohort) {
  const size_t state_size = monitor->StateSize();
  std::vector<float> avg_state(state_size, 0.0f);
  std::vector<float> state(state_size);
  const float inv_k = 1.0f / static_cast<float>(cohort.drifts.size());
  for (const auto& drift : cohort.drifts) {
    monitor->ComputeLocalState(drift.data(), state.data());
    vec::Axpy(inv_k, state.data(), avg_state.data(), state_size);
  }
  return monitor->EstimateVariance(avg_state.data());
}

// -------------------------------------------------------------- ExactFDA

class ExactMonitorIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, size_t, double>> {};

TEST_P(ExactMonitorIdentityTest, MatchesDefinitionEquation4) {
  const auto [num_workers, dim, scale] = GetParam();
  Cohort cohort = MakeCohort(num_workers, dim, scale,
                             17 * static_cast<uint64_t>(num_workers) + dim);
  ExactVarianceMonitor monitor(dim);
  const double by_identity = MonitorEstimate(&monitor, cohort);
  const double by_definition = VarianceByDefinition(cohort.models);
  // float32 states + double math: allow small relative error.
  EXPECT_NEAR(by_identity, by_definition,
              1e-3 * std::max(1.0, by_definition));
}

INSTANTIATE_TEST_SUITE_P(
    WorkersDimsScales, ExactMonitorIdentityTest,
    ::testing::Combine(::testing::Values(2, 5, 16),
                       ::testing::Values<size_t>(16, 257, 2048),
                       ::testing::Values(0.1, 1.0, 10.0)));

TEST(ExactMonitorTest, ZeroDriftsGiveZeroVariance) {
  const size_t dim = 64;
  ExactVarianceMonitor monitor(dim);
  Cohort cohort = MakeCohort(4, dim, 0.0, 3);
  EXPECT_NEAR(MonitorEstimate(&monitor, cohort), 0.0, 1e-9);
}

TEST(ExactMonitorTest, StateSizeIsDimPlusOne) {
  ExactVarianceMonitor monitor(100);
  EXPECT_EQ(monitor.StateSize(), 101u);
}

TEST(ExactMonitorTest, IdenticalDriftsGiveZeroVariance) {
  // If every worker moves identically, models agree: variance is 0 even
  // though drifts are large.
  const size_t dim = 128;
  Rng rng(5);
  std::vector<float> drift(dim);
  for (auto& x : drift) {
    x = rng.NextGaussian(0.0f, 3.0f);
  }
  Cohort cohort;
  for (int k = 0; k < 6; ++k) {
    cohort.drifts.push_back(drift);
  }
  ExactVarianceMonitor monitor(dim);
  EXPECT_NEAR(MonitorEstimate(&monitor, cohort), 0.0, 1e-4);
}

// -------------------------------------------------------------- LinearFDA

class LinearOverestimateTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(LinearOverestimateTest, AlwaysOverestimates) {
  const auto [num_workers, dim] = GetParam();
  for (uint64_t trial = 0; trial < 20; ++trial) {
    Cohort cohort = MakeCohort(num_workers, dim, 1.0, 100 + trial);
    LinearVarianceMonitor monitor(dim);
    // Try both the zero-xi (pre-sync) monitor and one with a random unit xi
    // installed through the public OnSynchronized path.
    const double h_zero_xi = MonitorEstimate(&monitor, cohort);
    const double truth = VarianceByDefinition(cohort.models);
    EXPECT_GE(h_zero_xi, truth - 1e-3 * std::max(1.0, truth))
        << "Thm 3.2 violated (zero xi), trial " << trial;

    // Install xi = normalize(w_new - w_prev) for random w's.
    Rng rng(200 + trial);
    std::vector<float> w_new(dim);
    std::vector<float> w_prev(dim);
    for (size_t i = 0; i < dim; ++i) {
      w_new[i] = rng.NextGaussian(0.0f, 1.0f);
      w_prev[i] = rng.NextGaussian(0.0f, 1.0f);
    }
    monitor.OnSynchronized(w_new.data(), w_prev.data());
    const double h_xi = MonitorEstimate(&monitor, cohort);
    EXPECT_GE(h_xi, truth - 1e-3 * std::max(1.0, truth))
        << "Thm 3.2 violated (heuristic xi), trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndDims, LinearOverestimateTest,
    ::testing::Combine(::testing::Values(2, 8, 32),
                       ::testing::Values<size_t>(8, 128, 1024)));

TEST(LinearMonitorTest, StateSizeIsTwo) {
  LinearVarianceMonitor monitor(1000);
  EXPECT_EQ(monitor.StateSize(), 2u);
}

TEST(LinearMonitorTest, XiBecomesUnitVectorAfterSync) {
  const size_t dim = 64;
  LinearVarianceMonitor monitor(dim);
  Rng rng(7);
  std::vector<float> w_new(dim);
  std::vector<float> w_prev(dim);
  for (size_t i = 0; i < dim; ++i) {
    w_new[i] = rng.NextGaussian(0.0f, 1.0f);
    w_prev[i] = rng.NextGaussian(0.0f, 1.0f);
  }
  monitor.OnSynchronized(w_new.data(), w_prev.data());
  EXPECT_NEAR(vec::Norm(monitor.xi().data(), dim), 1.0, 1e-5);
  // xi is parallel to w_new - w_prev.
  std::vector<float> diff(dim);
  vec::Sub(w_new.data(), w_prev.data(), diff.data(), dim);
  const double cos = vec::Dot(monitor.xi().data(), diff.data(), dim) /
                     vec::Norm(diff.data(), dim);
  EXPECT_NEAR(cos, 1.0, 1e-5);
}

TEST(LinearMonitorTest, IdenticalSyncsResetXiToZero) {
  const size_t dim = 16;
  LinearVarianceMonitor monitor(dim);
  std::vector<float> w(dim, 1.0f);
  monitor.OnSynchronized(w.data(), w.data());
  EXPECT_NEAR(vec::Norm(monitor.xi().data(), dim), 0.0, 1e-9);
}

TEST(LinearMonitorTest, PerfectXiGivesExactEstimate) {
  // When all drifts are parallel to xi, |<xi, u_bar>|^2 == ||u_bar||^2 and
  // the estimate is exact (no over-estimation slack).
  const size_t dim = 32;
  Rng rng(8);
  std::vector<float> direction(dim);
  for (auto& x : direction) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  const double norm = vec::Norm(direction.data(), dim);
  for (auto& x : direction) {
    x = static_cast<float>(x / norm);
  }
  Cohort cohort;
  std::vector<double> alphas = {0.5, 1.5, -0.7, 2.0};
  for (double alpha : alphas) {
    std::vector<float> u(dim);
    for (size_t i = 0; i < dim; ++i) {
      u[i] = static_cast<float>(alpha * direction[i]);
    }
    cohort.drifts.push_back(std::move(u));
  }
  LinearVarianceMonitor monitor(dim);
  // Install xi = direction via OnSynchronized(prev + direction, prev).
  std::vector<float> w_prev(dim, 0.0f);
  monitor.OnSynchronized(direction.data(), w_prev.data());
  // True variance of the alpha-scaled points along a unit direction:
  // mean(alpha^2) - mean(alpha)^2.
  double mean_a = 0.0;
  double mean_a2 = 0.0;
  for (double a : alphas) {
    mean_a += a / alphas.size();
    mean_a2 += a * a / alphas.size();
  }
  const double truth = mean_a2 - mean_a * mean_a;
  EXPECT_NEAR(MonitorEstimate(&monitor, cohort), truth, 1e-4);
}

// -------------------------------------------------------------- SketchFDA

TEST(SketchMonitorTest, StateSizeMatchesSketch) {
  SketchVarianceMonitor monitor(5000, 5, 250, 1);
  EXPECT_EQ(monitor.StateSize(), 1u + 5u * 250u);
}

TEST(SketchMonitorTest, OverestimatesWithHighConfidence) {
  // Thm 3.1: H >= Var with probability >= 1 - delta. Count violations over
  // independent hash families.
  const size_t dim = 1024;
  const int trials = 40;
  int violations = 0;
  for (int t = 0; t < trials; ++t) {
    Cohort cohort = MakeCohort(6, dim, 1.0, 300 + static_cast<uint64_t>(t));
    SketchVarianceMonitor monitor(dim, 5, 250,
                                  900 + static_cast<uint64_t>(t));
    const double h = MonitorEstimate(&monitor, cohort);
    const double truth = VarianceByDefinition(cohort.models);
    if (h < truth * (1.0 - 1e-6)) {
      ++violations;
    }
  }
  // delta ~ 5%; allow up to 15% of trials to be unlucky.
  EXPECT_LE(violations, 6);
}

TEST(SketchMonitorTest, EstimateIsCloseToTruth) {
  // Beyond over-estimation, the estimate should be *tight* — within a few
  // eps of the truth — which is what makes SketchFDA sync rarely.
  const size_t dim = 4096;
  Cohort cohort = MakeCohort(8, dim, 1.0, 4242);
  SketchVarianceMonitor monitor(dim, 5, 250, 31337);
  const double h = MonitorEstimate(&monitor, cohort);
  const double truth = VarianceByDefinition(cohort.models);
  EXPECT_LT(std::fabs(h - truth), 0.35 * truth);
}

TEST(SketchMonitorTest, TighterThanLinearOnAverage) {
  // The paper: SketchFDA's estimator is provably accurate and expected to
  // trigger fewer syncs; Linear overestimates by more. Compare average
  // over-estimation slack on shared-direction drifts where xi is stale.
  const size_t dim = 2048;
  double sketch_slack = 0.0;
  double linear_slack = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    Cohort cohort = MakeCohort(6, dim, 1.0, 500 + static_cast<uint64_t>(t));
    const double truth = VarianceByDefinition(cohort.models);
    SketchVarianceMonitor sketch(dim, 5, 250,
                                 1000 + static_cast<uint64_t>(t));
    LinearVarianceMonitor linear(dim);  // zero xi: maximally conservative
    sketch_slack += MonitorEstimate(&sketch, cohort) - truth;
    linear_slack += MonitorEstimate(&linear, cohort) - truth;
  }
  EXPECT_LT(sketch_slack, linear_slack);
}

// ------------------------------------------------------------ concurrency

TEST(MonitorConcurrencyTest, SharedMonitorMatchesSerialPassBitForBit) {
  // The FDA policies compute every worker's state on the thread pool
  // against one monitor. Four threads share one monitor of each kind, each
  // running the fused dense path and the masked sparse path on its own
  // rows, pass after pass, all threads released together. Every pass must
  // reproduce the serial pass bit for bit — a monitor that kept per-call
  // scratch of its own would corrupt the rows of overlapping calls.
  constexpr int kThreads = 4;
  constexpr int kRowsPerThread = 3;
  constexpr int kRows = kThreads * kRowsPerThread;
  constexpr int kPasses = 8;
  constexpr size_t kDim = 1 << 16;
  const Cohort cohort = MakeCohort(kRows, kDim, 0.5, 4711);
  // Row r keeps every (r % 5 + 2)-th coordinate: ascending, row-specific.
  std::vector<std::vector<uint32_t>> kept(kRows);
  for (int r = 0; r < kRows; ++r) {
    const auto step = static_cast<size_t>(r % 5 + 2);
    for (size_t j = static_cast<size_t>(r % 3); j < kDim; j += step) {
      kept[static_cast<size_t>(r)].push_back(static_cast<uint32_t>(j));
    }
  }
  std::vector<std::unique_ptr<VarianceMonitor>> monitors;
  monitors.push_back(std::make_unique<ExactVarianceMonitor>(kDim));
  monitors.push_back(std::make_unique<SketchVarianceMonitor>(kDim, 5, 250, 9));
  auto linear = std::make_unique<LinearVarianceMonitor>(kDim);
  linear->OnSynchronized(cohort.models[0].data(), cohort.sync_point.data());
  ASSERT_GT(vec::SquaredNorm(linear->xi().data(), kDim), 0.5);
  monitors.push_back(std::move(linear));

  for (const auto& owned : monitors) {
    const VarianceMonitor& monitor = *owned;
    SCOPED_TRACE(monitor.name());
    const size_t state_size = monitor.StateSize();
    // One row's outputs: drift, dense state, masked state.
    struct Rows {
      std::vector<float> drift, dense, sparse;
      explicit Rows(size_t dim, size_t states)
          : drift(dim), dense(states), sparse(states) {}
      bool operator==(const Rows& other) const {
        auto same = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
          return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                 0;
        };
        return same(drift, other.drift) && same(dense, other.dense) &&
               same(sparse, other.sparse);
      }
    };
    auto run_row = [&](int r, Rows* out) {
      const auto& keep = kept[static_cast<size_t>(r)];
      monitor.ComputeDriftAndState(cohort.models[static_cast<size_t>(r)].data(),
                                   cohort.sync_point.data(), out->drift.data(),
                                   out->dense.data());
      monitor.ComputeLocalStateSparse(out->drift.data(), keep.data(),
                                      keep.size(), out->sparse.data());
    };
    std::vector<Rows> serial(kRows, Rows(kDim, state_size));
    for (int r = 0; r < kRows; ++r) {
      run_row(r, &serial[static_cast<size_t>(r)]);
    }
    std::vector<Rows> concurrent(kRows, Rows(kDim, state_size));
    std::atomic<int> mismatched_passes{0};
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int pass = 0; pass < kPasses; ++pass) {
          for (int r = t; r < kRows; r += kThreads) {
            Rows& out = concurrent[static_cast<size_t>(r)];
            run_row(r, &out);
            if (out != serial[static_cast<size_t>(r)]) {
              mismatched_passes.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(mismatched_passes.load(), 0)
        << "of " << kRows * kPasses << " row passes";
  }
}

// ---------------------------------------------------------------- factory

TEST(MonitorFactoryTest, BuildsAllKinds) {
  for (MonitorKind kind :
       {MonitorKind::kExact, MonitorKind::kSketch, MonitorKind::kLinear}) {
    MonitorConfig config;
    config.kind = kind;
    auto monitor = MakeVarianceMonitor(config, 256);
    ASSERT_TRUE(monitor.ok());
    EXPECT_EQ((*monitor)->dim(), 256u);
  }
}

TEST(MonitorFactoryTest, RejectsBadConfigs) {
  MonitorConfig config;
  config.kind = MonitorKind::kSketch;
  config.sketch_rows = 0;
  EXPECT_FALSE(MakeVarianceMonitor(config, 10).ok());
  MonitorConfig ok_config;
  EXPECT_FALSE(MakeVarianceMonitor(ok_config, 0).ok());
}

TEST(MonitorFactoryTest, RejectsSketchShapesPastTheCellField) {
  // The hash family keeps a cell index in 31 bits beside the sign bit, so
  // a sketch holds at most 2^31 cells. Validate rejects more, before any
  // table is built.
  MonitorConfig config;
  config.kind = MonitorKind::kSketch;
  config.sketch_rows = 1 << 16;
  config.sketch_cols = (1 << 15) + 1;
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(MakeVarianceMonitor(config, 10).ok());
  config.sketch_cols = 1 << 15;  // exactly 2^31 cells
  EXPECT_TRUE(config.Validate().ok());
}

TEST(MonitorTest, NamesMatchPaper) {
  EXPECT_EQ(ExactVarianceMonitor(8).name(), "ExactFDA");
  EXPECT_EQ(SketchVarianceMonitor(8, 2, 4, 1).name(), "SketchFDA");
  EXPECT_EQ(LinearVarianceMonitor(8).name(), "LinearFDA");
}

}  // namespace
}  // namespace fedra
