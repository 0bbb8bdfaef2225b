// WorkerArena layout/aliasing tests plus the cohort-scale proof: a
// 64-worker MLP trains against one params slab, one grads slab, and one
// shared ModelGraph (allocation and slot counts stay constant in K), and
// the slab-backed ClusterContext drives policies exactly like the old
// per-Model buffers did.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/worker_arena.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "tensor/vec_ops.h"

namespace fedra {
namespace {

// Guard-gap floats appended to each row of a slab whose rows are `row_len`
// elements long: 0 in packed Release layouts, kGuardFloats in Debug /
// sanitizer builds.
constexpr size_t GuardGap() {
  return WorkerArena::guards_enabled() ? WorkerArena::kGuardFloats : 0;
}

TEST(WorkerArenaTest, SlabLayoutIsContiguousAndStrided) {
  const size_t dim = 37;
  WorkerArena arena(5, dim, /*opt_state_slots=*/2);
  // Row stride is the packed dim plus the canary gap (if this build has
  // guards); either way the layout is one slab with constant stride.
  EXPECT_EQ(arena.row_stride(), dim + GuardGap());
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(arena.params(k), arena.params_slab() + k * arena.row_stride());
    EXPECT_EQ(arena.grads(k), arena.grads_slab() + k * arena.row_stride());
    ParameterView view = arena.view(k);
    EXPECT_EQ(view.params, arena.params(k));
    EXPECT_EQ(view.grads, arena.grads(k));
    EXPECT_EQ(view.dim, dim);
  }
  std::vector<float*> params = arena.ParamPointers();
  ASSERT_EQ(params.size(), 5u);
  for (int k = 1; k < 5; ++k) {
    // Strided rows of one slab: constant distance between workers.
    EXPECT_EQ(params[static_cast<size_t>(k)] -
                  params[static_cast<size_t>(k - 1)],
              static_cast<ptrdiff_t>(arena.row_stride()));
  }
  // Optimizer-state slices are disjoint and slots * dim (+ gap) apart.
  EXPECT_EQ(arena.opt_state(1) - arena.opt_state(0),
            static_cast<ptrdiff_t>(2 * dim + GuardGap()));
}

TEST(WorkerArenaTest, AllocationCountIsConstantInWorkerCount) {
  const size_t dim = 101;
  WorkerArena small(4, dim, 2);
  WorkerArena large(64, dim, 2);
  // params + grads + drift + opt state, regardless of K.
  EXPECT_EQ(small.allocation_count(), 4u);
  EXPECT_EQ(large.allocation_count(), 4u);
  // A stateless optimizer drops the opt slab.
  WorkerArena sgd(64, dim, 0);
  EXPECT_EQ(sgd.allocation_count(), 3u);
  EXPECT_EQ(sgd.opt_state(0), nullptr);
  // The monitor-state slab appears on demand, once.
  WorkerArena with_state(8, dim, 0);
  with_state.AllocateStateScratch(2);
  with_state.AllocateStateScratch(2);  // idempotent
  EXPECT_EQ(with_state.allocation_count(), 4u);
  EXPECT_EQ(with_state.state_size(), 2u);
  // Memory scales as slabs, not as per-worker heap blocks: params + grads
  // + drift + two Adam state slots = 5 dim-length rows per worker, plus one
  // canary gap per row (4 slab rows per worker) in guarded builds.
  EXPECT_EQ(large.total_bytes(),
            64u * (dim * 5u + 4u * GuardGap()) * sizeof(float));
}

TEST(WorkerArenaTest, WorkerSlicesDoNotAlias) {
  const size_t dim = 16;
  WorkerArena arena(3, dim, 1);
  for (int k = 0; k < 3; ++k) {
    vec::Fill(arena.params(k), dim, static_cast<float>(k + 1));
    vec::Fill(arena.grads(k), dim, static_cast<float>(10 * (k + 1)));
    vec::Fill(arena.drift(k), dim, static_cast<float>(100 * (k + 1)));
    vec::Fill(arena.opt_state(k), dim, static_cast<float>(1000 * (k + 1)));
  }
  for (int k = 0; k < 3; ++k) {
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(arena.params(k)[i], static_cast<float>(k + 1));
      EXPECT_EQ(arena.grads(k)[i], static_cast<float>(10 * (k + 1)));
      EXPECT_EQ(arena.drift(k)[i], static_cast<float>(100 * (k + 1)));
      EXPECT_EQ(arena.opt_state(k)[i], static_cast<float>(1000 * (k + 1)));
    }
  }
}

TEST(WorkerArenaTest, StateSlabBacksStatePointers) {
  WorkerArena arena(4, 8, 0);
  arena.AllocateStateScratch(3);
  std::vector<float*> states = arena.StatePointers();
  ASSERT_EQ(states.size(), 4u);
  for (int k = 1; k < 4; ++k) {
    EXPECT_EQ(states[static_cast<size_t>(k)] -
                  states[static_cast<size_t>(k - 1)],
              static_cast<ptrdiff_t>(3 + GuardGap()));
  }
  // Freshly allocated scratch is zeroed.
  for (int k = 0; k < 4; ++k) {
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(arena.state(k)[i], 0.0f);
    }
  }
}

TEST(WorkerArenaDeathTest, MismatchedStateResizeDies) {
  WorkerArena arena(2, 4, 0);
  arena.AllocateStateScratch(5);
  EXPECT_DEATH(arena.AllocateStateScratch(7), "already sized");
}

// ------------------------------------------------ debug-mode slab guards ----

// An out-of-row write must abort in guarded builds: under ASan the poisoned
// canary gap kills the write itself (use-after-poison); otherwise the next
// CheckCanaries sweep (every model sync + arena destruction) names the
// damaged slab and row. Either failure mode matches the death regex.
constexpr const char* kGuardDeathPattern = "canary smashed|AddressSanitizer";

TEST(WorkerArenaDeathTest, OutOfRowParamsWriteAborts) {
  if (!WorkerArena::guards_enabled()) {
    GTEST_SKIP() << "slab guards compiled out of plain Release builds";
  }
  EXPECT_DEATH(
      {
        WorkerArena arena(2, 8, 0);
        arena.params(0)[8] = 1.0f;  // one element past worker 0's row
        arena.CheckCanaries();
      },
      kGuardDeathPattern);
}

TEST(WorkerArenaDeathTest, OutOfRowOptStateWriteAbortsAtDestruction) {
  if (!WorkerArena::guards_enabled()) {
    GTEST_SKIP() << "slab guards compiled out of plain Release builds";
  }
  EXPECT_DEATH(
      {
        // No explicit sweep: the destructor's CheckCanaries must catch it.
        WorkerArena arena(3, 4, 2);
        arena.opt_state(1)[2 * 4 + 3] = 0.25f;  // into worker 1's gap
      },
      kGuardDeathPattern);
}

TEST(WorkerArenaDeathTest, AliasedViewSpansDie) {
  if (!WorkerArena::guards_enabled()) {
    GTEST_SKIP() << "FEDRA_DCHECK compiled out of plain Release builds";
  }
  float buffer[16] = {};
  ParameterView aliased{buffer, buffer + 4, 8};  // grads overlaps params
  EXPECT_DEATH(DcheckViewInvariants(aliased), "alias");
}

TEST(WorkerArenaTest, CleanTrafficKeepsCanariesIntact) {
  WorkerArena arena(4, 32, 1);
  arena.AllocateStateScratch(6);
  for (int k = 0; k < 4; ++k) {
    vec::Fill(arena.params(k), 32, 1.0f);
    vec::Fill(arena.grads(k), 32, 2.0f);
    vec::Fill(arena.drift(k), 32, 3.0f);
    vec::Fill(arena.opt_state(k), 32, 4.0f);
    vec::Fill(arena.state(k), 6, 5.0f);
  }
  arena.CheckCanaries();  // in-row writes never touch a guard gap
}

// ------------------------------------------------- cohort-scale proof ----

SynthImageData TinyData() {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 256;
  config.num_test = 64;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  FEDRA_CHECK(data.ok());
  return std::move(data).value();
}

TEST(WorkerCohortTest, SixtyFourWorkersShareOneGraph) {
  SynthImageData data = TinyData();
  TrainerConfig config;
  config.num_workers = 64;
  config.batch_size = 4;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 3;
  config.max_steps = 2;
  config.eval_every_steps = 2;
  config.eval_subset = 32;
  DistributedTrainer trainer([] { return zoo::Mlp(16 * 16, {24}, 10); },
                             data.train, data.test, config);
  auto policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5),
                               trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_steps, 2u);
  // One shared graph executed all 64 workers: sequential execution leases
  // at most one worker slot beyond the eval model's persistent slot.
  EXPECT_LE(trainer.shared_model().graph().num_slots(), 2u);
}

// ------------------------------------------- slab-backed policy parity ----

TEST(WorkerCohortTest, SynchronizeModelsAveragesSlabRows) {
  // Drive ClusterContext::SynchronizeModels directly over an arena: after
  // the sync every worker row of the params slab holds the elementwise
  // mean, and the sync snapshot rotates.
  const size_t dim = 1000;
  const int workers_n = 3;
  WorkerArena arena(workers_n, dim, 0);
  std::vector<WorkerState> workers(workers_n);
  for (int k = 0; k < workers_n; ++k) {
    workers[static_cast<size_t>(k)].view = arena.view(k);
    workers[static_cast<size_t>(k)].drift = arena.drift(k);
    vec::Fill(arena.params(k), dim, static_cast<float>(k));  // 0, 1, 2
  }
  SimNetwork network(workers_n, NetworkModel::Hpc(),
                     AllReduceAlgorithm::kFlat);
  FaultInjector faults(FaultConfig::None(), workers_n, /*seed=*/1);
  std::vector<float> sync_params(dim, -1.0f);
  std::vector<float> prev_sync_params(dim, -2.0f);
  ClusterContext ctx;
  ctx.workers = &workers;
  ctx.arena = &arena;
  ctx.network = &network;
  ctx.dim = dim;
  ctx.sync_params = &sync_params;
  ctx.prev_sync_params = &prev_sync_params;
  ctx.faults = &faults;
  ctx.participation.assign(workers_n, 1);

  ctx.SynchronizeModels();
  for (int k = 0; k < workers_n; ++k) {
    for (size_t i = 0; i < dim; ++i) {
      ASSERT_EQ(arena.params(k)[i], 1.0f) << "worker " << k;
    }
  }
  EXPECT_EQ(sync_params[0], 1.0f);
  EXPECT_EQ(prev_sync_params[0], -1.0f);  // rotated
  EXPECT_EQ(ctx.sync_count, 1u);
  EXPECT_EQ(network.stats().model_sync_count, 1u);
}

TEST(WorkerCohortTest, AllocateWorkerStatesWiresArenaSlices) {
  const size_t dim = 64;
  WorkerArena arena(4, dim, 0);
  std::vector<WorkerState> workers(4);
  for (int k = 0; k < 4; ++k) {
    workers[static_cast<size_t>(k)].view = arena.view(k);
  }
  ClusterContext ctx;
  ctx.workers = &workers;
  ctx.arena = &arena;
  ctx.dim = dim;
  ctx.AllocateWorkerStates(7);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(workers[static_cast<size_t>(k)].state, arena.state(k));
  }
  EXPECT_EQ(ctx.arena->StatePointers()[2], arena.state(2));
}

}  // namespace
}  // namespace fedra
