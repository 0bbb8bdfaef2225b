// ClientStateStore + CohortSampler tests: slab paging layout and free-list
// recycling, lazy drift materialization, first-touch rng stream derivation,
// the population-scale variance correction (including the bitwise bypass at
// population == cohort), leaf-group client pools under a topology tree,
// sampler determinism (same (seed, round) -> same cohort, independent of
// FEDRA_NUM_THREADS via a child-process sweep), TrainerConfig fleet
// validation, and an end-to-end fleet trainer smoke run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/client_store.h"
#include "core/fda_policy.h"
#include "core/trainer.h"
#include "core/variance_monitor.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/fault_model.h"
#include "sim/topology_tree.h"

namespace fedra {
namespace {

ClientStoreConfig SmallStoreConfig() {
  ClientStoreConfig config;
  config.population = 10;
  config.cohort_slots = 2;
  config.dim = 4;
  config.opt_state_slots = 1;
  config.seed = 3;
  config.pages_per_slab = 2;
  return config;
}

// ------------------------------------------------------------- validation --

TEST(ClientStoreConfigTest, ValidateRejectsBadShapes) {
  ClientStoreConfig config = SmallStoreConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.population = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallStoreConfig();
  config.cohort_slots = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallStoreConfig();
  config.population = 1;  // < cohort_slots
  EXPECT_FALSE(config.Validate().ok());
  config = SmallStoreConfig();
  config.dim = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallStoreConfig();
  config.pages_per_slab = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ClientStoreTrainerConfigTest, ValidateRejectsFleetMisconfigurations) {
  TrainerConfig config;
  config.num_workers = 4;
  // cohort_size without a population is not a fleet.
  config.cohort_size = 4;
  EXPECT_FALSE(config.Validate().ok());
  // Cohort larger than the population cannot be sampled.
  config.population = 3;
  config.cohort_size = 4;
  Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("must not exceed population"),
            std::string::npos);
  // A cohort beyond the tree's resident slots exceeds leaf capacity: a
  // Status, not a crash.
  config.population = 100;
  config.cohort_size = 8;
  status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("leaf capacity"), std::string::npos);
  // Under-filling the arena rows is rejected too.
  config.cohort_size = 2;
  EXPECT_FALSE(config.Validate().ok());
  // cohort_size == num_workers (or defaulted) is the valid shape.
  config.cohort_size = 4;
  EXPECT_TRUE(config.Validate().ok());
  config.cohort_size = 0;
  EXPECT_TRUE(config.Validate().ok());
  config.cohort_steps = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.cohort_steps = 5;
  EXPECT_TRUE(config.Validate().ok());
}

// ------------------------------------------------- paging and recycling --

TEST(ClientStoreTest, SlabPagingLayoutAndFreeListRecycling) {
  ClientStoreConfig config = SmallStoreConfig();
  ClientStateStore store(config);
  store.SetStateSize(0);
  const size_t dim = config.dim;
  std::vector<float> anchor = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> params(dim), opt(dim);

  // Five one-step residencies materialize five pages across three slabs
  // (pages_per_slab == 2), handed out in ascending order.
  for (uint32_t c = 0; c < 5; ++c) {
    ClientStateStore::CheckInResult in =
        store.CheckIn(c, anchor.data(), params.data(), opt.data());
    EXPECT_TRUE(in.first_touch);
    EXPECT_FALSE(in.restored);
    for (size_t j = 0; j < dim; ++j) {
      params[j] = anchor[j] + static_cast<float>(c + 1);  // drift = c + 1
      opt[j] = 10.0f * static_cast<float>(c);
    }
    store.CheckOut(c, params.data(), anchor.data(), opt.data(), Rng(1),
                   Rng(2), /*optimizer_steps=*/c, /*steps_this_residency=*/1,
                   /*monitor=*/nullptr);
    EXPECT_TRUE(store.HasPage(c));
  }
  EXPECT_EQ(store.pages_in_use(), 5u);
  EXPECT_EQ(store.slab_count(), 3u);
  EXPECT_EQ(store.pages_allocated(), 6u);
  EXPECT_EQ(store.free_pages(), 1u);
  EXPECT_EQ(store.touched_clients(), 5u);

  // Check-in restores params = anchor + stored drift and the optimizer
  // vectors, and releases the page back to the free list.
  ClientStateStore::CheckInResult in =
      store.CheckIn(2, anchor.data(), params.data(), opt.data());
  EXPECT_FALSE(in.first_touch);
  EXPECT_TRUE(in.restored);
  EXPECT_EQ(in.optimizer_steps, 2u);
  EXPECT_EQ(in.local_steps, 1u);
  for (size_t j = 0; j < dim; ++j) {
    EXPECT_EQ(params[j], anchor[j] + 3.0f);
    EXPECT_EQ(opt[j], 20.0f);
  }
  EXPECT_FALSE(store.HasPage(2));
  EXPECT_TRUE(store.Touched(2));
  EXPECT_EQ(store.pages_in_use(), 4u);
  EXPECT_EQ(store.free_pages(), 2u);

  // The next materialization recycles a freed page: no new slab.
  store.CheckOut(2, params.data(), anchor.data(), opt.data(), Rng(1), Rng(2),
                 2, 1, nullptr);
  EXPECT_EQ(store.pages_in_use(), 5u);
  EXPECT_EQ(store.slab_count(), 3u);
  EXPECT_EQ(store.pages_allocated(), 6u);

  // The footprint scales with touched clients, not the population.
  EXPECT_LT(store.resident_bytes(), 8u * 1024u);
}

TEST(ClientStoreTest, LazyDriftMaterialization) {
  ClientStoreConfig config = SmallStoreConfig();
  ClientStateStore store(config);
  store.SetStateSize(0);
  const size_t dim = config.dim;
  std::vector<float> anchor(dim, 2.0f);
  std::vector<float> params(dim), opt(dim);

  // A residency with zero local steps stores nothing: no page, no slab.
  store.CheckIn(7, anchor.data(), params.data(), opt.data());
  store.CheckOut(7, params.data(), anchor.data(), opt.data(), Rng(1), Rng(2),
                 0, /*steps_this_residency=*/0, nullptr);
  EXPECT_TRUE(store.Touched(7));
  EXPECT_FALSE(store.HasPage(7));
  EXPECT_EQ(store.pages_in_use(), 0u);
  EXPECT_EQ(store.slab_count(), 0u);

  // Re-check-in lands exactly on the anchor.
  ClientStateStore::CheckInResult in =
      store.CheckIn(7, anchor.data(), params.data(), opt.data());
  EXPECT_FALSE(in.first_touch);
  EXPECT_FALSE(in.restored);
  for (size_t j = 0; j < dim; ++j) {
    EXPECT_EQ(params[j], anchor[j]);
    EXPECT_EQ(opt[j], 0.0f);
  }

  // Once a client has materialized, even a 0-step residency re-stores its
  // (nonzero) drift.
  params[0] = anchor[0] + 1.0f;
  store.CheckOut(7, params.data(), anchor.data(), opt.data(), Rng(1), Rng(2),
                 1, 1, nullptr);
  EXPECT_TRUE(store.HasPage(7));
  store.CheckIn(7, anchor.data(), params.data(), opt.data());
  store.CheckOut(7, params.data(), anchor.data(), opt.data(), Rng(1), Rng(2),
                 1, /*steps_this_residency=*/0, nullptr);
  EXPECT_TRUE(store.HasPage(7));
}

TEST(ClientStoreTest, FirstTouchStreamsMatchResidentCohortForks) {
  // The warm entry's rng streams must be the canonical BuildWorkerCohort
  // forks of the run seed — the population == K identity depends on it.
  ClientStoreConfig config = SmallStoreConfig();
  ClientStateStore store(config);
  store.SetStateSize(0);
  std::vector<float> anchor(config.dim, 0.0f);
  std::vector<float> params(config.dim), opt(config.dim);
  ClientStateStore::CheckInResult in =
      store.CheckIn(6, anchor.data(), params.data(), opt.data());
  const Rng master(config.seed);
  Rng sampler_expected = master.Fork(6 + 1);
  Rng worker_expected = master.Fork(6 + 1000);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(in.sampler_rng.NextUint64(), sampler_expected.NextUint64());
    EXPECT_EQ(in.worker_rng.NextUint64(), worker_expected.NextUint64());
  }
}

// --------------------------------------- population variance correction --

TEST(ClientStoreTest, PopulationEstimateBypassesAtPopulationEqualsCohort) {
  ClientStoreConfig config = SmallStoreConfig();
  config.population = 2;  // == cohort_slots
  ClientStateStore store(config);
  LinearVarianceMonitor monitor(config.dim);
  const float state[2] = {1.25f, 0.5f};
  // Bitwise bypass: identical to the raw estimate, even though the store's
  // state size was never set.
  EXPECT_EQ(store.PopulationEstimate(monitor, state, 2),
            monitor.EstimateVariance(state));
}

TEST(ClientStoreTest, PopulationEstimateBlendsOffCohortStates) {
  ClientStoreConfig config;
  config.population = 6;
  config.cohort_slots = 2;
  config.dim = 2;
  config.opt_state_slots = 0;
  config.seed = 9;
  ClientStateStore store(config);
  ExactVarianceMonitor monitor(config.dim);
  store.SetStateSize(monitor.StateSize());  // 1 + dim = 3

  const std::vector<float> anchor = {1.0f, 1.0f};
  std::vector<float> params(config.dim);

  // Client 2 parks drift (1, 0): state (1, 1, 0). Client 3 parks drift
  // (0, 2): state (4, 0, 2). Off-cohort sum = (5, 1, 2).
  store.CheckIn(2, anchor.data(), params.data(), nullptr);
  params = {anchor[0] + 1.0f, anchor[1]};
  store.CheckOut(2, params.data(), anchor.data(), nullptr, Rng(1), Rng(2), 1,
                 1, &monitor);
  store.CheckIn(3, anchor.data(), params.data(), nullptr);
  params = {anchor[0], anchor[1] + 2.0f};
  store.CheckOut(3, params.data(), anchor.data(), nullptr, Rng(1), Rng(2), 1,
                 1, &monitor);
  ASSERT_EQ(store.off_cohort_states(), 2u);

  // Cohort mean state over 2 active: (2, 1, 0). The blend the doc comment
  // promises runs over active + materialized off-cohort states (never-
  // touched clients are excluded): S_pop[j] = (active * S_mean[j] +
  // off_sum[j]) / (active + off) = ((2*2+5)/4, (2*1+1)/4, (2*0+2)/4).
  const float mean_state[3] = {2.0f, 1.0f, 0.0f};
  const double estimate = store.PopulationEstimate(monitor, mean_state, 2);
  const float blended[3] = {2.25f, 0.75f, 0.5f};
  EXPECT_DOUBLE_EQ(estimate, monitor.EstimateVariance(blended));

  // Checking a client back in removes its contribution bitwise-exactly.
  store.CheckIn(3, anchor.data(), params.data(), nullptr);
  EXPECT_EQ(store.off_cohort_states(), 1u);
  const float blended_one[3] = {(2.0f * 2.0f + 1.0f) / 3.0f,
                                (2.0f * 1.0f + 1.0f) / 3.0f, 0.0f};
  EXPECT_DOUBLE_EQ(store.PopulationEstimate(monitor, mean_state, 2),
                   monitor.EstimateVariance(blended_one));
}

TEST(ClientStoreTest, PopulationEstimateBlendsOnlyElementZeroForLinear) {
  // LinearFDA's <xi, u> tail is relative to the current xi, so stored tails
  // go stale: only element 0 blends, the tail passes through untouched.
  ClientStoreConfig config;
  config.population = 6;
  config.cohort_slots = 2;
  config.dim = 2;
  config.seed = 9;
  ClientStateStore store(config);
  LinearVarianceMonitor monitor(config.dim);
  store.SetStateSize(monitor.StateSize());  // 2

  const std::vector<float> anchor = {0.0f, 0.0f};
  std::vector<float> params(config.dim);
  store.CheckIn(4, anchor.data(), params.data(), nullptr);
  params = {3.0f, 4.0f};  // ||u||^2 = 25
  store.CheckOut(4, params.data(), anchor.data(), nullptr, Rng(1), Rng(2), 1,
                 1, &monitor);

  const float mean_state[2] = {5.0f, 0.7f};
  const float blended[2] = {(2.0f * 5.0f + 25.0f) / 3.0f, 0.7f};
  EXPECT_DOUBLE_EQ(store.PopulationEstimate(monitor, mean_state, 2),
                   monitor.EstimateVariance(blended));
}

// ----------------------------------------------------- leaf-group pools --

TEST(ClientStoreTest, LeafGroupPoolsFollowTreeLayout) {
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);  // 4 leaf groups
  ClientStoreConfig config;
  config.population = 100;
  config.cohort_slots = 8;
  config.dim = 4;
  config.seed = 1;
  ClientStateStore store(config, &tree);
  ASSERT_EQ(store.num_client_groups(), 4);
  // Slot spans of 2 map to proportional client pools of 25.
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(store.GroupSlotBegin(g), 2 * g);
    EXPECT_EQ(store.GroupSlotEnd(g), 2 * g + 2);
    EXPECT_EQ(store.GroupClientBegin(g), static_cast<uint32_t>(25 * g));
    EXPECT_EQ(store.GroupClientEnd(g), static_cast<uint32_t>(25 * g + 25));
  }
  EXPECT_EQ(store.LeafGroupOfClient(0), 0);
  EXPECT_EQ(store.LeafGroupOfClient(24), 0);
  EXPECT_EQ(store.LeafGroupOfClient(25), 1);
  EXPECT_EQ(store.LeafGroupOfClient(99), 3);
}

// ----------------------------------------------------------- the sampler --

TEST(CohortSamplerTest, DeterministicPerRoundAndRespectsGroupPools) {
  TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  ClientStoreConfig config;
  config.population = 100;
  config.cohort_slots = 8;
  config.dim = 4;
  config.seed = 21;
  ClientStateStore store(config, &tree);
  CohortSampler sampler(&store, CohortScheduleKind::kUniform, config.seed);

  const std::vector<uint32_t> round0 = sampler.Sample(0, nullptr);
  EXPECT_EQ(round0, sampler.Sample(0, nullptr));  // pure function of round
  EXPECT_NE(round0, sampler.Sample(1, nullptr));
  ASSERT_EQ(round0.size(), 8u);

  std::set<uint32_t> unique(round0.begin(), round0.end());
  EXPECT_EQ(unique.size(), round0.size());  // without replacement
  for (int g = 0; g < store.num_client_groups(); ++g) {
    for (int k = store.GroupSlotBegin(g); k < store.GroupSlotEnd(g); ++k) {
      // Slot-aligned: slot k's client comes from its own group's pool...
      EXPECT_GE(round0[static_cast<size_t>(k)], store.GroupClientBegin(g));
      EXPECT_LT(round0[static_cast<size_t>(k)], store.GroupClientEnd(g));
      // ...ascending within the group span.
      if (k > store.GroupSlotBegin(g)) {
        EXPECT_LT(round0[static_cast<size_t>(k) - 1],
                  round0[static_cast<size_t>(k)]);
      }
    }
  }
}

TEST(CohortSamplerTest, IdentityCohortAtPopulationEqualsCohort) {
  ClientStoreConfig config;
  config.population = 8;
  config.cohort_slots = 8;
  config.dim = 4;
  config.seed = 21;
  ClientStateStore store(config);
  for (CohortScheduleKind kind :
       {CohortScheduleKind::kUniform, CohortScheduleKind::kAvailability}) {
    CohortSampler sampler(&store, kind, config.seed);
    for (uint64_t round : {0ull, 1ull, 17ull}) {
      const std::vector<uint32_t> cohort = sampler.Sample(round, nullptr);
      ASSERT_EQ(cohort.size(), 8u);
      for (uint32_t k = 0; k < 8; ++k) {
        EXPECT_EQ(cohort[k], k);
      }
    }
  }
}

TEST(CohortSamplerTest, AvailabilitySamplingAvoidsDownClients) {
  ClientStoreConfig config;
  config.population = 64;
  config.cohort_slots = 4;
  config.dim = 4;
  config.seed = 5;
  ClientStateStore store(config);
  CohortSampler sampler(&store, CohortScheduleKind::kAvailability,
                        config.seed);

  FaultConfig faults;
  faults.worker_mttf_rounds = 2.0;  // heavy churn: roughly half down
  faults.worker_mttr_rounds = 2.0;
  std::vector<int> links(config.population);
  for (size_t c = 0; c < config.population; ++c) {
    links[c] = static_cast<int>(c);
  }
  FaultInjector injector(faults, static_cast<int>(config.population),
                         config.seed, links,
                         static_cast<int>(config.population));
  size_t down_seen = 0;
  for (uint64_t round = 0; round < 20; ++round) {
    injector.BeginRound();
    for (size_t c = 0; c < config.population; ++c) {
      down_seen += injector.IsUp(static_cast<int>(c)) ? 0 : 1;
    }
    const std::vector<uint32_t> cohort = sampler.Sample(round, &injector);
    ASSERT_EQ(cohort.size(), 4u);
    for (uint32_t c : cohort) {
      // With 4 slots over a 64-client pool at ~50% availability, the
      // rejection budget always finds up clients (deterministic seed).
      EXPECT_TRUE(injector.IsUp(static_cast<int>(c)))
          << "round " << round << " sampled down client " << c;
    }
    // And the same round resamples identically under the same fault state.
    EXPECT_EQ(cohort, sampler.Sample(round, &injector));
  }
  EXPECT_GT(down_seen, 0u);  // the churn actually took clients down
}

// The trainer builds an injector for every run, fault-free ones included:
// a disabled config is the identity schedule and must leave fault-free
// availability fleets on uniform sampling, exactly as no injector does.
TEST(CohortSamplerTest, DisabledFaultConfigSamplesLikeNoInjector) {
  ClientStoreConfig config;
  config.population = 64;
  config.cohort_slots = 4;
  config.dim = 4;
  config.seed = 5;
  ClientStateStore store(config);
  CohortSampler sampler(&store, CohortScheduleKind::kAvailability,
                        config.seed);
  std::vector<int> links(config.population);
  for (size_t c = 0; c < config.population; ++c) {
    links[c] = static_cast<int>(c);
  }
  FaultInjector identity(FaultConfig::None(),
                         static_cast<int>(config.population), config.seed,
                         links, static_cast<int>(config.population));
  for (uint64_t round = 0; round < 10; ++round) {
    identity.BeginRound();
    EXPECT_EQ(sampler.Sample(round, &identity), sampler.Sample(round, nullptr))
        << "round " << round;
  }
}

// ----------------------------------------- thread-count determinism sweep --

uint64_t HashU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Fleet-mode end-to-end workload whose history hash must be independent of
/// FEDRA_NUM_THREADS: population 12 over 4 resident slots, rotations every
/// 3 steps, parallel workers on.
uint64_t ComputeFleetSweepHash() {
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 256;
  synth.num_test = 128;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  FEDRA_CHECK(data.ok());
  TrainerConfig config;
  config.num_workers = 4;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 31;
  config.max_steps = 12;
  config.eval_every_steps = 4;
  config.eval_subset = 64;
  config.parallel_workers = true;
  config.population = 12;
  config.cohort_size = 4;
  config.cohort_steps = 3;
  auto factory = [] { return zoo::Mlp(16 * 16, {16}, 10); };
  DistributedTrainer trainer(factory, data->train, data->test, config);
  auto policy =
      MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5), trainer.model_dim());
  FEDRA_CHECK(policy.ok());
  auto result = trainer.Run(policy->get());
  FEDRA_CHECK(result.ok());
  uint64_t hash = 0x811c9dc5ULL;
  for (const EvalPoint& p : result->history) {
    uint64_t bits;
    hash = HashU64(hash, p.step);
    std::memcpy(&bits, &p.test_accuracy, sizeof(bits));
    hash = HashU64(hash, bits);
    std::memcpy(&bits, &p.train_accuracy, sizeof(bits));
    hash = HashU64(hash, bits);
    hash = HashU64(hash, p.bytes);
    hash = HashU64(hash, p.sync_count);
  }
  return hash;
}

// Prints the workload hash; also a plain determinism check within one
// process. The sweep test below re-runs this test in child processes with
// FEDRA_NUM_THREADS pinned.
TEST(ClientStoreThreadSweepTest, HashModePrintsWorkloadHash) {
  const uint64_t hash = ComputeFleetSweepHash();
  EXPECT_EQ(hash, ComputeFleetSweepHash());
  std::printf("FLEETHASH %016llx\n", static_cast<unsigned long long>(hash));
}

TEST(ClientStoreThreadSweepTest, BitIdenticalAcrossThreadCounts) {
  if (std::getenv("FEDRA_FLEET_SWEEP_CHILD") != nullptr) {
    GTEST_SKIP() << "child process of the sweep";
  }
  // The global pool is sized once per process, so the sweep re-executes
  // this binary with FEDRA_NUM_THREADS pinned and compares the workload
  // hashes printed by HashModePrintsWorkloadHash.
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "cannot resolve /proc/self/exe on this platform";
  }
  exe[len] = '\0';
  auto hash_with_threads = [&](int threads) {
    std::string command =
        "FEDRA_FLEET_SWEEP_CHILD=1 FEDRA_NUM_THREADS=" +
        std::to_string(threads) + " '" + std::string(exe) +
        "' --gtest_filter='ClientStoreThreadSweepTest."
        "HashModePrintsWorkloadHash' 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      return std::string("popen-failed");
    }
    std::string hash;
    char line[256];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "FLEETHASH ", 10) == 0) {
        hash.assign(line + 10);
        while (!hash.empty() &&
               (hash.back() == '\n' || hash.back() == '\r')) {
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
  char expected[32];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(ComputeFleetSweepHash()));
  EXPECT_EQ(h1, expected);
}

// -------------------------------------------------- end-to-end smoke run --

TEST(ClientStoreTest, FleetTrainerSmokeOverSampledCohorts) {
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 256;
  synth.num_test = 128;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  ASSERT_TRUE(data.ok());
  TrainerConfig config;
  config.num_workers = 4;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 17;
  config.max_steps = 24;
  config.eval_every_steps = 8;
  config.eval_subset = 64;
  config.population = 50;
  config.cohort_size = 4;
  config.cohort_steps = 2;
  auto factory = [] { return zoo::Mlp(16 * 16, {16}, 10); };
  DistributedTrainer trainer(factory, data->train, data->test, config);
  auto policy =
      MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5), trainer.model_dim());
  ASSERT_TRUE(policy.ok());
  auto result = trainer.Run(policy->get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->history.empty());
  // Rotations over a 50-client population swap clients in and out, and
  // each non-initial arrival pays a check-in model download.
  EXPECT_GT(result->comm.check_in_syncs, 0u);
  EXPECT_GT(result->final_test_accuracy, 0.15);

  // Deterministic end to end: a second identical run reproduces the
  // history bit for bit.
  DistributedTrainer again(factory, data->train, data->test, config);
  auto policy2 =
      MakeSyncPolicy(AlgorithmConfig::LinearFda(0.5), again.model_dim());
  ASSERT_TRUE(policy2.ok());
  auto result2 = again.Run(policy2->get());
  ASSERT_TRUE(result2.ok());
  ASSERT_EQ(result->history.size(), result2->history.size());
  for (size_t i = 0; i < result->history.size(); ++i) {
    EXPECT_EQ(result->history[i].test_accuracy,
              result2->history[i].test_accuracy);
    EXPECT_EQ(result->history[i].bytes, result2->history[i].bytes);
  }
}

}  // namespace
}  // namespace fedra
