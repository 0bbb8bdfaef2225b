// Fault-injection tests: FaultConfig validation, bit-deterministic Markov
// churn/link schedules, loss/retry sampling, deadline cutoffs — and the
// trainer-level contracts: survivor-only averaging parity, retry/backoff
// accounting against the analytic formula, rejoin catch-up billing,
// zero-survivor rounds, worker-parallelism independence, and hierarchical
// FDA with a whole subtree down.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/fda_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sim/topology_tree.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"

namespace fedra {
namespace {

// ------------------------------------------------------------ validation --

TEST(FaultConfigTest, ValidatesRanges) {
  EXPECT_TRUE(FaultConfig::None().Validate().ok());
  EXPECT_TRUE(FaultConfig::Churn(10.0, 2.0).Validate().ok());

  FaultConfig bad;
  bad.worker_mttf_rounds = 0.5;  // crash probability would exceed 1
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig::Churn(10.0, 0.5);  // repair probability would exceed 1
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.link_mttf_rounds = 4.0;  // outages on, but mttr unset (0 < 1)
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.message_loss_prob = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
  bad.message_loss_prob = -0.1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.max_retries = -1;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.retry_backoff_seconds = -0.001;
  EXPECT_FALSE(bad.Validate().ok());

  bad = FaultConfig();
  bad.round_deadline_seconds = -1.0;
  EXPECT_FALSE(bad.Validate().ok());

  // NaN fails every range: as a rate it would switch its mechanism off
  // (NaN > 0 is false), and a NaN backoff would bill NaN seconds.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double FaultConfig::*const fields[] = {
      &FaultConfig::worker_mttf_rounds,    &FaultConfig::worker_mttr_rounds,
      &FaultConfig::link_mttf_rounds,      &FaultConfig::link_mttr_rounds,
      &FaultConfig::message_loss_prob,     &FaultConfig::retry_backoff_seconds,
      &FaultConfig::round_deadline_seconds};
  for (double FaultConfig::*field : fields) {
    // On top of a config with every mechanism on, so NaN is the only fault.
    bad = FaultConfig::Churn(10.0, 2.0);
    bad.link_mttf_rounds = 6.0;
    bad.link_mttr_rounds = 2.0;
    bad.message_loss_prob = 0.1;
    bad.round_deadline_seconds = 1.0;
    ASSERT_TRUE(bad.Validate().ok());
    bad.*field = nan;
    EXPECT_FALSE(bad.Validate().ok());
    // Alone on the fault-free default, too.
    bad = FaultConfig();
    bad.*field = nan;
    EXPECT_FALSE(bad.Validate().ok());
  }
}

// Satellite contract: a bad fault config surfaces as a Status from
// TrainerConfig::Validate (callers can report it) instead of a CHECK crash.
TEST(FaultConfigTest, TrainerValidateSurfacesFaultErrors) {
  TrainerConfig config;
  config.faults.worker_mttf_rounds = 0.25;
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());

  config = TrainerConfig();
  config.faults.message_loss_prob = 0.1;
  config.sync_compression = CompressionConfig::TopK(0.01);
  // Faults compose with compressed sync since the WireCodec pipeline:
  // survivors' deltas ride payload-carrying subset collectives.
  EXPECT_TRUE(config.Validate().ok());

  config = TrainerConfig();
  config.faults = FaultConfig::Churn(10.0, 2.0);
  EXPECT_TRUE(config.Validate().ok());

  // NaN knobs surface as a Status too, instead of silently disabling churn
  // or the deadline.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = TrainerConfig();
  config.faults.worker_mttf_rounds = nan;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainerConfig();
  config.faults.round_deadline_seconds = nan;
  EXPECT_FALSE(config.Validate().ok());
  config = TrainerConfig();
  config.faults.message_loss_prob = 0.1;
  config.faults.retry_backoff_seconds = nan;
  EXPECT_FALSE(config.Validate().ok());
}

// ---------------------------------------------------------- determinism --

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  const FaultConfig config = [] {
    FaultConfig c = FaultConfig::Churn(4.0, 2.0);
    c.link_mttf_rounds = 6.0;
    c.link_mttr_rounds = 2.0;
    return c;
  }();
  FaultInjector a(config, 8, /*seed=*/77);
  FaultInjector b(config, 8, /*seed=*/77);
  for (int round = 0; round < 200; ++round) {
    a.BeginRound();
    b.BeginRound();
    EXPECT_EQ(a.worker_up(), b.worker_up());
    EXPECT_EQ(a.rejoined(), b.rejoined());
    EXPECT_EQ(a.NumUp(), b.NumUp());
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(a.LinkUp(k), b.LinkUp(k));
    }
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const FaultConfig config = FaultConfig::Churn(4.0, 2.0);
  FaultInjector a(config, 8, /*seed=*/77);
  FaultInjector b(config, 8, /*seed=*/78);
  bool diverged = false;
  for (int round = 0; round < 200 && !diverged; ++round) {
    a.BeginRound();
    b.BeginRound();
    diverged = a.worker_up() != b.worker_up();
  }
  EXPECT_TRUE(diverged);
}

// The reference schedule: BeginRound and SampleDelivery written the plain
// way, one NextBernoulli per chain, an up/down branch and each rejoin
// pushed as it happens. Its fresh stream is the injector's,
// Rng(seed).Fork(202).
class ChainOracle {
 public:
  ChainOracle(const FaultConfig& config, int entities, uint64_t seed)
      : config_(config),
        rng_(Rng(seed).Fork(202)),
        up_(static_cast<size_t>(entities), 1) {
    if (config.link_mttf_rounds > 0.0) {
      link_.assign(static_cast<size_t>(entities), 1);
    }
  }

  void BeginRound() {
    rejoined_.clear();
    // The draws run on a local copy of the stream, which the compiler keeps
    // in registers: the sanitizer builds then instrument only the state
    // bytes, and the 10^5-client cases stay quick there.
    Rng rng = rng_;
    if (config_.worker_mttf_rounds > 0.0) {
      for (size_t k = 0; k < up_.size(); ++k) {
        const bool was_up = up_[k] != 0;
        const bool now_up = Advance(&rng, was_up, config_.worker_mttf_rounds,
                                    config_.worker_mttr_rounds);
        if (!was_up && now_up) {
          rejoined_.push_back(static_cast<int>(k));
        }
        up_[k] = now_up ? 1 : 0;
      }
    }
    for (char& state : link_) {
      state = Advance(&rng, state != 0, config_.link_mttf_rounds,
                      config_.link_mttr_rounds)
                  ? 1
                  : 0;
    }
    rng_ = rng;
  }

  FaultInjector::Delivery SampleDelivery() {
    FaultInjector::Delivery outcome;
    for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
      if (!rng_.NextBernoulli(config_.message_loss_prob)) {
        outcome.retries = attempt;
        return outcome;
      }
    }
    outcome.retries = config_.max_retries;
    outcome.delivered = false;
    return outcome;
  }

  const std::vector<char>& up() const { return up_; }
  bool LinkUp(int k) const {
    return link_.empty() || link_[static_cast<size_t>(k)] != 0;
  }
  const std::vector<int>& rejoined() const { return rejoined_; }
  int NumUp() const {
    return static_cast<int>(std::count(up_.begin(), up_.end(), 1));
  }

 private:
  static bool Advance(Rng* rng, bool up, double mttf, double mttr) {
    if (up) {
      return !rng->NextBernoulli(1.0 / mttf);
    }
    return rng->NextBernoulli(1.0 / mttr);
  }

  FaultConfig config_;
  Rng rng_;
  std::vector<char> up_;
  std::vector<char> link_;
  std::vector<int> rejoined_;
};

// The branch-free chain advance (integer Bernoulli bounds, rejoins gathered
// per 64-chain block) against the oracle: the same schedules, rejoin order
// and stream position, across the block edges (63, 64, 65), a 10^5-client
// fleet, crash/repair certainties (1, 1), a never-crashing chain (1e9, 1),
// and with link outages on and off.
TEST(FaultInjectorTest, ChainAdvanceMatchesPerChainBernoulliOracle) {
  const int populations[] = {1, 63, 64, 65, 100000};
  const double pairs[][2] = {{1.0, 1.0}, {10.0, 2.5}, {3.0, 7.0}, {1e9, 1.0}};
  for (const int population : populations) {
    for (const auto& pair : pairs) {
      for (const bool links : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "population " << population << " mttf " << pair[0]
                     << " mttr " << pair[1] << " links " << links);
        FaultConfig config = FaultConfig::Churn(pair[0], pair[1]);
        if (links) {
          config.link_mttf_rounds = pair[1] + 3.0;
          config.link_mttr_rounds = pair[0];
        }
        config.message_loss_prob = 0.3;
        const uint64_t seed = 1000 + static_cast<uint64_t>(population);
        FaultInjector injector(config, population, seed);
        ChainOracle oracle(config, population, seed);
        std::vector<char> got_links(static_cast<size_t>(population));
        std::vector<char> want_links(static_cast<size_t>(population));
        size_t rejoins = 0;
        for (int round = 0; round < 500; ++round) {
          injector.BeginRound();
          oracle.BeginRound();
          ASSERT_EQ(injector.worker_up(), oracle.up()) << "round " << round;
          ASSERT_EQ(injector.rejoined(), oracle.rejoined())
              << "round " << round;
          ASSERT_EQ(injector.NumUp(), oracle.NumUp()) << "round " << round;
          if (links) {
            for (int k = 0; k < population; ++k) {
              got_links[static_cast<size_t>(k)] = injector.LinkUp(k);
              want_links[static_cast<size_t>(k)] = oracle.LinkUp(k);
            }
            ASSERT_EQ(got_links, want_links) << "round " << round;
          } else {
            ASSERT_TRUE(injector.LinkUp(population - 1));
          }
          rejoins += oracle.rejoined().size();
        }
        // Every pair but the never-crashing one churns.
        EXPECT_EQ(rejoins > 0, pair[0] < 1e9);
        for (int i = 0; i < 1000; ++i) {
          const FaultInjector::Delivery got = injector.SampleDelivery();
          const FaultInjector::Delivery want = oracle.SampleDelivery();
          ASSERT_EQ(got.retries, want.retries) << "draw " << i;
          ASSERT_EQ(got.delivered, want.delivered) << "draw " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------ chain statistics --

TEST(FaultInjectorTest, AvailabilityMatchesMttfOverMttfPlusMttr) {
  // Stationary availability of the up/down chain is mttf / (mttf + mttr).
  const FaultConfig config = FaultConfig::Churn(8.0, 2.0);
  FaultInjector injector(config, 64, /*seed=*/5);
  int64_t up = 0;
  int64_t total = 0;
  const int rounds = 3000;
  for (int round = 0; round < rounds; ++round) {
    injector.BeginRound();
    up += injector.NumUp();
    total += 64;
  }
  const double availability = static_cast<double>(up) /
                              static_cast<double>(total);
  EXPECT_NEAR(availability, 8.0 / 10.0, 0.02);
}

TEST(FaultInjectorTest, RejoinedListsDownToUpTransitions) {
  const FaultConfig config = FaultConfig::Churn(3.0, 2.0);
  FaultInjector injector(config, 16, /*seed=*/9);
  std::vector<char> previous = injector.worker_up();
  int total_rejoins = 0;
  for (int round = 0; round < 500; ++round) {
    injector.BeginRound();
    std::vector<int> expected;
    for (int k = 0; k < 16; ++k) {
      if (previous[static_cast<size_t>(k)] == 0 && injector.IsUp(k)) {
        expected.push_back(k);
      }
    }
    EXPECT_EQ(injector.rejoined(), expected);
    total_rejoins += static_cast<int>(expected.size());
    previous = injector.worker_up();
  }
  EXPECT_GT(total_rejoins, 0);
}

TEST(FaultInjectorTest, TreeGroupsShareOneLinkEntity) {
  const TopologyTree tree = TopologyTree::DeviceSiteCloud(2, 2);
  ASSERT_EQ(tree.num_leaf_groups(), 4);
  FaultConfig config;
  config.link_mttf_rounds = 3.0;
  config.link_mttr_rounds = 2.0;
  FaultInjector injector(config, 8, /*seed=*/3, &tree);
  int outages = 0;
  for (int round = 0; round < 300; ++round) {
    injector.BeginRound();
    for (int g = 0; g < 4; ++g) {
      // Two workers per leaf group: one shared link state.
      EXPECT_EQ(injector.LinkUp(2 * g), injector.LinkUp(2 * g + 1));
      outages += injector.LinkUp(2 * g) ? 0 : 1;
    }
    // Churn is off: every worker computes every round.
    EXPECT_EQ(injector.NumUp(), 8);
  }
  EXPECT_GT(outages, 0);
}

// ------------------------------------------------------ delivery / loss --

TEST(FaultInjectorTest, DeliveryExtremes) {
  FaultConfig config;
  FaultInjector never_lossy(config, 2, /*seed=*/1);
  for (int i = 0; i < 64; ++i) {
    const FaultInjector::Delivery outcome = never_lossy.SampleDelivery();
    EXPECT_TRUE(outcome.delivered);
    EXPECT_EQ(outcome.retries, 0);
  }

  config.message_loss_prob = 1.0;
  config.max_retries = 3;
  FaultInjector always_lossy(config, 2, /*seed=*/1);
  for (int i = 0; i < 64; ++i) {
    const FaultInjector::Delivery outcome = always_lossy.SampleDelivery();
    EXPECT_FALSE(outcome.delivered);
    EXPECT_EQ(outcome.retries, 3);
  }

  config.max_retries = 0;  // no retransmissions at all
  FaultInjector no_retries(config, 2, /*seed=*/1);
  const FaultInjector::Delivery outcome = no_retries.SampleDelivery();
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(outcome.retries, 0);
}

TEST(FaultInjectorTest, DeliveryStatisticsMatchGeometricTruncation) {
  FaultConfig config;
  config.message_loss_prob = 0.5;
  config.max_retries = 2;
  FaultInjector injector(config, 2, /*seed=*/11);
  const int draws = 40000;
  int delivered = 0;
  for (int i = 0; i < draws; ++i) {
    delivered += injector.SampleDelivery().delivered ? 1 : 0;
  }
  // P(delivered) = 1 - p^(max_retries + 1) = 1 - 0.125.
  EXPECT_NEAR(static_cast<double>(delivered) / draws, 0.875, 0.01);
}

// ------------------------------------------------------------- deadline --

TEST(FaultInjectorTest, DeadlineCutsSlowWorkersAndWaitsOut) {
  FaultConfig config;
  config.round_deadline_seconds = 0.3;
  FaultInjector injector(config, 3, /*seed=*/1);
  std::vector<double> step_seconds = {0.1, 0.5, 0.2};
  std::vector<char> mask = {1, 1, 1};
  // Worker 1 misses the deadline: cut, and the round closes at the full
  // deadline (the coordinator waited it out).
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.3);
  EXPECT_EQ(mask, (std::vector<char>{1, 0, 1}));

  // Nobody cut: the barrier is the slowest participant.
  step_seconds = {0.1, 0.25, 0.2};
  mask = {1, 1, 1};
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.25);
  EXPECT_EQ(mask, (std::vector<char>{1, 1, 1}));

  // Entries already masked out are ignored entirely.
  step_seconds = {0.1, 9.9, 0.2};
  mask = {1, 0, 1};
  EXPECT_DOUBLE_EQ(injector.ApplyDeadline(step_seconds, &mask), 0.2);

  // No deadline configured: plain max over the masked entries.
  FaultConfig no_deadline;
  no_deadline.worker_mttf_rounds = 10.0;
  no_deadline.worker_mttr_rounds = 2.0;
  FaultInjector plain(no_deadline, 3, /*seed=*/1);
  step_seconds = {0.1, 0.5, 0.2};
  mask = {1, 1, 1};
  EXPECT_DOUBLE_EQ(plain.ApplyDeadline(step_seconds, &mask), 0.5);
}

// ----------------------------------------------- survivor-only averaging --

TEST(FaultCollectivesTest, SubsetAverageMatchesSmallerFleet) {
  const size_t n = 97;
  const std::vector<int> participants = {0, 2, 3, 6};
  // The subset collective over {0,2,3,6} of a 7-worker fleet must be
  // bit-identical (values, bytes, seconds, counters) to a 4-worker fleet
  // running the plain collective over the same buffers.
  std::vector<std::vector<float>> big(7, std::vector<float>(n));
  Rng rng(21);
  for (auto& buffer : big) {
    for (auto& x : buffer) {
      x = rng.NextUniform(-3.0f, 3.0f);
    }
  }
  std::vector<std::vector<float>> small;
  for (int k : participants) {
    small.push_back(big[static_cast<size_t>(k)]);
  }

  SimNetwork subset_net(7, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  std::vector<float*> subset_ptrs;
  for (int k : participants) {
    subset_ptrs.push_back(big[static_cast<size_t>(k)].data());
  }
  subset_net.AllReduceAverageSubset(subset_ptrs, participants, n,
                                    TrafficClass::kModelSync);

  SimNetwork small_net(4, NetworkModel::Hpc(), AllReduceAlgorithm::kFlat);
  std::vector<float*> small_ptrs;
  for (auto& buffer : small) {
    small_ptrs.push_back(buffer.data());
  }
  small_net.AllReduceAverage(small_ptrs, n, TrafficClass::kModelSync);

  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(big[static_cast<size_t>(participants[i])][j], small[i][j]);
    }
  }
  // Non-participants untouched is implied by construction; billing parity:
  EXPECT_EQ(subset_net.stats().bytes_total, small_net.stats().bytes_total);
  EXPECT_DOUBLE_EQ(subset_net.stats().comm_seconds,
                   small_net.stats().comm_seconds);
  EXPECT_EQ(subset_net.stats().allreduce_calls,
            small_net.stats().allreduce_calls);
  EXPECT_EQ(subset_net.stats().model_sync_count,
            small_net.stats().model_sync_count);
}

TEST(FaultCollectivesTest, SubtreeSubsetSingleSurvivorIsFree) {
  SimNetwork network(4, TopologyTree::EdgeCloud(2),
                     AllReduceAlgorithm::kFlat);
  const size_t n = 16;
  std::vector<float> buffer(n, 2.0f);
  std::vector<char> active = {1, 0, 1, 1};  // worker 1 absent
  const int group0_node = network.tree().NodeOfLeafGroup(0);
  network.SubtreeAllReduceAverage(group0_node, {buffer.data()}, n,
                                  TrafficClass::kModelSync, &active);
  // A single surviving member is its own average: no wire traffic at all.
  EXPECT_EQ(network.stats().bytes_total, 0u);
  EXPECT_DOUBLE_EQ(network.stats().comm_seconds, 0.0);
  EXPECT_EQ(network.stats().subtree_allreduce_calls, 1u);
  for (float x : buffer) {
    EXPECT_EQ(x, 2.0f);
  }
}

// ------------------------------------------------------- trainer churn --

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
  config.max_steps = 60;
  config.eval_every_steps = 30;
  config.eval_subset = 128;
  return config;
}

TEST(FaultTrainerTest, ChurnBillsOneCatchUpSyncPerRejoin) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.faults = FaultConfig::Churn(4.0, 2.0);
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  LocalSgdPolicy policy(TauSchedule::Fixed(5));
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  // 60 rounds at mttf 4: rejoins certainly happened, and each one paid
  // exactly one catch-up model download.
  EXPECT_GT(result->rejoin_count, 0u);
  EXPECT_EQ(result->comm.catch_up_syncs, result->rejoin_count);
  // No message loss configured: nothing retried or dropped.
  EXPECT_EQ(result->comm.retries, 0u);
  EXPECT_EQ(result->comm.dropped_messages, 0u);
  EXPECT_DOUBLE_EQ(result->comm.seconds_retry, 0.0);
  // Class split still covers the total.
  EXPECT_NEAR(result->comm.seconds_model_sync +
                  result->comm.seconds_local_state,
              result->comm.comm_seconds,
              1e-12 * std::max(1.0, result->comm.comm_seconds));

  // Bit-determinism: the same config replays the same faults and history.
  DistributedTrainer again(SmallMlpFactory(), data.train, data.test,
                           config);
  LocalSgdPolicy policy2(TauSchedule::Fixed(5));
  auto replay = again.Run(&policy2);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->rejoin_count, result->rejoin_count);
  EXPECT_EQ(replay->comm.bytes_total, result->comm.bytes_total);
  EXPECT_EQ(replay->final_test_accuracy, result->final_test_accuracy);
}

TEST(FaultTrainerTest, TotalLossRetryAccountingMatchesAnalyticFormula) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(2);
  config.max_steps = 10;
  config.eval_every_steps = 5;
  config.faults.message_loss_prob = 1.0;  // every contribution dropped
  config.faults.max_retries = 2;
  config.faults.retry_backoff_seconds = 0.005;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  const size_t dim = trainer.model_dim();
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  // Every round: both contributions retried twice then dropped; the sync
  // itself never happens.
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->skipped_syncs, 10u);
  EXPECT_EQ(result->comm.retries, 10u * 2u * 2u);
  EXPECT_EQ(result->comm.dropped_messages, 10u * 2u);
  EXPECT_EQ(result->comm.model_sync_count, 0u);

  // The only traffic is the retransmissions: 2 payloads per worker-round.
  const double payload = static_cast<double>(dim * sizeof(float));
  EXPECT_EQ(result->comm.bytes_total,
            static_cast<uint64_t>(10u * 2u * 2u * dim * sizeof(float)));

  // Analytic retry time: retry i waits backoff * 2^i, then retransmits
  // over the flat link (latency + payload / bandwidth).
  const NetworkModel link = NetworkModel::Hpc();
  const double per_send = link.latency_seconds +
                          payload / link.bandwidth_bytes_per_sec;
  const double per_worker_round = (0.005 + per_send) + (0.010 + per_send);
  const double expected = 10.0 * 2.0 * per_worker_round;
  EXPECT_NEAR(result->comm.seconds_retry, expected, 1e-9 * expected);
  // Retries were the only traffic, so they ARE the comm time.
  EXPECT_DOUBLE_EQ(result->comm.comm_seconds, result->comm.seconds_retry);
}

TEST(FaultTrainerTest, ImpossibleDeadlineSkipsEveryRound) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(3);
  config.max_steps = 15;
  config.eval_every_steps = 5;
  // Every step takes base_step_seconds = 0.01 > deadline: all cut, every
  // round closes with zero participants at exactly the deadline.
  config.straggler = StragglerModel::None(0.01);
  config.faults.round_deadline_seconds = 0.005;
  DistributedTrainer trainer(SmallMlpFactory(), data.train, data.test,
                             config);
  SynchronousPolicy policy;
  auto result = trainer.Run(&policy);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->zero_participant_rounds, 15u);
  EXPECT_EQ(result->total_syncs, 0u);
  EXPECT_EQ(result->comm.bytes_total, 0u);
  EXPECT_NEAR(result->compute_seconds, 15.0 * 0.005, 1e-12);
  // Local training still happened and state carried forward: the run
  // produced a real (if unsynchronized) model.
  EXPECT_GT(result->final_test_accuracy, 0.0);
}

TEST(FaultTrainerTest, FaultScheduleIndependentOfWorkerParallelism) {
  SynthImageData data = SmallMnistLike();
  TrainerConfig config = BaseConfig(4);
  config.faults = FaultConfig::Churn(5.0, 2.0);
  config.faults.message_loss_prob = 0.05;

  DistributedTrainer serial(SmallMlpFactory(), data.train, data.test,
                            config);
  LocalSgdPolicy policy_a(TauSchedule::Fixed(4));
  auto serial_result = serial.Run(&policy_a);
  ASSERT_TRUE(serial_result.ok());

  config.parallel_workers = true;
  DistributedTrainer parallel(SmallMlpFactory(), data.train, data.test,
                              config);
  LocalSgdPolicy policy_b(TauSchedule::Fixed(4));
  auto parallel_result = parallel.Run(&policy_b);
  ASSERT_TRUE(parallel_result.ok());

  // The fault schedule and every downstream number are a pure function of
  // (config, seed) — never of the worker execution order.
  EXPECT_EQ(serial_result->rejoin_count, parallel_result->rejoin_count);
  EXPECT_EQ(serial_result->comm.retries, parallel_result->comm.retries);
  EXPECT_EQ(serial_result->comm.dropped_messages,
            parallel_result->comm.dropped_messages);
  EXPECT_EQ(serial_result->comm.bytes_total,
            parallel_result->comm.bytes_total);
  EXPECT_EQ(serial_result->total_syncs, parallel_result->total_syncs);
  EXPECT_EQ(serial_result->final_test_accuracy,
            parallel_result->final_test_accuracy);
  ASSERT_EQ(serial_result->history.size(),
            parallel_result->history.size());
  for (size_t i = 0; i < serial_result->history.size(); ++i) {
    EXPECT_EQ(serial_result->history[i].test_accuracy,
              parallel_result->history[i].test_accuracy);
    EXPECT_EQ(serial_result->history[i].sim_seconds,
              parallel_result->history[i].sim_seconds);
    EXPECT_EQ(serial_result->history[i].bytes,
              parallel_result->history[i].bytes);
  }
}

// ------------------------------------------- hierarchical subtree down --

// Hand-built cluster harness: 4 workers on a 2-cluster tree, no trainer
// loop — MaybeSync is driven directly with a participation mask (all ones
// until a test clears entries) under the identity fault schedule and the
// identity fleet (population == K).
ClientStoreConfig IdentityFleet(size_t dim) {
  ClientStoreConfig config;
  config.population = 4;
  config.cohort_slots = 4;
  config.dim = dim;
  config.seed = 1;
  return config;
}

struct HierarchicalHarness {
  static constexpr size_t kDim = 8;

  HierarchicalHarness()
      : arena(4, kDim, 0),
        network(4, TopologyTree::EdgeCloud(2), AllReduceAlgorithm::kFlat),
        faults(FaultConfig::None(), 4, /*seed=*/1),
        store(IdentityFleet(kDim), &network.tree()),
        sync_params(kDim, 0.0f),
        prev_sync_params(kDim, 0.0f) {
    workers.resize(4);
    for (int k = 0; k < 4; ++k) {
      WorkerState& worker = workers[static_cast<size_t>(k)];
      worker.view = arena.view(k);
      worker.drift = arena.drift(k);
      // Distinct params per worker so subtree variance estimates are
      // strictly positive.
      for (size_t i = 0; i < kDim; ++i) {
        worker.view.params[i] =
            static_cast<float>(k + 1) + 0.1f * static_cast<float>(i);
      }
    }
    ctx.workers = &workers;
    ctx.arena = &arena;
    ctx.network = &network;
    ctx.dim = kDim;
    ctx.sync_params = &sync_params;
    ctx.prev_sync_params = &prev_sync_params;
    ctx.faults = &faults;
    ctx.store = &store;
    ctx.participation.assign(4, 1);
  }

  std::unique_ptr<HierarchicalFdaPolicy> MakePolicy(
      std::vector<double> theta_by_depth) {
    HierarchicalFdaConfig config;
    config.monitor.kind = MonitorKind::kLinear;
    config.theta_by_depth = std::move(theta_by_depth);
    auto policy = MakeHierarchicalFdaPolicy(config, kDim);
    FEDRA_CHECK(policy.ok()) << policy.status();
    policy.value()->Initialize(ctx);
    return std::move(policy).value();
  }

  WorkerArena arena;
  SimNetwork network;
  FaultInjector faults;
  ClientStateStore store;
  std::vector<float> sync_params;
  std::vector<float> prev_sync_params;
  std::vector<WorkerState> workers;
  ClusterContext ctx;
};

TEST(FaultHierarchicalTest, WholeSubtreeDownLocalSyncOnSurvivors) {
  HierarchicalHarness harness;
  // Leaf threshold 0 (always trips), root threshold astronomical.
  auto policy = harness.MakePolicy({1e18, 0.0});
  // Cluster 0 (workers 0, 1) is entirely absent this round.
  harness.ctx.participation = {0, 0, 1, 1};

  std::vector<float> before0(harness.workers[0].view.params,
                             harness.workers[0].view.params + 8);
  std::vector<float> expected(8);
  for (size_t i = 0; i < 8; ++i) {
    expected[i] = (harness.workers[2].view.params[i] +
                   harness.workers[3].view.params[i]) /
                  2.0f;
  }

  EXPECT_FALSE(policy->MaybeSync(harness.ctx));

  // Cluster 1 averaged locally; the absent cluster and the global anchor
  // are untouched; the uplink carried nothing.
  EXPECT_EQ(policy->local_sync_count(), 1u);
  EXPECT_EQ(policy->global_sync_count(), 0u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(harness.workers[2].view.params[i], expected[i]);
    EXPECT_FLOAT_EQ(harness.workers[3].view.params[i], expected[i]);
    EXPECT_EQ(harness.workers[0].view.params[i], before0[i]);
    EXPECT_EQ(harness.sync_params[i], 0.0f);
  }
  // One leaf state allreduce + one local model sync, both on cluster 1's
  // own tier; the root tier is silent.
  EXPECT_EQ(harness.network.stats().subtree_allreduce_calls, 2u);
  EXPECT_EQ(harness.network.stats().BytesAtDepth(0), 0u);
  EXPECT_DOUBLE_EQ(harness.network.stats().SecondsAtDepth(0), 0.0);
}

TEST(FaultHierarchicalTest, WholeSubtreeDownGlobalSyncAveragesSurvivors) {
  HierarchicalHarness harness;
  // Root threshold 0: everything escalates; leaf threshold astronomical.
  auto policy = harness.MakePolicy({0.0, 1e18});
  harness.ctx.participation = {0, 0, 1, 1};

  std::vector<float> before0(harness.workers[0].view.params,
                             harness.workers[0].view.params + 8);
  std::vector<float> expected(8);
  for (size_t i = 0; i < 8; ++i) {
    expected[i] = (harness.workers[2].view.params[i] +
                   harness.workers[3].view.params[i]) /
                  2.0f;
  }

  EXPECT_TRUE(policy->MaybeSync(harness.ctx));

  // Global sync over the survivors only: the anchor moves to their mean,
  // the absent cluster keeps its stale params for a later catch-up.
  EXPECT_EQ(policy->global_sync_count(), 1u);
  EXPECT_EQ(policy->local_sync_count(), 0u);
  // The root aggregated from a single active child: no billable
  // child-representative exchange happened.
  EXPECT_EQ(policy->escalation_count(), 0u);
  EXPECT_EQ(harness.network.stats().child_exchange_calls, 0u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(harness.sync_params[i], expected[i]);
    EXPECT_FLOAT_EQ(harness.workers[2].view.params[i], expected[i]);
    EXPECT_EQ(harness.workers[0].view.params[i], before0[i]);
  }
  EXPECT_EQ(harness.ctx.sync_count, 1u);
}

// A fault-free round is the all-ones mask: every cluster averages all of
// its members, bit for bit as the full-cohort subtree collectives do.
TEST(FaultHierarchicalTest, AllOnesMaskMatchesFullSubtreeCollectives) {
  HierarchicalHarness masked;
  HierarchicalHarness plain;
  // Both leaves trip, the root never does: one state AllReduce per leaf
  // group, then one model average per leaf group.
  auto policy = masked.MakePolicy({1e18, 0.0});
  EXPECT_FALSE(policy->MaybeSync(masked.ctx));
  EXPECT_EQ(policy->local_sync_count(), 2u);

  const size_t state_size = policy->monitor().StateSize();
  const TopologyTree& tree = plain.network.tree();
  std::vector<std::vector<float>> states(4,
                                         std::vector<float>(state_size));
  auto group_spans = [&](int g, bool params) {
    std::vector<float*> spans;
    const int begin = tree.GroupBegin(g, 4);
    for (int w = begin; w < begin + tree.GroupSize(g, 4); ++w) {
      const size_t k = static_cast<size_t>(w);
      spans.push_back(params ? plain.workers[k].view.params
                             : states[k].data());
    }
    return spans;
  };
  for (int g = 0; g < 2; ++g) {
    plain.network.SubtreeAllReduceAverage(tree.NodeOfLeafGroup(g),
                                          group_spans(g, false), state_size,
                                          TrafficClass::kLocalState);
  }
  for (int g = 0; g < 2; ++g) {
    plain.network.SubtreeAllReduceAverage(tree.NodeOfLeafGroup(g),
                                          group_spans(g, true),
                                          HierarchicalHarness::kDim,
                                          TrafficClass::kModelSync);
  }
  for (int k = 0; k < 4; ++k) {
    for (size_t i = 0; i < HierarchicalHarness::kDim; ++i) {
      EXPECT_EQ(masked.workers[static_cast<size_t>(k)].view.params[i],
                plain.workers[static_cast<size_t>(k)].view.params[i]);
    }
  }
  EXPECT_EQ(masked.network.stats().bytes_total,
            plain.network.stats().bytes_total);
  EXPECT_EQ(masked.network.stats().comm_seconds,
            plain.network.stats().comm_seconds);
  EXPECT_EQ(masked.network.stats().subtree_allreduce_calls,
            plain.network.stats().subtree_allreduce_calls);
}

}  // namespace
}  // namespace fedra
