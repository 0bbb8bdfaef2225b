// Concurrency stress surface for the ThreadSanitizer CI leg.
//
// Every test here is correct under the pool's documented contract and is
// deliberately shaped to give TSan the interleavings where a latent race
// would hide: many simultaneous ParallelFor callers on one pool, nested
// loops whose chunk runners are stolen mid-flight, multi-producer
// Schedule bursts hammering the sleep/wake path, and a full trainer
// cohort (shared ModelGraph + one WorkerArena + survivor-subset
// collectives) stepping under churn and message loss. The suite also runs
// in the plain and ASan legs, where it doubles as a scheduler soak test.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/fda_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/fault_model.h"
#include "sim/topology_tree.h"
#include "util/chase_lev_deque.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

// Chase-Lev regressions drive the deque directly (not through the pool) so
// the protocol's three hard spots get undiluted contention: thief-vs-thief
// steal storms, the owner-pop vs steal CAS arbitration on the last element,
// and Grow() republishing the ring under concurrent steals.

TEST(ChaseLevDequeTest, StealStormDeliversEveryItemExactlyOnce) {
  // One owner pushes while four thieves hammer Steal() the whole time. Every
  // pushed value must surface exactly once across owner pops and steals —
  // a double-delivery is a logic bug, and any unsynchronized cell handoff
  // is a TSan report on the int64_t payload.
  constexpr int kThieves = 4;
  constexpr int kItems = 8000;
  ChaseLevDeque<int64_t> deque(/*initial_capacity=*/64);
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) {
    s.store(0, std::memory_order_relaxed);
  }
  std::atomic<int> delivered{0};
  std::atomic<bool> done_pushing{false};
  auto consume = [&](int64_t* item) {
    seen[static_cast<size_t>(*item)].fetch_add(1, std::memory_order_relaxed);
    delivered.fetch_add(1, std::memory_order_relaxed);
    delete item;
  };
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (delivered.load(std::memory_order_relaxed) < kItems) {
        if (int64_t* item = deque.Steal()) {
          consume(item);
        } else {
          // Empty or lost race; yield so the owner gets cycles to push
          // (this box may be single-core).
          std::this_thread::yield();
        }
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    deque.PushBottom(new int64_t(i));
    if (i % 7 == 0) {
      // Owner pops too, so the LIFO end contends with the FIFO end.
      if (int64_t* item = deque.PopBottom()) {
        consume(item);
      }
    }
  }
  done_pushing.store(true, std::memory_order_release);
  while (delivered.load(std::memory_order_relaxed) < kItems) {
    if (int64_t* item = deque.PopBottom()) {
      consume(item);
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& thief : thieves) {
    thief.join();
  }
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ChaseLevDequeTest, LastElementRaceResolvesToExactlyOneTaker) {
  // The hardest interleaving: a deque holding exactly one item, with the
  // owner popping and a thief stealing simultaneously. The seq-cst CAS
  // arbitration must hand the item to exactly one side, every round.
  constexpr int kRounds = 5000;
  ChaseLevDeque<int64_t> deque(/*initial_capacity=*/64);
  // 2*round arms the thief for that round, 2*round + 1 means it answered.
  // Starts at -1 (nothing armed): if it started at 0 the thief could run
  // round 0 against an empty deque before the owner's first push, and the
  // owner's own store of 0 would then erase the thief's answer — both sides
  // would wait on each other forever.
  std::atomic<int> round_token{-1};
  std::atomic<int64_t*> stolen{nullptr};
  std::atomic<bool> shutdown{false};
  std::thread thief([&] {
    int expected_round = 0;
    while (!shutdown.load(std::memory_order_acquire)) {
      if (round_token.load(std::memory_order_acquire) == 2 * expected_round) {
        stolen.store(deque.Steal(), std::memory_order_release);
        round_token.store(2 * expected_round + 1, std::memory_order_release);
        ++expected_round;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    deque.PushBottom(new int64_t(round));
    round_token.store(2 * round, std::memory_order_release);  // arm thief
    int64_t* popped = deque.PopBottom();
    while (round_token.load(std::memory_order_acquire) != 2 * round + 1) {
      std::this_thread::yield();
    }
    int64_t* theirs = stolen.load(std::memory_order_acquire);
    // Exactly one taker, never both, never neither.
    ASSERT_TRUE((popped != nullptr) != (theirs != nullptr)) << "round "
                                                            << round;
    int64_t* item = popped != nullptr ? popped : theirs;
    ASSERT_EQ(*item, round);
    delete item;
  }
  shutdown.store(true, std::memory_order_release);
  thief.join();
}

TEST(ChaseLevDequeTest, GrowUnderConcurrentStealsLosesNothing) {
  // Start at the minimum capacity and push far past it while thieves run:
  // Grow() copies the live range into a doubled ring and release-publishes
  // it mid-steal. A steal reading the stale ring must still see its cell
  // (retired rings outlive the deque), and no item may vanish in the copy.
  constexpr int kThieves = 3;
  constexpr int kItems = 20000;
  ChaseLevDeque<int64_t> deque(/*initial_capacity=*/2);
  std::atomic<int64_t> sum{0};
  std::atomic<int> delivered{0};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (delivered.load(std::memory_order_relaxed) < kItems) {
        if (int64_t* item = deque.Steal()) {
          sum.fetch_add(*item, std::memory_order_relaxed);
          delivered.fetch_add(1, std::memory_order_relaxed);
          delete item;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  // Push in bursts so bottom outruns top and forces repeated doublings.
  for (int i = 0; i < kItems; ++i) {
    deque.PushBottom(new int64_t(i));
  }
  EXPECT_GE(deque.CapacityApprox(), 2);
  while (delivered.load(std::memory_order_relaxed) < kItems) {
    if (int64_t* item = deque.PopBottom()) {
      sum.fetch_add(*item, std::memory_order_relaxed);
      delivered.fetch_add(1, std::memory_order_relaxed);
      delete item;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& thief : thieves) {
    thief.join();
  }
  EXPECT_EQ(sum.load(),
            static_cast<int64_t>(kItems) * (kItems - 1) / 2);
  EXPECT_EQ(deque.SizeApprox(), 0);
}

TEST(TsanStressTest, ConcurrentCallersWriteDisjointBuffersRacelessly) {
  // Six external threads share one pool; each repeatedly ParallelFors over
  // its own plain (non-atomic) buffer. Any scheduler bug that leaks a chunk
  // to the wrong caller's body — or runs one index twice concurrently — is
  // a data race on the buffer, which TSan reports even when the final
  // counts happen to come out right.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kIters = 40;
  constexpr size_t kN = 513;
  std::vector<std::vector<int>> buffers(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      auto& mine = buffers[static_cast<size_t>(t)];
      for (int iter = 0; iter < kIters; ++iter) {
        pool.ParallelForRange(kN, /*grain=*/19 + static_cast<size_t>(t),
                              [&mine](size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) {
                                  ++mine[i];
                                }
                              });
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  for (int t = 0; t < kCallers; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(buffers[static_cast<size_t>(t)][i], kIters)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(TsanStressTest, NestedStealingUnderConcurrentOuterLoad) {
  // Nested ParallelFor from pool workers parks chunk runners on the calling
  // worker's deque for peers to steal, while independent outer callers keep
  // every deque busy. The stolen runners and the nested caller's own
  // drain-loop race over the same ParallelCallState — TSan verifies the
  // claim/done protocol synchronizes them.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kOuterCallers = 3;
  constexpr int kOuterN = 8;
  constexpr int kInnerN = 64;
  std::vector<std::thread> callers;
  callers.reserve(kOuterCallers);
  for (int t = 0; t < kOuterCallers; ++t) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        pool.ParallelFor(kOuterN, [&](size_t) {
          pool.ParallelFor(kInnerN, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    });
  }
  for (auto& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(total.load(), static_cast<long>(kOuterCallers) * 10 * kOuterN *
                              kInnerN);
}

TEST(TsanStressTest, MultiProducerScheduleAndWaitChurn) {
  // Producers burst Schedule()d closures while a separate thread spins
  // Wait(): the scheduled_in_flight_ counter, the round-robin deque pushes,
  // and the sleep/wake condvar all see maximum contention. Workers go idle
  // (empty deques) between bursts, so the atomic-then-sleep window in
  // WorkerLoop is crossed thousands of times.
  ThreadPool pool(3);
  constexpr int kProducers = 4;
  constexpr int kBursts = 50;
  constexpr int kTasksPerBurst = 20;
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kTasksPerBurst; ++i) {
          pool.Schedule(
              [&] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
        // Give workers a chance to drain and go back to sleep so the next
        // burst exercises the wakeup path, not just busy workers.
        std::this_thread::yield();
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  pool.Wait();
  EXPECT_EQ(executed.load(), kProducers * kBursts * kTasksPerBurst);
}

/// Runs `config` twice with a fresh policy each time; the two runs must
/// agree on every history row, the byte total and the rejoin count.
void ExpectTwoRunsIdentical(
    const SynthImageData& data, const TrainerConfig& config,
    const std::function<std::unique_ptr<SyncPolicy>(size_t dim)>&
        make_policy) {
  auto run_once = [&] {
    DistributedTrainer trainer([] { return zoo::Mlp(16 * 16, {24}, 10); },
                               data.train, data.test, config);
    std::unique_ptr<SyncPolicy> policy = make_policy(trainer.model_dim());
    auto result = trainer.Run(policy.get());
    FEDRA_CHECK(result.ok()) << result.status();
    return std::move(result).value();
  };
  TrainResult first = run_once();
  TrainResult second = run_once();
  EXPECT_EQ(first.total_steps, config.max_steps);
  EXPECT_EQ(first.final_test_accuracy, second.final_test_accuracy);
  EXPECT_EQ(first.comm.bytes_total, second.comm.bytes_total);
  EXPECT_EQ(first.rejoin_count, second.rejoin_count);
  ASSERT_EQ(first.history.size(), second.history.size());
  for (size_t i = 0; i < first.history.size(); ++i) {
    EXPECT_EQ(first.history[i].test_accuracy, second.history[i].test_accuracy)
        << "history row " << i;
    EXPECT_EQ(first.history[i].bytes, second.history[i].bytes)
        << "history row " << i;
  }
}

TEST(TsanStressTest, TrainerCohortUnderFaultsIsRacelessAndDeterministic) {
  // End-to-end surface: parallel workers execute one shared ModelGraph
  // against one WorkerArena (slab rows + exec slots), the FDA policy
  // computes every worker's monitor state on the pool against one shared
  // monitor and AllReduces the states, and the fault injector cuts workers
  // and drops contributions mid-run. Two identical runs must also produce
  // the same history — under TSan this doubles as the determinism
  // contract's dynamic check. LinearFDA, SketchFDA (AMS scatter into each
  // worker's state row) and hierarchical SketchFDA over a device-site-cloud
  // tree each get a pair of runs.
  SynthImageConfig synth = MnistLikeConfig();
  synth.num_train = 256;
  synth.num_test = 64;
  synth.image_size = 16;
  auto data = GenerateSynthImages(synth);
  ASSERT_TRUE(data.ok());

  TrainerConfig config;
  config.num_workers = 8;
  config.parallel_workers = true;
  config.batch_size = 8;
  config.local_optimizer = OptimizerConfig::Adam(0.002f);
  config.seed = 29;
  config.max_steps = 12;
  config.eval_every_steps = 6;
  config.eval_subset = 32;
  config.faults = FaultConfig::Churn(5.0, 2.0);
  config.faults.message_loss_prob = 0.05;

  for (const AlgorithmConfig& algorithm :
       {AlgorithmConfig::LinearFda(0.5), AlgorithmConfig::SketchFda(0.5)}) {
    SCOPED_TRACE(static_cast<int>(algorithm.algorithm));
    ExpectTwoRunsIdentical(*data, config, [&](size_t dim) {
      auto policy = MakeSyncPolicy(algorithm, dim);
      FEDRA_CHECK(policy.ok());
      return std::move(policy).value();
    });
  }

  SCOPED_TRACE("hierarchical");
  TrainerConfig tree_config = config;
  tree_config.topology = TopologyTree::DeviceSiteCloud(2, 2);
  ExpectTwoRunsIdentical(*data, tree_config, [](size_t dim) {
    HierarchicalFdaConfig policy_config;
    policy_config.monitor.kind = MonitorKind::kSketch;
    policy_config.theta_by_depth = {1.2, 0.5, 0.2};
    auto policy = MakeHierarchicalFdaPolicy(policy_config, dim);
    FEDRA_CHECK(policy.ok());
    return std::unique_ptr<SyncPolicy>(std::move(policy).value());
  });
}

TEST(TsanStressTest, ParallelForAgainstScheduledBackgroundWork) {
  // Schedule()d background closures interleave with foreground ParallelFor
  // chunks on the same deques: per-call completion tokens and the
  // scheduled_in_flight_ counter must never synchronize through each other.
  ThreadPool pool(4);
  std::atomic<int> background{0};
  std::atomic<int> foreground{0};
  for (int i = 0; i < 64; ++i) {
    pool.Schedule([&] { background.fetch_add(1, std::memory_order_relaxed); });
  }
  for (int iter = 0; iter < 20; ++iter) {
    pool.ParallelFor(128, [&](size_t) {
      foreground.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Wait();
  EXPECT_EQ(background.load(), 64);
  EXPECT_EQ(foreground.load(), 20 * 128);
}

}  // namespace
}  // namespace fedra
