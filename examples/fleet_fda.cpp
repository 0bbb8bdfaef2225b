// Fleet FDA: cross-device federated learning at population scale. A
// 100,000-client population trains through 64 resident cohort slots: every
// few rounds the coordinator samples a fresh availability-weighted cohort,
// departing clients park their drift in the paged ClientStateStore, and
// arrivals page theirs back in. Under Markov churn (20% of the population
// down at any moment) dynamic averaging still reaches the accuracy target
// while syncing only when the population-corrected variance estimate trips
// — and the whole simulation stays in O(cohort + touched-client drift)
// memory, never O(population x model).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/fleet_fda
//
// FEDRA_FLEET_SMOKE=1 shrinks the run for CI.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/algorithms.h"
#include "core/fedopt_policy.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "util/string_util.h"

#if defined(__SANITIZE_ADDRESS__)
#define FLEET_FDA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLEET_FDA_ASAN 1
#endif
#endif

#if defined(FLEET_FDA_ASAN)
// AddressSanitizer's allocator interface. GCC 12 ships no
// <sanitizer/allocator_interface.h>, so the three functions are declared
// here; the ASan runtime defines them.
extern "C" {
int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, size_t),
    void (*free_hook)(const volatile void*));
size_t __sanitizer_get_allocated_size(const volatile void* p);
size_t __sanitizer_get_current_allocated_bytes();
}
#endif

using namespace fedra;

namespace {

#if defined(FLEET_FDA_ASAN)
// Under ASan, VmRSS also counts the shadow memory and the quarantine of
// freed blocks, several times the program's own heap, so the memory check
// bounds the peak live heap instead, counted by the allocator's hooks.
std::atomic<int64_t> g_live_heap_bytes{0};
std::atomic<int64_t> g_peak_heap_bytes{0};

void CountMalloc(const volatile void* /*p*/, size_t size) {
  const int64_t live = g_live_heap_bytes.fetch_add(
                           static_cast<int64_t>(size),
                           std::memory_order_relaxed) +
                       static_cast<int64_t>(size);
  int64_t peak = g_peak_heap_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_heap_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void CountFree(const volatile void* p) {
  g_live_heap_bytes.fetch_sub(
      static_cast<int64_t>(__sanitizer_get_allocated_size(p)),
      std::memory_order_relaxed);
}

/// Starts counting: the heap already live, then every allocation and free.
void StartHeapCount() {
  const auto live =
      static_cast<int64_t>(__sanitizer_get_current_allocated_bytes());
  g_live_heap_bytes.store(live);
  g_peak_heap_bytes.store(live);
  __sanitizer_install_malloc_and_free_hooks(CountMalloc, CountFree);
}
#else
/// Steady-state resident set size of this process in bytes (0 off-Linux).
size_t CurrentRssBytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  size_t rss_kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::strtoul(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss_kb * 1024;
#else
  return 0;
#endif
}
#endif  // FLEET_FDA_ASAN

TrainResult RunOne(const char* tag, ModelFactory factory,
                   const SynthImageData& data, const TrainerConfig& config,
                   SyncPolicy* policy) {
  DistributedTrainer trainer(factory, data.train, data.test, config);
  auto result = trainer.Run(policy);
  FEDRA_CHECK_OK(result.status());
  std::printf(
      "%-18s acc %5.1f%%  syncs %4llu  check-ins %5llu  rejoins %4llu  "
      "comm %s\n",
      tag, 100.0 * result->final_test_accuracy,
      static_cast<unsigned long long>(result->total_syncs),
      static_cast<unsigned long long>(result->comm.check_in_syncs),
      static_cast<unsigned long long>(result->rejoin_count),
      HumanBytes(static_cast<double>(result->comm.bytes_total)).c_str());
  return std::move(result).value();
}

}  // namespace

int main() {
#if defined(FLEET_FDA_ASAN)
  StartHeapCount();
#endif
  const bool smoke = std::getenv("FEDRA_FLEET_SMOKE") != nullptr;

  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = smoke ? 512 : 2048;
  data_config.num_test = smoke ? 256 : 512;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  FEDRA_CHECK_OK(data.status());

  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {16}, 10); };

  TrainerConfig config;
  config.num_workers = 64;                   // C resident slots
  config.population = smoke ? 10000 : 100000;  // N clients
  config.cohort_size = 64;
  config.cohort_steps = 20;  // rotate the cohort every 20 rounds
  config.cohort_schedule = CohortScheduleKind::kAvailability;
  config.batch_size = 8;
  // Cross-device clients run plain SGD: stateless optimizers keep the
  // store's pages at one drift row per touched client.
  config.local_optimizer = OptimizerConfig::Sgd(0.05f);
  config.partition = PartitionConfig::SortedFraction(0.5);
  config.network = NetworkModel::Federated();
  config.max_steps = smoke ? 60 : 300;
  config.eval_every_steps = smoke ? 30 : 50;
  config.eval_subset = 256;
  config.seed = 23;

  // 20% of the population is down at any moment (MTTF 10 / MTTR 2.5
  // rounds); the availability-weighted sampler only invites up clients.
  config.faults = FaultConfig::Churn(10.0, 2.5);
  FEDRA_CHECK_OK(config.Validate());

  // Cohort rotation truncates drift (an arrival restarts near the anchor),
  // so the variance plateau sits lower than a resident cohort's; Theta is
  // tuned to that scale.
  const double theta = 0.15;
  const size_t dim = factory()->num_params();
  std::printf(
      "population N = %zu, cohort C = %d, rotate every %d rounds, d = %zu\n"
      "full-population residency would need %.1f GB; the paged store keeps\n"
      "O(cohort + touched drift).\n\n",
      config.population, config.num_workers, config.cohort_steps, dim,
      static_cast<double>(config.population) * dim * sizeof(float) / 1e9);

  // 1. FDA over sampled cohorts: syncs only when the population-corrected
  //    variance estimate trips Theta.
  auto fda_policy = MakeSyncPolicy(AlgorithmConfig::LinearFda(theta), dim);
  FEDRA_CHECK_OK(fda_policy.status());
  const TrainResult fda =
      RunOne("Fleet FDA", factory, *data, config, fda_policy->get());

  // 2. FedAvg on the same rotating fleet: a fixed sync every round pays the
  //    full model collective whether drift warrants it or not.
  FedOptPolicy fedavg(FedOptConfig::FedAvg(/*local_epochs=*/1));
  const TrainResult avg =
      RunOne("Fleet FedAvg", factory, *data, config, &fedavg);

#if defined(FLEET_FDA_ASAN)
  const double held_gb =
      static_cast<double>(g_peak_heap_bytes.load()) / 1e9;
  const char* held_what = "of peak live heap";
  const bool held_measured = true;
#else
  const double held_gb = static_cast<double>(CurrentRssBytes()) / 1e9;
  const char* held_what = "resident";
  const bool held_measured = CurrentRssBytes() > 0;
#endif
  const double full_gb =
      static_cast<double>(config.population) * dim * sizeof(float) / 1e9;

  // The headline, enforced:
  // ...both algorithms actually learn through cohort rotation and churn
  // (the CI smoke run stops at a fifth of the steps, hence the lower bar)...
  FEDRA_CHECK_GT(fda.final_test_accuracy, smoke ? 0.35 : 0.55)
      << "fleet FDA failed to learn through cohort rotation";
  FEDRA_CHECK_GT(avg.final_test_accuracy, smoke ? 0.35 : 0.45);
  // ...the rotations really swapped clients in (billed model downloads)...
  FEDRA_CHECK_GT(fda.comm.check_in_syncs, 0u);
  // ...FDA's variance-triggered schedule out-communicates every-round
  // averaging on the same fleet...
  FEDRA_CHECK_LT(fda.total_syncs, avg.total_syncs);
  FEDRA_CHECK_LT(fda.comm.bytes_total, avg.comm.bytes_total)
      << "FDA should transmit less than every-round FedAvg";
  // ...and the memory contract holds: the process stays far below what
  // materializing every client's model would cost.
  if (held_measured) {
    FEDRA_CHECK_LT(held_gb, 0.25 * full_gb)
        << "memory is not O(cohort + touched drift)";
  }

  std::printf(
      "\nFDA synced %llu times to FedAvg's %llu (%.2fx the bytes), while\n"
      "the whole %zu-client simulation held %.2f GB %s vs the %.1f GB\n"
      "a fully materialized population would need.\n",
      static_cast<unsigned long long>(fda.total_syncs),
      static_cast<unsigned long long>(avg.total_syncs),
      static_cast<double>(avg.comm.bytes_total) /
          static_cast<double>(
              fda.comm.bytes_total > 0 ? fda.comm.bytes_total : 1),
      config.population, held_gb, held_what, full_gb);
  return 0;
}
