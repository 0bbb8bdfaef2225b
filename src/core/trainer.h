// DistributedTrainer: the simulated federated trainer shared by every
// algorithm in the paper's evaluation.
//
// Per step t (paper Alg. 1 lines 2-9): every worker draws a mini-batch from
// its own shard, runs Optimize(w_k, B_k), and then the SyncPolicy decides
// whether (and how) to synchronize. Policies implement the full spectrum the
// paper compares: FDA variants (state AllReduce + conditional model sync),
// Synchronous/BSP (sync every step), Local-SGD schedules, and the FedOpt
// family (periodic server-optimizer rounds). RunAsync schedules the same
// worker step and model sync over simulated time instead of rounds
// (asynchronous FDA, paper §3.3). The trainer owns the paper's two cost
// metrics: communication (bytes, via SimNetwork) and computation
// (In-Parallel Learning Steps = loop iterations).

#ifndef FEDRA_CORE_TRAINER_H_
#define FEDRA_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/variance_monitor.h"
#include "core/worker_arena.h"
#include "data/batching.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "nn/model.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sim/straggler.h"
#include "util/status.h"

namespace fedra {

/// Everything one simulated worker owns. The worker's model is a slice of
/// the cohort's WorkerArena (view/drift/state point into its slabs); the
/// layer graph itself is shared read-only across the whole cohort.
struct WorkerState {
  ParameterView view;  // w_k and its gradient: this worker's slab slices
  std::unique_ptr<Optimizer> optimizer;  // scalar state only; vectors live
                                         // in the arena's opt-state slab
  std::unique_ptr<BatchSampler> sampler;
  Rng rng;
  float* drift = nullptr;     // scratch: u_k = w_k - w_sync (arena slice)
  float* state = nullptr;     // monitor state S_k (arena slice, after
                              // ClusterContext::AllocateWorkerStates)
  double speed_factor = 1.0;  // straggler multiplier
  double last_loss = 0.0;
  size_t shard_size = 0;
};

/// Mutable view the SyncPolicy operates on each step.
struct ClusterContext {
  std::vector<WorkerState>* workers = nullptr;
  WorkerArena* arena = nullptr;
  SimNetwork* network = nullptr;
  size_t dim = 0;
  std::vector<float>* sync_params = nullptr;       // w_t0 (last sync)
  std::vector<float>* prev_sync_params = nullptr;  // w_t-1 (previous sync)
  size_t step = 0;
  size_t steps_since_sync = 0;
  size_t sync_count = 0;
  /// Optional sync compression (paper §2 compatibility); owned by trainer.
  SyncCompressor* compressor = nullptr;
  /// Fault layer, owned by the trainer and built for every run: a disabled
  /// FaultConfig is the identity schedule (nobody crashes, every
  /// contribution arrives, nothing is drawn). Policies run each sync
  /// contribution through DeliverContribution with it.
  FaultInjector* faults = nullptr;
  /// The current round's participation mask (sync-eligible survivors), one
  /// char per worker, filled by the trainer every round — all ones on a
  /// fault-free run. Policies average and bill only over participants.
  /// RunAsync keeps its live (not crashed) workers here.
  std::vector<char> participation;
  /// Syncs abandoned because no contribution survived message loss.
  uint64_t skipped_syncs = 0;
  /// The paged client-state store the trainer rotates each cohort through,
  /// owned by the trainer's FleetState and set for every run (a resident
  /// cohort is the identity fleet, population == K). FDA policies use it
  /// for the population-scale variance correction
  /// (ClientStateStore::PopulationEstimate), a bitwise bypass at N == K.
  ClientStateStore* store = nullptr;
  /// The active policy's variance monitor, exposed by FDA policies in
  /// Initialize() (RunAsync sets its coordinator's); the trainer's
  /// check-out path uses it to fold departing clients' states into the
  /// store's off-cohort sum. Null for non-FDA policies (check-outs then
  /// store a zero state).
  const VarianceMonitor* monitor = nullptr;

  int num_workers() const { return static_cast<int>(workers->size()); }

  /// Ids of the round's participants, ascending ({0..K-1} on a fault-free
  /// run). `participation` must hold one entry per worker.
  std::vector<int> ActiveWorkers() const;

  /// Parameter pointers of all workers: dim-strided rows of the arena's
  /// params slab (for collectives).
  std::vector<float*> ParamPointers();
  /// State-scratch pointers of all workers (arena state slab rows).
  std::vector<float*> StatePointers();

  /// Sizes the per-worker monitor-state scratch (one [K x state_size]
  /// arena slab) and wires every worker's `state` pointer. Policies call
  /// this from Initialize() once they know their monitor's StateSize().
  void AllocateWorkerStates(size_t state_size);

  /// Plain synchronization: AllReduce-average the models of the round's
  /// participants whose contribution survives message loss (lost
  /// contributions are retried and billed, then dropped), install the mean
  /// into them, and update the sync snapshots. With a compressor the
  /// survivors exchange coded deltas from w_t0, billed at their wire size.
  /// Returns true when the synchronization happened (increments
  /// sync_count, resets steps_since_sync); false when every contribution
  /// was lost (the sync is skipped, counted in skipped_syncs, and all state
  /// carries forward).
  bool SynchronizeModels();
};

/// Decides when to synchronize and what the synchronization step does.
class SyncPolicy {
 public:
  virtual ~SyncPolicy() = default;

  /// Called once, after workers are set up and before the first step.
  virtual void Initialize(ClusterContext& ctx) { (void)ctx; }

  /// Called after every local update step. Implementations may use the
  /// network (FDA's state AllReduce) and/or call ctx.SynchronizeModels().
  /// Returns true if a model synchronization was performed this step.
  virtual bool MaybeSync(ClusterContext& ctx) = 0;

  virtual std::string name() const = 0;
};

struct TrainerConfig {
  int num_workers = 4;          // K
  int batch_size = 32;          // b
  OptimizerConfig local_optimizer = OptimizerConfig::Adam();
  PartitionConfig partition = PartitionConfig::Iid();
  uint64_t seed = 17;

  /// Run until test accuracy >= accuracy_target (checked every
  /// eval_every_steps) or until max_steps.
  double accuracy_target = 1.1;  // > 1 disables early stop
  size_t max_steps = 2000;
  size_t eval_every_steps = 0;   // 0 => once per local epoch
  size_t eval_subset = 1024;     // test samples per evaluation probe

  NetworkModel network = NetworkModel::Hpc();
  AllReduceAlgorithm allreduce = AllReduceAlgorithm::kFlat;
  /// Multi-tier topology: TopologyTree::EdgeCloud(n) for the two-tier
  /// edge->cloud layout, DeviceSiteCloud or a hand-built tree for deeper
  /// ones. When enabled, collectives run the tree's recursive grouped
  /// schedule, `network` is ignored, and `allreduce` becomes the root-tier
  /// algorithm. Leaf groups beyond num_workers stay empty.
  TopologyTree topology;
  StragglerModel straggler = StragglerModel::None();
  /// Fault injection: worker churn, link outages, sync-message loss, and
  /// the round deadline (see sim/fault_model.h). Disabled by default; a
  /// disabled config is the identity schedule the same code paths run
  /// under — all-ones participation, every contribution delivered, zero
  /// fault draws.
  FaultConfig faults;

  /// Lossy compression of the synchronization payload (paper §2: FDA only
  /// adjusts the *timing* of synchronization, so any payload compressor
  /// composes with it; savings multiply).
  CompressionConfig sync_compression = CompressionConfig::None();

  /// FedProx (Sahu et al., paper §2): proximal coefficient mu adds
  /// mu * (w_k - w_global) to every local gradient, pulling workers toward
  /// the last synchronized model. 0 disables. Applies to Run only: RunAsync
  /// steps without the proximal term.
  float fedprox_mu = 0.0f;

  /// Parallelize the local worker steps across the global thread pool
  /// (deterministic either way). Governs the local steps only: the FDA
  /// policies' per-worker monitor-state pass and the collectives' reduce
  /// always use the global pool (a 1-thread pool runs them inline).
  bool parallel_workers = false;

  // ------------------------------------------------------ cross-device --
  /// Simulated client population N; 0 (default) means num_workers. Every
  /// run samples each round's cohort from the population and rotates it
  /// through the K arena rows via the paged ClientStateStore. A resident
  /// cohort is the identity fleet N == K: every sample is clients 0..K-1
  /// with zero draws, and nothing pages. At most INT_MAX.
  size_t population = 0;
  /// Sampled cohort size C; 0 means num_workers. The current fleet maps
  /// one sampled client onto each arena row, so C must equal num_workers
  /// (and never exceed the topology's K resident leaf slots) — Validate
  /// rejects anything else with a Status.
  int cohort_size = 0;
  /// Rounds between cohort rotations in Run (RunAsync rotates at every
  /// global sync instead). >= 1 for every config, resident ones included.
  int cohort_steps = 1;
  /// How the CohortSampler picks each round's cohort.
  CohortScheduleKind cohort_schedule = CohortScheduleKind::kUniform;

  /// True when `population` is set explicitly.
  bool fleet_enabled() const { return population > 0; }
  /// The population N the fleet runs over: `population`, or num_workers
  /// when it is 0.
  size_t FleetPopulation() const {
    return population > 0 ? population : static_cast<size_t>(num_workers);
  }

  Status Validate() const;
};

/// Builds the SimNetwork a TrainerConfig describes: the topology tree when
/// `topology` is enabled, single-tier otherwise.
SimNetwork MakeSimNetwork(const TrainerConfig& config);

/// Builds the worker cohort over `arena` against the shared `graph`:
/// partitions `train`, wires every worker's slab slices (view, drift, and
/// — when the arena's monitor-state scratch is already allocated — state),
/// creates arena-backed optimizers and per-worker sampler/rng forks, and
/// initializes worker 0 from `initial_params` (or the graph's seeded init
/// when empty) before broadcasting it to every slice. Slot k holds client
/// k; the first cohort rotation adopts the sticky ones. Run and RunAsync
/// share it, so their per-seed rng streams (sampler fork k+1, worker rng
/// fork k+1000, straggler fork 101) can never diverge — the fair
/// sync-vs-async straggler comparisons depend on it. `straggler_rng_out`
/// (optional) receives the straggler stream *after* the per-worker factor
/// draws — RunAsync keeps sampling step durations from that exact
/// continuation.
Status BuildWorkerCohort(const TrainerConfig& config, const Dataset& train,
                         ModelGraph& graph,
                         const std::vector<float>& initial_params,
                         WorkerArena* arena,
                         std::vector<WorkerState>* workers,
                         Rng* straggler_rng_out = nullptr);

/// Runs one sync contribution of `wire_bytes` from `worker` through the
/// message-loss gauntlet: samples its delivery, bills the retransmissions
/// it needed at `wire_bytes` each, and records a drop when the retry budget
/// ran out. Returns true when the contribution arrived. Under a disabled
/// FaultConfig it draws nothing, bills nothing, and returns true. Shared by
/// every sync path.
bool DeliverContribution(FaultInjector* faults, SimNetwork* network,
                         int worker, size_t wire_bytes, TrafficClass traffic);

/// RunAsync's sync condition (H > theta, estimated by `monitor`) and step
/// budget.
struct AsyncFdaConfig {
  double theta = 1.0;
  MonitorConfig monitor;
  /// Stop when this many worker steps have completed in total (the
  /// in-parallel equivalent is total / K), or earlier on accuracy target.
  size_t max_total_worker_steps = 8000;
};

/// One point of the training history (recorded at every evaluation).
struct EvalPoint {
  size_t step = 0;
  double epoch = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  uint64_t bytes = 0;
  uint64_t sync_count = 0;
  double sim_seconds = 0.0;
};

struct TrainResult {
  std::string algorithm;
  bool reached_target = false;
  // Costs at the first evaluation where test accuracy hit the target
  // (== totals when the target was never reached).
  size_t steps_to_target = 0;      // In-Parallel Learning Steps
  uint64_t bytes_to_target = 0;    // paper's Communication metric
  uint64_t syncs_to_target = 0;
  double sim_seconds_to_target = 0.0;
  // Final state.
  size_t total_steps = 0;
  size_t total_worker_steps = 0;   // local steps summed over the workers
  uint64_t total_syncs = 0;
  double final_test_accuracy = 0.0;
  double final_train_accuracy = 0.0;
  CommStats comm;
  double compute_seconds = 0.0;    // simulated compute time (BSP barrier)
  // Fault-layer outcome (all zero for fault-free configs).
  uint64_t rejoin_count = 0;             // catch-up syncs paid by rejoiners
  uint64_t zero_participant_rounds = 0;  // rounds with no sync-eligible
                                         // worker (sync skipped entirely)
  uint64_t skipped_syncs = 0;            // syncs abandoned after total
                                         // message loss
  std::vector<EvalPoint> history;

  double gigabytes_to_target() const {
    return static_cast<double>(bytes_to_target) / (1024.0 * 1024.0 * 1024.0);
  }
};

class DistributedTrainer {
 public:
  /// The factory is called once: it builds the single shared model whose
  /// graph every worker executes against (workers differ only in their
  /// arena slices) and whose buffers double as the evaluation model.
  DistributedTrainer(ModelFactory factory, Dataset train, Dataset test,
                     TrainerConfig config);

  /// Runs the loop under `policy`. Each call restarts from fresh weights
  /// and a fresh arena.
  StatusOr<TrainResult> Run(SyncPolicy* policy);

  /// Asynchronous FDA (paper §3.3), event-driven over simulated time.
  /// Workers step at their own pace (StragglerModel step durations); after
  /// every step a worker uploads its small local state to a coordinator,
  /// which re-evaluates H over the freshest state of every live worker.
  /// When H > theta it synchronizes the live workers through the same
  /// ClusterContext::SynchronizeModels as Run (compressed sync included),
  /// and the collective's duration stalls everyone. The benefit is not
  /// bandwidth but that fast workers never wait at a per-step barrier.
  /// Crashes and repairs are event-level (FaultInjector::SampleCrash) and
  /// every upload runs the message-loss gauntlet; round-scoped faults (link
  /// outages, deadlines) have no event-driven analogue and are ignored.
  /// The cohort rotates at every global sync. History steps and
  /// steps_to_target count in-parallel equivalents (worker steps / K);
  /// sim_seconds_to_target is the event clock.
  StatusOr<TrainResult> RunAsync(const AsyncFdaConfig& async);

  /// Optionally pre-load initial weights (transfer learning: fine-tune from
  /// a pre-trained model instead of a random init).
  void SetInitialParams(std::vector<float> params);

  size_t model_dim() const { return dim_; }

  /// The trainer's one model instance: the cohort's shared layer graph plus
  /// the evaluation buffers. Exposed for tests and benches.
  Model& shared_model() { return *shared_model_; }

 private:
  void WorkerStep(WorkerState* worker, const Dataset& train);
  /// The sync codec TrainerConfig::sync_compression describes, fed the
  /// model's layer offsets; null when compression is off.
  std::unique_ptr<SyncCompressor> MakeCompressor() const;

  Dataset train_;
  Dataset test_;
  TrainerConfig config_;
  /// The one model instance of the trainer: shared layer graph + the
  /// buffers the evaluation average w_bar is materialized into.
  std::unique_ptr<Model> shared_model_;
  size_t dim_ = 0;
  std::vector<float> initial_params_;  // empty => random init from seed
  /// Valid only inside Run(): the last-synchronized global model FedProx's
  /// proximal term anchors to. RunAsync leaves it null.
  const float* fedprox_anchor_ = nullptr;
};

}  // namespace fedra

#endif  // FEDRA_CORE_TRAINER_H_
