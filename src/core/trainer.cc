#include "core/trainer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <queue>

#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

/// Runs one sync contribution of `wire_bytes` from `worker` through the
/// message-loss gauntlet: samples its delivery, bills the retransmissions
/// it needed at `wire_bytes` each, and records a drop when the retry budget
/// ran out. Returns true when the contribution arrived. Under a disabled
/// FaultConfig it draws nothing, bills nothing, and returns true. Called by
/// ClusterContext::DeliverParticipants and RunAsync's state upload.
bool DeliverContribution(FaultInjector* faults, SimNetwork* network,
                         int worker, size_t wire_bytes, TrafficClass traffic) {
  const FaultInjector::Delivery delivery = faults->SampleDelivery();
  network->AccountSyncRetries(worker, wire_bytes, delivery.retries,
                              faults->config().retry_backoff_seconds,
                              traffic);
  if (!delivery.delivered) {
    network->AccountDroppedMessage();
  }
  return delivery.delivered;
}

}  // namespace

std::vector<int> ClusterContext::ActiveWorkers() const {
  FEDRA_CHECK_EQ(participation.size(), workers->size());
  std::vector<int> active;
  active.reserve(workers->size());
  for (size_t k = 0; k < workers->size(); ++k) {
    if (participation[k] != 0) {
      active.push_back(static_cast<int>(k));
    }
  }
  return active;
}

void ClusterContext::AllocateWorkerStates(size_t state_size) {
  arena->AllocateStateScratch(state_size);
  for (size_t k = 0; k < workers->size(); ++k) {
    (*workers)[k].state = arena->state(static_cast<int>(k));
  }
}

size_t ClusterContext::WireBytes() const {
  return compressor != nullptr ? compressor->WireBytes(dim)
                               : dim * sizeof(float);
}

std::vector<int> ClusterContext::DeliverParticipants() {
  FEDRA_CHECK_EQ(participation.size(), workers->size());
  const size_t wire = WireBytes();
  std::vector<int> delivered;
  delivered.reserve(workers->size());
  for (size_t k = 0; k < workers->size(); ++k) {
    if (participation[k] != 0 &&
        DeliverContribution(faults, network, static_cast<int>(k), wire,
                            TrafficClass::kModelSync)) {
      delivered.push_back(static_cast<int>(k));
    }
  }
  return delivered;
}

const float* ClusterContext::ExchangeDeltas(const std::vector<int>& members,
                                            int node) {
  // Variable-rate codecs produce different wire sizes per member, so each
  // is billed at its own. Workers outside `members` never run the codec:
  // their error-feedback residual is untouched.
  std::vector<size_t> payload_bytes;
  std::vector<float*> buffers;
  if (compressor != nullptr) {
    payload_bytes.reserve(members.size());
  }
  buffers.reserve(members.size());
  for (int k : members) {
    WorkerState& worker = (*workers)[static_cast<size_t>(k)];
    vec::Sub(worker.view.params, sync_params->data(), worker.drift, dim);
    if (compressor != nullptr) {
      payload_bytes.push_back(
          compressor->CompressInPlace(k, worker.drift, dim));
    }
    buffers.push_back(worker.drift);
  }
  if (node >= 0) {
    network->SubtreeAllReduceAverage(
        node, buffers, dim, TrafficClass::kModelSync, &participation,
        compressor != nullptr ? &payload_bytes : nullptr);
  } else if (compressor != nullptr) {
    network->AllReduceAverageSubsetWithPayloads(
        buffers, members, dim, payload_bytes, TrafficClass::kModelSync);
  } else {
    network->AllReduceAverageSubset(buffers, members, dim,
                                    TrafficClass::kModelSync);
  }
  return buffers[0];
}

bool ClusterContext::SynchronizeModels() {
  if (arena != nullptr) {
    // Debug guard: sweep the slab canaries every sync so an out-of-row
    // write earlier in the round aborts here, naming the damaged slab,
    // instead of silently biasing the average. Free in Release builds
    // (guards_enabled() is constexpr false and the sweep folds away).
    arena->CheckCanaries();
  }
  // Only the round's participants contribute, and every contribution must
  // survive message loss. Absent and dropped workers keep their local
  // models and re-converge via later rounds (or a rejoin catch-up).
  const std::vector<int> delivered = DeliverParticipants();
  if (delivered.empty()) {
    // Zero-survivor guard: skip the sync entirely; the snapshots stay put
    // and every worker carries its state forward.
    ++skipped_syncs;
    FEDRA_LOG(WARNING) << "model sync skipped at step " << step
                       << ": no contribution survived";
    return false;
  }
  if (compressor != nullptr) {
    // Survivors exchange coded deltas from w_t0 instead of full models.
    const float* mean_delta = ExchangeDeltas(delivered, /*node=*/-1);
    // Rotate the sync snapshots: w_t-1 <- w_t0, w_t0 <- w_t0 + mean delta,
    // installed into the survivors.
    *prev_sync_params = *sync_params;
    vec::Axpy(1.0f, mean_delta, sync_params->data(), dim);
    for (int k : delivered) {
      vec::Copy(sync_params->data(),
                (*workers)[static_cast<size_t>(k)].view.params, dim);
    }
  } else {
    std::vector<float*> buffers;
    buffers.reserve(delivered.size());
    for (int k : delivered) {
      buffers.push_back((*workers)[static_cast<size_t>(k)].view.params);
    }
    network->AllReduceAverageSubset(buffers, delivered, dim,
                                    TrafficClass::kModelSync);
    // Rotate the sync snapshots: w_t-1 <- w_t0, w_t0 <- the new average.
    *prev_sync_params = *sync_params;
    vec::Copy(buffers[0], sync_params->data(), dim);
  }
  steps_since_sync = 0;
  ++sync_count;
  return true;
}

namespace {

/// The fleet every run goes through: the store, the sampler, the data
/// shards, the current slot -> client assignment, and the per-rotation swap
/// markers the rejoin path consults. A resident cohort is the identity
/// fleet (population == K).
struct FleetState {
  std::unique_ptr<ClientStateStore> store;
  std::unique_ptr<CohortSampler> sampler;
  /// The K data shards; client c trains on shard c % K (identity at
  /// population == K, so resident configs keep their exact partitions).
  std::vector<std::vector<size_t>> shards;
  /// Compressed-sync state (null without compression): rotation pages each
  /// slot's error-feedback residual out to the departing client and in
  /// from the arriving one, so compression memory follows the client.
  SyncCompressor* compressor = nullptr;
  std::vector<uint32_t> cohort;        // slot -> client id
  std::map<uint32_t, int> resident_slot;  // client id -> slot
  std::vector<char> just_swapped;      // slot freshly checked in this round
  uint64_t rotations = 0;

  /// Resident slot of `client`, or -1.
  int SlotOfClient(uint32_t client) const {
    auto it = resident_slot.find(client);
    return it == resident_slot.end() ? -1 : it->second;
  }
};

/// Re-anchors slot k after a crash: it downloads the last synchronized
/// model (billed as a catch-up sync) and restarts from zeroed gradient,
/// drift, optimizer (Optimizer::Reset), monitor-state and error-feedback
/// state.
void RejoinWorker(ClusterContext* ctx, int k) {
  ctx->network->AccountCatchUpSync(ctx->dim, k);
  WorkerState* worker = &(*ctx->workers)[static_cast<size_t>(k)];
  const size_t dim = ctx->dim;
  vec::Copy(ctx->sync_params->data(), worker->view.params, dim);
  vec::Fill(worker->view.grads, dim, 0.0f);
  vec::Fill(worker->drift, dim, 0.0f);
  // Stale momentum/Adam moments or compression memory would drag the fresh
  // model toward the crashed trajectory; Reset re-zeroes the arena-backed
  // optimizer slots.
  worker->optimizer->Reset();
  if (worker->state != nullptr && ctx->arena->has_state_scratch()) {
    vec::Fill(worker->state, ctx->arena->state_size(), 0.0f);
  }
  if (ctx->compressor != nullptr) {
    ctx->compressor->ResetWorker(k);
  }
}

/// Rotates the resident cohort to `sampled` (one client per slot): sticky
/// occupants are untouched (no float roundtrip — the bit-identity
/// contract), departing occupants are checked out into the store, and
/// arrivals are checked in (params = anchor + stored drift, optimizer
/// vectors + step count restored, sampler/worker rng streams resumed) with
/// the model download billed via SimNetwork::AccountCheckInSync. `initial`
/// marks the first rotation, where slots hold BuildWorkerCohort's seeded
/// clients 0..K-1: sticky slots are adopted into the store and nothing is
/// billed (the broadcast already paid).
void RotateFleetCohort(const TrainerConfig& config,
                       const std::vector<uint32_t>& sampled,
                       FleetState* fleet, std::vector<WorkerState>* workers,
                       WorkerArena* arena, SimNetwork* network,
                       const float* anchor, const VarianceMonitor* monitor,
                       bool initial) {
  FEDRA_CHECK_EQ(sampled.size(), workers->size());
  const size_t dim = arena->dim();
  fleet->just_swapped.assign(workers->size(), 0);
  // Phase 1: check out every occupant whose slot assignment changed —
  // including clients merely moving to another slot of their leaf group;
  // their state round-trips through the store so phase 2 can restore it
  // into the new row. All check-outs complete before any check-in reads.
  for (size_t k = 0; k < workers->size(); ++k) {
    if (sampled[k] == fleet->cohort[k]) {
      if (initial) {
        // BuildWorkerCohort already seeded this slot with client k: adopt
        // the warm entry without any float roundtrip or billing — the
        // population == K bit-identity path.
        fleet->store->AdoptInitialResident(sampled[k]);
        fleet->resident_slot.emplace(sampled[k], static_cast<int>(k));
      }
      continue;  // sticky occupant
    }
    if (!initial) {
      WorkerState& worker = (*workers)[k];
      fleet->store->CheckOut(
          fleet->cohort[k], worker.view.params, anchor,
          arena->opt_state(static_cast<int>(k)), worker.sampler->rng(),
          worker.rng, worker.optimizer->step_count(),
          worker.sampler->steps(), monitor,
          fleet->compressor != nullptr
              ? fleet->compressor->ResidualData(static_cast<int>(k))
              : nullptr);
      fleet->resident_slot.erase(fleet->cohort[k]);
    }
  }
  // Phase 2: check the arrivals in.
  for (size_t k = 0; k < workers->size(); ++k) {
    const uint32_t incoming = sampled[k];
    if (incoming == fleet->cohort[k]) {
      continue;
    }
    WorkerState& worker = (*workers)[k];
    // Reset first: it zeroes the arena's moment rows and the scalar step
    // count, which CheckIn then overwrites with the stored values.
    worker.optimizer->Reset();
    const ClientStateStore::CheckInResult in = fleet->store->CheckIn(
        incoming, anchor, worker.view.params,
        arena->opt_state(static_cast<int>(k)),
        arena->has_state_scratch() ? arena->state(static_cast<int>(k))
                                   : nullptr,
        fleet->compressor != nullptr
            ? fleet->compressor->ResidualData(static_cast<int>(k))
            : nullptr);
    worker.optimizer->set_step_count(in.optimizer_steps);
    worker.sampler = std::make_unique<BatchSampler>(
        fleet->shards[incoming % fleet->shards.size()], config.batch_size,
        in.sampler_rng);
    worker.rng = in.worker_rng;
    worker.shard_size = worker.sampler->dataset_size();
    vec::Fill(worker.view.grads, dim, 0.0f);
    vec::Fill(worker.drift, dim, 0.0f);
    if (!initial) {
      // The fresh participant downloads the current global model to
      // re-anchor; the initial distribution is not billed, matching
      // BuildWorkerCohort's unbilled first broadcast.
      network->AccountCheckInSync(dim, static_cast<int>(k));
    }
    fleet->cohort[k] = incoming;
    fleet->resident_slot[incoming] = static_cast<int>(k);
    fleet->just_swapped[k] = 1;
  }
  ++fleet->rotations;
}

/// Feeds the workers' persistent straggler speed factors into the
/// network's slowest-link collective cost (clamped to >= 1: factors are
/// slowdowns); all-ones factors (no stragglers) keep the homogeneous cost
/// bit-identical.
void SetLinkFactorsFromWorkers(const std::vector<WorkerState>& workers,
                               SimNetwork* network) {
  std::vector<double> link_factors(workers.size());
  for (size_t k = 0; k < workers.size(); ++k) {
    link_factors[k] = std::max(1.0, workers[k].speed_factor);
  }
  network->SetWorkerLinkFactors(std::move(link_factors));
}

/// Builds `fleet` over config.FleetPopulation() clients: the client store
/// (home leaf groups from `network`'s tree), then the cohort sampler, then
/// the K data shards of `train`, with slot k holding client k as
/// BuildWorkerCohort seeded it. The caller sizes the store's state and
/// residual segments.
Status BuildFleet(const TrainerConfig& config, const Dataset& train,
                  const SimNetwork& network, size_t dim, FleetState* fleet) {
  ClientStoreConfig store_config;
  store_config.population = config.FleetPopulation();
  store_config.cohort_slots = config.num_workers;
  store_config.dim = dim;
  store_config.opt_state_slots = config.local_optimizer.StateSlots();
  store_config.seed = config.seed;
  fleet->store =
      std::make_unique<ClientStateStore>(store_config, &network.tree());
  fleet->sampler = std::make_unique<CohortSampler>(
      fleet->store.get(), config.cohort_schedule, config.seed);
  auto shards =
      PartitionDataset(train.labels(), config.num_workers, config.partition);
  if (!shards.ok()) {
    return shards.status();
  }
  fleet->shards = std::move(shards).value();
  fleet->cohort.resize(static_cast<size_t>(config.num_workers));
  std::iota(fleet->cohort.begin(), fleet->cohort.end(), 0u);
  fleet->just_swapped.assign(fleet->cohort.size(), 0);
  return Status::Ok();
}

/// The evaluation and result bookkeeping Run and RunAsync share. The
/// evaluation model holds w_bar, the average of the live workers' models:
/// the global model the paper's methodology evaluates. Averaging for
/// *measurement* does not transit the simulated network but runs on the
/// same parallel reduction engine as the collectives. `is_live(k)` says
/// whether slot k's model enters the average (crashed workers hold stale
/// parameters); it is a template parameter so the bookkeeping allocates
/// nothing beyond the K-entry source list it builds at construction.
template <typename IsLive>
class RunRecorder {
 public:
  RunRecorder(const TrainerConfig& config, const Dataset& train,
              const Dataset& test, Model* eval_model,
              const ClusterContext& ctx, IsLive is_live, TrainResult* result)
      : config_(config),
        train_(train),
        test_(test),
        eval_model_(eval_model),
        ctx_(ctx),
        is_live_(is_live),
        result_(result),
        srcs_(ctx.workers->size()),
        steps_per_epoch_(std::max<size_t>(
            1, ctx.workers->front().sampler->steps_per_epoch())) {}

  size_t steps_per_epoch() const { return steps_per_epoch_; }

  /// Appends the history point of in-parallel step `step` at simulated time
  /// `sim_seconds`; `seed_step` keys the evaluation subsets. Returns true
  /// when the point is the first to reach the accuracy target (the run then
  /// stops: a training run is defined as "until the target epoch").
  bool RecordEval(size_t seed_step, size_t step, double sim_seconds) {
    RefreshEvalModel();
    const EvalResult test_eval = EvaluateSubset(
        eval_model_, test_, config_.eval_subset, config_.seed ^ seed_step);
    const EvalResult train_eval =
        EvaluateSubset(eval_model_, train_, config_.eval_subset,
                       config_.seed ^ (seed_step + 77));
    EvalPoint point;
    point.step = step;
    point.epoch =
        static_cast<double>(step) / static_cast<double>(steps_per_epoch_);
    point.test_accuracy = test_eval.accuracy;
    point.train_accuracy = train_eval.accuracy;
    point.bytes = ctx_.network->stats().bytes_total;
    point.sync_count = ctx_.sync_count;
    point.sim_seconds = sim_seconds;
    result_->history.push_back(point);
    if (result_->reached_target ||
        test_eval.accuracy < config_.accuracy_target) {
      return false;
    }
    result_->reached_target = true;
    result_->steps_to_target = step;
    result_->bytes_to_target = point.bytes;
    result_->syncs_to_target = point.sync_count;
    result_->sim_seconds_to_target = sim_seconds;
    return true;
  }

  /// Fills the final accuracies and totals of a run that ended after
  /// `total_steps` in-parallel steps at simulated time `sim_seconds`; a run
  /// that missed its target reports the totals as its costs to target.
  void Finish(size_t total_steps, double sim_seconds) {
    RefreshEvalModel();
    result_->final_test_accuracy = Evaluate(eval_model_, test_).accuracy;
    result_->final_train_accuracy =
        EvaluateSubset(eval_model_, train_,
                       std::min<size_t>(train_.size(), 2048),
                       config_.seed ^ 0x51ULL)
            .accuracy;
    result_->total_steps = total_steps;
    result_->total_syncs = ctx_.sync_count;
    result_->skipped_syncs = ctx_.skipped_syncs;
    result_->comm = ctx_.network->stats();
    if (!result_->reached_target) {
      result_->steps_to_target = total_steps;
      result_->bytes_to_target = result_->comm.bytes_total;
      result_->syncs_to_target = ctx_.sync_count;
      result_->sim_seconds_to_target = sim_seconds;
    }
  }

 private:
  void RefreshEvalModel() {
    // With every worker down, the last synchronized model is the only
    // meaningful global state.
    const std::vector<WorkerState>& workers = *ctx_.workers;
    size_t live = 0;
    for (size_t k = 0; k < workers.size(); ++k) {
      if (is_live_(k)) {
        srcs_[live++] = workers[k].view.params;
      }
    }
    if (live == 0) {
      vec::Copy(ctx_.sync_params->data(), eval_model_->params(), ctx_.dim);
      return;
    }
    ReduceMeanInto(srcs_.data(), live, ctx_.dim, eval_model_->params());
  }

  const TrainerConfig& config_;
  const Dataset& train_;
  const Dataset& test_;
  Model* eval_model_;
  const ClusterContext& ctx_;
  IsLive is_live_;
  TrainResult* result_;
  std::vector<const float*> srcs_;
  size_t steps_per_epoch_;
};

/// RunAsync's event: a worker's next step completion, or its repair.
struct StepEvent {
  double time = 0.0;
  int worker = 0;
  bool rejoin = false;
  bool operator>(const StepEvent& other) const { return time > other.time; }
};

}  // namespace

SimNetwork MakeSimNetwork(const TrainerConfig& config) {
  if (config.topology.enabled()) {
    return SimNetwork(config.num_workers, config.topology,
                      config.allreduce);
  }
  return SimNetwork(config.num_workers, config.network, config.allreduce);
}

Status TrainerConfig::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (max_steps == 0) {
    return Status::InvalidArgument("max_steps must be > 0");
  }
  if (!(fedprox_mu >= 0.0f)) {  // NaN fails too
    return Status::InvalidArgument("fedprox_mu must be >= 0");
  }
  FEDRA_RETURN_IF_ERROR(topology.enabled() ? topology.Validate()
                                            : network.Validate());
  FEDRA_RETURN_IF_ERROR(local_optimizer.Validate());
  FEDRA_RETURN_IF_ERROR(partition.Validate());
  FEDRA_RETURN_IF_ERROR(sync_compression.Validate());
  FEDRA_RETURN_IF_ERROR(faults.Validate());
  // Every run rotates its cohort every cohort_steps rounds.
  if (cohort_steps < 1) {
    return Status::InvalidArgument(StrFormat(
        "cohort_steps must be >= 1, got %d", cohort_steps));
  }
  // Fault chains index clients by int.
  if (population > static_cast<size_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(StrFormat(
        "population (%zu) must not exceed INT_MAX (%d)", population,
        std::numeric_limits<int>::max()));
  }
  if (population == 0 && cohort_size != 0) {
    return Status::InvalidArgument(
        "cohort_size requires population > 0 (fleet mode)");
  }
  // The cohort checks hold trivially for the identity fleet (N == C == K).
  const size_t cohort = cohort_size > 0 ? static_cast<size_t>(cohort_size)
                                        : static_cast<size_t>(num_workers);
  if (cohort > FleetPopulation()) {
    return Status::InvalidArgument(StrFormat(
        "cohort_size (%zu) must not exceed population (%zu)", cohort,
        FleetPopulation()));
  }
  if (cohort > static_cast<size_t>(num_workers)) {
    return Status::InvalidArgument(StrFormat(
        "cohort_size (%zu) exceeds the topology's leaf capacity: the "
        "tree lays out %d resident worker slots (num_workers) over its "
        "leaf groups",
        cohort, num_workers));
  }
  if (cohort < static_cast<size_t>(num_workers)) {
    return Status::InvalidArgument(StrFormat(
        "cohort_size (%zu) must equal num_workers (%d): the fleet maps "
        "one sampled client onto each resident arena row",
        cohort, num_workers));
  }
  return Status::Ok();
}

DistributedTrainer::DistributedTrainer(ModelFactory factory, Dataset train,
                                       Dataset test, TrainerConfig config)
    : train_(std::move(train)),
      test_(std::move(test)),
      config_(std::move(config)) {
  FEDRA_CHECK(factory != nullptr);
  shared_model_ = factory();
  FEDRA_CHECK(shared_model_ != nullptr);
  dim_ = shared_model_->num_params();
}

void DistributedTrainer::SetInitialParams(std::vector<float> params) {
  FEDRA_CHECK_EQ(params.size(), dim_);
  initial_params_ = std::move(params);
}

Status BuildWorkerCohort(const TrainerConfig& config, const Dataset& train,
                         ModelGraph& graph,
                         const std::vector<float>& initial_params,
                         WorkerArena* arena,
                         std::vector<WorkerState>* workers,
                         Rng* straggler_rng_out) {
  auto partition =
      PartitionDataset(train.labels(), config.num_workers, config.partition);
  if (!partition.ok()) {
    return partition.status();
  }
  Rng master(config.seed);
  // Run and RunAsync share fork id 101, so the persistent per-worker speed
  // factors are identical across sync and async runs of one seed.
  Rng straggler_rng = master.Fork(101);
  const size_t dim = graph.dim();

  workers->clear();
  workers->resize(static_cast<size_t>(config.num_workers));
  for (int k = 0; k < config.num_workers; ++k) {
    WorkerState& worker = (*workers)[static_cast<size_t>(k)];
    worker.view = arena->view(k);
    if (k == 0) {
      if (initial_params.empty()) {
        graph.InitParams(config.seed, worker.view);
      } else {
        vec::Copy(initial_params.data(), worker.view.params, dim);
      }
    } else {
      vec::Copy(arena->params(0), worker.view.params, dim);
    }
    worker.optimizer = Optimizer::Create(config.local_optimizer, dim,
                                         arena->opt_state(k));
    worker.sampler = std::make_unique<BatchSampler>(
        std::move(partition.value()[static_cast<size_t>(k)]),
        config.batch_size, master.Fork(static_cast<uint64_t>(k) + 1));
    worker.rng = master.Fork(static_cast<uint64_t>(k) + 1000);
    worker.drift = arena->drift(k);
    if (arena->has_state_scratch()) {
      worker.state = arena->state(k);
    }
    worker.shard_size = worker.sampler->dataset_size();
    worker.speed_factor =
        config.straggler.SampleWorkerFactor(&straggler_rng);
  }
  if (straggler_rng_out != nullptr) {
    *straggler_rng_out = straggler_rng;
  }
  return Status::Ok();
}

// The folded state has ComputeDriftAndState's bits only if every fold block
// but the last spans whole vec::kFoldStep steps: the optimizer's blocks, and
// SketchFDA's split of them at its sketch blocks.
static_assert(Optimizer::kStepBlock % vec::kFoldStep == 0);
static_assert(vec::kBucketBlock % vec::kFoldStep == 0);

void DistributedTrainer::WorkerStep(WorkerState* worker,
                                    const Dataset& train,
                                    const VarianceMonitor* fold_monitor,
                                    const float* sync_params) {
  const std::vector<size_t>& batch = worker->sampler->NextBatch();
  Tensor images = train.GatherImages(batch);
  std::vector<int> labels = train.GatherLabels(batch);
  vec::Fill(worker->view.grads, dim_, 0.0f);
  ModelGraph& graph = shared_model_->graph();
  ModelGraph::ExecSlot slot = graph.AcquireSlot();
  Tensor logits = graph.Forward(images, worker->view, slot,
                                /*training=*/true, &worker->rng);
  LossResult loss = SoftmaxCrossEntropy(logits, labels);
  graph.Backward(loss.grad_logits, worker->view, slot);
  if (config_.fedprox_mu > 0.0f && fedprox_anchor_ != nullptr) {
    // FedProx: + mu * (w_k - w_global) on every local gradient, fused into
    // one pass over the model span.
    vec::AddScaledDiff(config_.fedprox_mu, worker->view.params,
                       fedprox_anchor_, worker->view.grads, dim_);
  }
  if (fold_monitor == nullptr) {
    worker->optimizer->Step(worker->view.params, worker->view.grads, dim_);
  } else {
    // The monitor folds each block of updated params into the local state
    // while the block is still in L1: no drift row, no second pass.
    StateFold fold(*fold_monitor, sync_params, worker->state);
    worker->optimizer->Step(worker->view.params, worker->view.grads, dim_,
                            &VarianceMonitor::FoldBlockFn, &fold);
    if constexpr (WorkerArena::guards_enabled()) {
      // Debug guard: the folded state has the bits of the unfused pass.
      std::vector<float> unfused(fold_monitor->StateSize());
      fold_monitor->ComputeDriftAndState(worker->view.params, sync_params,
                                         worker->drift, unfused.data());
      FEDRA_CHECK(std::memcmp(unfused.data(), worker->state,
                              unfused.size() * sizeof(float)) == 0)
          << "folded monitor state differs from ComputeDriftAndState";
    }
  }
  worker->last_loss = loss.loss;
}

std::unique_ptr<SyncCompressor> DistributedTrainer::MakeCompressor() const {
  if (!config_.sync_compression.enabled()) {
    return nullptr;
  }
  auto compressor = std::make_unique<SyncCompressor>(
      config_.sync_compression, dim_, config_.num_workers);
  // Layer-wise selective sync (kLayerTopK) masks within each ModelGraph
  // parameter block; feed the block offsets so every layer keeps its own
  // top coordinates.
  const ParameterStore& param_store = shared_model_->store();
  std::vector<size_t> layer_offsets;
  layer_offsets.reserve(param_store.num_blocks());
  for (size_t b = 0; b < param_store.num_blocks(); ++b) {
    layer_offsets.push_back(param_store.block(b).offset);
  }
  compressor->SetLayerOffsets(layer_offsets, dim_);
  return compressor;
}

StatusOr<TrainResult> DistributedTrainer::Run(SyncPolicy* policy) {
  FEDRA_CHECK(policy != nullptr);
  FEDRA_RETURN_IF_ERROR(config_.Validate());

  std::vector<WorkerState> workers;
  SimNetwork network = MakeSimNetwork(config_);
  // One params slab + one grads slab + one optimizer-state slab for the
  // whole cohort; the shared layer graph lives in shared_model_.
  WorkerArena arena(config_.num_workers, dim_,
                    config_.local_optimizer.StateSlots());
  FEDRA_RETURN_IF_ERROR(BuildWorkerCohort(config_, train_,
                                          shared_model_->graph(),
                                          initial_params_, &arena, &workers));

  // Straggler-aware collective cost: a persistently slow worker also paces
  // the collectives it participates in (slowest-link formula).
  SetLinkFactorsFromWorkers(workers, &network);

  std::vector<float> sync_params(dim_);
  std::vector<float> prev_sync_params(dim_);
  vec::Copy(workers[0].view.params, sync_params.data(), dim_);
  vec::Copy(workers[0].view.params, prev_sync_params.data(), dim_);

  ClusterContext ctx;
  ctx.workers = &workers;
  ctx.arena = &arena;
  ctx.network = &network;
  ctx.dim = dim_;
  ctx.sync_params = &sync_params;
  ctx.prev_sync_params = &prev_sync_params;
  std::unique_ptr<SyncCompressor> compressor = MakeCompressor();
  ctx.compressor = compressor.get();
  // The fleet: the paged client store, the cohort sampler, and the K data
  // shards (client c trains on shard c % K). A resident config is the
  // identity fleet, population == K.
  FleetState fleet;
  FEDRA_RETURN_IF_ERROR(BuildFleet(config_, train_, network, dim_, &fleet));
  // Compressed fleet: the per-slot error-feedback residuals become
  // per-client pages, checked out/in alongside drift and optimizer state
  // (the rotation path below).
  fleet.compressor = compressor.get();
  ctx.store = fleet.store.get();
  // Fault layer: every run carries an injector over the whole population,
  // so a client can crash and repair while off-cohort. Link outages group
  // clients by their home leaf under a configured topology; a flat network
  // gives every client its own link. A disabled config is the identity
  // schedule: no chain advances, everyone is up behind a live link, every
  // contribution arrives, and the barrier is the plain max.
  const size_t population = config_.FleetPopulation();
  const bool tree = config_.topology.enabled();
  std::vector<int> client_links(population);
  for (size_t c = 0; c < population; ++c) {
    client_links[c] = tree ? fleet.store->LeafGroupOfClient(
                                 static_cast<uint32_t>(c))
                           : static_cast<int>(c);
  }
  auto injector = std::make_unique<FaultInjector>(
      config_.faults, static_cast<int>(population), config_.seed,
      std::move(client_links),
      tree ? network.tree().num_leaf_groups() : static_cast<int>(population));
  ctx.faults = injector.get();
  ctx.participation.assign(workers.size(), 1);
  std::vector<double> step_times(workers.size());
  fedprox_anchor_ = sync_params.data();
  policy->Initialize(ctx);
  // The policy's Initialize sized the arena's monitor-state scratch (FDA
  // families) or left it absent; the store's pages mirror that layout.
  fleet.store->SetStateSize(arena.has_state_scratch() ? arena.state_size()
                                                      : 0);
  // Error-feedback residuals are per-*client* state under rotation: size
  // the pages' residual segment when compressed sync carries memory.
  fleet.store->SetResidualSize(
      compressor != nullptr && compressor->has_residuals() ? dim_ : 0);
  // An FDA policy's dense local states come out of the worker steps: each
  // step folds its worker's state into the arena row, and the policy skips
  // its own pass. A masking codec monitors the masked drift instead, which
  // the policy computes.
  const VarianceMonitor* fold_monitor =
      arena.has_state_scratch() &&
              (compressor == nullptr || !compressor->has_mask())
          ? ctx.monitor
          : nullptr;
  ctx.states_folded = fold_monitor != nullptr;

  // The fault entity of slot k is its resident client.
  auto entity_of = [&](size_t k) { return static_cast<int>(fleet.cohort[k]); };

  // w_bar averages the up workers (everyone, for fault-free runs).
  TrainResult result;
  RunRecorder recorder(
      config_, train_, test_, shared_model_.get(), ctx,
      [&](size_t k) { return injector->IsUp(entity_of(k)); }, &result);
  const size_t eval_every = config_.eval_every_steps > 0
                                ? config_.eval_every_steps
                                : recorder.steps_per_epoch();
  result.algorithm = policy->name();
  Rng straggler_rng(config_.seed ^ 0xbeefULL);

  for (size_t step = 1; step <= config_.max_steps; ++step) {
    ctx.step = step;
    ++ctx.steps_since_sync;

    // Advance the fault chains first: the availability-weighted sampler
    // reads this round's up-state.
    injector->BeginRound();
    const size_t cohort_steps = static_cast<size_t>(config_.cohort_steps);
    if ((step - 1) % cohort_steps == 0) {
      const std::vector<uint32_t> sampled =
          fleet.sampler->Sample((step - 1) / cohort_steps, injector.get());
      RotateFleetCohort(config_, sampled, &fleet, &workers, &arena, &network,
                        sync_params.data(), ctx.monitor,
                        /*initial=*/step == 1);
    } else {
      std::fill(fleet.just_swapped.begin(), fleet.just_swapped.end(), 0);
    }
    // Re-anchor this round's rejoiners: each downloads the last
    // synchronized model (billed catch-up sync) and restarts from zeroed
    // drift/optimizer/monitor state. A rejoiner only pays while resident;
    // a freshly checked-in slot already re-anchored (and billed) through
    // the store, and an off-cohort rejoiner's stored state simply waits to
    // be sampled.
    for (int c : injector->rejoined()) {
      const int k = fleet.SlotOfClient(static_cast<uint32_t>(c));
      if (k < 0 || fleet.just_swapped[static_cast<size_t>(k)] != 0) {
        continue;
      }
      RejoinWorker(&ctx, k);
      ++result.rejoin_count;
    }

    // Crashed workers compute nothing this round; everyone else steps.
    auto run_worker = [&](size_t k) {
      if (injector->IsUp(entity_of(k))) {
        WorkerStep(&workers[k], train_, fold_monitor, sync_params.data());
      }
    };
    if (config_.parallel_workers && workers.size() > 1) {
      GlobalThreadPool().ParallelFor(workers.size(), run_worker);
    } else {
      for (size_t k = 0; k < workers.size(); ++k) {
        run_worker(k);
      }
    }

    // BSP barrier: sample every worker's step time, mask to the
    // sync-eligible fleet — up workers (the ones that stepped) behind a
    // live link — and let the deadline cut the rest. The step costs the
    // slowest survivor's time.
    for (size_t k = 0; k < workers.size(); ++k) {
      step_times[k] = config_.straggler.SampleStepSeconds(
          workers[k].speed_factor, &straggler_rng);
      const int entity = entity_of(k);
      const bool up = injector->IsUp(entity);
      result.total_worker_steps += up ? 1 : 0;
      ctx.participation[k] = up && injector->LinkUp(entity) ? 1 : 0;
    }
    result.compute_seconds +=
        injector->ApplyDeadline(step_times, &ctx.participation);
    if (std::any_of(ctx.participation.begin(), ctx.participation.end(),
                    [](char participant) { return participant != 0; })) {
      policy->MaybeSync(ctx);
    } else {
      // Zero-survivor round: nobody can reach the network, so the policy
      // never runs — all state carries forward to the next round.
      ++result.zero_participant_rounds;
      FEDRA_LOG(WARNING) << "round " << step
                         << ": no sync-eligible worker, sync skipped";
    }

    if ((step % eval_every == 0 || step == config_.max_steps) &&
        recorder.RecordEval(step, step,
                            result.compute_seconds +
                                network.stats().comm_seconds)) {
      break;
    }
  }

  // Every run records a point at its last step: max_steps, or the step
  // that reached the target.
  recorder.Finish(result.history.back().step,
                  result.compute_seconds + network.stats().comm_seconds);
  fedprox_anchor_ = nullptr;  // points into this Run's locals
  return result;
}

StatusOr<TrainResult> DistributedTrainer::RunAsync(
    const AsyncFdaConfig& async) {
  FEDRA_RETURN_IF_ERROR(config_.Validate());
  auto monitor_or = MakeVarianceMonitor(async.monitor, dim_);
  if (!monitor_or.ok()) {
    return monitor_or.status();
  }
  std::unique_ptr<VarianceMonitor> monitor = std::move(monitor_or).value();
  const size_t state_size = monitor->StateSize();

  SimNetwork network = MakeSimNetwork(config_);
  // The monitor scratch is allocated before BuildWorkerCohort so it wires
  // worker.state; the step durations continue its straggler stream.
  WorkerArena arena(config_.num_workers, dim_,
                    config_.local_optimizer.StateSlots());
  arena.AllocateStateScratch(state_size);
  std::vector<WorkerState> workers;
  Rng straggler_rng(0);  // overwritten with the post-setup stream
  FEDRA_RETURN_IF_ERROR(BuildWorkerCohort(config_, train_,
                                          shared_model_->graph(),
                                          initial_params_, &arena, &workers,
                                          &straggler_rng));
  SetLinkFactorsFromWorkers(workers, &network);

  // Event-level faults: a worker crashes at step completion with
  // probability 1/mttf and repairs after a geometric number of its own
  // step times. A disabled config is the identity schedule. Link outages
  // group workers by leaf under a configured topology; a flat network
  // gives every worker its own link.
  FaultInjector injector(config_.faults, config_.num_workers, config_.seed,
                         &config_.topology);
  std::unique_ptr<SyncCompressor> compressor = MakeCompressor();
  // No rounds: the cohort rotates at every successful sync, sampled without
  // the round-scoped availability chains (uniform). A crash models the
  // machine slot; a client checked into a downed slot inherits its repair.
  FleetState fleet;
  FEDRA_RETURN_IF_ERROR(BuildFleet(config_, train_, network, dim_, &fleet));
  fleet.compressor = compressor.get();
  fleet.store->SetStateSize(state_size);
  fleet.store->SetResidualSize(
      compressor != nullptr && compressor->has_residuals() ? dim_ : 0);

  std::vector<float> sync_params(dim_);
  std::vector<float> prev_sync_params(dim_);
  vec::Copy(workers[0].view.params, sync_params.data(), dim_);
  prev_sync_params = sync_params;

  ClusterContext ctx;
  ctx.workers = &workers;
  ctx.arena = &arena;
  ctx.network = &network;
  ctx.dim = dim_;
  ctx.sync_params = &sync_params;
  ctx.prev_sync_params = &prev_sync_params;
  ctx.compressor = compressor.get();
  ctx.faults = &injector;
  ctx.store = fleet.store.get();
  ctx.monitor = monitor.get();
  // The live mask: a crashed worker leaves it until its repair completes.
  ctx.participation.assign(workers.size(), 1);

  RotateFleetCohort(config_,
                    fleet.sampler->Sample(/*round=*/0, /*faults=*/nullptr),
                    &fleet, &workers, &arena, &network, sync_params.data(),
                    ctx.monitor, /*initial=*/true);

  // Coordinator's view: the latest state of every worker.
  std::vector<std::vector<float>> latest_states(
      workers.size(), std::vector<float>(state_size, 0.0f));
  std::vector<float> mean_state(state_size, 0.0f);

  TrainResult result;
  RunRecorder recorder(
      config_, train_, test_, shared_model_.get(), ctx,
      [&](size_t k) { return ctx.participation[k] != 0; }, &result);
  result.algorithm = "AsyncFDA(" + monitor->name() + ")";

  // Event queue: next step-completion time per worker.
  std::priority_queue<StepEvent, std::vector<StepEvent>,
                      std::greater<StepEvent>>
      events;
  double clock = 0.0;
  auto schedule_step = [&](int k) {
    events.push({clock + config_.straggler.SampleStepSeconds(
                             workers[static_cast<size_t>(k)].speed_factor,
                             &straggler_rng),
                 k});
  };
  for (int k = 0; k < config_.num_workers; ++k) {
    schedule_step(k);
  }

  const size_t num_workers = workers.size();
  const size_t eval_every = (config_.eval_every_steps > 0
                                 ? config_.eval_every_steps
                                 : recorder.steps_per_epoch()) *
                            num_workers;
  size_t next_eval = eval_every;
  size_t total_steps = 0;
  const size_t wire_bytes = ctx.WireBytes();

  while (total_steps < async.max_total_worker_steps && !events.empty()) {
    const StepEvent event = events.top();
    events.pop();
    // max(): a pending repair can predate the clock after a sync stall.
    clock = std::max(clock, event.time);
    const size_t k = static_cast<size_t>(event.worker);
    WorkerState& worker = workers[k];

    if (event.rejoin) {
      // Repair completes: the worker re-anchors on the current global model
      // and resumes stepping at its own pace.
      ctx.participation[k] = 1;
      RejoinWorker(&ctx, event.worker);
      std::fill(latest_states[k].begin(), latest_states[k].end(), 0.0f);
      ++result.rejoin_count;
      schedule_step(event.worker);
      continue;
    }

    // The step folds the worker's local state into its state row.
    WorkerStep(&worker, train_, monitor.get(), sync_params.data());
    ++total_steps;

    if (injector.SampleCrash()) {
      // The worker dies at step completion: nothing is uploaded, its
      // params go stale, and the repair timer starts now — a geometric
      // number (mean worker_mttr_rounds) of its own typical step times.
      ctx.participation[k] = 0;
      const double repair = injector.SampleRepairRounds() *
                            config_.straggler.base_step_seconds *
                            worker.speed_factor;
      events.push({clock + repair, event.worker, /*rejoin=*/true});
      continue;
    }

    // Upload the local state to the coordinator (point-to-point). A dropped
    // upload leaves the coordinator's view of this worker stale (no
    // decision).
    bool trip = false;
    if (DeliverContribution(&injector, &network, event.worker,
                            state_size * sizeof(float),
                            TrafficClass::kLocalState)) {
      latest_states[k].assign(worker.state, worker.state + state_size);
      network.PointToPoint(state_size, TrafficClass::kLocalState,
                           event.worker);
      // Coordinator decision on the freshest state of every live worker;
      // the estimate folds the off-cohort population's stored states in (a
      // bitwise no-op when population == K).
      vec::Fill(mean_state.data(), state_size, 0.0f);
      int live = 0;
      for (size_t j = 0; j < num_workers; ++j) {
        live += ctx.participation[j] != 0;
      }
      const float inv_live = 1.0f / static_cast<float>(live);
      for (size_t j = 0; j < num_workers; ++j) {
        if (ctx.participation[j] != 0) {
          vec::Axpy(inv_live, latest_states[j].data(), mean_state.data(),
                    state_size);
        }
      }
      trip = fleet.store->PopulationEstimate(*monitor, mean_state.data(),
                                             live) > async.theta;
    }
    if (trip) {
      // Coordinator-mediated synchronization over the live workers.
      ctx.step = total_steps / num_workers;
      if (ctx.SynchronizeModels()) {
        // Live workers whose upload was dropped receive the new global
        // model from the coordinator too (the others already hold it).
        for (size_t j = 0; j < num_workers; ++j) {
          if (ctx.participation[j] != 0) {
            vec::Copy(sync_params.data(), workers[j].view.params, dim_);
          }
        }
        monitor->OnSynchronized(sync_params.data(),
                                prev_sync_params.data());
        for (auto& state : latest_states) {
          std::fill(state.begin(), state.end(), 0.0f);
        }
        // Rotate the cohort against the fresh anchor. Departing clients
        // park their post-sync drift (and EF residual) in the store;
        // arrivals restore theirs and bill a check-in model download.
        RotateFleetCohort(config_,
                          fleet.sampler->Sample(fleet.rotations,
                                                /*faults=*/nullptr),
                          &fleet, &workers, &arena, &network,
                          sync_params.data(), ctx.monitor,
                          /*initial=*/false);
      }
      // The sync stalls everyone, synced or skipped, for as long as the
      // configured topology takes to move the coded payload: in-flight
      // compute is abandoned and re-queued from now; pending repairs
      // survive the rebuild.
      clock += network.ModelSyncSeconds(wire_bytes);
      std::vector<StepEvent> rejoins;
      while (!events.empty()) {
        if (events.top().rejoin) {
          rejoins.push_back(events.top());
        }
        events.pop();
      }
      for (const StepEvent& pending : rejoins) {
        events.push(pending);
      }
      for (int j = 0; j < config_.num_workers; ++j) {
        if (ctx.participation[static_cast<size_t>(j)] != 0) {
          schedule_step(j);
        }
      }
    } else {
      schedule_step(event.worker);
    }

    if (total_steps >= next_eval) {
      next_eval += eval_every;
      if (recorder.RecordEval(total_steps, total_steps / num_workers,
                              clock)) {
        break;
      }
    }
  }

  result.total_worker_steps = total_steps;
  recorder.Finish(total_steps / num_workers, clock);
  return result;
}

}  // namespace fedra
