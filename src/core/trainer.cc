#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fedra {

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

std::vector<float*> ClusterContext::ParamPointers() {
  return arena->ParamPointers();
}

std::vector<float*> ClusterContext::StatePointers() {
  return arena->StatePointers();
}

void ClusterContext::AllocateWorkerStates(size_t state_size) {
  arena->AllocateStateScratch(state_size);
  for (size_t k = 0; k < workers->size(); ++k) {
    (*workers)[k].state = arena->state(static_cast<int>(k));
  }
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
  // survive message loss; retries are billed at what the wire carries.
  // Absent and dropped workers keep their local models and re-converge via
  // later rounds (or a rejoin catch-up).
  const bool compressed =
      compressor != nullptr && compressor->config().enabled();
  const size_t wire =
      compressed ? compressor->WireBytes(dim) : dim * sizeof(float);
  FEDRA_CHECK_EQ(participation.size(), workers->size());
  std::vector<int> delivered;
  delivered.reserve(workers->size());
  for (size_t k = 0; k < workers->size(); ++k) {
    if (participation[k] != 0 &&
        DeliverContribution(faults, network, static_cast<int>(k), wire,
                            TrafficClass::kModelSync)) {
      delivered.push_back(static_cast<int>(k));
    }
  }
  if (delivered.empty()) {
    // Zero-survivor guard: skip the sync entirely; the snapshots stay put
    // and every worker carries its state forward.
    ++skipped_syncs;
    FEDRA_LOG(WARNING) << "model sync skipped at step " << step
                       << ": no contribution survived";
    return false;
  }
  std::vector<size_t> payload_bytes;
  std::vector<float*> buffers;
  if (compressed) {
    // Compressed path: survivors exchange lossy deltas from w_t0 instead of
    // full models, billed at each one's actual wire size (variable-rate
    // codecs produce different sizes per worker). Dropped workers never
    // compress, so their error-feedback residual is untouched.
    payload_bytes.reserve(delivered.size());
    buffers.reserve(delivered.size());
    for (int k : delivered) {
      WorkerState& worker = (*workers)[static_cast<size_t>(k)];
      vec::Sub(worker.view.params, sync_params->data(), worker.drift, dim);
      payload_bytes.push_back(
          compressor->CompressInPlace(k, worker.drift, dim));
      buffers.push_back(worker.drift);
    }
    network->AllReduceAverageSubsetWithPayloads(
        buffers, delivered, dim, payload_bytes, TrafficClass::kModelSync);
  } else {
    buffers.reserve(delivered.size());
    for (int k : delivered) {
      buffers.push_back((*workers)[static_cast<size_t>(k)].view.params);
    }
    network->AllReduceAverageSubset(buffers, delivered, dim,
                                    TrafficClass::kModelSync);
  }
  // Rotate the sync snapshots: w_t-1 <- w_t0, w_t0 <- new average.
  *prev_sync_params = *sync_params;
  if (compressed) {
    // New global = w_t0 + mean decoded delta, installed into the survivors.
    vec::Axpy(1.0f, buffers[0], sync_params->data(), dim);
    for (int k : delivered) {
      vec::Copy(sync_params->data(),
                (*workers)[static_cast<size_t>(k)].view.params, dim);
    }
  } else {
    vec::Copy(buffers[0], sync_params->data(), dim);
  }
  steps_since_sync = 0;
  ++sync_count;
  return true;
}

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

void ReanchorRejoinedWorker(WorkerArena* arena, WorkerState* worker,
                            const float* sync_params, size_t dim) {
  vec::Copy(sync_params, worker->view.params, dim);
  vec::Fill(worker->view.grads, dim, 0.0f);
  vec::Fill(worker->drift, dim, 0.0f);
  // Stale momentum/Adam moments would drag the fresh model toward the
  // crashed trajectory; Reset re-zeroes the arena-backed slots.
  worker->optimizer->Reset();
  if (worker->state != nullptr && arena->has_state_scratch()) {
    vec::Fill(worker->state, arena->state_size(), 0.0f);
  }
}

int FleetState::SlotOfClient(uint32_t client) const {
  auto it = resident_slot.find(client);
  return it == resident_slot.end() ? -1 : it->second;
}

int RotateFleetCohort(const TrainerConfig& config,
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
  int swapped = 0;
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
    ++swapped;
  }
  ++fleet->rotations;
  fleet->swaps += static_cast<uint64_t>(swapped);
  return swapped;
}

void SetLinkFactorsFromWorkers(const std::vector<WorkerState>& workers,
                               SimNetwork* network) {
  std::vector<double> link_factors(workers.size());
  for (size_t k = 0; k < workers.size(); ++k) {
    link_factors[k] = std::max(1.0, workers[k].speed_factor);
  }
  network->SetWorkerLinkFactors(std::move(link_factors));
}

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
  if (fedprox_mu < 0.0f) {
    return Status::InvalidArgument("fedprox_mu must be >= 0");
  }
  if (topology.enabled()) {
    FEDRA_RETURN_IF_ERROR(topology.Validate());
  }
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
  // Fork id 101 is shared by both trainers so the persistent per-worker
  // speed factors are identical across sync and async runs of one seed.
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

void DistributedTrainer::WorkerStep(WorkerState* worker,
                                    const Dataset& train) {
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
  worker->optimizer->Step(worker->view.params, worker->view.grads, dim_);
  worker->last_loss = loss.loss;
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
  std::unique_ptr<SyncCompressor> compressor;
  if (config_.sync_compression.enabled()) {
    compressor = std::make_unique<SyncCompressor>(
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
    ctx.compressor = compressor.get();
  }
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
  // clients by their home leaf (flat topologies give every client its own
  // link). A disabled config is the identity schedule: no chain advances,
  // everyone is up behind a live link, every contribution arrives, and the
  // barrier is the plain max.
  const size_t population = config_.FleetPopulation();
  const bool tree = network.tree().enabled();
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

  // The fault entity of slot k is its resident client.
  auto entity_of = [&](size_t k) { return static_cast<int>(fleet.cohort[k]); };

  // The evaluation model holds the average of the worker models — the
  // global model w_bar the paper's methodology evaluates. Averaging for
  // *measurement* does not transit the simulated network but runs on the
  // same parallel reduction engine as the collectives. The shared model's
  // own buffers serve as the evaluation buffers; its graph is the one the
  // workers execute against.
  Model* eval_model = shared_model_.get();
  std::vector<const float*> eval_srcs(workers.size());
  auto refresh_eval_model = [&] {
    // Down workers hold stale parameters; w_bar averages the live fleet
    // (everyone, for fault-free runs). With the whole fleet down, the last
    // synchronized model is the only meaningful global state.
    size_t live = 0;
    for (size_t k = 0; k < workers.size(); ++k) {
      if (injector->IsUp(entity_of(k))) {
        eval_srcs[live++] = workers[k].view.params;
      }
    }
    if (live == 0) {
      vec::Copy(sync_params.data(), eval_model->params(), dim_);
      return;
    }
    ReduceMeanInto(eval_srcs.data(), live, dim_, eval_model->params());
  };

  const size_t steps_per_epoch = std::max<size_t>(
      1, workers[0].sampler->steps_per_epoch());
  const size_t eval_every = config_.eval_every_steps > 0
                                ? config_.eval_every_steps
                                : steps_per_epoch;

  TrainResult result;
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
      network.AccountCatchUpSync(dim_, k);
      ReanchorRejoinedWorker(&arena, &workers[static_cast<size_t>(k)],
                             sync_params.data(), dim_);
      if (compressor != nullptr) {
        // A rejoiner restarts exactly on the global model; stale
        // compression memory would re-inject its crashed trajectory.
        compressor->ResetWorker(k);
      }
      ++result.rejoin_count;
    }

    // Crashed workers compute nothing this round; everyone else steps.
    auto run_worker = [&](size_t k) {
      if (injector->IsUp(entity_of(k))) {
        WorkerStep(&workers[k], train_);
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
    // sync-eligible fleet — up workers behind a live link — and let the
    // deadline cut the rest. The step costs the slowest survivor's time.
    for (size_t k = 0; k < workers.size(); ++k) {
      step_times[k] = config_.straggler.SampleStepSeconds(
          workers[k].speed_factor, &straggler_rng);
      const int entity = entity_of(k);
      ctx.participation[k] =
          injector->IsUp(entity) && injector->LinkUp(entity) ? 1 : 0;
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

    if (step % eval_every == 0 || step == config_.max_steps) {
      refresh_eval_model();
      EvalResult test_eval = EvaluateSubset(
          eval_model, test_, config_.eval_subset, config_.seed ^ step);
      EvalResult train_eval =
          EvaluateSubset(eval_model, train_, config_.eval_subset,
                         config_.seed ^ (step + 77));
      EvalPoint point;
      point.step = step;
      point.epoch = static_cast<double>(step) /
                    static_cast<double>(steps_per_epoch);
      point.test_accuracy = test_eval.accuracy;
      point.train_accuracy = train_eval.accuracy;
      point.bytes = network.stats().bytes_total;
      point.sync_count = ctx.sync_count;
      point.sim_seconds = result.compute_seconds +
                          network.stats().comm_seconds;
      result.history.push_back(point);

      if (!result.reached_target &&
          test_eval.accuracy >= config_.accuracy_target) {
        result.reached_target = true;
        result.steps_to_target = step;
        result.bytes_to_target = network.stats().bytes_total;
        result.syncs_to_target = ctx.sync_count;
        result.sim_seconds_to_target = point.sim_seconds;
        break;  // training run is defined as "until the target epoch"
      }
    }
  }

  refresh_eval_model();
  result.final_test_accuracy =
      Evaluate(eval_model, test_).accuracy;
  result.final_train_accuracy =
      EvaluateSubset(eval_model, train_,
                     std::min<size_t>(train_.size(), 2048),
                     config_.seed ^ 0x51ULL)
          .accuracy;
  result.total_steps = result.history.empty()
                           ? config_.max_steps
                           : result.history.back().step;
  result.total_syncs = ctx.sync_count;
  result.skipped_syncs = ctx.skipped_syncs;
  result.comm = network.stats();
  if (!result.reached_target) {
    result.steps_to_target = result.total_steps;
    result.bytes_to_target = result.comm.bytes_total;
    result.syncs_to_target = ctx.sync_count;
    result.sim_seconds_to_target =
        result.compute_seconds + result.comm.comm_seconds;
  }
  fedprox_anchor_ = nullptr;  // points into this Run's locals
  return result;
}

}  // namespace fedra
