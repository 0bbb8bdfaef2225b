#include "core/async_fda.h"

#include <algorithm>
#include <queue>

#include "metrics/evaluation.h"
#include "nn/loss.h"
#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

namespace {

struct StepEvent {
  double time = 0.0;
  int worker = 0;
  bool rejoin = false;  // repair completion rather than a step
  bool operator>(const StepEvent& other) const { return time > other.time; }
};

}  // namespace

AsyncFdaTrainer::AsyncFdaTrainer(ModelFactory factory, Dataset train,
                                 Dataset test, TrainerConfig trainer_config,
                                 AsyncFdaConfig async_config)
    : train_(std::move(train)),
      test_(std::move(test)),
      config_(std::move(trainer_config)),
      async_(std::move(async_config)) {
  FEDRA_CHECK(factory != nullptr);
  shared_model_ = factory();
  FEDRA_CHECK(shared_model_ != nullptr);
  dim_ = shared_model_->num_params();
}

StatusOr<AsyncTrainResult> AsyncFdaTrainer::Run() {
  FEDRA_RETURN_IF_ERROR(config_.Validate());
  if (config_.sync_compression.enabled()) {
    // The async gossip exchange has no round structure for error-feedback
    // residuals to anchor to; the one combination the codec pipeline does
    // not cover yet is rejected as a Status, never a runtime abort.
    return Status::InvalidArgument(
        "AsyncFdaTrainer does not support sync_compression yet");
  }
  auto monitor_or = MakeVarianceMonitor(async_.monitor, dim_);
  if (!monitor_or.ok()) {
    return monitor_or.status();
  }
  std::unique_ptr<VarianceMonitor> monitor = std::move(monitor_or).value();

  SimNetwork network = MakeSimNetwork(config_);

  // The cohort: one shared graph, one arena holding every per-worker slab.
  // BuildWorkerCohort wires worker.state because the monitor scratch is
  // allocated before it runs, and its shared rng forking keeps per-seed
  // straggler factors identical to the synchronous trainer (fair
  // comparisons).
  ModelGraph& graph = shared_model_->graph();
  WorkerArena arena(config_.num_workers, dim_,
                    config_.local_optimizer.StateSlots());
  arena.AllocateStateScratch(monitor->StateSize());
  std::vector<WorkerState> workers;
  Rng straggler_rng(0);  // overwritten with the post-setup stream
  FEDRA_RETURN_IF_ERROR(BuildWorkerCohort(config_, train_, graph,
                                          /*initial_params=*/{}, &arena,
                                          &workers, &straggler_rng));

  // Slowest-link collective cost, matching the synchronous trainer.
  SetLinkFactorsFromWorkers(workers, &network);

  // Event-level fault injection: the async trainer has no rounds, so it
  // consumes the injector's per-event hooks — a worker crashes at step
  // completion with probability 1/mttf and repairs after a geometric
  // number of its own step times; every upload runs the loss/retry
  // gauntlet. Round-scoped faults (link outages, deadlines) have no
  // event-driven analogue and are ignored here. A disabled config is the
  // identity schedule: no crash, every upload delivered, nothing drawn.
  FaultInjector injector(config_.faults, config_.num_workers, config_.seed,
                         &network.tree());
  std::vector<char> worker_up(static_cast<size_t>(config_.num_workers), 1);

  // The fleet: the paged client store behind the K resident slots. The
  // async trainer has no rounds, so the cohort rotates at synchronization
  // boundaries instead: every successful sync re-samples the cohort
  // against the fresh anchor. Sampling always passes a null injector —
  // the event loop never runs the round-scoped availability chains, and
  // the sampler degrades to uniform without them. Faults stay slot-level:
  // a crash models the machine slot, and a client checked into a downed
  // slot inherits its repair timer (re-anchoring at rejoin like any other
  // mid-residency crash). A resident config is the identity fleet,
  // population == K: every sample is the identity and nothing moves.
  FleetState fleet;
  FEDRA_RETURN_IF_ERROR(BuildFleet(config_, train_, network, dim_, &fleet));
  fleet.store->SetStateSize(monitor->StateSize());

  std::vector<float> sync_params(dim_);
  std::vector<float> prev_sync_params(dim_);
  vec::Copy(workers[0].view.params, sync_params.data(), dim_);
  prev_sync_params = sync_params;

  // Round 0: seed the resident set. With population == K the sample is
  // the identity: no rng draws, no float roundtrips.
  RotateFleetCohort(config_,
                    fleet.sampler->Sample(/*round=*/0, /*faults=*/nullptr),
                    &fleet, &workers, &arena, &network, sync_params.data(),
                    monitor.get(), /*initial=*/true);

  // Coordinator's view: the latest state of every worker.
  std::vector<std::vector<float>> latest_states(
      workers.size(), std::vector<float>(monitor->StateSize(), 0.0f));
  std::vector<float> mean_state(monitor->StateSize(), 0.0f);

  Model* eval_model = shared_model_.get();
  std::vector<const float*> eval_srcs(workers.size());
  auto refresh_eval_model = [&] {
    // Crashed workers' stale params stay out of the evaluated average.
    size_t live = 0;
    for (size_t k = 0; k < workers.size(); ++k) {
      if (worker_up[k] == 0) {
        continue;
      }
      eval_srcs[live++] = workers[k].view.params;
    }
    if (live == 0) {
      vec::Copy(sync_params.data(), eval_model->params(), dim_);
      return;
    }
    ReduceMeanInto(eval_srcs.data(), live, dim_, eval_model->params());
  };

  // Event queue: next step-completion time per worker.
  std::priority_queue<StepEvent, std::vector<StepEvent>,
                      std::greater<StepEvent>>
      events;
  for (int k = 0; k < config_.num_workers; ++k) {
    events.push({config_.straggler.SampleStepSeconds(
                     workers[static_cast<size_t>(k)].speed_factor,
                     &straggler_rng),
                 k});
  }

  AsyncTrainResult result;
  result.base.algorithm = "AsyncFDA(" + monitor->name() + ")";
  double clock = 0.0;
  size_t total_steps = 0;
  const size_t steps_per_epoch =
      std::max<size_t>(1, workers[0].sampler->steps_per_epoch());
  const size_t eval_every =
      (config_.eval_every_steps > 0 ? config_.eval_every_steps
                                    : steps_per_epoch) *
      static_cast<size_t>(config_.num_workers);
  size_t next_eval = eval_every;

  while (total_steps < async_.max_total_worker_steps && !events.empty()) {
    StepEvent event = events.top();
    events.pop();
    // max(): a pending repair can predate the clock after a sync stall.
    clock = std::max(clock, event.time);
    WorkerState& worker = workers[static_cast<size_t>(event.worker)];

    if (event.rejoin) {
      // Repair completes: the worker downloads the current global model
      // (billed as a catch-up sync), re-anchors its optimizer and monitor
      // state, and resumes stepping at its own pace.
      worker_up[static_cast<size_t>(event.worker)] = 1;
      network.AccountCatchUpSync(dim_, event.worker);
      ReanchorRejoinedWorker(&arena, &worker, sync_params.data(), dim_);
      auto& state = latest_states[static_cast<size_t>(event.worker)];
      std::fill(state.begin(), state.end(), 0.0f);
      ++result.base.rejoin_count;
      events.push({clock + config_.straggler.SampleStepSeconds(
                               worker.speed_factor, &straggler_rng),
                   event.worker});
      continue;
    }

    // The worker finishes one local step at `clock`.
    const std::vector<size_t>& batch = worker.sampler->NextBatch();
    Tensor images = train_.GatherImages(batch);
    std::vector<int> labels = train_.GatherLabels(batch);
    vec::Fill(worker.view.grads, dim_, 0.0f);
    {
      ModelGraph::ExecSlot slot = graph.AcquireSlot();
      Tensor logits = graph.Forward(images, worker.view, slot,
                                    /*training=*/true, &worker.rng);
      LossResult loss = SoftmaxCrossEntropy(logits, labels);
      graph.Backward(loss.grad_logits, worker.view, slot);
      worker.last_loss = loss.loss;
    }
    worker.optimizer->Step(worker.view.params, worker.view.grads, dim_);
    ++total_steps;

    if (injector.SampleCrash()) {
      // The worker dies at step completion: nothing is uploaded, its
      // params go stale, and the repair timer starts now — a geometric
      // number (mean worker_mttr_rounds) of its own typical step times.
      worker_up[static_cast<size_t>(event.worker)] = 0;
      const double repair = injector.SampleRepairRounds() *
                            config_.straggler.base_step_seconds *
                            worker.speed_factor;
      events.push({clock + repair, event.worker, /*rejoin=*/true});
      continue;
    }

    // Upload the local state to the coordinator (point-to-point); the fused
    // kernel computes the drift and its squared norm in one pass. Under
    // message loss the upload runs the retry gauntlet; a dropped upload
    // leaves the coordinator's view of this worker stale (no decision).
    monitor->ComputeDriftAndState(worker.view.params, sync_params.data(),
                                  worker.drift, worker.state);
    const bool uploaded = DeliverContribution(
        &injector, &network, event.worker,
        monitor->StateSize() * sizeof(float), TrafficClass::kLocalState);
    bool trip = false;
    if (uploaded) {
      latest_states[static_cast<size_t>(event.worker)]
          .assign(worker.state, worker.state + monitor->StateSize());
      network.PointToPoint(monitor->StateSize(), TrafficClass::kLocalState,
                           event.worker);

      // Coordinator decision on the freshest state of every live worker
      // (crashed workers' last states are excluded from the mean).
      vec::Fill(mean_state.data(), mean_state.size(), 0.0f);
      int live = 0;
      for (size_t k = 0; k < workers.size(); ++k) {
        live += worker_up[k] != 0;
      }
      const float inv_k = 1.0f / static_cast<float>(live);
      for (size_t k = 0; k < workers.size(); ++k) {
        if (worker_up[k] == 0) {
          continue;
        }
        vec::Axpy(inv_k, latest_states[k].data(), mean_state.data(),
                  mean_state.size());
      }
      // The coordinator's estimate folds the off-cohort population's
      // stored states in (a bitwise no-op when population == K).
      trip = fleet.store->PopulationEstimate(*monitor, mean_state.data(),
                                             live) > async_.theta;
    }
    if (trip) {
      // Coordinator-mediated synchronization (accounted as a full-model
      // collective) over the live workers. All in-flight compute is
      // abandoned and re-queued; pending repairs survive the rebuild.
      // Each live worker's model contribution runs the same loss/retry
      // gauntlet as the state uploads; the coordinator averages what
      // arrives and pushes the result back to every live worker.
      std::vector<float*> params = arena.ParamPointers();
      std::vector<int> delivered;
      std::vector<float*> delivered_params;
      for (int k = 0; k < config_.num_workers; ++k) {
        if (worker_up[static_cast<size_t>(k)] != 0 &&
            DeliverContribution(&injector, &network, k, dim_ * sizeof(float),
                                TrafficClass::kModelSync)) {
          delivered.push_back(k);
          delivered_params.push_back(params[static_cast<size_t>(k)]);
        }
      }
      if (delivered.empty()) {
        // Every contribution lost: the attempt still stalled the fleet,
        // but the anchor stays put and the monitor keeps estimating.
        ++result.base.skipped_syncs;
      } else {
        network.AllReduceAverageSubset(delivered_params, delivered, dim_,
                                       TrafficClass::kModelSync);
        prev_sync_params = sync_params;
        vec::Copy(delivered_params[0], sync_params.data(), dim_);
        // Live workers whose upload was dropped still receive the new
        // global model from the coordinator's broadcast.
        for (int k = 0; k < config_.num_workers; ++k) {
          if (worker_up[static_cast<size_t>(k)] != 0) {
            vec::Copy(sync_params.data(), params[static_cast<size_t>(k)],
                      dim_);
          }
        }
        monitor->OnSynchronized(sync_params.data(),
                                prev_sync_params.data());
        for (auto& state : latest_states) {
          std::fill(state.begin(), state.end(), 0.0f);
        }
        ++result.sync_count;
        // Rotate the cohort against the fresh anchor. Departing clients
        // park their (post-sync) drift in the store; arrivals restore
        // theirs and bill a check-in model download. With population == K
        // the sample is the identity and nothing moves.
        RotateFleetCohort(config_,
                          fleet.sampler->Sample(fleet.rotations,
                                                /*faults=*/nullptr),
                          &fleet, &workers, &arena, &network,
                          sync_params.data(), monitor.get(),
                          /*initial=*/false);
      }
      // Sync latency stalls everyone: rebuild the event queue from now.
      // The stall matches the configured topology (hierarchical grouped
      // collectives included), mirroring what the accounting charged.
      clock += network.ModelSyncSeconds(dim_ * sizeof(float));
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
      for (int k = 0; k < config_.num_workers; ++k) {
        if (worker_up[static_cast<size_t>(k)] == 0) {
          continue;
        }
        events.push({clock + config_.straggler.SampleStepSeconds(
                                 workers[static_cast<size_t>(k)].speed_factor,
                                 &straggler_rng),
                     k});
      }
    } else {
      events.push({clock + config_.straggler.SampleStepSeconds(
                               worker.speed_factor, &straggler_rng),
                   event.worker});
    }

    if (total_steps >= next_eval) {
      next_eval += eval_every;
      refresh_eval_model();
      EvalResult eval = EvaluateSubset(eval_model, test_,
                                       config_.eval_subset,
                                       config_.seed ^ total_steps);
      EvalResult train_eval =
          EvaluateSubset(eval_model, train_, config_.eval_subset,
                         config_.seed ^ (total_steps + 77));
      EvalPoint point;
      point.step = total_steps / static_cast<size_t>(config_.num_workers);
      // Same axes as the synchronous trainer's history so async CSV/plots
      // are directly comparable.
      point.epoch = static_cast<double>(point.step) /
                    static_cast<double>(steps_per_epoch);
      point.test_accuracy = eval.accuracy;
      point.train_accuracy = train_eval.accuracy;
      point.bytes = network.stats().bytes_total;
      point.sync_count = result.sync_count;
      point.sim_seconds = clock;
      result.base.history.push_back(point);
      if (!result.base.reached_target &&
          eval.accuracy >= config_.accuracy_target) {
        result.base.reached_target = true;
        result.base.steps_to_target = point.step;
        result.base.bytes_to_target = point.bytes;
        result.base.syncs_to_target = result.sync_count;
        result.base.sim_seconds_to_target = clock;
        break;
      }
    }
  }

  refresh_eval_model();
  result.base.final_test_accuracy =
      Evaluate(eval_model, test_).accuracy;
  result.base.comm = network.stats();
  result.base.total_syncs = result.sync_count;
  result.sim_wall_seconds = clock;
  result.total_worker_steps = total_steps;
  result.base.total_steps =
      total_steps / static_cast<size_t>(config_.num_workers);
  if (!result.base.reached_target) {
    result.base.steps_to_target = result.base.total_steps;
    result.base.bytes_to_target = result.base.comm.bytes_total;
    result.base.syncs_to_target = result.sync_count;
    result.base.sim_seconds_to_target = clock;
  }
  return result;
}

}  // namespace fedra
