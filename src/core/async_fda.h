// Asynchronous FDA (paper §3.3).
//
// One node acts as coordinator. Workers train at their own pace; on every
// completed local step a worker uploads its (small) local state to the
// coordinator, which re-evaluates H over the most recent state of every
// worker. When H > Theta the coordinator triggers a synchronization: all
// models are averaged (coordinator-mediated) and training resumes from the
// new global model. As the paper notes, the benefit is not bandwidth — the
// states are tiny either way — but that fast workers are never blocked at a
// per-step barrier behind stragglers.
//
// The simulation is event-driven over simulated time: worker step durations
// come from the StragglerModel, and the trainer reports both the per-worker
// step counts and the simulated wall time so benches can contrast async FDA
// against the synchronous (BSP-barrier) FDA under identical stragglers.
//
// Topology-aware: the trainer builds its network via MakeSimNetwork, so
// TrainerConfig::topology applies — state uploads bill one hop per tier on
// the uploading worker's path to the root, and the synchronization stall
// follows the tree's grouped collective cost (ModelSyncSeconds).

#ifndef FEDRA_CORE_ASYNC_FDA_H_
#define FEDRA_CORE_ASYNC_FDA_H_

#include <memory>

#include "core/trainer.h"
#include "core/variance_monitor.h"

namespace fedra {

struct AsyncFdaConfig {
  double theta = 1.0;
  MonitorConfig monitor;
  /// Stop when this many worker steps have completed in total (the
  /// in-parallel equivalent is total / K), or earlier on accuracy target.
  size_t max_total_worker_steps = 8000;
};

struct AsyncTrainResult {
  TrainResult base;  // steps_to_target counts in-parallel equivalents
  double sim_wall_seconds = 0.0;   // event-driven simulated clock
  size_t total_worker_steps = 0;
  size_t sync_count = 0;
};

class AsyncFdaTrainer {
 public:
  AsyncFdaTrainer(ModelFactory factory, Dataset train, Dataset test,
                  TrainerConfig trainer_config, AsyncFdaConfig async_config);

  StatusOr<AsyncTrainResult> Run();

 private:
  Dataset train_;
  Dataset test_;
  TrainerConfig config_;
  AsyncFdaConfig async_;
  /// Shared layer graph + evaluation buffers (workers execute against the
  /// graph over their WorkerArena slices).
  std::unique_ptr<Model> shared_model_;
  size_t dim_ = 0;
};

}  // namespace fedra

#endif  // FEDRA_CORE_ASYNC_FDA_H_
