#include "core/fedopt_policy.h"

#include <algorithm>
#include <numeric>

#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

FedOptConfig FedOptConfig::FedAvgM(int local_epochs) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  // Paper §4.1: server momentum 0.9, lr 0.316 (following [42]).
  config.server_optimizer =
      OptimizerConfig::SgdMomentum(0.316f, 0.9f, /*nesterov=*/false);
  config.display_name = "FedAvgM";
  return config;
}

FedOptConfig FedOptConfig::FedAdam(int local_epochs, float server_lr) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  config.server_optimizer = OptimizerConfig::Adam(server_lr);
  config.display_name = "FedAdam";
  return config;
}

FedOptConfig FedOptConfig::FedAvg(int local_epochs) {
  FedOptConfig config;
  config.local_epochs = local_epochs;
  config.server_optimizer = OptimizerConfig::Sgd(1.0f);
  config.display_name = "FedAvg";
  return config;
}

FedOptPolicy::FedOptPolicy(FedOptConfig config)
    : config_(std::move(config)) {
  FEDRA_CHECK_GE(config_.local_epochs, 1);
}

void FedOptPolicy::Initialize(ClusterContext& ctx) {
  server_optimizer_ =
      Optimizer::Create(config_.server_optimizer, ctx.dim);
  pseudo_grad_.assign(ctx.dim, 0.0f);
  size_t steps_per_epoch = 1;
  for (auto& worker : *ctx.workers) {
    steps_per_epoch =
        std::max(steps_per_epoch, worker.sampler->steps_per_epoch());
  }
  steps_per_round_ =
      steps_per_epoch * static_cast<size_t>(config_.local_epochs);
}

bool FedOptPolicy::MaybeSync(ClusterContext& ctx) {
  if (ctx.steps_since_sync < steps_per_round_) {
    return false;
  }
  // Participants' uploads run the loss/retry gauntlet, and the server
  // averages the client deltas that arrived, relative to the round-start
  // global model w_global (held in ctx.sync_params). FedOpt already moves
  // deltas, so a codec drops straight in. Workers whose upload was dropped
  // keep training on their local model — they re-join the global
  // trajectory at the next delivered round. The fault-oblivious strawman
  // instead averages every worker, stale params from absent workers
  // included, and draws no deliveries.
  std::vector<int> delivered;
  if (config_.fault_oblivious) {
    delivered.resize(ctx.workers->size());
    std::iota(delivered.begin(), delivered.end(), 0);
  } else {
    delivered = ctx.DeliverParticipants();
  }
  if (delivered.empty()) {
    // Every contribution was lost: the round still closes (the cadence is
    // wall-clock, not delivery-gated) but the global model stays put.
    ++ctx.skipped_syncs;
    ctx.steps_since_sync = 0;
    return false;
  }
  // Pseudo-gradient is the negated average delta (Reddi et al.).
  const float* avg_delta = ctx.ExchangeDeltas(delivered, /*node=*/-1);
  for (size_t i = 0; i < ctx.dim; ++i) {
    pseudo_grad_[i] = -avg_delta[i];
  }
  // Every worker replicates the deterministic server update; clients are
  // stateless across rounds, so their local optimizers restart.
  *ctx.prev_sync_params = *ctx.sync_params;
  server_optimizer_->Step(ctx.sync_params->data(), pseudo_grad_.data(),
                          ctx.dim);
  for (int k : delivered) {
    WorkerState& worker = (*ctx.workers)[static_cast<size_t>(k)];
    vec::Copy(ctx.sync_params->data(), worker.view.params, ctx.dim);
    worker.optimizer->Reset();
  }
  ctx.steps_since_sync = 0;
  ++ctx.sync_count;
  ++rounds_;
  return true;
}

}  // namespace fedra
