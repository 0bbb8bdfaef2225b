// FedOpt family (Reddi et al., 2021): FedAvg, FedAvgM, FedAdam.
//
// Workers train for E local epochs, then a round runs: the average client
// delta  Delta_bar = mean_k (w_k - w_global)  is AllReduced and the server
// optimizer applies  w_global <- ServerOpt(w_global, -Delta_bar)  treating
// -Delta_bar as a pseudo-gradient. With server SGD at lr 1.0 this is exactly
// FedAvg; server SGD-momentum gives FedAvgM; server Adam gives FedAdam.
// Server state is replicated deterministically on every worker, so one
// AllReduce per round suffices (no extra broadcast), matching the AllReduce
// formulation the paper uses for its own synchronization. Clients are
// stateless in the FedOpt formulation: every round resets the receiving
// workers' local optimizer state.

#ifndef FEDRA_CORE_FEDOPT_POLICY_H_
#define FEDRA_CORE_FEDOPT_POLICY_H_

#include <memory>
#include <string>

#include "core/trainer.h"
#include "opt/optimizer.h"

namespace fedra {

struct FedOptConfig {
  /// Local epochs per round; the paper uses E = 1 (following [42]).
  int local_epochs = 1;
  /// Server optimizer. Defaults to FedAvg (SGD, lr 1.0).
  OptimizerConfig server_optimizer = OptimizerConfig::Sgd(1.0f);
  /// Ignore the round participation mask: average every worker's delta —
  /// stale params from crashed workers included — and never run the
  /// loss/retry gauntlet. This is the fault-oblivious strawman the churn
  /// example measures against. Default off: under fault injection rounds
  /// average survivors only, with per-contribution loss/retry billing.
  bool fault_oblivious = false;
  std::string display_name = "FedAvg";

  /// FedAvgM per Hsu et al. / the paper §4.1: server SGD-momentum with
  /// momentum 0.9 and lr 0.316.
  static FedOptConfig FedAvgM(int local_epochs = 1);
  /// FedAdam per Reddi et al.: server Adam.
  static FedOptConfig FedAdam(int local_epochs = 1,
                              float server_lr = 0.01f);
  /// Plain FedAvg.
  static FedOptConfig FedAvg(int local_epochs = 1);
};

class FedOptPolicy : public SyncPolicy {
 public:
  explicit FedOptPolicy(FedOptConfig config);

  void Initialize(ClusterContext& ctx) override;
  bool MaybeSync(ClusterContext& ctx) override;
  std::string name() const override { return config_.display_name; }

  size_t rounds_completed() const { return rounds_; }

 private:
  FedOptConfig config_;
  std::unique_ptr<Optimizer> server_optimizer_;
  std::vector<float> pseudo_grad_;
  size_t steps_per_round_ = 0;
  size_t rounds_ = 0;
};

}  // namespace fedra

#endif  // FEDRA_CORE_FEDOPT_POLICY_H_
