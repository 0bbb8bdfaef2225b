// FaultInjector: deterministic fault schedules for the simulated fleet.
//
// Real federated deployments are defined by churn — clients crash and
// rejoin mid-training, sync messages get lost on flaky links, and slow
// clients miss round deadlines (paper §3.3; Kamp et al. claim dynamic
// averaging degrades gracefully under exactly these conditions). The
// injector turns those phenomena into seeded, bit-reproducible schedules
// the trainers consume:
//
//   worker churn     a Markov up/down chain per worker, advanced once per
//                    round: an up worker crashes with probability
//                    1 / worker_mttf_rounds, a down worker repairs with
//                    probability 1 / worker_mttr_rounds. Crashed workers
//                    compute nothing; repaired workers must pay a catch-up
//                    model sync (the trainer bills it).
//   link outages     the same chain per network link entity — one per leaf
//                    group under a TopologyTree, one per worker on a flat
//                    topology. A worker behind a dead link keeps computing
//                    but cannot participate in synchronization.
//   message loss     every sync contribution is delivered independently
//                    with probability 1 - message_loss_prob; each loss
//                    triggers a retry after exponential backoff, up to
//                    max_retries, after which the contribution is dropped
//                    for the round (SimNetwork bills retries and drops).
//   round deadline   BSP rounds close at round_deadline_seconds: workers
//                    whose sampled step time exceeds the deadline are cut
//                    from the round's participation mask and the barrier
//                    is capped at the deadline.
//
// All chains advance in fixed worker order inside BeginRound, on a private
// Rng stream forked from the trainer seed — the schedule is a pure function
// of (config, seed, round index), independent of FEDRA_NUM_THREADS.

#ifndef FEDRA_SIM_FAULT_MODEL_H_
#define FEDRA_SIM_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "sim/topology_tree.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedra {

/// Fault-injection knobs. All-zero (the default) means fault-free: the
/// injector built from it is the identity schedule — BeginRound advances no
/// chain, IsUp and LinkUp are always true, SampleDelivery and SampleCrash
/// draw nothing, and ApplyDeadline returns the plain max of the step times.
/// The trainers run their one code path under it.
struct FaultConfig {
  /// Mean rounds between crashes of an up worker; 0 disables churn. Must be
  /// >= 1 when set (the per-round crash probability is 1 / mttf).
  double worker_mttf_rounds = 0.0;
  /// Mean rounds a crashed worker stays down; must be >= 1 when churn is on.
  double worker_mttr_rounds = 0.0;

  /// Mean rounds between outages of a link entity (leaf group under a tree,
  /// individual worker otherwise); 0 disables link outages.
  double link_mttf_rounds = 0.0;
  /// Mean rounds an out link stays down; must be >= 1 when outages are on.
  double link_mttr_rounds = 0.0;

  /// Probability a sync contribution is lost in transit, in [0, 1].
  double message_loss_prob = 0.0;
  /// Retransmissions attempted per lost contribution before it is dropped.
  int max_retries = 3;
  /// Backoff before retry i is retry_backoff_seconds * 2^i.
  double retry_backoff_seconds = 0.005;

  /// BSP rounds close after this many simulated seconds; workers slower
  /// than the deadline are cut from the round. 0 disables the cutoff.
  double round_deadline_seconds = 0.0;

  /// True when any fault mechanism is active.
  bool enabled() const {
    return worker_mttf_rounds > 0.0 || link_mttf_rounds > 0.0 ||
           message_loss_prob > 0.0 || round_deadline_seconds > 0.0;
  }

  /// Validates ranges (MTTF/MTTR >= 1 when set, loss probability in [0, 1],
  /// non-negative retry/deadline knobs). Returns InvalidArgument instead of
  /// crashing so callers can surface bad configs.
  Status Validate() const;

  /// Fault-free schedule (the default).
  static FaultConfig None() { return FaultConfig(); }
  /// Worker churn with the given mean time to failure / repair (rounds).
  static FaultConfig Churn(double mttf_rounds, double mttr_rounds);
};

/// Seeded source of per-round fault schedules. One injector serves one
/// training run; the trainer calls BeginRound() once per BSP round (async
/// FDA, DistributedTrainer::RunAsync, uses the event-level Sample* hooks
/// instead).
class FaultInjector {
 public:
  /// One fault entity per worker. `tree` (optional, read only during
  /// construction) groups link outages by leaf group; null or disabled
  /// means one link entity per worker. Delegates to the entity-links
  /// constructor with that worker -> link map.
  FaultInjector(const FaultConfig& config, int num_workers, uint64_t seed,
                const TopologyTree* tree = nullptr);

  /// The chains run over `num_entities` fault entities (the simulated
  /// clients of the fleet, or the workers themselves) and `entity_link`
  /// maps each one to its link-outage entity in [0, num_links): the
  /// synchronous trainer passes every client's home leaf group. At
  /// population == K that map is the worker layout, so the chains are the
  /// ones the tree constructor draws.
  FaultInjector(const FaultConfig& config, int num_entities, uint64_t seed,
                std::vector<int> entity_link, int num_links);

  const FaultConfig& config() const { return config_; }
  int num_workers() const { return num_workers_; }
  uint64_t rounds() const { return rounds_; }

  /// Advances every churn and link chain by one round, in fixed worker /
  /// link order. Refreshes worker_up(), link_up(), and rejoined().
  void BeginRound();

  /// Per-worker compute availability after the last BeginRound.
  const std::vector<char>& worker_up() const { return worker_up_; }
  bool IsUp(int worker) const { return worker_up_[worker] != 0; }
  int NumUp() const;

  /// Per-worker link availability (an up worker behind a down link computes
  /// but cannot sync).
  bool LinkUp(int worker) const {
    return link_state_.empty() || link_state_[worker_link_[worker]] != 0;
  }

  /// Workers that transitioned down -> up in the last BeginRound; they need
  /// a catch-up model sync before computing again.
  const std::vector<int>& rejoined() const { return rejoined_; }

  /// Outcome of delivering one sync contribution under message loss.
  struct Delivery {
    int retries = 0;       // retransmissions actually used
    bool delivered = true;  // false => dropped after max_retries
  };
  /// Samples loss + bounded retries for one contribution. Draws nothing
  /// when message_loss_prob is 0.
  Delivery SampleDelivery();

  /// Deadline cutoff: clears mask entries whose sampled step time exceeds
  /// round_deadline_seconds and returns the round's barrier time — the
  /// slowest surviving participant, or the full deadline when anyone was
  /// cut (the coordinator waits the deadline out before closing the
  /// round); 0 when the mask is empty. Entries already 0 in `mask` are
  /// ignored. With no deadline configured, returns the plain max over
  /// masked entries.
  double ApplyDeadline(const std::vector<double>& step_seconds,
                       std::vector<char>* mask) const;

  // ------------------------------------------------ event-driven hooks --
  // Async FDA has no rounds; it samples the same hazards per completed
  // worker step.

  /// True when the worker crashes at the end of its current step
  /// (probability 1 / worker_mttf_rounds). Draws nothing with churn off.
  bool SampleCrash();
  /// Rounds (~steps) a crashed worker stays down: geometric with mean
  /// worker_mttr_rounds, always >= 1.
  double SampleRepairRounds();

 private:
  // One Markov transition: returns the new state for an entity currently
  // `up`, crashing with probability 1/mttf and repairing with 1/mttr.
  bool AdvanceChain(bool up, double mttf, double mttr);

  FaultConfig config_;
  int num_workers_;
  Rng rng_;
  uint64_t rounds_ = 0;
  std::vector<char> worker_up_;
  std::vector<char> link_state_;  // per link entity; empty => outages off
  std::vector<int> worker_link_;  // worker -> link entity
  std::vector<int> rejoined_;
};

}  // namespace fedra

#endif  // FEDRA_SIM_FAULT_MODEL_H_
