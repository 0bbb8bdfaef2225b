#include "sim/fault_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

Status FaultConfig::Validate() const {
  if (worker_mttf_rounds < 0.0 || worker_mttr_rounds < 0.0) {
    return Status::InvalidArgument("worker MTTF/MTTR must be non-negative");
  }
  if (worker_mttf_rounds > 0.0) {
    if (worker_mttf_rounds < 1.0) {
      return Status::InvalidArgument(StrFormat(
          "worker_mttf_rounds must be >= 1 (crash probability 1/mttf), got "
          "%g",
          worker_mttf_rounds));
    }
    if (worker_mttr_rounds < 1.0) {
      return Status::InvalidArgument(StrFormat(
          "worker churn needs worker_mttr_rounds >= 1, got %g",
          worker_mttr_rounds));
    }
  }
  if (link_mttf_rounds < 0.0 || link_mttr_rounds < 0.0) {
    return Status::InvalidArgument("link MTTF/MTTR must be non-negative");
  }
  if (link_mttf_rounds > 0.0) {
    if (link_mttf_rounds < 1.0) {
      return Status::InvalidArgument(StrFormat(
          "link_mttf_rounds must be >= 1, got %g", link_mttf_rounds));
    }
    if (link_mttr_rounds < 1.0) {
      return Status::InvalidArgument(StrFormat(
          "link outages need link_mttr_rounds >= 1, got %g",
          link_mttr_rounds));
    }
  }
  if (message_loss_prob < 0.0 || message_loss_prob > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "message_loss_prob must be in [0, 1], got %g", message_loss_prob));
  }
  if (max_retries < 0) {
    return Status::InvalidArgument(
        StrFormat("max_retries must be >= 0, got %d", max_retries));
  }
  if (retry_backoff_seconds < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "retry_backoff_seconds must be >= 0, got %g", retry_backoff_seconds));
  }
  if (round_deadline_seconds < 0.0) {
    return Status::InvalidArgument(StrFormat(
        "round_deadline_seconds must be >= 0, got %g",
        round_deadline_seconds));
  }
  return Status::Ok();
}

FaultConfig FaultConfig::Churn(double mttf_rounds, double mttr_rounds) {
  FaultConfig config;
  config.worker_mttf_rounds = mttf_rounds;
  config.worker_mttr_rounds = mttr_rounds;
  return config;
}

namespace {

bool TreeEnabled(const TopologyTree* tree) {
  return tree != nullptr && tree->enabled();
}

// Link entity of every worker: its leaf group under an enabled tree, else
// the worker itself.
std::vector<int> WorkerLinks(int num_workers, const TopologyTree* tree) {
  std::vector<int> links(static_cast<size_t>(std::max(num_workers, 0)));
  for (int k = 0; k < num_workers; ++k) {
    links[static_cast<size_t>(k)] =
        TreeEnabled(tree) ? tree->LeafGroupOfWorker(k, num_workers) : k;
  }
  return links;
}

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config, int num_workers,
                             uint64_t seed, const TopologyTree* tree)
    : FaultInjector(config, num_workers, seed, WorkerLinks(num_workers, tree),
                    TreeEnabled(tree) ? tree->num_leaf_groups()
                                      : num_workers) {}

FaultInjector::FaultInjector(const FaultConfig& config, int num_entities,
                             uint64_t seed, std::vector<int> entity_link,
                             int num_links)
    : config_(config), num_workers_(num_entities), rng_(Rng(seed).Fork(202)) {
  FEDRA_CHECK(config_.Validate().ok())
      << "invalid FaultConfig: " << config_.Validate().ToString();
  FEDRA_CHECK_GT(num_workers_, 0);
  FEDRA_CHECK_GT(num_links, 0);
  FEDRA_CHECK_EQ(entity_link.size(), static_cast<size_t>(num_entities));
  worker_up_.assign(static_cast<size_t>(num_workers_), 1);
  worker_link_ = std::move(entity_link);
  for (const int link : worker_link_) {
    FEDRA_CHECK_GE(link, 0);
    FEDRA_CHECK_LT(link, num_links);
  }
  if (config_.link_mttf_rounds > 0.0) {
    link_state_.assign(static_cast<size_t>(num_links), 1);
  }
}

bool FaultInjector::AdvanceChain(bool up, double mttf, double mttr) {
  if (up) {
    return !rng_.NextBernoulli(1.0 / mttf);
  }
  return rng_.NextBernoulli(1.0 / mttr);
}

void FaultInjector::BeginRound() {
  rejoined_.clear();
  if (config_.worker_mttf_rounds > 0.0) {
    for (int k = 0; k < num_workers_; ++k) {
      const bool was_up = worker_up_[static_cast<size_t>(k)] != 0;
      const bool now_up = AdvanceChain(was_up, config_.worker_mttf_rounds,
                                       config_.worker_mttr_rounds);
      if (!was_up && now_up) {
        rejoined_.push_back(k);
      }
      worker_up_[static_cast<size_t>(k)] = now_up ? 1 : 0;
    }
  }
  if (!link_state_.empty()) {
    for (char& state : link_state_) {
      state = AdvanceChain(state != 0, config_.link_mttf_rounds,
                           config_.link_mttr_rounds)
                  ? 1
                  : 0;
    }
  }
  ++rounds_;
}

int FaultInjector::NumUp() const {
  int up = 0;
  for (char state : worker_up_) {
    up += state != 0;
  }
  return up;
}

FaultInjector::Delivery FaultInjector::SampleDelivery() {
  Delivery outcome;
  const double p = config_.message_loss_prob;
  if (p <= 0.0) {
    return outcome;
  }
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (!rng_.NextBernoulli(p)) {
      outcome.retries = attempt;
      return outcome;
    }
  }
  outcome.retries = config_.max_retries;
  outcome.delivered = false;
  return outcome;
}

double FaultInjector::ApplyDeadline(const std::vector<double>& step_seconds,
                                    std::vector<char>* mask) const {
  FEDRA_CHECK_EQ(step_seconds.size(), mask->size());
  const double deadline = config_.round_deadline_seconds;
  double barrier = 0.0;
  bool any_cut = false;
  for (size_t k = 0; k < mask->size(); ++k) {
    if ((*mask)[k] == 0) {
      continue;
    }
    if (deadline > 0.0 && step_seconds[k] > deadline) {
      (*mask)[k] = 0;  // cut: the round closes without this worker
      any_cut = true;
      continue;
    }
    barrier = std::max(barrier, step_seconds[k]);
  }
  // When anyone was cut, the coordinator waited the full deadline before
  // closing the round.
  return any_cut ? deadline : barrier;
}

bool FaultInjector::SampleCrash() {
  if (config_.worker_mttf_rounds <= 0.0) {
    return false;
  }
  return rng_.NextBernoulli(1.0 / config_.worker_mttf_rounds);
}

double FaultInjector::SampleRepairRounds() {
  const double mttr = std::max(1.0, config_.worker_mttr_rounds);
  const double p = 1.0 / mttr;
  const double u = rng_.NextDouble();
  if (p >= 1.0) {
    return 1.0;
  }
  // Inverse-CDF geometric draw: smallest r >= 1 with CDF(r) >= u.
  return std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
}

}  // namespace fedra
