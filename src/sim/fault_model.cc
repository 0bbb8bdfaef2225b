#include "sim/fault_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

// Every range check is written so that NaN fails it: a NaN knob would
// otherwise pass as "off" (NaN > 0 is false) or bill NaN seconds.
Status FaultConfig::Validate() const {
  if (!(worker_mttf_rounds >= 0.0) || !(worker_mttr_rounds >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "worker MTTF/MTTR must be non-negative numbers, got %g/%g",
        worker_mttf_rounds, worker_mttr_rounds));
  }
  if (worker_mttf_rounds > 0.0) {
    if (!(worker_mttf_rounds >= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "worker_mttf_rounds must be >= 1 (crash probability 1/mttf), got "
          "%g",
          worker_mttf_rounds));
    }
    if (!(worker_mttr_rounds >= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "worker churn needs worker_mttr_rounds >= 1, got %g",
          worker_mttr_rounds));
    }
  }
  if (!(link_mttf_rounds >= 0.0) || !(link_mttr_rounds >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "link MTTF/MTTR must be non-negative numbers, got %g/%g",
        link_mttf_rounds, link_mttr_rounds));
  }
  if (link_mttf_rounds > 0.0) {
    if (!(link_mttf_rounds >= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "link_mttf_rounds must be >= 1, got %g", link_mttf_rounds));
    }
    if (!(link_mttr_rounds >= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "link outages need link_mttr_rounds >= 1, got %g",
          link_mttr_rounds));
    }
  }
  if (!(message_loss_prob >= 0.0 && message_loss_prob <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "message_loss_prob must be in [0, 1], got %g", message_loss_prob));
  }
  if (max_retries < 0) {
    return Status::InvalidArgument(
        StrFormat("max_retries must be >= 0, got %d", max_retries));
  }
  if (!(retry_backoff_seconds >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "retry_backoff_seconds must be >= 0, got %g", retry_backoff_seconds));
  }
  if (!(round_deadline_seconds >= 0.0)) {
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

namespace {

// Rng::NextBernoulli(p) without the double: NextDouble() < p reads
// (u >> 11) * 2^-53 < p, and scaling both sides by 2^53 is exact, so it is
// (u >> 11) < p * 2^53, which for an integer left side is
// (u >> 11) < ceil(p * 2^53). p is in [0, 1], so the bound is at most 2^53.
uint64_t BernoulliBound(double p) {
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

// Advances the up/down chains state[0 .. n) (1 up, 0 down) by one round, in
// index order, one draw of `rng` each: an up chain crashes with probability
// 1 / mttf and a down chain repairs with probability 1 / mttr, exactly as
// NextBernoulli would decide. Appends the chains that came up, ascending,
// to `rejoined` when it is non-null; they are gathered as one bit mask per
// block of 64 chains. The draws run on a local copy of the generator, which
// stays in registers across the byte stores, and the state picks its bound
// by mask, so the loop has no data-dependent branch.
void AdvanceChains(double mttf, double mttr, Rng* rng, char* state, size_t n,
                   std::vector<int>* rejoined) {
  const uint64_t repair = BernoulliBound(1.0 / mttr);
  const uint64_t flip = BernoulliBound(1.0 / mttf) ^ repair;
  Rng local = *rng;
  for (size_t base = 0; base < n; base += 64) {
    const size_t block = std::min<size_t>(64, n - base);
    char* chains = state + base;
    uint64_t rejoins = 0;
    for (size_t i = 0; i < block; ++i) {
      const uint64_t up = static_cast<unsigned char>(chains[i]);  // 0 or 1
      const uint64_t bound = repair ^ (flip & (0 - up));
      const uint64_t now = up ^ ((local.NextUint64() >> 11) < bound);
      chains[i] = static_cast<char>(now);  // a hit flips the chain
      rejoins |= (now & ~up) << i;
    }
    if (rejoined != nullptr) {
      for (; rejoins != 0; rejoins &= rejoins - 1) {
        rejoined->push_back(static_cast<int>(base) +
                            std::countr_zero(rejoins));
      }
    }
  }
  *rng = local;
}

}  // namespace

void FaultInjector::BeginRound() {
  rejoined_.clear();
  if (config_.worker_mttf_rounds > 0.0) {
    AdvanceChains(config_.worker_mttf_rounds, config_.worker_mttr_rounds,
                  &rng_, worker_up_.data(), worker_up_.size(), &rejoined_);
  }
  if (!link_state_.empty()) {
    AdvanceChains(config_.link_mttf_rounds, config_.link_mttr_rounds, &rng_,
                  link_state_.data(), link_state_.size(), nullptr);
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
