#include "core/client_store.h"

#include <algorithm>

#include "core/variance_monitor.h"
#include "sim/fault_model.h"
#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

Status ClientStoreConfig::Validate() const {
  if (population == 0) {
    return Status::InvalidArgument("client store population must be >= 1");
  }
  if (cohort_slots <= 0) {
    return Status::InvalidArgument("client store cohort_slots must be >= 1");
  }
  if (population < static_cast<size_t>(cohort_slots)) {
    return Status::InvalidArgument(
        "client store population (" + std::to_string(population) +
        ") is smaller than cohort_slots (" + std::to_string(cohort_slots) +
        ")");
  }
  if (dim == 0) {
    return Status::InvalidArgument("client store dim must be >= 1");
  }
  if (pages_per_slab == 0) {
    return Status::InvalidArgument(
        "client store pages_per_slab must be >= 1");
  }
  return Status::Ok();
}

ClientStateStore::ClientStateStore(const ClientStoreConfig& config,
                                   const TopologyTree* tree)
    : config_(config), tree_(tree) {
  FEDRA_CHECK_OK(config_.Validate());
  const uint64_t n = config_.population;
  const uint64_t k = static_cast<uint64_t>(config_.cohort_slots);
  // Leaf-group slot spans follow the tree's worker layout; a flat topology
  // is one group owning every slot. Client pools are the proportional
  // preimages of the slot spans under home-slot(c) = floor(c * K / N), so
  // the pools are contiguous, ascending, and exactly the slot spans when
  // N == K.
  const int groups =
      (tree_ != nullptr && tree_->enabled()) ? tree_->num_leaf_groups() : 1;
  group_slot_begin_.resize(static_cast<size_t>(groups) + 1);
  group_client_begin_.resize(static_cast<size_t>(groups) + 1);
  group_slot_begin_[0] = 0;
  group_client_begin_[0] = 0;
  for (int g = 0; g < groups; ++g) {
    const int slot_end =
        (tree_ != nullptr && tree_->enabled())
            ? tree_->GroupBegin(g, config_.cohort_slots) +
                  tree_->GroupSize(g, config_.cohort_slots)
            : config_.cohort_slots;
    group_slot_begin_[static_cast<size_t>(g) + 1] = slot_end;
    // ceil(slot_end * N / K): first client whose home slot is >= slot_end.
    const uint64_t client_end =
        (static_cast<uint64_t>(slot_end) * n + k - 1) / k;
    group_client_begin_[static_cast<size_t>(g) + 1] =
        static_cast<uint32_t>(client_end);
  }
  FEDRA_CHECK_EQ(group_slot_begin_.back(), config_.cohort_slots);
  FEDRA_CHECK_EQ(group_client_begin_.back(), config_.population);
}

void ClientStateStore::SetStateSize(size_t state_size) {
  if (state_size_set_) {
    FEDRA_CHECK_EQ(state_size, state_size_)
        << "client store state size cannot change after it is set";
    return;
  }
  FEDRA_CHECK(slabs_.empty())
      << "client store state size must be set before any page is allocated";
  state_size_ = state_size;
  state_size_set_ = true;
  // Only a population beyond the cohort blends off-cohort states; the
  // identity fleet (N == K) bypasses the blend and allocates neither.
  if (config_.population > static_cast<size_t>(config_.cohort_slots)) {
    off_state_sum_.assign(state_size_, 0.0);
    blend_scratch_.assign(state_size_, 0.0f);
  }
}

void ClientStateStore::SetResidualSize(size_t residual_size) {
  if (residual_size_set_) {
    FEDRA_CHECK_EQ(residual_size, residual_size_)
        << "client store residual size cannot change after it is set";
    return;
  }
  FEDRA_CHECK(slabs_.empty())
      << "client store residual size must be set before any page is "
         "allocated";
  residual_size_ = residual_size;
  residual_size_set_ = true;
}

float* ClientStateStore::PagePtr(uint32_t page) {
  const size_t slab = page / config_.pages_per_slab;
  const size_t row = page % config_.pages_per_slab;
  return slabs_[slab].data() + row * row_floats();
}

const float* ClientStateStore::PagePtr(uint32_t page) const {
  const size_t slab = page / config_.pages_per_slab;
  const size_t row = page % config_.pages_per_slab;
  return slabs_[slab].data() + row * row_floats();
}

uint32_t ClientStateStore::AllocatePage() {
  if (free_pages_.empty()) {
    const uint32_t first =
        static_cast<uint32_t>(slabs_.size() * config_.pages_per_slab);
    slabs_.emplace_back(config_.pages_per_slab * row_floats(), 0.0f);
    // Push in reverse so pages hand out in ascending order (LIFO list).
    for (size_t i = config_.pages_per_slab; i > 0; --i) {
      free_pages_.push_back(first + static_cast<uint32_t>(i) - 1);
    }
  }
  const uint32_t page = free_pages_.back();
  free_pages_.pop_back();
  ++pages_in_use_;
  return page;
}

void ClientStateStore::FreePage(uint32_t page) {
  FEDRA_CHECK_GT(pages_in_use_, 0u);
  --pages_in_use_;
  free_pages_.push_back(page);
}

ClientStateStore::Warm& ClientStateStore::WarmEntryFor(uint32_t client,
                                                       bool* first_touch) {
  FEDRA_CHECK_LT(client, config_.population);
  auto it = warm_.find(client);
  if (it != warm_.end()) {
    *first_touch = false;
    return it->second;
  }
  // First touch: derive the client's streams exactly as BuildWorkerCohort
  // forks them for resident worker `client` — the population == K identity
  // depends on this.
  Warm warm;
  const Rng master(config_.seed);
  warm.sampler_rng = master.Fork(client + 1);
  warm.worker_rng = master.Fork(static_cast<uint64_t>(client) + 1000);
  *first_touch = true;
  return warm_.emplace(client, warm).first->second;
}

void ClientStateStore::AdoptInitialResident(uint32_t client) {
  bool first_touch = false;
  (void)WarmEntryFor(client, &first_touch);
}

ClientStateStore::CheckInResult ClientStateStore::CheckIn(
    uint32_t client, const float* anchor, float* params, float* opt_state,
    float* state_out, float* residual_out) {
  bool first_touch = false;
  Warm& warm = WarmEntryFor(client, &first_touch);
  CheckInResult result;
  result.sampler_rng = warm.sampler_rng;
  result.worker_rng = warm.worker_rng;
  result.optimizer_steps = warm.optimizer_steps;
  result.local_steps = warm.local_steps;
  result.first_touch = first_touch;
  const size_t dim = config_.dim;
  const size_t opt_floats = config_.opt_state_slots * dim;
  if (warm.page != kNoPage) {
    const float* page = PagePtr(warm.page);
    // Re-anchor: params = current anchor + drift stored at check-out.
    vec::Copy(anchor, params, dim);
    vec::Axpy(1.0f, page, params, dim);
    if (opt_state != nullptr && opt_floats > 0) {
      vec::Copy(page + dim, opt_state, opt_floats);
    }
    if (warm.state_in_sum) {
      const float* state = page + dim + opt_floats;
      for (size_t j = 0; j < off_state_sum_.size(); ++j) {
        off_state_sum_[j] -= static_cast<double>(state[j]);
      }
      FEDRA_CHECK_GT(off_states_, 0u);
      --off_states_;
      warm.state_in_sum = false;
    }
    if (state_out != nullptr && state_size_ > 0) {
      vec::Copy(page + dim + opt_floats, state_out, state_size_);
    }
    if (residual_out != nullptr && residual_size_ > 0) {
      vec::Copy(page + dim + opt_floats + state_size_, residual_out,
                residual_size_);
    }
    FreePage(warm.page);
    warm.page = kNoPage;
    result.restored = true;
  } else {
    // Never materialized: the client sits exactly on the anchor with
    // pristine optimizer and monitor state.
    vec::Copy(anchor, params, dim);
    if (opt_state != nullptr && opt_floats > 0) {
      vec::Fill(opt_state, opt_floats, 0.0f);
    }
    if (state_out != nullptr && state_size_ > 0) {
      vec::Fill(state_out, state_size_, 0.0f);
    }
    if (residual_out != nullptr && residual_size_ > 0) {
      vec::Fill(residual_out, residual_size_, 0.0f);
    }
  }
  return result;
}

void ClientStateStore::CheckOut(uint32_t client, const float* params,
                                const float* anchor, const float* opt_state,
                                const Rng& sampler_rng, const Rng& worker_rng,
                                uint64_t optimizer_steps,
                                uint64_t steps_this_residency,
                                const VarianceMonitor* monitor,
                                const float* residual) {
  auto it = warm_.find(client);
  FEDRA_CHECK(it != warm_.end())
      << "check-out of a client that was never checked in: " << client;
  Warm& warm = it->second;
  FEDRA_CHECK_EQ(warm.page, kNoPage)
      << "client " << client << " already holds a page while resident";
  warm.sampler_rng = sampler_rng;
  warm.worker_rng = worker_rng;
  warm.optimizer_steps = optimizer_steps;
  warm.local_steps += steps_this_residency;
  // Lazy materialization: a client that never stepped while resident (and
  // never diverged before) still sits on the anchor — store nothing.
  if (steps_this_residency == 0 && !warm.ever_materialized) {
    return;
  }
  const size_t dim = config_.dim;
  const size_t opt_floats = config_.opt_state_slots * dim;
  warm.page = AllocatePage();
  warm.ever_materialized = true;
  float* page = PagePtr(warm.page);
  vec::Sub(params, anchor, page, dim);
  if (opt_floats > 0) {
    if (opt_state != nullptr) {
      vec::Copy(opt_state, page + dim, opt_floats);
    } else {
      vec::Fill(page + dim, opt_floats, 0.0f);
    }
  }
  if (state_size_ > 0) {
    float* state = page + dim + opt_floats;
    if (monitor != nullptr) {
      FEDRA_CHECK_EQ(monitor->StateSize(), state_size_);
      monitor->ComputeLocalState(page, state);
      for (size_t j = 0; j < off_state_sum_.size(); ++j) {
        off_state_sum_[j] += static_cast<double>(state[j]);
      }
      ++off_states_;
      warm.state_in_sum = true;
    } else {
      vec::Fill(state, state_size_, 0.0f);
    }
  }
  if (residual_size_ > 0) {
    float* stored = page + dim + opt_floats + state_size_;
    if (residual != nullptr) {
      vec::Copy(residual, stored, residual_size_);
    } else {
      vec::Fill(stored, residual_size_, 0.0f);
    }
  }
}

double ClientStateStore::PopulationEstimate(const VarianceMonitor& monitor,
                                            const float* cohort_mean_state,
                                            int active_count) {
  // Bitwise bypass, not a computed identity: the resident-cohort estimate
  // must survive the fleet path unchanged when N == K.
  if (config_.population == static_cast<size_t>(config_.cohort_slots)) {
    return monitor.EstimateVariance(cohort_mean_state);
  }
  FEDRA_CHECK(state_size_set_);
  FEDRA_CHECK_GT(active_count, 0);
  // The blend runs over the active cohort plus the *materialized*
  // off-cohort states. Never-touched clients sit bitwise on the anchor and
  // would contribute exactly zero variance — counting them would rescale
  // the estimate by touched/population, turning Theta into a
  // population-dependent knob. Excluding them keeps Theta's meaning
  // scale-free while parked drift still pushes toward synchronization.
  const double off = static_cast<double>(off_states_);
  const double denom = static_cast<double>(active_count) + off;
  vec::Copy(cohort_mean_state, blend_scratch_.data(), state_size_);
  // LinearFDA's <xi, u> tail goes stale when xi rotates between a client's
  // check-out and now, so only anchor-invariant tails blend; element 0
  // (||u||^2) always does.
  const size_t blend_len = monitor.StateTailSyncInvariant() ? state_size_ : 1;
  for (size_t j = 0; j < blend_len; ++j) {
    blend_scratch_[j] = static_cast<float>(
        (static_cast<double>(active_count) *
             static_cast<double>(cohort_mean_state[j]) +
         off_state_sum_[j]) /
        denom);
  }
  return monitor.EstimateVariance(blend_scratch_.data());
}

int ClientStateStore::LeafGroupOfClient(uint32_t client) const {
  FEDRA_CHECK_LT(client, config_.population);
  if (tree_ == nullptr || !tree_->enabled()) {
    return 0;
  }
  const uint64_t slot = static_cast<uint64_t>(client) *
                        static_cast<uint64_t>(config_.cohort_slots) /
                        config_.population;
  return tree_->LeafGroupOfWorker(static_cast<int>(slot),
                                  config_.cohort_slots);
}

bool ClientStateStore::HasPage(uint32_t client) const {
  auto it = warm_.find(client);
  return it != warm_.end() && it->second.page != kNoPage;
}

bool ClientStateStore::Touched(uint32_t client) const {
  return warm_.find(client) != warm_.end();
}

size_t ClientStateStore::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& slab : slabs_) {
    bytes += slab.capacity() * sizeof(float);
  }
  // std::map node overhead: payload + two child pointers, parent, color.
  bytes += warm_.size() * (sizeof(std::pair<uint32_t, Warm>) +
                           4 * sizeof(void*));
  bytes += free_pages_.capacity() * sizeof(uint32_t);
  bytes += off_state_sum_.capacity() * sizeof(double);
  bytes += blend_scratch_.capacity() * sizeof(float);
  bytes += group_client_begin_.capacity() * sizeof(uint32_t);
  bytes += group_slot_begin_.capacity() * sizeof(int);
  return bytes;
}

CohortSampler::CohortSampler(const ClientStateStore* store,
                             CohortScheduleKind kind, uint64_t seed)
    : store_(store), kind_(kind), seed_(seed) {
  FEDRA_CHECK(store_ != nullptr);
}

std::vector<uint32_t> CohortSampler::Sample(uint64_t round,
                                            const FaultInjector* faults)
    const {
  std::vector<uint32_t> cohort;
  cohort.reserve(static_cast<size_t>(store_->cohort_slots()));
  // One stream per (seed, round), sub-forked per leaf group: the schedule
  // is a pure function of the config — no thread or wall-clock input.
  const Rng round_rng = Rng(seed_).Fork(0x5a3717u + round);
  const int groups = store_->num_client_groups();
  for (int g = 0; g < groups; ++g) {
    Rng group_rng = round_rng.Fork(static_cast<uint64_t>(g));
    SampleGroup(g, &group_rng, faults, &cohort);
  }
  FEDRA_CHECK_EQ(cohort.size(),
                 static_cast<size_t>(store_->cohort_slots()));
  return cohort;
}

void CohortSampler::SampleGroup(int group, Rng* rng,
                                const FaultInjector* faults,
                                std::vector<uint32_t>* out) const {
  const uint32_t begin = store_->GroupClientBegin(group);
  const uint32_t end = store_->GroupClientEnd(group);
  const uint64_t pool = end - begin;
  const size_t need = static_cast<size_t>(store_->GroupSlotEnd(group) -
                                          store_->GroupSlotBegin(group));
  if (need == 0) {
    return;
  }
  FEDRA_CHECK_GE(pool, need);
  if (pool == need) {
    // The pool exactly fills the slots: take it whole, in order, with zero
    // rng draws — the population == K identity every schedule kind shares.
    for (uint32_t c = begin; c < end; ++c) {
      out->push_back(c);
    }
    return;
  }
  std::vector<uint32_t> picked;
  picked.reserve(need);
  // A disabled fault config is the identity schedule (everyone up): it
  // samples exactly like no injector, uniformly.
  const bool availability = kind_ == CohortScheduleKind::kAvailability &&
                            faults != nullptr && faults->config().enabled();
  if (availability) {
    // Rejection-sample reachable clients: the coordinator only invites
    // devices that are up right now. Bounded attempts, then a
    // deterministic ascending fallback scan so the cohort always fills.
    std::map<uint32_t, char> chosen;
    uint64_t attempts_left = 64 * static_cast<uint64_t>(need) + 256;
    while (picked.size() < need && attempts_left > 0) {
      --attempts_left;
      const uint32_t c = begin + static_cast<uint32_t>(rng->NextBounded(pool));
      if (chosen.count(c) != 0) {
        continue;
      }
      if (!faults->IsUp(static_cast<int>(c))) {
        continue;
      }
      chosen.emplace(c, 1);
      picked.push_back(c);
    }
    for (uint32_t c = begin; c < end && picked.size() < need; ++c) {
      if (chosen.count(c) == 0) {
        chosen.emplace(c, 1);
        picked.push_back(c);
      }
    }
  } else {
    // Uniform without replacement: sparse partial Fisher-Yates over the
    // pool — O(need log need) memory/time, independent of pool size.
    std::map<uint64_t, uint64_t> displaced;
    for (size_t i = 0; i < need; ++i) {
      const uint64_t j = i + rng->NextBounded(pool - i);
      auto jt = displaced.find(j);
      const uint64_t value = jt == displaced.end() ? j : jt->second;
      auto it_i = displaced.find(i);
      const uint64_t value_i = it_i == displaced.end() ? i : it_i->second;
      displaced[j] = value_i;
      picked.push_back(begin + static_cast<uint32_t>(value));
    }
  }
  // Slot-aligned ascending order keeps slot assignment deterministic and
  // maximizes stickiness for repeat participants.
  std::sort(picked.begin(), picked.end());
  out->insert(out->end(), picked.begin(), picked.end());
}

}  // namespace fedra
