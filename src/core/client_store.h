// ClientStateStore + CohortSampler: the cross-device fleet layer.
//
// The paper's evaluation runs a *resident* cohort — K workers, each owning
// an arena row for the whole run. Real cross-device FL (the FL
// communication survey's defining regime) samples a small cohort C from an
// enormous population N every round: 10^5-10^6 clients, of which only C
// train at any moment. This file decouples the two scales, and both
// trainers run every cohort through it; a resident cohort is the case
// N == K:
//
//   population N   clients with persistent identity: per-client rng
//                  streams, optimizer step counts, drift relative to the
//                  last-seen anchor, a monitor state, a home leaf group in
//                  the TopologyTree, and a data-shard handle.
//   cohort C (=K)  resident WorkerArena rows. Each rotation the trainer
//                  checks sampled clients *into* recycled rows (page-in
//                  drift + optimizer state, re-anchor) and checks the
//                  departing occupants back *out*.
//
// Memory contract: the store holds O(cohort + touched clients) bytes, never
// O(population). Client state pages are slab-allocated and recycled through
// a free list; a client that has never completed a local step while
// resident stores *nothing* (lazy drift materialization) — its identity is
// a ~100-byte warm entry, and its streams are re-derivable pure functions
// of (seed, client id).
//
// Determinism contract (docs/determinism.md): every schedule and every
// per-client stream is a pure function of (config, seed, round | client
// id). A resident run is the identity fleet: at population ==
// cohort_slots the sampler returns clients 0..K-1 with *zero* rng draws,
// every slot is sticky, no check-in/out float roundtrip happens, and
// PopulationEstimate bypasses to the plain cohort estimate (histories
// locked by the golden suite).

#ifndef FEDRA_CORE_CLIENT_STORE_H_
#define FEDRA_CORE_CLIENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/topology_tree.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedra {

class FaultInjector;
class VarianceMonitor;

/// How the CohortSampler picks each round's cohort.
enum class CohortScheduleKind {
  /// Uniform without replacement within each leaf group's client pool.
  kUniform,
  /// Availability-weighted: rejection-samples against FaultInjector::IsUp,
  /// modelling a coordinator that only invites reachable devices. Falls
  /// back to uniform when no injector is present or its config is
  /// disabled (fault-free runs).
  kAvailability,
};

struct ClientStoreConfig {
  size_t population = 0;    // N: simulated clients
  int cohort_slots = 0;     // K: resident WorkerArena rows
  size_t dim = 0;           // model parameters per client
  size_t opt_state_slots = 0;  // optimizer vector slots (OptimizerConfig)
  uint64_t seed = 0;        // the run seed; client streams fork from it
  size_t pages_per_slab = 64;

  Status Validate() const;
};

class ClientStateStore {
 public:
  static constexpr uint32_t kNoPage = 0xffffffffu;

  /// What CheckIn hands the trainer to rebuild the slot's per-client
  /// streams. For a first-touch client the rngs are the canonical
  /// BuildWorkerCohort forks (sampler Fork(c+1), worker Fork(c+1000)), so
  /// at population == K a re-check-in of client k reproduces the resident
  /// cohort's streams exactly.
  struct CheckInResult {
    Rng sampler_rng{0};
    Rng worker_rng{0};
    uint64_t optimizer_steps = 0;
    uint64_t local_steps = 0;   // lifetime steps across residencies
    bool restored = false;      // a stored page was materialized in
    bool first_touch = false;   // the client had never been resident
  };

  /// `tree` (optional, must outlive the store) assigns clients home leaf
  /// groups; null means a flat topology (every client its own link).
  ClientStateStore(const ClientStoreConfig& config,
                   const TopologyTree* tree = nullptr);

  /// Sizes the monitor-state segment of every page. Must be called before
  /// the first CheckOut that passes a monitor (the trainer calls it after
  /// the policy's Initialize sized the arena scratch); calling again with
  /// the same value is a no-op, resizing after pages exist is an error.
  void SetStateSize(size_t state_size);
  size_t state_size() const { return state_size_; }

  /// Sizes the error-feedback residual segment of every page (dim floats
  /// when compressed sync with error feedback is on, else 0). Same rules as
  /// SetStateSize: set before the first page is allocated, idempotent for
  /// the same value.
  void SetResidualSize(size_t residual_size);
  size_t residual_size() const { return residual_size_; }

  /// Registers a client that BuildWorkerCohort seeded directly into an
  /// arena row (the initial cohort) without the check-in float roundtrip:
  /// creates the warm entry so a later CheckOut finds it. No page, no
  /// float writes — the bit-identity path for sticky initial slots.
  void AdoptInitialResident(uint32_t client);

  /// Checks `client` into a resident row: writes params = anchor + stored
  /// drift (a plain anchor copy for never-materialized clients), restores
  /// the optimizer vectors into `opt_state` (zeroed when none stored;
  /// null when the optimizer is stateless), copies the stored monitor
  /// state into `state_out` (optional; zeroed when none), releases the
  /// client's page back to the free list, and removes its contribution
  /// from the off-cohort state sum. Returns the warm scalars.
  /// `residual_out` (optional, residual_size() floats) receives the stored
  /// error-feedback residual — zeroed when none is stored, so a fresh
  /// client starts with empty compression memory.
  CheckInResult CheckIn(uint32_t client, const float* anchor, float* params,
                        float* opt_state, float* state_out = nullptr,
                        float* residual_out = nullptr);

  /// Checks a departing occupant out of its row. `steps_this_residency` is
  /// the number of local steps the client ran since check-in; when it is 0
  /// and the client has never materialized a page, nothing is stored (the
  /// client never diverged from an anchor). Otherwise a page is allocated:
  /// drift = params - anchor, the optimizer vectors are copied, and — when
  /// a monitor is given and the state segment is sized — the client's
  /// local state is computed from the stored drift and folded into the
  /// off-cohort state sum (the population-scale variance correction).
  /// `residual` (optional, residual_size() floats) is the departing
  /// client's error-feedback residual; null stores zeros.
  void CheckOut(uint32_t client, const float* params, const float* anchor,
                const float* opt_state, const Rng& sampler_rng,
                const Rng& worker_rng, uint64_t optimizer_steps,
                uint64_t steps_this_residency,
                const VarianceMonitor* monitor,
                const float* residual = nullptr);

  /// Population-corrected FDA variance estimate. `cohort_mean_state` is
  /// the cohort's AllReduce-averaged state over `active_count`
  /// participants. Materialized off-cohort clients contribute their state
  /// as of check-out (drift frozen relative to the anchor they last saw —
  /// the documented staleness approximation). Never-touched clients sit
  /// bitwise on the anchor (zero variance contribution) and are excluded
  /// from the denominator so Theta stays a scale-free knob instead of
  /// damping with population:
  ///
  ///   S_pop[j] = (active * S_mean[j] + off_sum[j])
  ///              / (active + off_cohort_states)
  ///
  /// Monitors whose state tail is not anchor-invariant (LinearFDA's
  /// <xi, u> goes stale when xi rotates) blend only element 0; see
  /// VarianceMonitor::StateTailSyncInvariant. When population ==
  /// cohort_slots this returns EstimateVariance(cohort_mean_state)
  /// verbatim — a bitwise bypass, not a computed identity.
  double PopulationEstimate(const VarianceMonitor& monitor,
                            const float* cohort_mean_state,
                            int active_count);

  // ------------------------------------------------------- leaf topology --
  /// Home leaf group of a client: the group of its proportional resident
  /// slot floor(client * K / N). Identity with the worker layout when
  /// N == K; 0 for flat topologies.
  int LeafGroupOfClient(uint32_t client) const;
  int num_client_groups() const {
    return static_cast<int>(group_client_begin_.size()) - 1;
  }
  /// Contiguous client pool [begin, end) of leaf group `g`.
  uint32_t GroupClientBegin(int g) const { return group_client_begin_[g]; }
  uint32_t GroupClientEnd(int g) const { return group_client_begin_[g + 1]; }
  /// Resident slots group `g` owns (== its worker-layout span).
  int GroupSlotBegin(int g) const { return group_slot_begin_[g]; }
  int GroupSlotEnd(int g) const { return group_slot_begin_[g + 1]; }

  // -------------------------------------------------------- introspection --
  size_t population() const { return config_.population; }
  int cohort_slots() const { return config_.cohort_slots; }
  bool HasPage(uint32_t client) const;
  bool Touched(uint32_t client) const;
  /// Clients with a warm entry (ever resident).
  size_t touched_clients() const { return warm_.size(); }
  size_t pages_in_use() const { return pages_in_use_; }
  size_t pages_allocated() const {
    return slabs_.size() * config_.pages_per_slab;
  }
  size_t free_pages() const { return free_pages_.size(); }
  size_t slab_count() const { return slabs_.size(); }
  /// Clients whose stored state participates in the off-cohort sum.
  size_t off_cohort_states() const { return off_states_; }
  /// Accounting estimate of the store's heap footprint: slabs + warm
  /// entries + bookkeeping. O(cohort + touched), never O(population).
  size_t resident_bytes() const;

 private:
  struct Warm {
    Rng sampler_rng{0};
    Rng worker_rng{0};
    uint64_t optimizer_steps = 0;
    uint64_t local_steps = 0;
    uint32_t page = kNoPage;
    // The client has materialized a page at least once: even a 0-step
    // residency must re-store its (nonzero) drift from then on.
    bool ever_materialized = false;
    // The page's state segment is included in off_state_sum_.
    bool state_in_sum = false;
  };

  // Page layout: [drift | optimizer vectors | monitor state | EF residual].
  size_t row_floats() const {
    return config_.dim * (1 + config_.opt_state_slots) + state_size_ +
           residual_size_;
  }
  float* PagePtr(uint32_t page);
  const float* PagePtr(uint32_t page) const;
  uint32_t AllocatePage();
  void FreePage(uint32_t page);
  Warm& WarmEntryFor(uint32_t client, bool* first_touch);

  ClientStoreConfig config_;
  const TopologyTree* tree_ = nullptr;
  size_t state_size_ = 0;
  bool state_size_set_ = false;
  size_t residual_size_ = 0;
  bool residual_size_set_ = false;

  // Touched clients only — ordered so every iteration is deterministic.
  std::map<uint32_t, Warm> warm_;
  std::vector<std::vector<float>> slabs_;
  std::vector<uint32_t> free_pages_;  // LIFO recycling
  size_t pages_in_use_ = 0;

  // Running sum of stored off-cohort states (double accumulation; entries
  // are added at check-out and subtracted bitwise-exactly at check-in).
  // Empty, like blend_scratch_, when population == cohort_slots.
  std::vector<double> off_state_sum_;
  size_t off_states_ = 0;
  std::vector<float> blend_scratch_;

  // Leaf-group client pools / slot spans, both as [begin...] prefix
  // tables of length num_groups + 1.
  std::vector<uint32_t> group_client_begin_;
  std::vector<int> group_slot_begin_;
};

/// Samples each round's cohort: for every leaf group, `slots(g)` clients
/// from that group's pool, returned slot-aligned (slot k receives a client
/// whose home group owns slot k) and ascending within each group. The
/// schedule is a pure function of (store config, seed, round) — plus the
/// injector's current availability for kAvailability — and never depends
/// on thread count or wall clock.
class CohortSampler {
 public:
  CohortSampler(const ClientStateStore* store, CohortScheduleKind kind,
                uint64_t seed);

  /// Returns cohort_slots client ids, index = resident slot. A group pool
  /// exactly as large as its slot span is taken whole with zero rng draws
  /// (the population == K identity). kAvailability rejection-samples
  /// against faults->IsUp(client) with a bounded attempt budget, then
  /// falls back to a deterministic ascending scan; a null injector or one
  /// with a disabled config (the identity schedule) makes it uniform.
  std::vector<uint32_t> Sample(uint64_t round,
                               const FaultInjector* faults) const;

  CohortScheduleKind kind() const { return kind_; }

 private:
  void SampleGroup(int group, Rng* rng, const FaultInjector* faults,
                   std::vector<uint32_t>* out) const;

  const ClientStateStore* store_;
  CohortScheduleKind kind_;
  uint64_t seed_;
};

}  // namespace fedra

#endif  // FEDRA_CORE_CLIENT_STORE_H_
