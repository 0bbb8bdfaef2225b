// WorkerArena: one contiguous slab per per-worker quantity of a simulated
// cohort — parameters, gradients, optimizer state, drift scratch, and the
// FDA monitor state — instead of K separately heap-allocated buffers.
//
// Worker k's model is row k of the params and grads slabs; the collectives
// engine chunks the slabs directly through the per-worker pointer vectors,
// and memory/allocator traffic no longer grows with K beyond the slabs
// themselves (5 allocations total, independent of K). Each worker writes
// only its own slices, so parallel worker execution stays deterministic
// while every worker shares one read-only ModelGraph.
//
// Placement: slabs are 64-byte-aligned raw allocations whose pages are not
// faulted until first written. With ArenaPlacement::kFirstTouch (opt in via
// FEDRA_ARENA_PLACEMENT=first_touch), row k is zeroed — and therefore
// page-faulted — by pool worker k % num_threads instead of the constructing
// thread, so Linux's default first-touch NUMA policy places each row on the
// node that pool worker ran on when it zeroed the row (the pool does not
// pin its workers, so that holds while the scheduler keeps them there).
// kDefault keeps the old behavior (construct-thread zeroing), and
// first-touch quietly degrades to it for single-thread pools or
// construction from inside a pool worker (where blocking on the pool would
// deadlock).
//
// Debug guards (FEDRA_DCHECK_IS_ON, i.e. Debug and sanitizer builds): every
// slab row is fenced by kGuardFloats canary words, so rows sit at stride
// row_stride() = row_len + kGuardFloats instead of packed row_len. A write
// that runs past a worker's row lands in a canary gap instead of the
// neighbor's first element; CheckCanaries() (called on destruction and by
// ClusterContext::SynchronizeModels) aborts with the damaged slab and gap.
// Under AddressSanitizer the gaps are additionally poisoned, so the stray
// write aborts at the write site itself. Release builds keep the packed
// layout: row_stride() == row_len and no canaries exist.

#ifndef FEDRA_CORE_WORKER_ARENA_H_
#define FEDRA_CORE_WORKER_ARENA_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "util/check.h"

namespace fedra {

/// Who faults a slab's pages into existence.
enum class ArenaPlacement {
  kDefault,     // constructing thread zeroes every row
  kFirstTouch,  // pool worker k % threads zeroes row k (NUMA first-touch)
};

/// Placement resolved from FEDRA_ARENA_PLACEMENT ("default" or empty →
/// kDefault, "first_touch" → kFirstTouch; anything else aborts). Read once
/// per call; the arena constructor uses it when no placement is passed.
ArenaPlacement DefaultArenaPlacement();

class WorkerArena {
 public:
  /// Canary words fencing each slab row in guarded builds (one cache line).
  static constexpr size_t kGuardFloats = 16;

  /// True when this build carries canary gaps (Debug or sanitizer builds).
  static constexpr bool guards_enabled() { return FEDRA_DCHECK_IS_ON != 0; }

  /// Slabs for `num_workers` workers of a `dim`-parameter model whose local
  /// optimizer keeps `opt_state_slots` dim-length state vectors per worker
  /// (OptimizerConfig::StateSlots()). All slabs are zero-initialized; who
  /// zeroes (and so which NUMA node backs each row) is `placement`.
  WorkerArena(int num_workers, size_t dim, size_t opt_state_slots,
              ArenaPlacement placement);
  WorkerArena(int num_workers, size_t dim, size_t opt_state_slots)
      : WorkerArena(num_workers, dim, opt_state_slots,
                    DefaultArenaPlacement()) {}
  ~WorkerArena();

  WorkerArena(const WorkerArena&) = delete;
  WorkerArena& operator=(const WorkerArena&) = delete;

  int num_workers() const { return num_workers_; }
  size_t dim() const { return dim_; }
  size_t opt_state_slots() const { return opt_state_slots_; }
  ArenaPlacement placement() const { return placement_; }

  /// Element distance between consecutive workers' rows in the params /
  /// grads / drift slabs: dim() packed, dim() + kGuardFloats guarded.
  size_t row_stride() const { return RowStride(dim_); }

  /// Worker k's model as a flat view: rows k of the params/grads slabs.
  ParameterView view(int k) {
    ParameterView view{params(k), grads(k), dim_};
    DcheckViewInvariants(view);
    return view;
  }

  float* params(int k) { return RowPtr(params_, k, dim_); }
  float* grads(int k) { return RowPtr(grads_, k, dim_); }
  float* drift(int k) { return RowPtr(drift_, k, dim_); }

  /// Worker k's optimizer-state slice: opt_state_slots * dim floats,
  /// contiguous (pass to Optimizer::Create). Null when the optimizer is
  /// stateless.
  float* opt_state(int k);

  /// Whole slabs (strided by row_stride()) for code that walks all workers
  /// at once. Guarded builds interleave canary gaps between rows, so only
  /// worker 0's row starts at the slab base; step by row_stride(), not
  /// dim(), when walking.
  float* params_slab() { return params(0); }
  float* grads_slab() { return grads(0); }

  /// Allocates the [K x state_size] monitor-state slab. Policies call this
  /// once they know their monitor's StateSize(); calling again with the
  /// same size is a no-op (zeroes nothing).
  void AllocateStateScratch(size_t state_size);
  bool has_state_scratch() const { return state_size_ > 0; }
  size_t state_size() const { return state_size_; }
  float* state(int k);

  /// Per-worker pointer vectors in slab order — the strided views the
  /// collectives engine consumes.
  std::vector<float*> ParamPointers();
  std::vector<float*> StatePointers();

  /// Number of slab allocations performed so far (layout tests: stays
  /// constant in K).
  size_t allocation_count() const { return allocation_count_; }

  /// Bytes currently held across all slabs (including guard gaps).
  size_t total_bytes() const;

  /// Aborts if any canary word in any slab has been overwritten — an
  /// out-of-row write corrupted a guard gap. No-op in Release builds (no
  /// canaries) and under ASan (the poisoned gap already aborted the
  /// offending write). Called from the destructor and after every model
  /// sync so corruption surfaces within one round of the faulty write.
  void CheckCanaries() const;

 private:
  // One 64-byte-aligned raw slab. Allocation leaves the pages untouched —
  // virtual address space only — so the thread that zeroes a row is the
  // thread whose NUMA node backs it (Linux first-touch).
  class Slab {
   public:
    // Uninitialized storage for `count` floats; count == 0 stays empty.
    void Allocate(size_t count);
    float* data() { return data_.get(); }
    const float* data() const { return data_.get(); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    struct FreeDeleter {
      void operator()(float* p) const { std::free(p); }
    };
    std::unique_ptr<float[], FreeDeleter> data_;
    size_t size_ = 0;
  };

  // Row length -> stride including the trailing guard gap (guarded builds).
  static size_t RowStride(size_t row_len);
  // Sizes, zero-fills, and fences one slab of num_workers_ rows; bumps
  // allocation_count_ and (guarded builds) paints/poisons the canary gaps.
  // Under kFirstTouch the per-row zeroing fans out over the global pool.
  void InitSlab(Slab& slab, size_t row_len);
  float* RowPtr(Slab& slab, int k, size_t row_len);
  void CheckSlabCanaries(const Slab& slab, size_t row_len,
                         const char* slab_name) const;

  int num_workers_;
  size_t dim_;
  size_t opt_state_slots_;
  ArenaPlacement placement_;
  size_t state_size_ = 0;
  size_t allocation_count_ = 0;
  Slab params_;     // [K x dim], guard-fenced rows
  Slab grads_;      // [K x dim], guard-fenced rows
  Slab opt_state_;  // [K x slots x dim], guard-fenced rows
  Slab drift_;      // [K x dim], guard-fenced rows
  Slab state_;      // [K x state_size], on demand
};

}  // namespace fedra

#endif  // FEDRA_CORE_WORKER_ARENA_H_
