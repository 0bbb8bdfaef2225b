// Variance monitors: the estimators at the heart of FDA (paper §3).
//
// Each worker k maintains a drift u_k = w_k - w_sync. The model variance
// obeys the identity (paper Eq. 4):
//
//     Var(w_t) = (1/K) sum_k ||u_k||^2  -  ||u_bar||^2
//
// The first term AllReduces as a scalar; the whole difficulty is estimating
// ||u_bar||^2 cheaply. A monitor defines (a) the local state S_k computed
// from u_k and (b) the estimator H(S_bar) evaluated on the AllReduce-averaged
// state, with the guarantee H(S_bar) >= Var(w_t) — deterministically for
// LinearFDA (Thm 3.2), with probability >= 1-delta for SketchFDA (Thm 3.1).
//
// States are flat float vectors so the simulator's collectives can average
// them; element 0 is always ||u_k||^2.
//
// The trainer computes a worker's dense state inside its optimizer step
// (FoldBlock): the step hands every block of updated params to the monitor
// while the block is still in L1, so the round makes no second pass over
// the params and writes no drift row.
//
// Thread safety: the state methods (ComputeLocalState, ComputeDriftAndState,
// ComputeLocalStateSparse, FoldBlock) are const and write only the
// drift/state rows and the fold they are given, so one monitor may serve
// every worker concurrently as long as those are distinct — the FDA
// policies compute all K states on the global thread pool, and parallel
// worker steps fold theirs. OnSynchronized is the only mutator; it runs
// between passes, never during one.

#ifndef FEDRA_CORE_VARIANCE_MONITOR_H_
#define FEDRA_CORE_VARIANCE_MONITOR_H_

#include <memory>
#include <string>
#include <vector>

#include "sketch/ams_sketch.h"
#include "tensor/vec_ops.h"
#include "util/status.h"

namespace fedra {

class VarianceMonitor;

/// The carried state of one blockwise fold of a worker's local state
/// (VarianceMonitor::FoldBlock), kept on the stack of the pass that visits
/// the params.
struct StateFold {
  StateFold(const VarianceMonitor& m, const float* w_sync, float* out)
      : monitor(&m), sync_params(w_sync), state(out) {}

  const VarianceMonitor* monitor;
  const float* sync_params;  // w_t0
  float* state;              // receives S_k
  vec::DriftFoldLanes lanes;
  /// SketchFDA: the drift of the current block of vec::kBucketBlock
  /// coordinates, bucket-summed once the block is complete.
  alignas(64) float block[vec::kBucketBlock];
};

class VarianceMonitor {
 public:
  virtual ~VarianceMonitor() = default;

  /// Length of the flat per-worker state vector (the FDA wire payload).
  virtual size_t StateSize() const = 0;

  /// Computes this worker's local state from its drift (length dim()).
  /// state[0] = ||drift||^2; the monitor-specific tail follows.
  void ComputeLocalState(const float* drift, float* state) const;

  /// One-pass dense path (the FDA policies' state pass when the worker
  /// steps did not fold the state): writes drift = params - sync_params and
  /// computes the local state, obtaining ||drift||^2 in the same pass over
  /// the model-sized spans (vec::SubSquaredNorm). Equivalent to vec::Sub
  /// followed by ComputeLocalState, at roughly half the memory traffic.
  void ComputeDriftAndState(const float* params, const float* sync_params,
                            float* drift, float* state) const;

  /// Blockwise ComputeDriftAndState without a drift row: folds
  /// params[begin, begin + n) of one worker (`params` points at element
  /// begin) into `fold`. Blocks arrive in ascending order from 0 and cover
  /// [0, dim()); every block but the last spans a multiple of
  /// vec::kFoldStep floats. After the last block, fold->state holds the
  /// bits ComputeDriftAndState(params, fold->sync_params, drift, state)
  /// writes, at every SIMD level.
  virtual void FoldBlock(StateFold* fold, const float* params, size_t begin,
                         size_t n) const = 0;

  /// FoldBlock as an Optimizer::BlockFn: `fold` is the StateFold, whose
  /// monitor runs the block.
  static void FoldBlockFn(void* fold, const float* params, size_t begin,
                          size_t n);

  /// Local state of the *masked* drift: the state ComputeLocalState would
  /// produce for the vector equal to `drift` on the `kept_count` listed
  /// coordinates and zero elsewhere. When a sync compressor masks payloads,
  /// FDA monitors the drift that would actually ship, and the state
  /// computation shrinks with it — O(kept) instead of O(dim) for the
  /// sketch/linear tails. `kept` must be ascending in-range indices (the
  /// SyncCompressor::MaskPreview contract).
  void ComputeLocalStateSparse(const float* drift, const uint32_t* kept,
                               size_t kept_count, float* state) const;

  /// H(S_bar): the variance over-estimate from the averaged state.
  virtual double EstimateVariance(const float* avg_state) const = 0;

  /// Notifies the monitor that a synchronization happened: `new_global` is
  /// the post-sync model, `prev_global` the model after the previous sync
  /// (LinearFDA derives its heuristic direction xi from these; others
  /// ignore the call).
  virtual void OnSynchronized(const float* new_global,
                              const float* prev_global) {
    (void)new_global;
    (void)prev_global;
  }

  /// Whether the state tail (elements 1..) keeps its meaning across
  /// synchronizations of *other* workers. Exact and Sketch tails are
  /// linear images of the drift with a fixed interpretation, so a state
  /// computed at one time blends soundly with later states. LinearFDA's
  /// tail <xi, u> is relative to the *current* xi, which rotates at every
  /// sync — stored tails go stale, so the fleet layer's population
  /// correction (ClientStateStore::PopulationEstimate) blends only
  /// element 0 for it.
  virtual bool StateTailSyncInvariant() const { return true; }

  virtual std::string name() const = 0;

  size_t dim() const { return dim_; }

 protected:
  explicit VarianceMonitor(size_t dim) : dim_(dim) {}

  /// Fills state[1..] from the drift; state[0] (= ||drift||^2) is already
  /// set by the public entry points.
  virtual void FillStateTail(const float* drift, float* state) const = 0;

  /// Sparse counterpart: fills state[1..] from the drift restricted to the
  /// `kept_count` listed coordinates (zero elsewhere).
  virtual void FillStateTailSparse(const float* drift, const uint32_t* kept,
                                   size_t kept_count,
                                   float* state) const = 0;

  /// FoldBlock's shared part: folds u = params - w_t0 over the block into
  /// fold->lanes, with <xi, u> when `xi` (the block's slice) is set, and
  /// stores u to `drift` when set. The first block resets the lanes; the
  /// last sets state[0] = ||u||^2 and returns true.
  bool FoldDrift(StateFold* fold, const float* params, size_t begin,
                 size_t n, const float* xi, float* drift) const;

 private:
  size_t dim_;
};

/// Oracle monitor: ships the full drift (state size d+1), so H equals the
/// true variance exactly. Communication-wise this is as expensive as a
/// synchronization — it exists as the test oracle and the ablation baseline
/// quantifying what the cheap estimators give up.
class ExactVarianceMonitor : public VarianceMonitor {
 public:
  explicit ExactVarianceMonitor(size_t dim);

  size_t StateSize() const override { return dim() + 1; }
  double EstimateVariance(const float* avg_state) const override;
  std::string name() const override { return "ExactFDA"; }
  void FoldBlock(StateFold* fold, const float* params, size_t begin,
                 size_t n) const override;

 protected:
  void FillStateTail(const float* drift, float* state) const override;
  void FillStateTailSparse(const float* drift, const uint32_t* kept,
                           size_t kept_count, float* state) const override;
};

/// SketchFDA (Thm 3.1): state = (||u||^2, sk(u)). The averaged sketch equals
/// sk(u_bar) by linearity; H deflates the M2 estimate by 1/(1+eps) so that
/// H >= Var with confidence >= 1-delta.
class SketchVarianceMonitor : public VarianceMonitor {
 public:
  /// rows ~ O(log 1/delta), cols ~ O(1/eps^2); the paper recommends 5x250.
  SketchVarianceMonitor(size_t dim, int rows, int cols, uint64_t seed);

  size_t StateSize() const override;
  double EstimateVariance(const float* avg_state) const override;
  std::string name() const override { return "SketchFDA"; }
  void FoldBlock(StateFold* fold, const float* params, size_t begin,
                 size_t n) const override;

  const AmsHashFamily& family() const { return *family_; }

 protected:
  void FillStateTail(const float* drift, float* state) const override;
  void FillStateTailSparse(const float* drift, const uint32_t* kept,
                           size_t kept_count, float* state) const override;

 private:
  std::shared_ptr<const AmsHashFamily> family_;
};

/// LinearFDA (Thm 3.2): state = (||u||^2, <xi, u>) for a unit vector xi
/// known to all workers. H >= Var always (Cauchy-Schwarz). xi starts as the
/// zero vector (maximally conservative: H = mean squared drift) and after
/// two synchronizations becomes the paper's heuristic
/// xi = (w_t0 - w_t-1) / ||w_t0 - w_t-1||.
class LinearVarianceMonitor : public VarianceMonitor {
 public:
  explicit LinearVarianceMonitor(size_t dim);

  size_t StateSize() const override { return 2; }
  double EstimateVariance(const float* avg_state) const override;
  void OnSynchronized(const float* new_global,
                      const float* prev_global) override;
  bool StateTailSyncInvariant() const override { return false; }
  std::string name() const override { return "LinearFDA"; }
  void FoldBlock(StateFold* fold, const float* params, size_t begin,
                 size_t n) const override;

  /// Current heuristic direction (unit norm or all-zero before 2 syncs).
  const std::vector<float>& xi() const { return xi_; }

 protected:
  void FillStateTail(const float* drift, float* state) const override;
  void FillStateTailSparse(const float* drift, const uint32_t* kept,
                           size_t kept_count, float* state) const override;

 private:
  std::vector<float> xi_;
  bool xi_valid_ = false;
};

/// Weighted mean of aggregated monitor states (double accumulation):
/// dst[j] = sum_i weights[i] * states[i][j] / sum_i weights[i]. The
/// hierarchical scheduler combines per-subtree mean states with the
/// subtree worker counts as weights, so the result equals the mean state
/// over all covered workers (up to double-rounding). Weights must sum to a
/// positive value; dst may alias states[0].
void AggregateWeightedStates(const float* const* states,
                             const double* weights, size_t count,
                             size_t state_size, float* dst);

/// The three monitor variants, for configs and benches.
enum class MonitorKind { kExact, kSketch, kLinear };

struct MonitorConfig {
  MonitorKind kind = MonitorKind::kSketch;
  int sketch_rows = 5;     // paper §3.3 recommendation
  int sketch_cols = 250;   // paper §3.3 recommendation
  uint64_t sketch_seed = 0xa5a5a5a5ULL;

  Status Validate() const;
};

StatusOr<std::unique_ptr<VarianceMonitor>> MakeVarianceMonitor(
    const MonitorConfig& config, size_t dim);

}  // namespace fedra

#endif  // FEDRA_CORE_VARIANCE_MONITOR_H_
