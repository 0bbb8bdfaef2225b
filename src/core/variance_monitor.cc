#include "core/variance_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/vec_ops.h"
#include "util/check.h"

namespace fedra {

// ---------------------------------------------------------------- base --

void VarianceMonitor::ComputeLocalState(const float* drift,
                                        float* state) const {
  state[0] = static_cast<float>(vec::SquaredNorm(drift, dim_));
  FillStateTail(drift, state);
}

void VarianceMonitor::ComputeDriftAndState(const float* params,
                                           const float* sync_params,
                                           float* drift,
                                           float* state) const {
  state[0] =
      static_cast<float>(vec::SubSquaredNorm(params, sync_params, drift, dim_));
  FillStateTail(drift, state);
}

void VarianceMonitor::FoldBlockFn(void* fold, const float* params,
                                  size_t begin, size_t n) {
  StateFold* state_fold = static_cast<StateFold*>(fold);
  state_fold->monitor->FoldBlock(state_fold, params, begin, n);
}

bool VarianceMonitor::FoldDrift(StateFold* fold, const float* params,
                                size_t begin, size_t n, const float* xi,
                                float* drift) const {
  FEDRA_DCHECK_LE(begin + n, dim_);
  if (begin == 0) {
    fold->lanes = vec::DriftFoldLanes{};
  }
  vec::DriftFoldArgs args;
  args.a = params;
  args.b = fold->sync_params + begin;
  args.xi = xi;
  args.out = drift;
  args.n = n;
  args.last = begin + n == dim_;
  args.lanes = &fold->lanes;
  FEDRA_DCHECK(args.last || n % vec::kFoldStep == 0);
  vec::DriftFold(args);
  if (args.last) {
    fold->state[0] = static_cast<float>(fold->lanes.sq_sum);
  }
  return args.last;
}

void VarianceMonitor::ComputeLocalStateSparse(const float* drift,
                                              const uint32_t* kept,
                                              size_t kept_count,
                                              float* state) const {
  double sq = 0.0;
  for (size_t i = 0; i < kept_count; ++i) {
    const double v = static_cast<double>(drift[kept[i]]);
    sq += v * v;
  }
  state[0] = static_cast<float>(sq);
  FillStateTailSparse(drift, kept, kept_count, state);
}

// ------------------------------------------------------------ ExactFDA --

ExactVarianceMonitor::ExactVarianceMonitor(size_t dim)
    : VarianceMonitor(dim) {
  FEDRA_CHECK_GT(dim, 0u);
}

void ExactVarianceMonitor::FillStateTail(const float* drift,
                                         float* state) const {
  vec::Copy(drift, state + 1, dim());
}

// u goes straight into the state tail, which is the drift itself.
void ExactVarianceMonitor::FoldBlock(StateFold* fold, const float* params,
                                     size_t begin, size_t n) const {
  FoldDrift(fold, params, begin, n, /*xi=*/nullptr, fold->state + 1 + begin);
}

void ExactVarianceMonitor::FillStateTailSparse(const float* drift,
                                               const uint32_t* kept,
                                               size_t kept_count,
                                               float* state) const {
  std::memset(state + 1, 0, dim() * sizeof(float));
  for (size_t i = 0; i < kept_count; ++i) {
    state[1 + kept[i]] = drift[kept[i]];
  }
}

double ExactVarianceMonitor::EstimateVariance(const float* avg_state) const {
  const double mean_drift_sq = static_cast<double>(avg_state[0]);
  const double global_drift_sq = vec::SquaredNorm(avg_state + 1, dim());
  return mean_drift_sq - global_drift_sq;
}

// ----------------------------------------------------------- SketchFDA --

SketchVarianceMonitor::SketchVarianceMonitor(size_t dim, int rows, int cols,
                                             uint64_t seed)
    : VarianceMonitor(dim),
      family_(AmsHashFamily::Create(rows, cols, dim, seed)) {}

size_t SketchVarianceMonitor::StateSize() const {
  return 1 + static_cast<size_t>(family_->rows()) * family_->cols();
}

// sk(u) accumulates straight into the caller's state row: the tail is
// zeroed, then folded into cell by cell — the same float additions, in the
// same order, as a fresh AmsSketch would make.
void SketchVarianceMonitor::FillStateTail(const float* drift,
                                          float* state) const {
  std::fill(state + 1, state + StateSize(), 0.0f);
  AmsSketch::AccumulateVector(*family_, drift, state + 1);
}

// u is staged a sketch block at a time in the fold's stack block, and each
// block is bucket-summed into the state as soon as it is complete. Blocks
// reach the cells in ascending order, so every cell adds its coordinates in
// the order FillStateTail's one BucketSum call does.
void SketchVarianceMonitor::FoldBlock(StateFold* fold, const float* params,
                                      size_t begin, size_t n) const {
  if (begin == 0) {
    std::fill(fold->state + 1, fold->state + StateSize(), 0.0f);
  }
  while (n > 0) {
    const size_t offset = begin % vec::kBucketBlock;
    const size_t len = std::min(n, vec::kBucketBlock - offset);
    FoldDrift(fold, params, begin, len, /*xi=*/nullptr, fold->block + offset);
    if (offset + len == vec::kBucketBlock || begin + len == dim()) {
      vec::BucketSum(family_->BlockBucketSumArgs(
          begin / vec::kBucketBlock, fold->block, fold->state + 1));
    }
    params += len;
    begin += len;
    n -= len;
  }
}

void SketchVarianceMonitor::FillStateTailSparse(const float* drift,
                                                const uint32_t* kept,
                                                size_t kept_count,
                                                float* state) const {
  std::fill(state + 1, state + StateSize(), 0.0f);
  AmsSketch::AccumulateSparse(*family_, drift, kept, kept_count, state + 1);
}

double SketchVarianceMonitor::EstimateVariance(const float* avg_state) const {
  const double mean_drift_sq = static_cast<double>(avg_state[0]);
  // The averaged cells are sk(u_bar) by sketch linearity; M2 of them
  // estimates ||u_bar||^2 within (1 +- eps).
  AmsSketch avg_sketch(family_);
  vec::Copy(avg_state + 1, avg_sketch.data(), avg_sketch.numel());
  const double m2 = avg_sketch.EstimateSquaredNorm();
  // Deflate per Thm 3.1 so that H >= Var holds with confidence 1-delta.
  const double deflated = m2 / (1.0 + avg_sketch.ErrorBound());
  return mean_drift_sq - deflated;
}

// ----------------------------------------------------------- LinearFDA --

LinearVarianceMonitor::LinearVarianceMonitor(size_t dim)
    : VarianceMonitor(dim), xi_(dim, 0.0f) {
  FEDRA_CHECK_GT(dim, 0u);
}

void LinearVarianceMonitor::FillStateTail(const float* drift,
                                          float* state) const {
  state[1] = xi_valid_
                 ? static_cast<float>(vec::Dot(xi_.data(), drift, dim()))
                 : 0.0f;
}

void LinearVarianceMonitor::FoldBlock(StateFold* fold, const float* params,
                                      size_t begin, size_t n) const {
  if (FoldDrift(fold, params, begin, n,
                xi_valid_ ? xi_.data() + begin : nullptr, /*drift=*/nullptr)) {
    fold->state[1] =
        xi_valid_ ? static_cast<float>(fold->lanes.dot_sum) : 0.0f;
  }
}

void LinearVarianceMonitor::FillStateTailSparse(const float* drift,
                                                const uint32_t* kept,
                                                size_t kept_count,
                                                float* state) const {
  if (!xi_valid_) {
    state[1] = 0.0f;
    return;
  }
  double dot = 0.0;
  for (size_t i = 0; i < kept_count; ++i) {
    dot += static_cast<double>(xi_[kept[i]]) *
           static_cast<double>(drift[kept[i]]);
  }
  state[1] = static_cast<float>(dot);
}

double LinearVarianceMonitor::EstimateVariance(const float* avg_state) const {
  const double mean_drift_sq = static_cast<double>(avg_state[0]);
  // avg of <xi, u_k> equals <xi, u_bar>; |<xi, u_bar>|^2 <= ||u_bar||^2.
  const double projection = static_cast<double>(avg_state[1]);
  return mean_drift_sq - projection * projection;
}

void LinearVarianceMonitor::OnSynchronized(const float* new_global,
                                           const float* prev_global) {
  // xi = (w_t0 - w_t-1) / ||w_t0 - w_t-1|| — computable by every worker
  // locally from the last two synchronized models (paper §3.2).
  const double norm = std::sqrt(
      vec::SubSquaredNorm(new_global, prev_global, xi_.data(), dim()));
  if (norm <= 1e-12) {
    std::memset(xi_.data(), 0, dim() * sizeof(float));
    xi_valid_ = false;
    return;
  }
  vec::Scale(xi_.data(), dim(), static_cast<float>(1.0 / norm));
  xi_valid_ = true;
}

void AggregateWeightedStates(const float* const* states,
                             const double* weights, size_t count,
                             size_t state_size, float* dst) {
  FEDRA_CHECK_GT(count, 0u);
  double weight_sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    FEDRA_CHECK_GE(weights[i], 0.0);
    weight_sum += weights[i];
  }
  FEDRA_CHECK_GT(weight_sum, 0.0);
  for (size_t j = 0; j < state_size; ++j) {
    double acc = 0.0;
    for (size_t i = 0; i < count; ++i) {
      acc += weights[i] * static_cast<double>(states[i][j]);
    }
    dst[j] = static_cast<float>(acc / weight_sum);
  }
}

// -------------------------------------------------------------- factory --

Status MonitorConfig::Validate() const {
  if (kind == MonitorKind::kSketch) {
    if (sketch_rows < 1 || sketch_cols < 1) {
      return Status::InvalidArgument("sketch dims must be >= 1");
    }
    if (static_cast<int64_t>(sketch_rows) * sketch_cols >
        AmsHashFamily::kMaxCells) {
      return Status::InvalidArgument(
          "sketch_rows * sketch_cols must be at most 2^31 cells");
    }
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<VarianceMonitor>> MakeVarianceMonitor(
    const MonitorConfig& config, size_t dim) {
  FEDRA_RETURN_IF_ERROR(config.Validate());
  if (dim == 0) {
    return Status::InvalidArgument("model dimension must be > 0");
  }
  switch (config.kind) {
    case MonitorKind::kExact:
      return std::unique_ptr<VarianceMonitor>(
          std::make_unique<ExactVarianceMonitor>(dim));
    case MonitorKind::kSketch:
      return std::unique_ptr<VarianceMonitor>(
          std::make_unique<SketchVarianceMonitor>(
              dim, config.sketch_rows, config.sketch_cols,
              config.sketch_seed));
    case MonitorKind::kLinear:
      return std::unique_ptr<VarianceMonitor>(
          std::make_unique<LinearVarianceMonitor>(dim));
  }
  return Status::InvalidArgument("unknown monitor kind");
}

}  // namespace fedra
