// Flat float-vector kernels.
//
// Model parameters, gradients, drifts (u_k = w_k - w_sync), and AllReduce
// payloads are all contiguous float spans; these kernels are the numeric
// backbone shared by the optimizers, the FDA monitors, and the simulator.
//
// The hot kernels (Axpy, Dot, SquaredNorm, the blockwise DriftFold, whose
// one-block form is SubSquaredNorm, the Adam update, tanh, the AMS sketch's
// bucket sums, and the collective reductions) route through the
// runtime SIMD dispatch table in tensor/simd_dispatch.h — resolved once per
// process to the best ISA tier the CPU supports (or FEDRA_SIMD),
// bit-deterministic per tier.
// Reductions accumulate in double across independent lanes (four in the
// portable bodies, more under AVX2/AVX-512) so results differ from a
// single-accumulator loop — and across tiers — only by floating-point
// reassociation. The FDA monitors derive each worker's local state from its
// drift u_k = w_k - w_t0 once per round: SubSquaredNorm computes the drift
// and its squared norm in one pass, and DriftFold does the same a block at a
// time inside the optimizer step, while each block is still in L1, with the
// bits of SubSquaredNorm and Dot.
// Scalar oracles live in tensor/ref_ops.h.

#ifndef FEDRA_TENSOR_VEC_OPS_H_
#define FEDRA_TENSOR_VEC_OPS_H_

#include <cstddef>
#include <cstdint>

namespace fedra {
namespace vec {

/// dst[i] = src[i]
void Copy(const float* src, float* dst, size_t n);

/// dst[i] = value
void Fill(float* dst, size_t n, float value);

/// x[i] *= alpha
void Scale(float* x, size_t n, float alpha);

/// y[i] += alpha * x[i]
void Axpy(float alpha, const float* x, float* y, size_t n);

/// out[i] = a[i] + b[i]
void Add(const float* a, const float* b, float* out, size_t n);

/// out[i] = a[i] - b[i]
void Sub(const float* a, const float* b, float* out, size_t n);

/// out[i] = a[i] * b[i]
void Mul(const float* a, const float* b, float* out, size_t n);

/// Returns sum_i a[i] * b[i] (accumulated in double for stability).
double Dot(const float* a, const float* b, size_t n);

/// Returns sum_i x[i]^2 (accumulated in double).
double SquaredNorm(const float* x, size_t n);

/// Returns sum_i x[i].
double Sum(const float* x, size_t n);

/// Returns sqrt(SquaredNorm(x)).
double Norm(const float* x, size_t n);

/// Returns max_i |a[i] - b[i]|.
double MaxAbsDiff(const float* a, const float* b, size_t n);

/// Fused drift kernel: out[i] = a[i] - b[i], returns sum_i out[i]^2.
/// One pass instead of Sub + SquaredNorm (VarianceMonitor::
/// ComputeDriftAndState's drift u_k = w_k - w_sync and ||u_k||^2): a
/// DriftFold of one last block from zeroed lanes, storing u.
double SubSquaredNorm(const float* a, const float* b, float* out, size_t n);

/// Floats a DriftFold block must span, except the last block of a pass:
/// the widest level's reduction step (4 x 8 double lanes), so every block
/// starts on a step boundary of each level's one-pass kernel.
inline constexpr size_t kFoldStep = 32;

/// The accumulators a blockwise drift fold carries from block to block,
/// enough for the widest level, and the pass's results.
struct DriftFoldLanes {
  alignas(64) double sq[kFoldStep] = {};   // ||u||^2
  alignas(64) double dot[kFoldStep] = {};  // <xi, u>
  double sq_sum = 0.0;   // set by the last block
  double dot_sum = 0.0;  // set by the last block when xi is given
};

/// One block of a pass over [0, dim): the block's spans and the carried
/// lanes. Every block but the last spans a multiple of kFoldStep floats.
struct DriftFoldArgs {
  const float* a = nullptr;   // this block of w_k
  const float* b = nullptr;   // the same block of w_t0
  const float* xi = nullptr;  // the same block of xi; null: no dot product
  float* out = nullptr;       // receives u = a - b; null: u is not stored
  size_t n = 0;
  bool last = false;  // the pass's final block
  DriftFoldLanes* lanes = nullptr;
};

/// Folds one block of u = a - b into the carried lanes: ||u||^2, and
/// <xi, u> when xi is given, stores u when out is given, and on the last
/// block sets lanes->sq_sum (and dot_sum) to the pass's results. Run over
/// ascending blocks from zeroed lanes, the results have the bits of
/// SubSquaredNorm(w_k, w_t0, u, dim) and Dot(xi, u, dim) at every level:
/// the carried lanes see each element as a one-block pass does, and the
/// <xi, u> lanes, tail and final combine are the level's Dot ones
/// (docs/determinism.md §5).
void DriftFold(const DriftFoldArgs& args);

/// Fused moment kernel: *sum += sum_i x[i], *sum_sq += sum_i x[i]^2 in one
/// pass. BatchNorm's statistics pass needs both over every channel plane.
void SumAndSquaredNorm(const float* x, size_t n, double* sum, double* sum_sq);

/// Fused normalize kernel: xhat[i] = (x[i] - mean) * inv_std and
/// y[i] = gamma * xhat[i] + beta. The BatchNorm forward normalize pass.
void NormalizeAffine(const float* x, float mean, float inv_std, float gamma,
                     float beta, float* xhat, float* y, size_t n);

/// BatchNorm backward input-gradient kernel:
/// dx[i] = scale * (dy[i] - mean_dy - xhat[i] * mean_dy_xhat).
void NormBackwardDx(const float* dy, const float* xhat, float scale,
                    float mean_dy, float mean_dy_xhat, float* dx, size_t n);

/// Fused proximal-gradient kernel: y[i] += alpha * (a[i] - b[i]). One pass
/// instead of Sub-into-scratch + Axpy (FedProx adds mu * (w_k - w_global) to
/// every local gradient).
void AddScaledDiff(float alpha, const float* a, const float* b, float* y,
                   size_t n);

/// Scalars of one Adam/AdamW step: the OptimizerConfig fields plus the
/// step's bias-corrected rate, which the optimizer computes in double.
struct AdamStepArgs {
  float lr = 0.0f;
  float corrected_lr = 0.0f;  // lr * sqrt(1 - beta2^t) / (1 - beta1^t)
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float epsilon = 0.0f;
  float weight_decay = 0.0f;
  bool decoupled = false;  // AdamW: decay the params after the step
};

/// One Adam (or, when args.decoupled, AdamW) step in place on params and
/// the moments m, v:
///   g = grads[i] + weight_decay * params[i]   (AdamW: g = grads[i])
///   m[i] = beta1 * m[i] + (1 - beta1) * g
///   v[i] = beta2 * v[i] + (1 - beta2) * g * g
///   params[i] -= corrected_lr * m[i] / (sqrt(v[i]) + epsilon)
///   params[i] -= lr * weight_decay * params[i]   (AdamW only)
/// Element-wise, so every SIMD level produces the same bits
/// (docs/determinism.md §5).
void AdamStep(const AdamStepArgs& args, const float* grads, float* params,
              float* m, float* v, size_t n);

/// y[i] = tanh(x[i]), with the bits of glibc 2.36's tanhf for every input
/// at every SIMD level: the kernel is a port of glibc's fdlibm code, so the
/// result does not depend on the host's libm (docs/determinism.md §5).
/// y may alias x.
void Tanh(const float* x, float* y, size_t n);

/// Coordinates of x per block of BucketSum: a 16 KB block stays in L1 while
/// every row's lists gather from it.
inline constexpr size_t kBucketBlock = 4096;
/// Adjacent cells one BucketRun sums side by side, one per SIMD lane.
inline constexpr int kBucketLanes = 16;
/// The sign bit of a BucketRun entry, set for a negative coordinate; the
/// bits below it hold the coordinate's offset in its block.
inline constexpr uint32_t kBucketSign = 0x8000;

/// The lists of kBucketLanes adjacent cells of one row over one block of
/// x. Lane i's k-th entry, for k < len[i], is
/// entries[offset + k * kBucketLanes + i]. Entries past a lane's length
/// are padding. steps is the longest lane's length.
struct BucketRun {
  uint32_t offset = 0;
  uint16_t steps = 0;
  uint16_t len[kBucketLanes] = {};
};

/// The spans of one BucketSum call. cells is rows x cols, row-major; a row
/// is cut into groups = ceil(cols / kBucketLanes) groups of adjacent cells
/// (the last one partial when cols % kBucketLanes != 0), and runs holds
/// one run per (block, row, group), in that order.
struct BucketSumArgs {
  const float* x = nullptr;
  float* cells = nullptr;
  const uint16_t* entries = nullptr;
  const BucketRun* runs = nullptr;
  size_t num_blocks = 0;
  int rows = 0;
  int cols = 0;
};

/// Adds signed entries of x into cells, one list per cell: for every run
/// in order, and every lane i whose cell c = r * cols + g * kBucketLanes + i
/// exists,
///   acc = cells[c];
///   for k < len[i]: acc += sign_k * x[b * kBucketBlock + offset_k];
///   cells[c] = acc;
/// The sign is applied by flipping x's sign bit, which gives the bits of a
/// multiply by +-1.0f for every input but NaN. Each cell's additions run in
/// list order at every level, so every SIMD level produces the same bits
/// (docs/determinism.md §5). Cells outside [0, rows * cols) are never read
/// or written.
void BucketSum(const BucketSumArgs& args);

/// Fused tree-reduce + scale kernel, the arithmetic core of the simulated
/// collectives: out[i] = scale * sum_k bufs[k][i]. Buffers are combined
/// pairwise in a fixed order with double accumulators held in L1-resident
/// blocks, so each input span is read exactly once and results are
/// bit-deterministic for a given num_bufs. `out` may alias bufs[0] (each
/// block is fully read before it is written); it must not alias any other
/// input.
void ReduceScale(const float* const* bufs, size_t num_bufs, size_t n,
                 double scale, float* out);

}  // namespace vec
}  // namespace fedra

#endif  // FEDRA_TENSOR_VEC_OPS_H_
