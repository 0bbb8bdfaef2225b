// Runtime SIMD dispatch for the hot flat-span kernels, the GEMM
// micro-kernel, the GEMM's transposed-panel packing, the conv input
// gradient's col2im, the tanh activation, the 2x2 average pool, the AMS
// sketch's bucket sums and the top-k mask's candidate compaction.
//
// The library is built once and must run well on whatever CPU it lands on:
// a -march=native build cannot ship, and a baseline build leaves 4-16x of
// vector throughput on the table. This header centralizes the solution —
// every ISA-specific decision in the tree lives behind it (the determinism
// lint bans cpuid probes, ISA #ifdefs and ISA code such as intrinsics and
// target attributes anywhere else in src/):
//
//   * `Level` enumerates the implementation tiers: kScalar (the portable
//     bodies, plain loops that the compiler vectorizes for the build's
//     baseline ISA), kAvx2 (AVX2+FMA intrinsics) and kAvx512 (AVX-512F
//     intrinsics). The two intrinsics tiers exist on x86-64 only; any other
//     target runs kScalar.
//   * Resolution happens once, lazily: the best runtime-supported level via
//     cpuid (`__builtin_cpu_supports`), overridable by
//     FEDRA_SIMD=scalar|avx2|avx512 (an unknown or unsupported level aborts
//     with the supported list — a silent downgrade would invalidate
//     recorded benchmarks).
//   * `Kernels()` returns the active function-pointer table; vec_ops.cc and
//     ops.cc route the hot kernels through it. A level runs each kernel at
//     the highest variant <= the level that exists for that kernel, so e.g.
//     kAvx2 runs the portable tanh body.
//
// Determinism contract (docs/determinism.md): results are bit-deterministic
// for a fixed level — every variant has a fixed accumulation pattern, and
// the 32768-element parallel chunk boundaries are level-independent.
// Different levels may reassociate reductions differently and agree only to
// parity-test tolerance (tests/simd_dispatch_test.cc drives every
// supported level against the ref:: oracles). kScalar is supported on
// every build and host, so the golden-history suites pin it and their
// hard-coded arrays hold on any machine.

#ifndef FEDRA_TENSOR_SIMD_DISPATCH_H_
#define FEDRA_TENSOR_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fedra {
namespace vec {
struct AdamStepArgs;   // tensor/vec_ops.h
struct BucketSumArgs;  // tensor/vec_ops.h
struct DriftFoldArgs;  // tensor/vec_ops.h
}  // namespace vec

namespace simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Rows/cols of the packed GEMM micro-tile. ops.cc packs panels to this
/// shape; every micro-kernel variant consumes it.
inline constexpr int kGemmMr = 8;
inline constexpr int kGemmNr = 32;

/// One row of a conv input gradient's col2im (`col2im_row`): the taps of
/// output pixels (y, x0 .. x0 + len) of one sample, added into its input
/// gradient.
struct Col2imRowArgs {
  const float* taps;   // tap t of pixel x0 + c at taps[t * ld + c]
  size_t ld;
  float* grad_input;   // the sample's channels x in_h x in_w planes
  // Kernel column kx reaches inside the map from output columns
  // [x_lo[kx], x_hi[kx]): 0 <= x * stride - pad + kx < in_w there.
  const int* x_lo;
  const int* x_hi;
  int channels, in_h, in_w, kernel, stride, pad;
  int y, x0, len;
};

/// Function-pointer table for the dispatched kernels. Signatures mirror the
/// vec:: declarations; `gemm_micro_8x32` computes
/// acc[kGemmMr][kGemmNr] = apanel * bpanel over kc depth steps of packed
/// panels (apanel stride kGemmMr, bpanel stride kGemmNr).
///
/// `pack_b_trans` packs one kGemmNr-wide panel of a transposed GEMM
/// operand: panel[p * kGemmNr + j] = b[j * ld + p] for p < kc and j < nr
/// (nr <= kGemmNr), and 0.0f in the pad lanes j >= nr.
///
/// `col2im_row` adds every tap (ic, ky, kx) of each pixel x of the row into
/// input cell (ic, y * stride - pad + ky, x * stride - pad + kx) when that
/// cell is inside the map. Each cell gets its taps in ascending order, one
/// rounded add apiece, and no other addend.
///
/// `tanh` computes y[i] = tanh(x[i]); y may alias x.
///
/// `avg_pool_2x2` pools `planes` consecutive in_h x in_w planes (in_h,
/// in_w >= 2) with 2x2 windows at stride 2, no padding, into
/// (in_h / 2) x (in_w / 2) planes: each output is
/// `((((+0 + a) + b) + c) + d) * (0.5f * 0.5f)` over its window in row
/// order. `avg_pool_2x2_grad` is its backward: every input cell of a
/// window gets `(g * 0.5f) / 2.0f` added once, and an odd last row or
/// column, which no window covers, is left as it is.
///
/// `bucket_sum` adds each cell's list of signed entries of x into the cell,
/// 16 cells side by side (vec::BucketSum).
///
/// `drift_fold` is one block of a blockwise pass computing u = a - b,
/// ||u||^2 and <xi, u> (vec::DriftFold): it carries the level's
/// accumulators between blocks in memory and runs the level's tail and
/// final combine on the last block, so a pass over ascending blocks has
/// the bits of a one-block pass (vec::SubSquaredNorm) and its <xi, u>
/// those of that level's dot.
///
/// `magnitude_compact` writes the index i of every x[i], i < n, whose
/// magnitude key bits(x[i]) & 0x7fffffff is >= floor_key into out, in
/// ascending order, and returns their count. `out` must hold n indices;
/// entries past the count are unspecified.
///
/// The reductions (dot, the norms, drift_fold) differ across levels by
/// reassociation.
/// pack_b_trans and magnitude_compact only move data (the compaction's
/// compare is an exact integer one); reduce_scale has one body, the portable
/// one, at every level; adam_step, tanh and the two pool kernels are
/// element-wise, each variant computing the portable body's per-element
/// arithmetic; and the variants of bucket_sum and col2im_row add each
/// cell's addends in the portable body's order, bucket_sum's after one
/// exact sign flip apiece. So those nine produce the same bits at every
/// level. For adam_step that includes the FMAs GCC
/// contracts the portable loop into (docs/determinism.md §5): its AVX-512F
/// variant is compiled in only in builds that contract it (-O2 and above
/// with FMA in the baseline ISA), and kScalar and kAvx2 run the portable
/// body. tanh's portable body is a port of the fdlibm tanhf/expm1f that
/// glibc ships; it and its AVX-512F variant are compiled with FP
/// contraction off, so every build gives glibc 2.36's tanhf bits. So are
/// the pool kernels, whose backward add must not fuse with its scaling.
struct KernelTable {
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  double (*dot)(const float* a, const float* b, size_t n);
  double (*squared_norm)(const float* x, size_t n);
  void (*drift_fold)(const vec::DriftFoldArgs& args);
  void (*reduce_scale)(const float* const* bufs, size_t num_bufs, size_t n,
                       double scale, float* out);
  void (*adam_step)(const vec::AdamStepArgs& args, const float* grads,
                    float* params, float* m, float* v, size_t n);
  void (*tanh)(const float* x, float* y, size_t n);
  void (*avg_pool_2x2)(const float* input, size_t planes, int in_h, int in_w,
                       float* output);
  void (*avg_pool_2x2_grad)(const float* grad_output, size_t planes,
                            int in_h, int in_w, float* grad_input);
  void (*bucket_sum)(const vec::BucketSumArgs& args);
  void (*gemm_micro_8x32)(int kc, const float* apanel, const float* bpanel,
                          float* acc);
  void (*pack_b_trans)(const float* b, size_t ld, int kc, int nr,
                       float* panel);
  void (*col2im_row)(const Col2imRowArgs& args);
  size_t (*magnitude_compact)(const float* x, size_t n, uint32_t floor_key,
                              uint32_t* out);
};

/// The table for the active level. First call resolves the level (FEDRA_SIMD
/// override, else best runtime-supported); later calls are one atomic load.
const KernelTable& Kernels();

/// The resolved level (resolving it on first use, like Kernels()).
Level ActiveLevel();

/// Forces a level, e.g. from the dispatch-matrix parity tests or the
/// bench_micro per-level sweep. Aborts if the level is not supported on
/// this machine (see LevelSupported). Takes effect for subsequent kernel
/// calls; not intended to race in-flight kernels.
void SetLevel(Level level);

/// True when `level` is both compiled in and executable on this CPU.
/// kScalar is always supported.
bool LevelSupported(Level level);

/// All supported levels, ascending (the bench sweep iterates this).
std::vector<Level> SupportedLevels();

const char* LevelName(Level level);

/// Parses a FEDRA_SIMD-style name ("avx2"). Returns false on unknown names.
bool ParseLevelName(const std::string& name, Level* level);

}  // namespace simd
}  // namespace fedra

#endif  // FEDRA_TENSOR_SIMD_DISPATCH_H_
