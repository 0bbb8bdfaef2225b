// All ISA-specific code in the tree lives in this translation unit: cpuid
// probing, the per-level kernel variants, and the dispatch tables. The
// determinism lint (scripts/lint_determinism.py, rule raw-cpu-dispatch)
// enforces that nothing outside tensor/simd_dispatch.* touches
// __builtin_cpu_supports, ISA preprocessor conditionals, intrinsic headers,
// target attributes, intrinsics or vector types, so every kernel selection
// decision is auditable in one place.
//
// Layout of this file:
//   1. Portable canonical kernels — the exact code vec_ops.cc/ops.cc
//     shipped before dispatch existed, moved here verbatim. They define the
//     canonical accumulation patterns (4 double lanes for reductions, the
//     256-double L1 tile for the reduce kernel), make up the kScalar table
//     and fill every slot an intrinsics tier has no variant for.
//   2. x86 variants (AVX2+FMA, AVX-512F) behind target attributes, so a
//     baseline build still carries them and picks them at runtime.
//   3. tanh: the portable port of glibc's tanhf and its AVX-512F variant,
//     compiled with FP contraction off.
//   4. The 2x2 stride-2 average pool, still with contraction off.
//   5. The top-k mask's candidate compaction and its AVX-512F variant.
//   6. The blockwise drift fold (u = a - b, ||u||^2 and <xi, u> with
//     carried lanes; vec::SubSquaredNorm is a one-block pass) and its AVX2
//     and AVX-512F variants.
//   7. Table construction (fallback ladder) and level resolution.
//
// Determinism: each variant commits to one fixed accumulation pattern, so
// results are bit-deterministic for a fixed level. The wide variants run
// 16/32 independent double lanes instead of the canonical 4 — reductions
// across levels therefore agree only to parity tolerance (the latency-bound
// 4-lane chain is the very thing being fixed; see bench/BENCH_kernels.json).
// The adam_step variant keeps the portable body's per-element FMA pattern,
// the tanh and pool variants their operation sequences (element-wise
// operations leave no reassociation freedom) and the bucket_sum and
// col2im_row variants their per-cell order of additions, so those six
// kernels produce the same bits at every level; pack_b_trans and
// magnitude_compact only move data, so they do too, and reduce_scale runs
// its portable body at every level. Each drift_fold variant carries its
// level's lanes between blocks, so a blockwise pass has the bits of a
// one-block pass at that level, and its <xi, u> those of the level's dot
// (docs/determinism.md §5).

#include "tensor/simd_dispatch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>

#include "tensor/vec_ops.h"
#include "util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEDRA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fedra {
namespace simd {

namespace {

// ------------------------------------------------------------------------
// 1. Portable canonical kernels (the kScalar tier).
// ------------------------------------------------------------------------

void AxpyPortable(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double DotPortable(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    acc1 += static_cast<double>(a[i + 1]) * static_cast<double>(b[i + 1]);
    acc2 += static_cast<double>(a[i + 2]) * static_cast<double>(b[i + 2]);
    acc3 += static_cast<double>(a[i + 3]) * static_cast<double>(b[i + 3]);
  }
  for (; i < n; ++i) {
    acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double SquaredNormPortable(const float* x, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
    acc0 += x0 * x0;
    acc1 += x1 * x1;
    acc2 += x2 * x2;
    acc3 += x3 * x3;
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    acc0 += xi * xi;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

// Block size for the reduction kernel: the double accumulator tile stays in
// L1 (2 KB) while every input buffer streams through exactly once.
constexpr size_t kReduceBlock = 256;

void ReduceScalePortable(const float* const* bufs, size_t num_bufs, size_t n,
                         double scale, float* out) {
  if (num_bufs == 0) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = 0.0f;
    }
    return;
  }
  double acc[kReduceBlock];
  for (size_t base = 0; base < n; base += kReduceBlock) {
    const size_t len = (kReduceBlock < n - base) ? kReduceBlock : n - base;
    // Seed from the first pair, then fold the remaining buffers in pairs —
    // a fixed-order tree that halves the passes over the accumulator tile.
    if (num_bufs == 1) {
      const float* b0 = bufs[0] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]);
      }
    } else {
      const float* b0 = bufs[0] + base;
      const float* b1 = bufs[1] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] = static_cast<double>(b0[j]) + static_cast<double>(b1[j]);
      }
    }
    size_t k = 2;
    for (; k + 1 < num_bufs; k += 2) {
      const float* ba = bufs[k] + base;
      const float* bb = bufs[k + 1] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]) + static_cast<double>(bb[j]);
      }
    }
    if (k < num_bufs) {
      const float* ba = bufs[k] + base;
      for (size_t j = 0; j < len; ++j) {
        acc[j] += static_cast<double>(ba[j]);
      }
    }
    float* o = out + base;
    for (size_t j = 0; j < len; ++j) {
      o[j] = static_cast<float>(acc[j] * scale);
    }
  }
}

// The Adam/AdamW update, moved verbatim from AdamOptimizer::Step. Built at
// -O2 or above for a baseline ISA with FMA (the default -march=native
// build), GCC contracts it to this per-element arithmetic:
//   Adam:   g = fma(wd, p, grad)          AdamW: g = grad
//   m' = fma(b1, m, (1-b1)*g)
//   v' = fma(b2, v, ((1-b2)*g)*g)
//   p' = p - (clr*m') / (sqrt(v') + eps)
//   AdamW:  p' = fma(-(lr*wd), p', p')    (whatever wd is)
// AdamStepAvx512 writes exactly these operations out. The loop itself stays
// scalar: each std::sqrt carries an errno slow path (a compare and a branch
// to sqrtf), and GCC does not vectorize a loop with that control flow.
void AdamStepPortable(const vec::AdamStepArgs& args, const float* grads,
                      float* params, float* m, float* v, size_t n) {
  const float lr = args.lr;
  const float corrected_lr = args.corrected_lr;
  const float b1 = args.beta1;
  const float b2 = args.beta2;
  const float eps = args.epsilon;
  const bool decoupled = args.decoupled;
  const float wd = args.weight_decay;
  for (size_t i = 0; i < n; ++i) {
    float g = grads[i];
    if (!decoupled) {
      g += wd * params[i];  // classic L2 regularization
    }
    m[i] = b1 * m[i] + (1.0f - b1) * g;
    v[i] = b2 * v[i] + (1.0f - b2) * g * g;
    params[i] -= corrected_lr * m[i] / (std::sqrt(v[i]) + eps);
    if (decoupled) {
      params[i] -= lr * wd * params[i];  // AdamW decoupled decay
    }
  }
}

// The GEMM micro-kernel's portable body, the original fallback loop. It
// computes each acc[i][j] as one chain over p in ascending order, as do the
// intrinsics variants below: the micro-kernel has no reduction
// reassociation freedom, only different tilings of the same per-cell
// chains. GCC vectorizes the j loop for the build's baseline ISA.

void GemmMicroPortable(int kc, const float* apanel, const float* bpanel,
                       float* acc) {
  float local[kGemmMr][kGemmNr] = {};
  for (int p = 0; p < kc; ++p, apanel += kGemmMr, bpanel += kGemmNr) {
    for (int i = 0; i < kGemmMr; ++i) {
      const float ai = apanel[i];
      for (int j = 0; j < kGemmNr; ++j) {
        local[i][j] += ai * bpanel[j];
      }
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

// The trans_b branch of the GEMM's B packing, moved verbatim from
// ops.cc's PackB: one strided gather per panel element, depth-major.
void PackBTransPortable(const float* b, size_t ld, int kc, int nr,
                        float* panel) {
  for (int p = 0; p < kc; ++p) {
    float* dst = panel + static_cast<size_t>(p) * kGemmNr;
    for (int jj = 0; jj < nr; ++jj) {
      dst[jj] = b[static_cast<size_t>(jj) * ld + p];
    }
    for (int jj = nr; jj < kGemmNr; ++jj) {
      dst[jj] = 0.0f;
    }
  }
}

// The pixels x of a col2im row whose kernel column kx lands inside the map.
void Col2imTapRange(const Col2imRowArgs& a, int kx, int* lo, int* hi) {
  *lo = std::max(a.x_lo[kx], a.x0);
  *hi = std::min(a.x_hi[kx], a.x0 + a.len);
}

// col2im for one output row, the run loop ops.cc's Conv2dBackward ran
// before dispatch, with the kernel column outermost: each cell gets one
// tap per kernel column, so its taps still arrive in ascending order.
void Col2imRowPortable(const Col2imRowArgs& a) {
  const size_t plane = static_cast<size_t>(a.in_h) * a.in_w;
  for (int kx = 0; kx < a.kernel; ++kx) {
    int lo, hi;
    Col2imTapRange(a, kx, &lo, &hi);
    const float* tap = a.taps + static_cast<size_t>(kx) * a.ld;
    for (int ic = 0; ic < a.channels; ++ic) {
      float* grad_plane = a.grad_input + static_cast<size_t>(ic) * plane;
      for (int ky = 0; ky < a.kernel;
           ++ky, tap += static_cast<size_t>(a.kernel) * a.ld) {
        const int h = a.y * a.stride - a.pad + ky;
        if (h < 0 || h >= a.in_h) {
          continue;
        }
        float* row = grad_plane + static_cast<size_t>(h) * a.in_w;
        for (int x = lo; x < hi; ++x) {
          row[x * a.stride - a.pad + kx] += tap[x - a.x0];
        }
      }
    }
  }
}

// The AMS sketch's bucket sums (vec::BucketSum). A run's 16 lanes are 16
// independent cells, so the inner loop is a 16-lane vector loop with one
// indexed load per lane. A lane past the end of its list adds -0.0f, which
// leaves every value as it is, signed zeros and NaNs included. That choice
// is made with integer masks: written as a conditional, GCC compiles it to
// a branch per lane, which list lengths make unpredictable.
void BucketSumPortable(const vec::BucketSumArgs& args) {
  constexpr int kLanes = vec::kBucketLanes;
  const vec::BucketRun* run = args.runs;
  for (size_t b = 0; b < args.num_blocks; ++b) {
    const float* block = args.x + b * vec::kBucketBlock;
    for (int r = 0; r < args.rows; ++r) {
      float* row = args.cells +
                   static_cast<size_t>(r) * static_cast<size_t>(args.cols);
      for (int c0 = 0; c0 < args.cols; c0 += kLanes, ++run) {
        const int lanes = args.cols - c0 < kLanes ? args.cols - c0 : kLanes;
        float acc[kLanes] = {};
        for (int i = 0; i < lanes; ++i) {
          acc[i] = row[c0 + i];
        }
        const uint16_t* entries = args.entries + run->offset;
        for (int k = 0; k < run->steps; ++k, entries += kLanes) {
          for (int i = 0; i < kLanes; ++i) {
            const uint32_t entry = entries[i];
            const uint32_t live = 0u - static_cast<uint32_t>(k < run->len[i]);
            const uint32_t bits =
                std::bit_cast<uint32_t>(block[entry & (vec::kBucketSign - 1)]) ^
                ((entry & vec::kBucketSign) << 16);
            acc[i] += std::bit_cast<float>((bits & live) |
                                           (~live & 0x80000000u));
          }
        }
        for (int i = 0; i < lanes; ++i) {
          row[c0 + i] = acc[i];
        }
      }
    }
  }
}

// ------------------------------------------------------------------------
// 2. x86 variants: AVX2+FMA and AVX-512F, selected at runtime. Target
// attributes keep them compilable in baseline (-march=x86-64) builds.
// ------------------------------------------------------------------------

#if defined(FEDRA_SIMD_X86)

// GCC 12's avx512fintrin.h lowers the unmasked _mm512_cvtps_pd/_mm512_cvtpd_ps
// forms through a masked builtin whose passthrough operand is intentionally
// left undefined; -Wmaybe-uninitialized flags that from inside the system
// header at every inlined use, so silence it for the intrinsics section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// --- AVX2+FMA ---
//
// Reductions run 16 independent double lanes (4 x __m256d): the canonical
// 4-lane pattern is one latency-bound FMA chain per 4 elements; 4 chains of
// 4-wide vectors keep the FMA pipes full and leave the loads/converts as
// the bottleneck.

__attribute__((target("avx2,fma"))) double HSum16(__m256d acc0, __m256d acc1,
                                                  __m256d acc2,
                                                  __m256d acc3) {
  // Fixed combine order: pairwise across accumulators, then left-to-right
  // over the 4 lanes of the combined vector.
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha, const float* x,
                                                  float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                      _mm256_loadu_ps(y + i));
    const __m256 y1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i + 8),
                                      _mm256_loadu_ps(y + i + 8));
    _mm256_storeu_ps(y + i, y0);
    _mm256_storeu_ps(y + i + 8, y1);
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a,
                                                   const float* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 8)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 8)), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 12)),
                           _mm256_cvtps_pd(_mm_loadu_ps(b + i + 12)), acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

__attribute__((target("avx2,fma"))) double SquaredNormAvx2(const float* x,
                                                           size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d x1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4));
    const __m256d x2 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 8));
    const __m256d x3 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 12));
    acc0 = _mm256_fmadd_pd(x0, x0, acc0);
    acc1 = _mm256_fmadd_pd(x1, x1, acc1);
    acc2 = _mm256_fmadd_pd(x2, x2, acc2);
    acc3 = _mm256_fmadd_pd(x3, x3, acc3);
  }
  double total = HSum16(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const double xi = x[i];
    total += xi * xi;
  }
  return total;
}

// 8x32 micro-tile as four 4x16 register sub-tiles (8 ymm accumulators + 2
// B vectors + 1 broadcast fits the 16-register AVX2 file; the full 8x32
// tile would need 32 ymm accumulators and spill every iteration). Each
// sub-tile sweeps the whole L1-resident packed panel pair.
__attribute__((target("avx2,fma"))) void GemmMicroAvx2(int kc,
                                                       const float* apanel,
                                                       const float* bpanel,
                                                       float* acc) {
  for (int i0 = 0; i0 < kGemmMr; i0 += 4) {
    for (int j0 = 0; j0 < kGemmNr; j0 += 16) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      const float* ap = apanel + i0;
      const float* bp = bpanel + j0;
      for (int p = 0; p < kc; ++p, ap += kGemmMr, bp += kGemmNr) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 ai = _mm256_broadcast_ss(ap);
        c00 = _mm256_fmadd_ps(ai, b0, c00);
        c01 = _mm256_fmadd_ps(ai, b1, c01);
        ai = _mm256_broadcast_ss(ap + 1);
        c10 = _mm256_fmadd_ps(ai, b0, c10);
        c11 = _mm256_fmadd_ps(ai, b1, c11);
        ai = _mm256_broadcast_ss(ap + 2);
        c20 = _mm256_fmadd_ps(ai, b0, c20);
        c21 = _mm256_fmadd_ps(ai, b1, c21);
        ai = _mm256_broadcast_ss(ap + 3);
        c30 = _mm256_fmadd_ps(ai, b0, c30);
        c31 = _mm256_fmadd_ps(ai, b1, c31);
      }
      float* row = acc + i0 * kGemmNr + j0;
      _mm256_storeu_ps(row, c00);
      _mm256_storeu_ps(row + 8, c01);
      _mm256_storeu_ps(row + kGemmNr, c10);
      _mm256_storeu_ps(row + kGemmNr + 8, c11);
      _mm256_storeu_ps(row + 2 * kGemmNr, c20);
      _mm256_storeu_ps(row + 2 * kGemmNr + 8, c21);
      _mm256_storeu_ps(row + 3 * kGemmNr, c30);
      _mm256_storeu_ps(row + 3 * kGemmNr + 8, c31);
    }
  }
}

// --- AVX-512F ---
//
// Reductions run 32 independent double lanes (4 x __m512d); the converts
// (vcvtps2pd) become the throughput limit, roughly 8 elements/cycle against
// the canonical pattern's ~2.

__attribute__((target("avx512f"))) double HSum32(__m512d acc0, __m512d acc1,
                                                 __m512d acc2, __m512d acc3) {
  const __m512d sum = _mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                    _mm512_add_pd(acc2, acc3));
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, sum);
  return (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])));
}

__attribute__((target("avx512f"))) void AxpyAvx512(float alpha,
                                                   const float* x, float* y,
                                                   size_t n) {
  const __m512 av = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 y0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                                      _mm512_loadu_ps(y + i));
    const __m512 y1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i + 16),
                                      _mm512_loadu_ps(y + i + 16));
    _mm512_storeu_ps(y + i, y0);
    _mm512_storeu_ps(y + i + 16, y1);
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx512f"))) double DotAvx512(const float* a,
                                                    const float* b,
                                                    size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i)), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 8)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 8)),
                           acc1);
    acc2 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 16)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 16)),
                           acc2);
    acc3 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(a + i + 24)),
                           _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 24)),
                           acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return total;
}

__attribute__((target("avx512f"))) double SquaredNormAvx512(const float* x,
                                                            size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512d x0 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __m512d x1 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 8));
    const __m512d x2 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 16));
    const __m512d x3 = _mm512_cvtps_pd(_mm256_loadu_ps(x + i + 24));
    acc0 = _mm512_fmadd_pd(x0, x0, acc0);
    acc1 = _mm512_fmadd_pd(x1, x1, acc1);
    acc2 = _mm512_fmadd_pd(x2, x2, acc2);
    acc3 = _mm512_fmadd_pd(x3, x3, acc3);
  }
  double total = HSum32(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const double xi = x[i];
    total += xi * xi;
  }
  return total;
}

// adam_step: AdamStepPortable's contracted arithmetic, 16 elements per
// iteration, the tail under a lane mask. Every FMA is an explicit intrinsic,
// and no plain multiply feeds a plain add, so -ffp-contract=fast has nothing
// left to fuse (GCC fuses _mm512_mul_ps + _mm512_add_ps like scalar code).
// Masked-off tail lanes compute 0 / (sqrt(0) + eps) and are never stored.
// The variant may exist only where the portable body is contracted. GCC
// contracts it at -O2 and above when the baseline ISA has FMA (-march=native
// on any AVX-512 host), so the variant is compiled in under __FMA__ and
// __OPTIMIZE__, and a FEDRA_NATIVE_ARCH=OFF or -O0 build runs the portable
// body at every level. An -O1 or -Og build defines __OPTIMIZE__ but does not
// contract, so there the two disagree and the parity test fails.
#if defined(__FMA__) && defined(__OPTIMIZE__)
#define FEDRA_SIMD_ADAM_AVX512 1

template <bool kDecoupled>
__attribute__((target("avx512f"))) void AdamStepAvx512Loop(
    const vec::AdamStepArgs& args, const float* grads, float* params,
    float* m, float* v, size_t n) {
  const __m512 b1 = _mm512_set1_ps(args.beta1);
  const __m512 c1 = _mm512_set1_ps(1.0f - args.beta1);
  const __m512 b2 = _mm512_set1_ps(args.beta2);
  const __m512 c2 = _mm512_set1_ps(1.0f - args.beta2);
  const __m512 clr = _mm512_set1_ps(args.corrected_lr);
  const __m512 eps = _mm512_set1_ps(args.epsilon);
  const __m512 wd = _mm512_set1_ps(args.weight_decay);
  const __m512 decay = _mm512_set1_ps(args.lr * args.weight_decay);
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 k =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    __m512 p = _mm512_maskz_loadu_ps(k, params + i);
    __m512 g = _mm512_maskz_loadu_ps(k, grads + i);
    if constexpr (!kDecoupled) {
      g = _mm512_fmadd_ps(wd, p, g);
    }
    const __m512 mn = _mm512_fmadd_ps(b1, _mm512_maskz_loadu_ps(k, m + i),
                                      _mm512_mul_ps(c1, g));
    const __m512 vn =
        _mm512_fmadd_ps(b2, _mm512_maskz_loadu_ps(k, v + i),
                        _mm512_mul_ps(_mm512_mul_ps(c2, g), g));
    p = _mm512_sub_ps(p, _mm512_div_ps(_mm512_mul_ps(clr, mn),
                                       _mm512_add_ps(_mm512_sqrt_ps(vn),
                                                     eps)));
    if constexpr (kDecoupled) {
      p = _mm512_fnmadd_ps(decay, p, p);
    }
    _mm512_mask_storeu_ps(m + i, k, mn);
    _mm512_mask_storeu_ps(v + i, k, vn);
    _mm512_mask_storeu_ps(params + i, k, p);
  }
}

__attribute__((target("avx512f"))) void AdamStepAvx512(
    const vec::AdamStepArgs& args, const float* grads, float* params,
    float* m, float* v, size_t n) {
  if (args.decoupled) {
    AdamStepAvx512Loop<true>(args, grads, params, m, v, n);
  } else {
    AdamStepAvx512Loop<false>(args, grads, params, m, v, n);
  }
}
#endif  // __FMA__ && __OPTIMIZE__

// The 8x32 tile in zmm registers (16 accumulator vectors + 2 B vectors in
// the 32-register file). On a -march=native AVX-512 build this matches what
// the compiler emits for the portable body; on a baseline build — where the
// portable body lowers to 4-wide SSE — it is the difference between
// shipping one binary and shipping one per machine.
__attribute__((target("avx512f"))) void GemmMicroAvx512(int kc,
                                                        const float* apanel,
                                                        const float* bpanel,
                                                        float* acc) {
  __m512 c[kGemmMr][2];
  for (int i = 0; i < kGemmMr; ++i) {
    c[i][0] = _mm512_setzero_ps();
    c[i][1] = _mm512_setzero_ps();
  }
  for (int p = 0; p < kc; ++p, apanel += kGemmMr, bpanel += kGemmNr) {
    const __m512 b0 = _mm512_loadu_ps(bpanel);
    const __m512 b1 = _mm512_loadu_ps(bpanel + 16);
    for (int i = 0; i < kGemmMr; ++i) {
      const __m512 ai = _mm512_set1_ps(apanel[i]);
      c[i][0] = _mm512_fmadd_ps(ai, b0, c[i][0]);
      c[i][1] = _mm512_fmadd_ps(ai, b1, c[i][1]);
    }
  }
  for (int i = 0; i < kGemmMr; ++i) {
    _mm512_storeu_ps(acc + i * kGemmNr, c[i][0]);
    _mm512_storeu_ps(acc + i * kGemmNr + 16, c[i][1]);
  }
}

// pack_b_trans: a panel is two 16-row halves, packed in 16 x 16 blocks
// (16 rows of b, 16 depth steps) that are loaded row by row, transposed in
// registers and stored as 16 half panel rows. The portable body gathers
// every element with a strided load instead. A depth tail under 16 loads
// under a lane mask, so no read passes the end of a row, and stores only
// its own steps. A partial panel (nr < 32) loads only its `rows` rows of
// each half and transposes zero registers into the pad lanes. Every Dense
// layer's forward GEMM packs one when its output count is not a multiple
// of 32 (a 10-way classifier head packs one 10-row panel per call), and a
// conv weight gradient packs one at its last tap panel (25 taps for a 5x5
// kernel over one input channel).
__attribute__((target("avx512f"), always_inline)) inline void
PackBTransBlockAvx512(const float* b, size_t ld, int rows, int steps,
                      float* dst) {
  const __mmask16 mask = static_cast<__mmask16>((1u << steps) - 1u);
  __m512 r[16];
  __m512 t[16];
  for (int i = 0; i < 16; ++i) {
    r[i] = i < rows
               ? _mm512_maskz_loadu_ps(mask, b + static_cast<size_t>(i) * ld)
               : _mm512_setzero_ps();
  }
  // Interleave row pairs by 32 bits, then pairs of pairs by 64 bits: r[4g+q]
  // holds step q, q + 4, q + 8 and q + 12 of rows 4g..4g+3, one per 128-bit
  // lane.
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int g = 0; g < 16; g += 4) {
    const __m512d t0 = _mm512_castps_pd(t[g]);
    const __m512d t1 = _mm512_castps_pd(t[g + 1]);
    const __m512d t2 = _mm512_castps_pd(t[g + 2]);
    const __m512d t3 = _mm512_castps_pd(t[g + 3]);
    r[g] = _mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2));
    r[g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2));
    r[g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3));
    r[g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3));
  }
  // Two rounds of 128-bit lane shuffles gather each step's four row groups:
  // afterwards r[q] holds step q of all 16 rows.
  for (int q = 0; q < 4; ++q) {
    t[q] = _mm512_shuffle_f32x4(r[q], r[q + 4], 0x88);
    t[q + 4] = _mm512_shuffle_f32x4(r[q], r[q + 4], 0xdd);
    t[q + 8] = _mm512_shuffle_f32x4(r[q + 8], r[q + 12], 0x88);
    t[q + 12] = _mm512_shuffle_f32x4(r[q + 8], r[q + 12], 0xdd);
  }
  for (int q = 0; q < 8; ++q) {
    r[q] = _mm512_shuffle_f32x4(t[q], t[q + 8], 0x88);
    r[q + 8] = _mm512_shuffle_f32x4(t[q], t[q + 8], 0xdd);
  }
  for (int q = 0; q < 16; ++q) {
    if (q < steps) {
      _mm512_storeu_ps(dst + static_cast<size_t>(q) * kGemmNr, r[q]);
    }
  }
}

__attribute__((target("avx512f"))) void PackBTransAvx512(const float* b,
                                                         size_t ld, int kc,
                                                         int nr,
                                                         float* panel) {
  const int lower_rows = nr < 16 ? nr : 16;
  const int upper_rows = nr - lower_rows;
  // With no upper rows the upper half loads nothing; `b` is a stand-in.
  const float* upper = upper_rows > 0 ? b + 16 * ld : b;
  for (int p = 0; p < kc; p += 16) {
    const int steps = kc - p < 16 ? kc - p : 16;
    float* dst = panel + static_cast<size_t>(p) * kGemmNr;
    PackBTransBlockAvx512(b + p, ld, lower_rows, steps, dst);
    PackBTransBlockAvx512(upper + p, ld, upper_rows, steps, dst + 16);
  }
}

// col2im_row: each input row a (channel, kernel row) pair touches is
// loaded 16 cells at a time, takes every kernel column's taps in ascending
// order, and is stored once. A kernel column's in-map pixels that fall in
// the 16 cells sit at every stride-th lane, in pixel order, so one masked
// expand-load reads their taps, consecutive in `taps`, into exactly those
// lanes, and a masked add leaves every other cell as it was. Which lanes
// and taps a kernel column covers depends only on the 16 cells, so it is
// worked out once per 16 cells and up to 16 kernel columns. A cell takes
// taps from one kernel row only, so the rows may go in any order: channels
// run innermost, because the next kernel row's input row may overlap the
// 64 bytes just stored, and a load that overlaps a pending masked store
// waits for it.
__attribute__((target("avx512f"))) void Col2imRowAvx512(
    const Col2imRowArgs& a) {
  const int s = a.stride;
  // Lanes 0, s, 2s, ...: the cells one kernel column reaches.
  uint32_t spread = 0;
  for (int lane = 0; lane < 16; lane += s) {
    spread |= 1u << lane;
  }
  const size_t plane = static_cast<size_t>(a.in_h) * a.in_w;
  const size_t ky_step = static_cast<size_t>(a.kernel) * a.ld;
  // ceil(v / s) for v of either sign.
  auto ceil_div = [s](int v) {
    return s == 1 ? v : v >= 0 ? (v + s - 1) / s : -(-v / s);
  };
  const int w_begin = std::max(0, a.x0 * s - a.pad);
  const int w_end =
      std::min(a.in_w, (a.x0 + a.len - 1) * s - a.pad + a.kernel);
  for (int w0 = w_begin; w0 < w_end; w0 += 16) {
    const __mmask16 cells =
        w_end - w0 >= 16 ? __mmask16{0xFFFF}
                         : static_cast<__mmask16>((1u << (w_end - w0)) - 1u);
    for (int kx0 = 0; kx0 < a.kernel; kx0 += 16) {
      const int columns = std::min(16, a.kernel - kx0);
      __mmask16 lanes[16];
      size_t offset[16];
      for (int j = 0; j < columns; ++j) {
        const int kx = kx0 + j;
        int lo, hi;
        Col2imTapRange(a, kx, &lo, &hi);
        // The pixels whose cell x * s - pad + kx lies in [w0, w0 + 16).
        const int v = w0 + a.pad - kx;
        const int first = std::max(lo, ceil_div(v));
        const int end = std::min(hi, ceil_div(v + 16));
        lanes[j] = 0;
        offset[j] = static_cast<size_t>(kx) * a.ld;
        if (first < end) {
          const int span = (end - first - 1) * s + 1;
          lanes[j] = static_cast<__mmask16>((spread & ((1u << span) - 1u))
                                            << (first * s - v));
          offset[j] += static_cast<size_t>(first - a.x0);
        }
      }
      for (int ky = 0; ky < a.kernel; ++ky) {
        const int h = a.y * s - a.pad + ky;
        if (h < 0 || h >= a.in_h) {
          continue;
        }
        const float* tap = a.taps + static_cast<size_t>(ky) * ky_step;
        float* row = a.grad_input + static_cast<size_t>(h) * a.in_w + w0;
        for (int ic = 0; ic < a.channels;
             ++ic, tap += a.kernel * ky_step, row += plane) {
          __m512 acc = _mm512_maskz_loadu_ps(cells, row);
          for (int j = 0; j < columns; ++j) {
            acc = _mm512_mask_add_ps(
                acc, lanes[j], acc,
                _mm512_maskz_expandloadu_ps(lanes[j], tap + offset[j]));
          }
          _mm512_mask_storeu_ps(row, cells, acc);
        }
      }
    }
  }
}

// bucket_sum: a run's 16 cells in one register. Each step loads the run's
// 16 entries, widens them to 32 bits and gathers the lanes still in their
// lists from the L1-resident block; bit 15 of each entry becomes the float
// sign bit, and a masked add leaves the other lanes as they are. The last
// group of a row loads and stores only the row's own cells.
__attribute__((target("avx512f"))) void BucketSumAvx512(
    const vec::BucketSumArgs& args) {
  constexpr int kLanes = vec::kBucketLanes;
  const __m512i offset_mask = _mm512_set1_epi32(vec::kBucketSign - 1);
  const __m512i sign_bit = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const vec::BucketRun* run = args.runs;
  for (size_t b = 0; b < args.num_blocks; ++b) {
    const float* block = args.x + b * vec::kBucketBlock;
    for (int r = 0; r < args.rows; ++r) {
      float* row = args.cells +
                   static_cast<size_t>(r) * static_cast<size_t>(args.cols);
      for (int c0 = 0; c0 < args.cols; c0 += kLanes, ++run) {
        const int lanes = args.cols - c0;
        const __mmask16 cells =
            lanes >= kLanes ? __mmask16{0xFFFF}
                            : static_cast<__mmask16>((1u << lanes) - 1u);
        __m512 acc = _mm512_maskz_loadu_ps(cells, row + c0);
        const __m512i len = _mm512_cvtepu16_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(run->len)));
        const uint16_t* entries = args.entries + run->offset;
        for (int k = 0; k < run->steps; ++k, entries += kLanes) {
          const __mmask16 live =
              _mm512_cmpgt_epi32_mask(len, _mm512_set1_epi32(k));
          const __m512i entry = _mm512_cvtepu16_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(entries)));
          const __m512 x = _mm512_mask_i32gather_ps(
              _mm512_setzero_ps(), live, _mm512_and_si512(entry, offset_mask),
              block, 4);
          const __m512i sign =
              _mm512_and_si512(_mm512_slli_epi32(entry, 16), sign_bit);
          acc = _mm512_mask_add_ps(
              acc, live, acc,
              _mm512_castsi512_ps(
                  _mm512_xor_si512(_mm512_castps_si512(x), sign)));
        }
        _mm512_mask_storeu_ps(row + c0, cells, acc);
      }
    }
  }
}

#pragma GCC diagnostic pop

#endif  // FEDRA_SIMD_X86

// ------------------------------------------------------------------------
// 3. tanh: a port of the fdlibm tanhf and expm1f that glibc ships, and its
// AVX-512F variant, both compiled with FP contraction off.
// ------------------------------------------------------------------------
//
// glibc builds libm without contraction, so its tanhf is a fixed sequence
// of rounded IEEE operations. This file is built with GCC's default
// -ffp-contract=fast, which fuses a multiply feeding an add into an FMA;
// adam_step depends on that (section 1), so it is turned off for this
// section only. Left on here, it would move 150,744 of the 2^32 results.
// With it off, the portable body and the variant equal glibc 2.36's tanhf
// on every input, NaN payloads included. GCC lowers _mm512_mul_ps and
// _mm512_add_ps to plain vector arithmetic and fuses those too, so the
// variant needs the setting as much as the portable body does.

#if defined(__clang__)
#pragma float_control(push)
#pragma clang fp contract(off)
#else
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

// The fdlibm constants, with the bit patterns glibc's s_expm1f.c lists.
constexpr float kLn2Hi = 6.9313812256e-01f;     // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;     // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;    // 0x3fb8aa3b
constexpr float kExpm1Q1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kExpm1Q2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kExpm1Q3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kExpm1Q4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kExpm1Q5 = -2.0109921195e-07f;  // 0xb457edbb

// glibc's expm1f (sysdeps/ieee754/flt-32/s_expm1f.c) for the arguments
// TanhOne passes: 2|v| in [2, 44) and -2|v| in (-2, -2^-54]. The branches
// no such argument reaches are left out: the overflow, NaN and x < -27 ln2
// filters, and the k == 1 and k == 128 cases. Everything else is glibc's
// sequence, operation for operation. The reduction index k is 0, -1, -2 or
// -3 for a negative x and 3..63 for a positive one.
float Expm1ForTanh(float x) {
  uint32_t hx = std::bit_cast<uint32_t>(x);
  const bool negative = (hx >> 31) != 0;
  hx &= 0x7fffffffu;
  int k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2: x = k ln2 + (hi - lo)
    float hi;
    float lo;
    if (hx < 0x3f851592u) {  // |x| < 1.5 ln2: only negative x get here
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (kExpm1Q1 +
             hxs * (kExpm1Q2 +
                    hxs * (kExpm1Q3 + hxs * (kExpm1Q4 + hxs * kExpm1Q5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) {
    return x - (x * e - hxs);
  }
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) {
    return 0.5f * (x - e) - 0.5f;
  }
  // Adds k to a float's exponent; unsigned, so a negative k wraps.
  const uint32_t scale = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float y = 1.0f - (e - x);
    return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + scale) - 1.0f;
  }
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(
        0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    const float y = one_minus - (e - x);
    return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + scale);
  }
  const float tiny = std::bit_cast<float>(
      (0x7fu - static_cast<uint32_t>(k)) << 23);  // 2^-k
  const float y = (x - (e + tiny)) + 1.0f;
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + scale);
}

// glibc's tanhf (sysdeps/ieee754/flt-32/s_tanhf.c), operation for operation.
float TanhOne(float x) {
  const uint32_t jx = std::bit_cast<uint32_t>(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) {
      return x;
    }
    if (ix < 0x24000000u) {  // |x| < 2^-55
      return x * (1.0f + x);
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = Expm1ForTanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1ForTanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f;  // glibc computes 1 - 1e-30, which rounds to 1
  }
  return negative ? -z : z;
}

void TanhPortable(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] = TanhOne(x[i]);
  }
}

#if defined(FEDRA_SIMD_X86)
// The intrinsics warning silenced in section 2.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Expm1ForTanh on 16 lanes: every branch is computed in every lane, and
// the results are blended by lane mask, the earliest branch of the
// portable body last.
__attribute__((target("avx512f"), always_inline)) inline __m512
Expm1ForTanhAvx512(__m512 a) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512i bits = _mm512_castps_si512(a);
  const __m512i hx = _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff));
  const __mmask16 negative =
      _mm512_cmplt_epi32_mask(bits, _mm512_setzero_si512());
  // The reduction index: k = 0 for |a| <= 0.5 ln2, and -1 below 1.5 ln2,
  // where only negative arguments fall. With t = k, the general reduction
  // computes those two cases' hi and lo exactly: a - 0 * kLn2Hi = a, and
  // a - (-1) * kLn2Hi = a + kLn2Hi.
  const __m512 round_half =
      _mm512_mask_blend_ps(negative, half, _mm512_set1_ps(-0.5f));
  __m512i k = _mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kInvLn2), a), round_half));
  k = _mm512_mask_mov_epi32(
      k, _mm512_cmplt_epu32_mask(hx, _mm512_set1_epi32(0x3f851592)),
      _mm512_set1_epi32(-1));
  k = _mm512_maskz_mov_epi32(
      _mm512_cmpgt_epu32_mask(hx, _mm512_set1_epi32(0x3eb17218)), k);
  const __m512 t = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(a, _mm512_mul_ps(t, _mm512_set1_ps(kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(t, _mm512_set1_ps(kLn2Lo));
  const __m512 x = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, x), lo);
  // The polynomial, in the portable body's Horner order.
  const __m512 hfx = _mm512_mul_ps(half, x);
  const __m512 hxs = _mm512_mul_ps(x, hfx);
  __m512 poly = _mm512_mul_ps(hxs, _mm512_set1_ps(kExpm1Q5));
  poly = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(kExpm1Q4), poly));
  poly = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(kExpm1Q3), poly));
  poly = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(kExpm1Q2), poly));
  poly = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(kExpm1Q1), poly));
  const __m512 r1 = _mm512_add_ps(one, poly);
  const __m512 t3 = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t3),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                       _mm512_mul_ps(x, t3))));
  // k == 0.
  const __m512 r_zero =
      _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e), hxs));
  // k != 0: the corrected e, then the four cases by k.
  const __m512 ec = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e, c)), c), hxs);
  const __m512 ec_minus_x = _mm512_sub_ps(ec, x);
  const __m512i scale = _mm512_slli_epi32(k, 23);
  const __m512 r_minus_one =
      _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(x, ec)), half);
  const __m512 y_far = _mm512_sub_ps(one, ec_minus_x);
  const __m512 r_far = _mm512_sub_ps(
      _mm512_castsi512_ps(
          _mm512_add_epi32(_mm512_castps_si512(y_far), scale)),
      one);
  const __m512i one_minus = _mm512_sub_epi32(
      _mm512_set1_epi32(0x3f800000),
      _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k));  // 1 - 2^-k
  const __m512 y_low =
      _mm512_sub_ps(_mm512_castsi512_ps(one_minus), ec_minus_x);
  const __m512 r_low = _mm512_castsi512_ps(
      _mm512_add_epi32(_mm512_castps_si512(y_low), scale));
  const __m512i tiny = _mm512_slli_epi32(
      _mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23);  // 2^-k
  const __m512 y_high = _mm512_add_ps(
      _mm512_sub_ps(x, _mm512_add_ps(ec, _mm512_castsi512_ps(tiny))), one);
  const __m512 r_high = _mm512_castsi512_ps(
      _mm512_add_epi32(_mm512_castps_si512(y_high), scale));
  __m512 r = _mm512_mask_blend_ps(
      _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23)), r_high, r_low);
  r = _mm512_mask_blend_ps(
      _mm512_cmple_epi32_mask(k, _mm512_set1_epi32(-2)) |
          _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56)),
      r, r_far);
  r = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), r, r_minus_one);
  r = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), r, r_zero);
  return _mm512_mask_blend_ps(
      _mm512_cmplt_epu32_mask(hx, _mm512_set1_epi32(0x33000000)), r, a);
}

// TanhOne on 16 lanes, the tail under a lane mask, blended like
// Expm1ForTanhAvx512. One division serves both |x| >= 1 and |x| < 1:
// 2 / (t + 2) for the first, t / (t + 2) negated for the second, which
// equals the portable body's -t / (t + 2) because division rounds
// symmetrically about zero. The inf/NaN lanes' 1/x is computed only when
// a block has such a lane. Masked-off tail lanes are loaded as 0 and
// never stored.
__attribute__((target("avx512f"))) void TanhAvx512(const float* xs,
                                                   float* ys, size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512i sign_bit = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 lanes =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, xs + i);
    const __m512i jx = _mm512_castps_si512(x);
    const __m512i sign = _mm512_and_si512(jx, sign_bit);
    const __m512i ix = _mm512_andnot_si512(sign_bit, jx);
    const __mmask16 big =
        _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(0x3f800000));
    const __m512 t = Expm1ForTanhAvx512(_mm512_mul_ps(
        _mm512_mask_blend_ps(big, _mm512_set1_ps(-2.0f), two),
        _mm512_castsi512_ps(ix)));
    const __m512 q = _mm512_div_ps(_mm512_mask_blend_ps(big, t, two),
                                   _mm512_add_ps(t, two));
    __m512 z = _mm512_mask_blend_ps(
        big, _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(q),
                                                  sign_bit)),
        _mm512_sub_ps(one, q));
    z = _mm512_mask_mov_ps(
        z, _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(0x41b00000)), one);
    __m512 y = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(z), sign));
    y = _mm512_mask_blend_ps(
        _mm512_cmplt_epu32_mask(ix, _mm512_set1_epi32(0x24000000)), y,
        _mm512_mul_ps(x, _mm512_add_ps(one, x)));
    const __mmask16 special =
        _mm512_cmpge_epu32_mask(ix, _mm512_set1_epi32(0x7f800000));
    if (special != 0) {
      // 1/x + 1, or 1/x - 1 as 1/x + (-1) for a negative x.
      const __m512 signed_one = _mm512_castsi512_ps(
          _mm512_or_si512(_mm512_castps_si512(one), sign));
      y = _mm512_mask_blend_ps(
          special, y, _mm512_add_ps(_mm512_div_ps(one, x), signed_one));
    }
    _mm512_mask_storeu_ps(ys + i, lanes, y);
  }
}

#pragma GCC diagnostic pop
#endif  // FEDRA_SIMD_X86

// ------------------------------------------------------------------------
// 4. The 2x2 stride-2 average pool, also compiled with FP contraction off.
// ------------------------------------------------------------------------
//
// ops::AvgPool2dForward/Backward's general loops, specialized to unpadded
// 2x2 windows at stride 2: each output gets `+0 + a + b + c + d` in window
// row order times 0.5f * 0.5f, and each covered input cell gets
// `(g * 0.5f) / 2.0f` added once. GCC folds the division into a multiply
// by 0.5f, which contraction would fuse with the add, so this section
// keeps contraction off too.

void AvgPool2x2Portable(const float* input, size_t planes, int in_h,
                        int in_w, float* output) {
  const int oh = in_h / 2;
  const int ow = in_w / 2;
  const size_t plane = static_cast<size_t>(in_h) * in_w;
  for (size_t p = 0; p < planes; ++p, input += plane) {
    for (int y = 0; y < oh; ++y, output += ow) {
      const float* top = input + static_cast<size_t>(2 * y) * in_w;
      const float* bottom = top + in_w;
      for (int x = 0; x < ow; ++x) {
        output[x] = ((((0.0f + top[2 * x]) + top[2 * x + 1]) + bottom[2 * x]) +
                     bottom[2 * x + 1]) *
                    (0.5f * 0.5f);
      }
    }
  }
}

void AvgPool2x2GradPortable(const float* grad_output, size_t planes,
                            int in_h, int in_w, float* grad_input) {
  const int oh = in_h / 2;
  const int ow = in_w / 2;
  const size_t plane = static_cast<size_t>(in_h) * in_w;
  for (size_t p = 0; p < planes; ++p, grad_input += plane) {
    for (int y = 0; y < oh; ++y, grad_output += ow) {
      float* top = grad_input + static_cast<size_t>(2 * y) * in_w;
      float* bottom = top + in_w;
      for (int x = 0; x < ow; ++x) {
        const float share = (grad_output[x] * 0.5f) / 2.0f;
        top[2 * x] += share;
        top[2 * x + 1] += share;
        bottom[2 * x] += share;
        bottom[2 * x + 1] += share;
      }
    }
  }
}

#if defined(FEDRA_SIMD_X86)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// The first `count` lanes, for count clamped to [0, 16].
__attribute__((target("avx512f"))) inline __mmask16 LaneMask(ptrdiff_t count) {
  return count >= 16  ? __mmask16{0xFFFF}
         : count <= 0 ? __mmask16{0}
                      : static_cast<__mmask16>((1u << count) - 1u);
}

// Whether a pool runs on whole blocks: with an even in_h and in_w = 2 * ow
// for ow in {1, 2, 4, 8}, each plane's row pairs follow one another, so 16
// consecutive outputs read 64 consecutive inputs, whatever plane they are
// in. LeNet's pools (16 x 16 and 4 x 4 maps) take this path.
bool Pool2x2OnBlocks(int in_h, int in_w) {
  return in_h % 2 == 0 && in_w <= 16 && 16 % in_w == 0;
}

// Forward, on blocks only: a block loads 64 inputs as A B C D. The first 8
// outputs read A B and the last 8 read C D; one two-source permute per half
// picks the top-left taps into lanes 0-7 and the top-right taps into lanes
// 8-15 (a second one the bottom taps), and 128-bit shuffles join the
// halves. The last block loads and stores under lane masks. Other shapes
// run the portable body: a row-by-row deinterleave measured 1.10-1.19x
// over it in four of five baseline-ISA sweeps (bench/README.md), and no
// benchmark workload pools such a map.
__attribute__((target("avx512f"))) void AvgPool2x2Avx512(const float* input,
                                                         size_t planes,
                                                         int in_h, int in_w,
                                                         float* output) {
  if (!Pool2x2OnBlocks(in_h, in_w)) {
    AvgPool2x2Portable(input, planes, in_h, in_w, output);
    return;
  }
  const int ow = in_w / 2;
  const __m512 zero = _mm512_setzero_ps();
  const __m512 quarter = _mm512_set1_ps(0.5f * 0.5f);
  alignas(64) int first[16];
  alignas(64) int second[16];
  for (int j = 0; j < 8; ++j) {
    const int tap = j / ow * 4 * ow + 2 * (j % ow);
    first[j] = tap;
    first[j + 8] = tap + 1;
    second[j] = tap + in_w;
    second[j + 8] = tap + in_w + 1;
  }
  const __m512i top = _mm512_load_si512(first);
  const __m512i bottom = _mm512_load_si512(second);
  const ptrdiff_t total = static_cast<ptrdiff_t>(planes) * (in_h / 2) * ow;
  for (ptrdiff_t j = 0; j < total; j += 16, input += 64, output += 16) {
    const ptrdiff_t inputs = 4 * (total - j);
    const __m512 a = _mm512_maskz_loadu_ps(LaneMask(inputs), input);
    const __m512 b = _mm512_maskz_loadu_ps(LaneMask(inputs - 16), input + 16);
    const __m512 c = _mm512_maskz_loadu_ps(LaneMask(inputs - 32), input + 32);
    const __m512 d = _mm512_maskz_loadu_ps(LaneMask(inputs - 48), input + 48);
    const __m512 top_ab = _mm512_permutex2var_ps(a, top, b);
    const __m512 top_cd = _mm512_permutex2var_ps(c, top, d);
    const __m512 bottom_ab = _mm512_permutex2var_ps(a, bottom, b);
    const __m512 bottom_cd = _mm512_permutex2var_ps(c, bottom, d);
    __m512 sum =
        _mm512_add_ps(zero, _mm512_shuffle_f32x4(top_ab, top_cd, 0x44));
    sum = _mm512_add_ps(sum, _mm512_shuffle_f32x4(top_ab, top_cd, 0xee));
    sum = _mm512_add_ps(sum, _mm512_shuffle_f32x4(bottom_ab, bottom_cd, 0x44));
    sum = _mm512_add_ps(sum, _mm512_shuffle_f32x4(bottom_ab, bottom_cd, 0xee));
    _mm512_mask_storeu_ps(output, LaneMask(total - j),
                          _mm512_mul_ps(sum, quarter));
  }
}

// Backward: each input lane takes its output's share through a one-source
// permute. On blocks, the four 16-cell vectors of a block's 64 inputs each
// have their own index vector; on rows, each 16 outputs spread over 32
// cells of both input rows. Only covered cells are loaded and stored.
__attribute__((target("avx512f"))) void AvgPool2x2GradAvx512(
    const float* grad_output, size_t planes, int in_h, int in_w,
    float* grad_input) {
  const int oh = in_h / 2;
  const int ow = in_w / 2;
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 two = _mm512_set1_ps(2.0f);
  if (Pool2x2OnBlocks(in_h, in_w)) {
    alignas(64) int owner[64];
    for (int f = 0; f < 64; ++f) {
      owner[f] = f / in_w / 2 * ow + f % in_w / 2;
    }
    __m512i index[4];
    for (int v = 0; v < 4; ++v) {
      index[v] = _mm512_load_si512(owner + 16 * v);
    }
    const ptrdiff_t total = static_cast<ptrdiff_t>(planes) * oh * ow;
    for (ptrdiff_t j = 0; j < total;
         j += 16, grad_output += 16, grad_input += 64) {
      const __m512 share = _mm512_div_ps(
          _mm512_mul_ps(
              _mm512_maskz_loadu_ps(LaneMask(total - j), grad_output), half),
          two);
      const ptrdiff_t inputs = 4 * (total - j);
      for (int v = 0; v < 4; ++v) {
        const __mmask16 cells = LaneMask(inputs - 16 * v);
        float* dst = grad_input + 16 * v;
        _mm512_mask_storeu_ps(
            dst, cells,
            _mm512_add_ps(_mm512_maskz_loadu_ps(cells, dst),
                          _mm512_permutexvar_ps(index[v], share)));
      }
    }
    return;
  }
  alignas(64) int low_owner[16];
  alignas(64) int high_owner[16];
  for (int l = 0; l < 16; ++l) {
    low_owner[l] = l / 2;
    high_owner[l] = 8 + l / 2;
  }
  const __m512i low_index = _mm512_load_si512(low_owner);
  const __m512i high_index = _mm512_load_si512(high_owner);
  const size_t plane = static_cast<size_t>(in_h) * in_w;
  for (size_t p = 0; p < planes; ++p, grad_input += plane) {
    for (int y = 0; y < oh; ++y, grad_output += ow) {
      float* top = grad_input + static_cast<size_t>(2 * y) * in_w;
      float* rows[2] = {top, top + in_w};
      for (int x = 0; x < ow; x += 16) {
        const __m512 share = _mm512_div_ps(
            _mm512_mul_ps(
                _mm512_maskz_loadu_ps(LaneMask(ow - x), grad_output + x),
                half),
            two);
        const __m512 low = _mm512_permutexvar_ps(low_index, share);
        const __m512 high = _mm512_permutexvar_ps(high_index, share);
        const __mmask16 low_cells = LaneMask(2 * (ow - x));
        const __mmask16 high_cells = LaneMask(2 * (ow - x) - 16);
        for (float* row : rows) {
          float* dst = row + 2 * x;
          _mm512_mask_storeu_ps(
              dst, low_cells,
              _mm512_add_ps(_mm512_maskz_loadu_ps(low_cells, dst), low));
          _mm512_mask_storeu_ps(
              dst + 16, high_cells,
              _mm512_add_ps(_mm512_maskz_loadu_ps(high_cells, dst + 16),
                            high));
        }
      }
    }
  }
}

#pragma GCC diagnostic pop
#endif  // FEDRA_SIMD_X86

#if defined(__clang__)
#pragma float_control(pop)
#else
#pragma GCC pop_options
#endif

// ------------------------------------------------------------------------
// 5. The top-k mask's candidate compaction, the one pass of
// SyncCompressor::SelectRangeTopK over a whole range.
// ------------------------------------------------------------------------

// The portable body is the select's loop, moved verbatim: every index is
// stored and the count advances only past the passing ones, so the loop
// has no data-dependent branch.
size_t MagnitudeCompactPortable(const float* x, size_t n, uint32_t floor_key,
                                uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    out[count] = static_cast<uint32_t>(i);
    count += (std::bit_cast<uint32_t>(x[i]) & 0x7fffffffu) >= floor_key;
  }
  return count;
}

#if defined(FEDRA_SIMD_X86)

// 16 keys per step: vpcompressd packs the indices of the passing lanes to
// the front of a register, which is stored whole. The store writes
// out[count .. count + 16), inside out[0 .. n) because count <= i; the
// lanes past the passing ones are overwritten by the next step's store or
// lie past the returned count. The tail stores only its passing lanes.
__attribute__((target("avx512f"))) size_t MagnitudeCompactAvx512(
    const float* x, size_t n, uint32_t floor_key, uint32_t* out) {
  const __m512i magnitude = _mm512_set1_epi32(0x7fffffff);
  const __m512i floor = _mm512_set1_epi32(static_cast<int>(floor_key));
  const __m512i step = _mm512_set1_epi32(16);
  __m512i index = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15);
  size_t count = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i key = _mm512_and_si512(_mm512_loadu_si512(x + i), magnitude);
    const __mmask16 pass = _mm512_cmpge_epu32_mask(key, floor);
    _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi32(pass, index));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(pass)));
    index = _mm512_add_epi32(index, step);
  }
  if (i < n) {
    const __mmask16 live = static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512i key =
        _mm512_and_si512(_mm512_maskz_loadu_epi32(live, x + i), magnitude);
    const __mmask16 pass = _mm512_mask_cmpge_epu32_mask(live, key, floor);
    _mm512_mask_compressstoreu_epi32(out + count, pass, index);
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(pass)));
  }
  return count;
}

#endif  // FEDRA_SIMD_X86

// ------------------------------------------------------------------------
// 6. The blockwise drift fold: u = a - b, ||u||^2 and <xi, u> over one
// block at a time, each level's accumulators carried between blocks in
// memory. vec::SubSquaredNorm runs it as one last block from zeroed lanes.
// ------------------------------------------------------------------------
//
// Each body runs its level's lanes over one block, loaded from the carried
// ones and stored back; the <xi, u> lanes map elements as the level's dot
// kernel does. A block other than the last spans whole steps of every
// level, so the lanes see the elements a one-block pass would give them, in
// the same order. The last block runs the level's tail and final combine.
// kDot folds <xi, u> too; kStore writes u out.

using DriftFoldBody = void (*)(const vec::DriftFoldArgs& args);

template <bool kDot, bool kStore>
void DriftFoldPortableBody(const vec::DriftFoldArgs& args) {
  const float* a = args.a;
  const float* b = args.b;
  const float* xi = args.xi;
  float* out = args.out;
  const size_t n = args.n;
  vec::DriftFoldLanes* lanes = args.lanes;
  double acc0 = lanes->sq[0], acc1 = lanes->sq[1], acc2 = lanes->sq[2],
         acc3 = lanes->sq[3];
  double dot0 = lanes->dot[0], dot1 = lanes->dot[1], dot2 = lanes->dot[2],
         dot3 = lanes->dot[3];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    if constexpr (kStore) {
      out[i] = d0;
      out[i + 1] = d1;
      out[i + 2] = d2;
      out[i + 3] = d3;
    }
    acc0 += static_cast<double>(d0) * static_cast<double>(d0);
    acc1 += static_cast<double>(d1) * static_cast<double>(d1);
    acc2 += static_cast<double>(d2) * static_cast<double>(d2);
    acc3 += static_cast<double>(d3) * static_cast<double>(d3);
    if constexpr (kDot) {
      dot0 += static_cast<double>(xi[i]) * static_cast<double>(d0);
      dot1 += static_cast<double>(xi[i + 1]) * static_cast<double>(d1);
      dot2 += static_cast<double>(xi[i + 2]) * static_cast<double>(d2);
      dot3 += static_cast<double>(xi[i + 3]) * static_cast<double>(d3);
    }
  }
  if (args.last) {
    for (; i < n; ++i) {
      const float d = a[i] - b[i];
      if constexpr (kStore) {
        out[i] = d;
      }
      acc0 += static_cast<double>(d) * static_cast<double>(d);
      if constexpr (kDot) {
        dot0 += static_cast<double>(xi[i]) * static_cast<double>(d);
      }
    }
    lanes->sq_sum = (acc0 + acc1) + (acc2 + acc3);
    if constexpr (kDot) {
      lanes->dot_sum = (dot0 + dot1) + (dot2 + dot3);
    }
  }
  lanes->sq[0] = acc0;
  lanes->sq[1] = acc1;
  lanes->sq[2] = acc2;
  lanes->sq[3] = acc3;
  lanes->dot[0] = dot0;
  lanes->dot[1] = dot1;
  lanes->dot[2] = dot2;
  lanes->dot[3] = dot3;
}

void DriftFoldPortable(const vec::DriftFoldArgs& args) {
  static constexpr DriftFoldBody kBodies[2][2] = {
      {DriftFoldPortableBody<false, false>, DriftFoldPortableBody<false, true>},
      {DriftFoldPortableBody<true, false>, DriftFoldPortableBody<true, true>}};
  kBodies[args.xi != nullptr][args.out != nullptr](args);
}

#if defined(FEDRA_SIMD_X86)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Lane l of accumulator j holds element i + 4j + l of each 16-element
// step, as in DotAvx2.
template <bool kDot, bool kStore>
__attribute__((target("avx2,fma"))) void DriftFoldAvx2Body(
    const vec::DriftFoldArgs& args) {
  const float* a = args.a;
  const float* b = args.b;
  const float* xi = args.xi;
  float* out = args.out;
  const size_t n = args.n;
  vec::DriftFoldLanes* lanes = args.lanes;
  __m256d acc0 = _mm256_load_pd(lanes->sq);
  __m256d acc1 = _mm256_load_pd(lanes->sq + 4);
  __m256d acc2 = _mm256_load_pd(lanes->sq + 8);
  __m256d acc3 = _mm256_load_pd(lanes->sq + 12);
  __m256d dot0 = _mm256_load_pd(lanes->dot);
  __m256d dot1 = _mm256_load_pd(lanes->dot + 4);
  __m256d dot2 = _mm256_load_pd(lanes->dot + 8);
  __m256d dot3 = _mm256_load_pd(lanes->dot + 12);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                    _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    if constexpr (kStore) {
      _mm256_storeu_ps(out + i, d0);
      _mm256_storeu_ps(out + i + 8, d1);
    }
    const __m256d w0 = _mm256_cvtps_pd(_mm256_castps256_ps128(d0));
    const __m256d w1 = _mm256_cvtps_pd(_mm256_extractf128_ps(d0, 1));
    const __m256d w2 = _mm256_cvtps_pd(_mm256_castps256_ps128(d1));
    const __m256d w3 = _mm256_cvtps_pd(_mm256_extractf128_ps(d1, 1));
    acc0 = _mm256_fmadd_pd(w0, w0, acc0);
    acc1 = _mm256_fmadd_pd(w1, w1, acc1);
    acc2 = _mm256_fmadd_pd(w2, w2, acc2);
    acc3 = _mm256_fmadd_pd(w3, w3, acc3);
    if constexpr (kDot) {
      dot0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(xi + i)), w0, dot0);
      dot1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(xi + i + 4)), w1,
                             dot1);
      dot2 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(xi + i + 8)), w2,
                             dot2);
      dot3 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(xi + i + 12)), w3,
                             dot3);
    }
  }
  if (args.last) {
    double total = HSum16(acc0, acc1, acc2, acc3);
    double dot_total = kDot ? HSum16(dot0, dot1, dot2, dot3) : 0.0;
    for (; i < n; ++i) {
      const float d = a[i] - b[i];
      if constexpr (kStore) {
        out[i] = d;
      }
      total += static_cast<double>(d) * static_cast<double>(d);
      if constexpr (kDot) {
        dot_total += static_cast<double>(xi[i]) * static_cast<double>(d);
      }
    }
    lanes->sq_sum = total;
    if constexpr (kDot) {
      lanes->dot_sum = dot_total;
    }
  }
  _mm256_store_pd(lanes->sq, acc0);
  _mm256_store_pd(lanes->sq + 4, acc1);
  _mm256_store_pd(lanes->sq + 8, acc2);
  _mm256_store_pd(lanes->sq + 12, acc3);
  _mm256_store_pd(lanes->dot, dot0);
  _mm256_store_pd(lanes->dot + 4, dot1);
  _mm256_store_pd(lanes->dot + 8, dot2);
  _mm256_store_pd(lanes->dot + 12, dot3);
}

void DriftFoldAvx2(const vec::DriftFoldArgs& args) {
  static constexpr DriftFoldBody kBodies[2][2] = {
      {DriftFoldAvx2Body<false, false>, DriftFoldAvx2Body<false, true>},
      {DriftFoldAvx2Body<true, false>, DriftFoldAvx2Body<true, true>}};
  kBodies[args.xi != nullptr][args.out != nullptr](args);
}

// The upper 8 floats of x. _mm512_extractf32x8_ps would be one intrinsic,
// but it is AVX-512DQ, and the AVX-512 level probes only AVX-512F.
__attribute__((target("avx512f"))) inline __m256 UpperHalfAvx512(__m512 x) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1));
}

// Lane l of accumulator j holds element i + 8j + l of each 32-element
// step, as in DotAvx512.
template <bool kDot, bool kStore>
__attribute__((target("avx512f"))) void DriftFoldAvx512Body(
    const vec::DriftFoldArgs& args) {
  const float* a = args.a;
  const float* b = args.b;
  const float* xi = args.xi;
  float* out = args.out;
  const size_t n = args.n;
  vec::DriftFoldLanes* lanes = args.lanes;
  __m512d acc0 = _mm512_load_pd(lanes->sq);
  __m512d acc1 = _mm512_load_pd(lanes->sq + 8);
  __m512d acc2 = _mm512_load_pd(lanes->sq + 16);
  __m512d acc3 = _mm512_load_pd(lanes->sq + 24);
  __m512d dot0 = _mm512_load_pd(lanes->dot);
  __m512d dot1 = _mm512_load_pd(lanes->dot + 8);
  __m512d dot2 = _mm512_load_pd(lanes->dot + 16);
  __m512d dot3 = _mm512_load_pd(lanes->dot + 24);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i),
                                    _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                                    _mm512_loadu_ps(b + i + 16));
    if constexpr (kStore) {
      _mm512_storeu_ps(out + i, d0);
      _mm512_storeu_ps(out + i + 16, d1);
    }
    const __m512d w0 = _mm512_cvtps_pd(_mm512_castps512_ps256(d0));
    const __m512d w1 = _mm512_cvtps_pd(UpperHalfAvx512(d0));
    const __m512d w2 = _mm512_cvtps_pd(_mm512_castps512_ps256(d1));
    const __m512d w3 = _mm512_cvtps_pd(UpperHalfAvx512(d1));
    acc0 = _mm512_fmadd_pd(w0, w0, acc0);
    acc1 = _mm512_fmadd_pd(w1, w1, acc1);
    acc2 = _mm512_fmadd_pd(w2, w2, acc2);
    acc3 = _mm512_fmadd_pd(w3, w3, acc3);
    if constexpr (kDot) {
      dot0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xi + i)), w0,
                             dot0);
      dot1 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xi + i + 8)), w1,
                             dot1);
      dot2 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xi + i + 16)),
                             w2, dot2);
      dot3 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xi + i + 24)),
                             w3, dot3);
    }
  }
  if (args.last) {
    double total = HSum32(acc0, acc1, acc2, acc3);
    double dot_total = kDot ? HSum32(dot0, dot1, dot2, dot3) : 0.0;
    for (; i < n; ++i) {
      const float d = a[i] - b[i];
      if constexpr (kStore) {
        out[i] = d;
      }
      total += static_cast<double>(d) * static_cast<double>(d);
      if constexpr (kDot) {
        dot_total += static_cast<double>(xi[i]) * static_cast<double>(d);
      }
    }
    lanes->sq_sum = total;
    if constexpr (kDot) {
      lanes->dot_sum = dot_total;
    }
  }
  _mm512_store_pd(lanes->sq, acc0);
  _mm512_store_pd(lanes->sq + 8, acc1);
  _mm512_store_pd(lanes->sq + 16, acc2);
  _mm512_store_pd(lanes->sq + 24, acc3);
  _mm512_store_pd(lanes->dot, dot0);
  _mm512_store_pd(lanes->dot + 8, dot1);
  _mm512_store_pd(lanes->dot + 16, dot2);
  _mm512_store_pd(lanes->dot + 24, dot3);
}

void DriftFoldAvx512(const vec::DriftFoldArgs& args) {
  static constexpr DriftFoldBody kBodies[2][2] = {
      {DriftFoldAvx512Body<false, false>, DriftFoldAvx512Body<false, true>},
      {DriftFoldAvx512Body<true, false>, DriftFoldAvx512Body<true, true>}};
  kBodies[args.xi != nullptr][args.out != nullptr](args);
}

#pragma GCC diagnostic pop
#endif  // FEDRA_SIMD_X86

// ------------------------------------------------------------------------
// 7. Tables and resolution.
// ------------------------------------------------------------------------

// Every level, ascending: the order SupportedLevels() lists them in.
constexpr Level kAllLevels[] = {Level::kScalar, Level::kAvx2, Level::kAvx512};

bool CpuSupportsAvx2() {
#if defined(FEDRA_SIMD_X86)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(FEDRA_SIMD_X86)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

struct Tables {
  // Indexed by static_cast<int>(Level). Each intrinsics tier starts from the
  // tier below it and overrides the kernels it has a variant for.
  KernelTable per_level[std::size(kAllLevels)];

  Tables() {
    KernelTable scalar;
    scalar.axpy = AxpyPortable;
    scalar.dot = DotPortable;
    scalar.squared_norm = SquaredNormPortable;
    scalar.reduce_scale = ReduceScalePortable;
    scalar.adam_step = AdamStepPortable;
    scalar.tanh = TanhPortable;
    scalar.avg_pool_2x2 = AvgPool2x2Portable;
    scalar.avg_pool_2x2_grad = AvgPool2x2GradPortable;
    scalar.bucket_sum = BucketSumPortable;
    scalar.drift_fold = DriftFoldPortable;
    scalar.gemm_micro_8x32 = GemmMicroPortable;
    scalar.pack_b_trans = PackBTransPortable;
    scalar.col2im_row = Col2imRowPortable;
    scalar.magnitude_compact = MagnitudeCompactPortable;

    KernelTable avx2 = scalar;
    KernelTable avx512 = scalar;
#if defined(FEDRA_SIMD_X86)
    avx2.axpy = AxpyAvx2;
    avx2.dot = DotAvx2;
    avx2.squared_norm = SquaredNormAvx2;
    avx2.drift_fold = DriftFoldAvx2;
    avx2.gemm_micro_8x32 = GemmMicroAvx2;

    avx512 = avx2;
    avx512.axpy = AxpyAvx512;
    avx512.dot = DotAvx512;
    avx512.squared_norm = SquaredNormAvx512;
    avx512.drift_fold = DriftFoldAvx512;
    avx512.gemm_micro_8x32 = GemmMicroAvx512;
    avx512.pack_b_trans = PackBTransAvx512;
    avx512.col2im_row = Col2imRowAvx512;
    avx512.tanh = TanhAvx512;
    avx512.avg_pool_2x2 = AvgPool2x2Avx512;
    avx512.avg_pool_2x2_grad = AvgPool2x2GradAvx512;
    avx512.bucket_sum = BucketSumAvx512;
    avx512.magnitude_compact = MagnitudeCompactAvx512;
#endif
#if defined(FEDRA_SIMD_ADAM_AVX512)
    avx512.adam_step = AdamStepAvx512;
#endif

    per_level[static_cast<int>(Level::kScalar)] = scalar;
    per_level[static_cast<int>(Level::kAvx2)] = avx2;
    per_level[static_cast<int>(Level::kAvx512)] = avx512;
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

std::atomic<const KernelTable*> g_active_table{nullptr};
std::atomic<int> g_active_level{-1};
std::mutex g_resolve_mutex;

std::string SupportedLevelList() {
  std::string names;
  for (Level level : SupportedLevels()) {
    if (!names.empty()) {
      names += "|";
    }
    names += LevelName(level);
  }
  return names;
}

Level ResolveDefaultLevel() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read-only env probe, no setenv
  // runs concurrently; resolution happens once under g_resolve_mutex.
  if (const char* env = std::getenv("FEDRA_SIMD")) {
    if (*env != '\0') {
      Level level;
      FEDRA_CHECK(ParseLevelName(env, &level))
          << "FEDRA_SIMD=" << env
          << "is not a SIMD level; supported:" << SupportedLevelList();
      FEDRA_CHECK(LevelSupported(level))
          << "FEDRA_SIMD=" << env
          << "is not supported on this CPU/build; supported:"
          << SupportedLevelList();
      return level;
    }
  }
  if (LevelSupported(Level::kAvx512)) {
    return Level::kAvx512;
  }
  if (LevelSupported(Level::kAvx2)) {
    return Level::kAvx2;
  }
  return Level::kScalar;
}

}  // namespace

bool LevelSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return CpuSupportsAvx2();
    case Level::kAvx512:
      return CpuSupportsAvx512();
  }
  return false;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels;
  for (Level level : kAllLevels) {
    if (LevelSupported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseLevelName(const std::string& name, Level* level) {
  for (Level candidate : kAllLevels) {
    if (name == LevelName(candidate)) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

void SetLevel(Level level) {
  FEDRA_CHECK(LevelSupported(level))
      << "SIMD level" << LevelName(level)
      << "not supported on this CPU/build; supported:" << SupportedLevelList();
  // Publish the table before the level so a racing reader never pairs the
  // new level with a stale table.
  g_active_table.store(&GetTables().per_level[static_cast<int>(level)],
                       std::memory_order_release);
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
}

const KernelTable& Kernels() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table != nullptr) {
    return *table;
  }
  std::lock_guard<std::mutex> lock(g_resolve_mutex);
  table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    SetLevel(ResolveDefaultLevel());
    table = g_active_table.load(std::memory_order_acquire);
  }
  return *table;
}

Level ActiveLevel() {
  Kernels();  // force resolution
  return static_cast<Level>(g_active_level.load(std::memory_order_acquire));
}

}  // namespace simd
}  // namespace fedra
