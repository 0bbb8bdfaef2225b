#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fedra {
namespace ops {

// ------------------------------------------------------------------ GEMM --
//
// Classic three-level blocking (Goto-style): B is packed once per (jc, pc)
// panel into NR-wide column micro-panels, each MC-row block of A is packed
// into MR-tall row micro-panels, and a register-tiled MR x NR micro-kernel
// runs over the packed panels. Parallel runs pack every A row block
// cooperatively into one shared buffer, then fan a 2-D (row block x column
// group) task grid over GlobalThreadPool — a 256x256 GEMM has only 3 row
// blocks, so row-only parallelism stalls past 3 threads. Packing zero-pads
// tile edges so the micro-kernel never branches on bounds.

namespace {

// Micro-tile shape is owned by the dispatch layer: packing here must match
// what every gemm_micro_8x32 variant consumes.
constexpr int kMR = simd::kGemmMr;  // micro-tile rows
constexpr int kNR = simd::kGemmNr;  // micro-tile cols: two 16-float
                                    // accumulator vectors per row
constexpr int kMC = 96;   // A block rows per panel (multiple of kMR)
constexpr int kKC = 256;  // shared depth per panel
constexpr int kNC = 1024; // B panel cols (multiple of kNR)

// Parallelize only when the panel loop has enough arithmetic to amortize the
// pool's wake/wait round-trip.
constexpr long long kParallelFlopThreshold = 1LL << 21;

// Packs rows [i0, i0+mc) x depth [p0, p0+kc) of op(A) into MR-tall panels:
// panel ir holds elements [p][ii] at apack[ir/MR * kc*MR + p*MR + ii],
// zero-padded past mc.
void PackA(bool trans_a, const float* a, int m, int k, int i0, int mc, int p0,
           int kc, float* apack) {
  for (int ir = 0; ir < mc; ir += kMR) {
    float* panel = apack + static_cast<size_t>(ir / kMR) * kc * kMR;
    const int mr_eff = std::min(kMR, mc - ir);
    if (mr_eff < kMR) {
      std::fill(panel, panel + static_cast<size_t>(kc) * kMR, 0.0f);
    }
    if (!trans_a) {
      // Row-major A: walk each source row contiguously; the strided panel
      // writes stay inside the L1-resident panel.
      for (int ii = 0; ii < mr_eff; ++ii) {
        const float* src =
            a + static_cast<size_t>(i0 + ir + ii) * k + p0;
        for (int p = 0; p < kc; ++p) {
          panel[static_cast<size_t>(p) * kMR + ii] = src[p];
        }
      }
    } else {
      // A^T: coordinates (i0+ii, p0+p) live contiguously along ii.
      for (int p = 0; p < kc; ++p) {
        const float* src = a + static_cast<size_t>(p0 + p) * m + (i0 + ir);
        float* dst = panel + static_cast<size_t>(p) * kMR;
        for (int ii = 0; ii < mr_eff; ++ii) {
          dst[ii] = src[ii];
        }
      }
    }
  }
}

// Packs depth [p0, p0+kc) x cols [j0, j0+nc) of op(B) into NR-wide panels:
// panel jr holds elements [p][jj] at bpack[jr/NR * kc*NR + p*NR + jj],
// zero-padded past nc. For B^T each panel is a transpose of NR rows of b,
// which the dispatch layer's pack_b_trans kernel performs.
void PackB(bool trans_b, const float* b, int k, int n, int p0, int kc, int j0,
           int nc, float* bpack) {
  const auto pack_b_trans = simd::Kernels().pack_b_trans;
  for (int jr = 0; jr < nc; jr += kNR) {
    float* panel = bpack + static_cast<size_t>(jr / kNR) * kc * kNR;
    const int nr_eff = std::min(kNR, nc - jr);
    if (trans_b) {
      pack_b_trans(b + static_cast<size_t>(j0 + jr) * k + p0,
                   static_cast<size_t>(k), kc, nr_eff, panel);
      continue;
    }
    for (int p = 0; p < kc; ++p) {
      float* dst = panel + static_cast<size_t>(p) * kNR;
      const float* src = b + static_cast<size_t>(p0 + p) * n + (j0 + jr);
      std::memcpy(dst, src, static_cast<size_t>(nr_eff) * sizeof(float));
      for (int jj = nr_eff; jj < kNR; ++jj) {
        dst[jj] = 0.0f;
      }
    }
  }
}

// The register-tiled micro-kernel (acc[MR][NR] = apanel * bpanel over kc
// depth steps) lives in tensor/simd_dispatch.cc: the generic-vector
// formulation there is the exact kernel that used to be here, and the
// dispatch table swaps in AVX2/AVX-512 tilings at runtime. The formulation
// matters — GCC 12 compiles a scalar `local[i][j] += a[i] * b[j]` nest to
// shuffle-heavy 4-wide code (~25x slower).

}  // namespace

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  FEDRA_CHECK(m > 0 && n > 0 && k > 0);
  // Scale/zero C up front; the panel loop below only ever accumulates.
  const size_t c_size = static_cast<size_t>(m) * static_cast<size_t>(n);
  if (beta == 0.0f) {
    std::fill(c, c + c_size, 0.0f);
  } else if (beta != 1.0f) {
    vec::Scale(c, c_size, beta);
  }
  if (alpha == 0.0f) {
    return;
  }

  // Caller-thread B panel; worker threads only read it. Thread-local so
  // repeated GEMM calls reuse the allocation (bounded at kNC * kKC floats).
  thread_local std::vector<float> bpack;
  // Shared A-pack buffer for the parallel path. Per-call, not thread_local:
  // its size scales with m, and a high-water-mark allocation that large
  // must not outlive the one GEMM that needed it.
  std::vector<float> apack_all;
  const long long flops = 2LL * m * n * k;

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int nc_panels = (nc + kNR - 1) / kNR;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      bpack.resize(static_cast<size_t>(nc_panels) * kc * kNR);
      PackB(trans_b, b, k, n, pc, kc, jc, nc, bpack.data());
      const float* bpack_data = bpack.data();

      const int num_iblocks = (m + kMC - 1) / kMC;
      const int num_jpanels = (nc + kNR - 1) / kNR;

      // Resolved once per panel: one indirect call per micro-tile is noise
      // against the kc-deep FMA loop behind it.
      const auto micro_kernel = simd::Kernels().gemm_micro_8x32;

      // Runs the micro-kernel over one row block x column-panel range of the
      // packed operands, writing the disjoint C sub-block it owns.
      auto compute_block = [&, kc, nc, jc](int bi, const float* apack_block,
                                           int jr_begin, int jr_end) {
        const int ic = bi * kMC;
        const int mc = std::min(kMC, m - ic);
        alignas(64) float acc[kMR * kNR];
        for (int jr = jr_begin; jr < jr_end; jr += kNR) {
          const float* bpanel =
              bpack_data + static_cast<size_t>(jr / kNR) * kc * kNR;
          const int nr_eff = std::min(kNR, nc - jr);
          for (int ir = 0; ir < mc; ir += kMR) {
            const float* apanel =
                apack_block + static_cast<size_t>(ir / kMR) * kc * kMR;
            micro_kernel(kc, apanel, bpanel, acc);
            const int mr_eff = std::min(kMR, mc - ir);
            for (int ii = 0; ii < mr_eff; ++ii) {
              float* c_row =
                  c + static_cast<size_t>(ic + ir + ii) * n + (jc + jr);
              const float* acc_row = acc + ii * kNR;
              for (int jj = 0; jj < nr_eff; ++jj) {
                c_row[jj] += alpha * acc_row[jj];
              }
            }
          }
        }
      };

      ThreadPool& pool = GlobalThreadPool();
      const size_t num_pool_threads = pool.num_threads();
      if (num_pool_threads > 1 && flops >= kParallelFlopThreshold &&
          static_cast<long long>(num_iblocks) * num_jpanels > 1 &&
          !ThreadPool::OnPoolThread()) {
        // Phase 1: pack every A row block cooperatively into one shared
        // buffer (uniform kMC * kc stride per block; only the last block is
        // short). Phase 2 reads it from every task.
        const size_t block_stride =
            static_cast<size_t>(kMC) * static_cast<size_t>(kc);
        apack_all.resize(static_cast<size_t>(num_iblocks) * block_stride);
        float* apack_data = apack_all.data();
        pool.ParallelFor(static_cast<size_t>(num_iblocks), [&](size_t bi) {
          const int ic = static_cast<int>(bi) * kMC;
          const int mc = std::min(kMC, m - ic);
          PackA(trans_a, a, m, k, ic, mc, pc, kc,
                apack_data + bi * block_stride);
        });
        // Phase 2: 2-D (row block x column group) task grid. Column panels
        // are grouped so the grid has ~3 tasks per thread — enough slack for
        // dynamic balancing without shrinking the per-task GEMM below the
        // panel reuse the packing paid for.
        const size_t target_tasks = 3 * num_pool_threads;
        size_t num_jgroups = std::max<size_t>(
            1, std::min<size_t>(static_cast<size_t>(num_jpanels),
                                target_tasks /
                                    static_cast<size_t>(num_iblocks)));
        const size_t panels_per_group =
            (static_cast<size_t>(num_jpanels) + num_jgroups - 1) / num_jgroups;
        num_jgroups = (static_cast<size_t>(num_jpanels) + panels_per_group -
                       1) / panels_per_group;
        pool.ParallelFor2d(
            static_cast<size_t>(num_iblocks), num_jgroups,
            [&](size_t bi, size_t gj) {
              const int jr_begin =
                  static_cast<int>(gj * panels_per_group) * kNR;
              const int jr_end = std::min(
                  nc, static_cast<int>((gj + 1) * panels_per_group) * kNR);
              compute_block(static_cast<int>(bi),
                            apack_data + bi * block_stride, jr_begin, jr_end);
            });
      } else {
        // Sequential: pack one block at a time and compute it while hot.
        thread_local std::vector<float> apack;
        apack.resize(static_cast<size_t>(kMC) * static_cast<size_t>(kc));
        for (int bi = 0; bi < num_iblocks; ++bi) {
          const int ic = bi * kMC;
          const int mc = std::min(kMC, m - ic);
          PackA(trans_a, a, m, k, ic, mc, pc, kc, apack.data());
          compute_block(bi, apack.data(), 0, nc);
        }
      }
    }
  }
}

// ------------------------------------------------------------------ conv --

namespace {

inline size_t Idx4(int n, int c, int h, int w, int channels, int height,
                   int width) {
  return ((static_cast<size_t>(n) * channels + c) * height + h) *
             static_cast<size_t>(width) +
         w;
}

// 1x1 stride-1 unpadded convs (DenseNet bottlenecks) are already a plain
// GEMM over the input plane; skip the im2col copy for them.
inline bool IsPointwise(const Conv2dGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}

thread_local Conv2dWorkspace tls_conv_workspace;

}  // namespace

void Im2col(const Conv2dGeometry& g, const float* input, float* col) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t ohw = static_cast<size_t>(oh) * ow;
  for (int ic = 0; ic < g.in_channels; ++ic) {
    const float* plane =
        input + static_cast<size_t>(ic) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        float* row =
            col + ((static_cast<size_t>(ic) * g.kernel + ky) * g.kernel + kx) *
                      ohw;
        for (int y = 0; y < oh; ++y) {
          const int h = y * g.stride - g.pad + ky;
          float* dst = row + static_cast<size_t>(y) * ow;
          if (h < 0 || h >= g.in_h) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          const float* src_row = plane + static_cast<size_t>(h) * g.in_w;
          if (g.stride == 1) {
            // Contiguous middle segment; only the pad fringes need zeros.
            const int w0 = kx - g.pad;  // input col at x = 0
            const int x_lo = std::min(ow, std::max(0, -w0));
            const int x_hi = std::max(x_lo, std::min(ow, g.in_w - w0));
            std::fill(dst, dst + x_lo, 0.0f);
            std::memcpy(dst + x_lo, src_row + (w0 + x_lo),
                        static_cast<size_t>(x_hi - x_lo) * sizeof(float));
            std::fill(dst + x_hi, dst + ow, 0.0f);
          } else {
            for (int x = 0; x < ow; ++x) {
              const int w = x * g.stride - g.pad + kx;
              dst[x] = (w >= 0 && w < g.in_w) ? src_row[w] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Col2imAdd(const Conv2dGeometry& g, const float* col, float* grad_input) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t ohw = static_cast<size_t>(oh) * ow;
  for (int ic = 0; ic < g.in_channels; ++ic) {
    float* plane = grad_input + static_cast<size_t>(ic) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const float* row =
            col + ((static_cast<size_t>(ic) * g.kernel + ky) * g.kernel + kx) *
                      ohw;
        for (int y = 0; y < oh; ++y) {
          const int h = y * g.stride - g.pad + ky;
          if (h < 0 || h >= g.in_h) {
            continue;
          }
          const float* src = row + static_cast<size_t>(y) * ow;
          float* dst_row = plane + static_cast<size_t>(h) * g.in_w;
          if (g.stride == 1) {
            const int w0 = kx - g.pad;
            const int x_lo = std::min(ow, std::max(0, -w0));
            const int x_hi = std::max(x_lo, std::min(ow, g.in_w - w0));
            for (int x = x_lo; x < x_hi; ++x) {
              dst_row[w0 + x] += src[x];
            }
          } else {
            for (int x = 0; x < ow; ++x) {
              const int w = x * g.stride - g.pad + kx;
              if (w >= 0 && w < g.in_w) {
                dst_row[w] += src[x];
              }
            }
          }
        }
      }
    }
  }
}

void Conv2dForward(const Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output,
                   Conv2dWorkspace* workspace) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  FEDRA_CHECK(oh > 0 && ow > 0) << "conv output is empty";
  const int ohw = oh * ow;
  const int ickk = g.in_channels * g.kernel * g.kernel;
  const bool pointwise = IsPointwise(g);
  Conv2dWorkspace* ws = workspace ? workspace : &tls_conv_workspace;
  if (!pointwise) {
    ws->col.resize(static_cast<size_t>(ickk) * ohw);
  }
  for (int n = 0; n < g.batch; ++n) {
    const float* in_n =
        input + Idx4(n, 0, 0, 0, g.in_channels, g.in_h, g.in_w);
    float* out_n = output + Idx4(n, 0, 0, 0, g.out_channels, oh, ow);
    const float* col = in_n;
    if (!pointwise) {
      Im2col(g, in_n, ws->col.data());
      col = ws->col.data();
    }
    // Seed each output row with its bias, then accumulate the GEMM on top.
    if (bias) {
      for (int oc = 0; oc < g.out_channels; ++oc) {
        vec::Fill(out_n + static_cast<size_t>(oc) * ohw,
                  static_cast<size_t>(ohw), bias[oc]);
      }
    } else {
      vec::Fill(out_n, static_cast<size_t>(g.out_channels) * ohw, 0.0f);
    }
    // out[OC, OH*OW] += weight[OC, IC*K*K] * col[IC*K*K, OH*OW]
    Gemm(false, false, g.out_channels, ohw, ickk, 1.0f, weight, col, 1.0f,
         out_n);
  }
}

void Conv2dBackward(const Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias,
                    Conv2dWorkspace* workspace) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int ohw = oh * ow;
  const int ickk = g.in_channels * g.kernel * g.kernel;
  const bool pointwise = IsPointwise(g);
  Conv2dWorkspace* ws = workspace ? workspace : &tls_conv_workspace;
  if (!pointwise) {
    if (grad_weight) {
      ws->col.resize(static_cast<size_t>(ickk) * ohw);
    }
    if (grad_input) {
      ws->grad_col.resize(static_cast<size_t>(ickk) * ohw);
    }
  }
  for (int n = 0; n < g.batch; ++n) {
    const float* in_n =
        input + Idx4(n, 0, 0, 0, g.in_channels, g.in_h, g.in_w);
    const float* go_n = grad_output + Idx4(n, 0, 0, 0, g.out_channels, oh, ow);
    if (grad_bias) {
      for (int oc = 0; oc < g.out_channels; ++oc) {
        grad_bias[oc] += static_cast<float>(
            vec::Sum(go_n + static_cast<size_t>(oc) * ohw,
                     static_cast<size_t>(ohw)));
      }
    }
    if (grad_weight) {
      const float* col = in_n;
      if (!pointwise) {
        Im2col(g, in_n, ws->col.data());
        col = ws->col.data();
      }
      // dW[OC, IC*K*K] += dY[OC, OH*OW] * col^T
      Gemm(false, true, g.out_channels, ickk, ohw, 1.0f, go_n, col, 1.0f,
           grad_weight);
    }
    if (grad_input) {
      float* gi_n =
          grad_input + Idx4(n, 0, 0, 0, g.in_channels, g.in_h, g.in_w);
      if (pointwise) {
        // dX[IC, H*W] += W^T[IC, OC] * dY[OC, H*W]
        Gemm(true, false, ickk, ohw, g.out_channels, 1.0f, weight, go_n, 1.0f,
             gi_n);
      } else {
        Gemm(true, false, ickk, ohw, g.out_channels, 1.0f, weight, go_n, 0.0f,
             ws->grad_col.data());
        Col2imAdd(g, ws->grad_col.data(), gi_n);
      }
    }
  }
}

// ------------------------------------------------- pooling / depthwise --
//
// The scalar versions of these kernels iterated taps per output pixel, so
// every inner loop branched on window bounds. The fast versions invert the
// nests: per (ky, kx) tap, process the whole in-bounds span of output x at
// once. For stride 1 that span is a contiguous FMA/max/add over the input
// row — exactly what the autovectorizer wants — and border clipping is
// hoisted into a range computation per tap. Plane-level parallelism fans
// out over GlobalThreadPool. Scalar oracles: ref:: in tensor/ref_ops.h.

namespace {

// Valid output range for tap column offset w0 = kx - pad: every x in
// [*x_lo, *x_hi) has 0 <= x * stride + w0 < in_w.
inline void TapRange(int w0, int stride, int in_w, int ow, int* x_lo,
                     int* x_hi) {
  const int lo = w0 < 0 ? (-w0 + stride - 1) / stride : 0;
  const int hi =
      in_w > w0 ? std::min(ow, (in_w - w0 + stride - 1) / stride) : 0;
  *x_lo = std::min(lo, hi);
  *x_hi = hi;
}

// Fans plane-granular work over the global pool when the total is big
// enough to amortize the wake/wait round-trip (ParallelFor already inlines
// nested and single-thread calls).
constexpr size_t kPlaneParallelThreshold = size_t{1} << 15;

void ForEachPlane(size_t planes, size_t work_per_plane,
                  const std::function<void(size_t)>& body) {
  if (planes > 1 && planes * work_per_plane >= kPlaneParallelThreshold) {
    GlobalThreadPool().ParallelFor(planes, body);
  } else {
    for (size_t p = 0; p < planes; ++p) {
      body(p);
    }
  }
}

}  // namespace

void DepthwiseConv2dForward(const Conv2dGeometry& g, const float* input,
                            const float* weight, const float* bias,
                            float* output) {
  FEDRA_CHECK_EQ(g.in_channels, g.out_channels);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const size_t work = out_plane * g.kernel * g.kernel;
  ForEachPlane(planes, work, [&](size_t p) {
    const int c = static_cast<int>(p % static_cast<size_t>(g.in_channels));
    const float* in = input + p * in_plane;
    float* out = output + p * out_plane;
    const float* w_c = weight + static_cast<size_t>(c) * g.kernel * g.kernel;
    for (int y = 0; y < oh; ++y) {
      float* out_row = out + static_cast<size_t>(y) * ow;
      vec::Fill(out_row, static_cast<size_t>(ow), bias ? bias[c] : 0.0f);
      const int h0 = y * g.stride - g.pad;
      for (int ky = 0; ky < g.kernel; ++ky) {
        const int h = h0 + ky;
        if (h < 0 || h >= g.in_h) {
          continue;
        }
        const float* src_row = in + static_cast<size_t>(h) * g.in_w;
        for (int kx = 0; kx < g.kernel; ++kx) {
          const int w0 = kx - g.pad;
          int x_lo, x_hi;
          TapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
          const float wv = w_c[ky * g.kernel + kx];
          if (g.stride == 1) {
            vec::Axpy(wv, src_row + (w0 + x_lo), out_row + x_lo,
                      static_cast<size_t>(x_hi - x_lo));
          } else {
            for (int x = x_lo; x < x_hi; ++x) {
              out_row[x] += wv * src_row[x * g.stride + w0];
            }
          }
        }
      }
    }
  });
}

void DepthwiseConv2dBackward(const Conv2dGeometry& g, const float* input,
                             const float* weight, const float* grad_output,
                             float* grad_input, float* grad_weight,
                             float* grad_bias) {
  FEDRA_CHECK_EQ(g.in_channels, g.out_channels);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t work = static_cast<size_t>(g.batch) * out_plane * g.kernel *
                      g.kernel;
  // Parallel over channels (not batch x channels): grad_weight/grad_bias
  // accumulate per channel across the batch, so a channel is the largest
  // unit whose writes are disjoint.
  ForEachPlane(static_cast<size_t>(g.in_channels), work, [&](size_t pc) {
    const int c = static_cast<int>(pc);
    const float* w_c = weight + static_cast<size_t>(c) * g.kernel * g.kernel;
    float* gw_c = grad_weight ? grad_weight + static_cast<size_t>(c) *
                                                  g.kernel * g.kernel
                              : nullptr;
    double gb_acc = 0.0;
    // Per-tap double accumulators keep the += contract exact while the row
    // dots run multi-lane.
    std::vector<double> gw_acc(
        gw_c ? static_cast<size_t>(g.kernel) * g.kernel : 0, 0.0);
    for (int n = 0; n < g.batch; ++n) {
      const size_t plane_idx =
          static_cast<size_t>(n) * g.in_channels + static_cast<size_t>(c);
      const float* in = input + plane_idx * in_plane;
      const float* go = grad_output + plane_idx * out_plane;
      float* gi = grad_input ? grad_input + plane_idx * in_plane : nullptr;
      for (int y = 0; y < oh; ++y) {
        const float* go_row = go + static_cast<size_t>(y) * ow;
        if (grad_bias) {
          gb_acc += vec::Sum(go_row, static_cast<size_t>(ow));
        }
        const int h0 = y * g.stride - g.pad;
        for (int ky = 0; ky < g.kernel; ++ky) {
          const int h = h0 + ky;
          if (h < 0 || h >= g.in_h) {
            continue;
          }
          const float* in_row = in + static_cast<size_t>(h) * g.in_w;
          float* gi_row =
              gi ? gi + static_cast<size_t>(h) * g.in_w : nullptr;
          for (int kx = 0; kx < g.kernel; ++kx) {
            const int w0 = kx - g.pad;
            int x_lo, x_hi;
            TapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
            if (x_lo >= x_hi) {
              continue;
            }
            const size_t len = static_cast<size_t>(x_hi - x_lo);
            if (g.stride == 1) {
              if (gw_c) {
                gw_acc[static_cast<size_t>(ky) * g.kernel + kx] +=
                    vec::Dot(go_row + x_lo, in_row + (w0 + x_lo), len);
              }
              if (gi_row) {
                vec::Axpy(w_c[ky * g.kernel + kx], go_row + x_lo,
                          gi_row + (w0 + x_lo), len);
              }
            } else {
              const float wv = w_c[ky * g.kernel + kx];
              double dot = 0.0;
              for (int x = x_lo; x < x_hi; ++x) {
                const int w = x * g.stride + w0;
                dot += static_cast<double>(go_row[x]) * in_row[w];
                if (gi_row) {
                  gi_row[w] += wv * go_row[x];
                }
              }
              if (gw_c) {
                gw_acc[static_cast<size_t>(ky) * g.kernel + kx] += dot;
              }
            }
          }
        }
      }
    }
    if (grad_bias) {
      grad_bias[c] += static_cast<float>(gb_acc);
    }
    if (gw_c) {
      for (size_t t = 0; t < gw_acc.size(); ++t) {
        gw_c[t] += static_cast<float>(gw_acc[t]);
      }
    }
  });
}

// Max pooling keeps the per-pixel window scan (the argmax select chains
// through every tap, which defeats per-tap row passes — tracking two output
// arrays per tap costs more memory traffic than the scan saves), but hoists
// all border clipping into [ky_lo, ky_hi) x [kx_lo, kx_hi) ranges so the
// window loop has no bounds branches and no index multiplies — that, not
// the scan itself, is what the reference kernel pays for per tap. Taps
// visit (ky, kx) in the same order as the oracle with a strict >, so
// argmax ties resolve identically.
void MaxPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output, int* argmax) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const size_t work = out_plane * g.kernel * g.kernel;
  ForEachPlane(planes, work, [&](size_t p) {
    const float* in = input + p * in_plane;
    float* out = output + p * out_plane;
    int* arg = argmax + p * out_plane;
    const int plane_idx = static_cast<int>(p * in_plane);
    for (int y = 0; y < oh; ++y) {
      float* out_row = out + static_cast<size_t>(y) * ow;
      int* arg_row = arg + static_cast<size_t>(y) * ow;
      const int h0 = y * g.stride - g.pad;
      const int ky_lo = std::max(0, -h0);
      const int ky_hi = std::min(g.kernel, g.in_h - h0);
      for (int x = 0; x < ow; ++x) {
        const int w0 = x * g.stride - g.pad;
        const int kx_lo = std::max(0, -w0);
        const int kx_hi = std::min(g.kernel, g.in_w - w0);
        float best = -std::numeric_limits<float>::infinity();
        int best_idx = -1;
        // kx_lo is folded into the base offset so the pointer never sits
        // before the plane when the window clips the left border.
        const int w_first = w0 + kx_lo;
        for (int ky = ky_lo; ky < ky_hi; ++ky) {
          const int h = h0 + ky;
          const float* row = in + static_cast<size_t>(h) * g.in_w + w_first;
          const int row_idx = plane_idx + h * g.in_w + w_first;
          for (int kx = 0; kx < kx_hi - kx_lo; ++kx) {
            const float v = row[kx];
            if (v > best) {
              best = v;
              best_idx = row_idx + kx;
            }
          }
        }
        FEDRA_CHECK_GE(best_idx, 0) << "empty pooling window";
        out_row[x] = best;
        arg_row[x] = best_idx;
      }
    }
  });
}

void MaxPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       const int* argmax, float* grad_input) {
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  for (size_t i = 0; i < out_numel; ++i) {
    grad_input[argmax[i]] += grad_output[i];
  }
}

namespace {

// Per-axis tap counts of a clipped pooling window; the window count
// factorizes as counts_y[y] * counts_x[x].
std::vector<int> ClippedTapCounts(int out, int kernel, int stride, int pad,
                                  int in_extent) {
  std::vector<int> counts(static_cast<size_t>(out), 0);
  for (int i = 0; i < out; ++i) {
    const int lo = i * stride - pad;
    counts[static_cast<size_t>(i)] =
        std::min(lo + kernel, in_extent) - std::max(lo, 0);
  }
  return counts;
}

}  // namespace

void AvgPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const auto ch = ClippedTapCounts(oh, g.kernel, g.stride, g.pad, g.in_h);
  const auto cw = ClippedTapCounts(ow, g.kernel, g.stride, g.pad, g.in_w);
  std::vector<float> inv_cw(static_cast<size_t>(ow), 0.0f);
  for (int x = 0; x < ow; ++x) {
    if (cw[static_cast<size_t>(x)] > 0) {
      inv_cw[static_cast<size_t>(x)] =
          1.0f / static_cast<float>(cw[static_cast<size_t>(x)]);
    }
  }
  const size_t work = out_plane * g.kernel * g.kernel;
  ForEachPlane(planes, work, [&](size_t p) {
    const float* in = input + p * in_plane;
    float* out = output + p * out_plane;
    for (int y = 0; y < oh; ++y) {
      float* out_row = out + static_cast<size_t>(y) * ow;
      vec::Fill(out_row, static_cast<size_t>(ow), 0.0f);
      const int h0 = y * g.stride - g.pad;
      for (int ky = 0; ky < g.kernel; ++ky) {
        const int h = h0 + ky;
        if (h < 0 || h >= g.in_h) {
          continue;
        }
        const float* src_row = in + static_cast<size_t>(h) * g.in_w;
        for (int kx = 0; kx < g.kernel; ++kx) {
          const int w0 = kx - g.pad;
          int x_lo, x_hi;
          TapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
          if (g.stride == 1) {
            vec::Axpy(1.0f, src_row + (w0 + x_lo), out_row + x_lo,
                      static_cast<size_t>(x_hi - x_lo));
          } else {
            for (int x = x_lo; x < x_hi; ++x) {
              out_row[x] += src_row[x * g.stride + w0];
            }
          }
        }
      }
      const int chy = ch[static_cast<size_t>(y)];
      if (chy <= 0) {
        vec::Fill(out_row, static_cast<size_t>(ow), 0.0f);
        continue;
      }
      const float inv_chy = 1.0f / static_cast<float>(chy);
      for (int x = 0; x < ow; ++x) {
        out_row[x] *= inv_chy * inv_cw[static_cast<size_t>(x)];
      }
    }
  });
}

void AvgPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       float* grad_input) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const auto ch = ClippedTapCounts(oh, g.kernel, g.stride, g.pad, g.in_h);
  const auto cw = ClippedTapCounts(ow, g.kernel, g.stride, g.pad, g.in_w);
  const size_t work = out_plane * g.kernel * g.kernel;
  ForEachPlane(planes, work, [&](size_t p) {
    const float* go = grad_output + p * out_plane;
    float* gi = grad_input + p * in_plane;
    // Count matches the forward pass (windows clipped at borders).
    thread_local std::vector<float> share;
    share.resize(static_cast<size_t>(ow));
    for (int y = 0; y < oh; ++y) {
      const int chy = ch[static_cast<size_t>(y)];
      if (chy <= 0) {
        continue;
      }
      const float* go_row = go + static_cast<size_t>(y) * ow;
      const float inv_chy = 1.0f / static_cast<float>(chy);
      for (int x = 0; x < ow; ++x) {
        const int cwx = cw[static_cast<size_t>(x)];
        share[static_cast<size_t>(x)] =
            cwx > 0 ? go_row[x] * inv_chy / static_cast<float>(cwx) : 0.0f;
      }
      const int h0 = y * g.stride - g.pad;
      for (int ky = 0; ky < g.kernel; ++ky) {
        const int h = h0 + ky;
        if (h < 0 || h >= g.in_h) {
          continue;
        }
        float* gi_row = gi + static_cast<size_t>(h) * g.in_w;
        for (int kx = 0; kx < g.kernel; ++kx) {
          const int w0 = kx - g.pad;
          int x_lo, x_hi;
          TapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
          if (g.stride == 1) {
            vec::Axpy(1.0f, share.data() + x_lo, gi_row + (w0 + x_lo),
                      static_cast<size_t>(x_hi - x_lo));
          } else {
            for (int x = x_lo; x < x_hi; ++x) {
              gi_row[x * g.stride + w0] += share[static_cast<size_t>(x)];
            }
          }
        }
      }
    }
  });
}

void GlobalAvgPoolForward(int batch, int channels, int h, int w,
                          const float* input, float* output) {
  const float inv_area = 1.0f / (static_cast<float>(h) * w);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* plane = input + Idx4(n, c, 0, 0, channels, h, w);
      float acc = 0.0f;
      for (int i = 0; i < h * w; ++i) {
        acc += plane[i];
      }
      output[static_cast<size_t>(n) * channels + c] = acc * inv_area;
    }
  }
}

void GlobalAvgPoolBackward(int batch, int channels, int h, int w,
                           const float* grad_output, float* grad_input) {
  const float inv_area = 1.0f / (static_cast<float>(h) * w);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float share =
          grad_output[static_cast<size_t>(n) * channels + c] * inv_area;
      float* plane = grad_input + Idx4(n, c, 0, 0, channels, h, w);
      for (int i = 0; i < h * w; ++i) {
        plane[i] += share;
      }
    }
  }
}

// ------------------------------------------------------------ batchnorm --
//
// Channels are independent (statistics reduce over batch x plane within one
// channel; gamma/beta gradients are per channel), so both passes fan out
// over channels. The per-channel inner loops are the fused vec kernels:
// one pass for sum + sum of squares, one for normalize + affine.

void BatchNorm2dForward(int batch, int channels, size_t plane,
                        const float* input, const float* gamma,
                        const float* beta, float epsilon, float* xhat,
                        float* inv_std, float* output) {
  FEDRA_CHECK(batch > 0 && channels > 0 && plane > 0);
  const double count = static_cast<double>(batch) * plane;
  const size_t sample_stride = static_cast<size_t>(channels) * plane;
  ForEachPlane(static_cast<size_t>(channels),
               static_cast<size_t>(batch) * plane, [&](size_t pc) {
    const int c = static_cast<int>(pc);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int n = 0; n < batch; ++n) {
      vec::SumAndSquaredNorm(
          input + static_cast<size_t>(n) * sample_stride + pc * plane, plane,
          &sum, &sum_sq);
    }
    const double mean = sum / count;
    const double var = sum_sq / count - mean * mean;
    const float istd = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    inv_std[c] = istd;
    for (int n = 0; n < batch; ++n) {
      const size_t base = static_cast<size_t>(n) * sample_stride + pc * plane;
      vec::NormalizeAffine(input + base, static_cast<float>(mean), istd,
                           gamma[c], beta[c], xhat + base, output + base,
                           plane);
    }
  });
}

void BatchNorm2dBackward(int batch, int channels, size_t plane,
                         const float* grad_output, const float* xhat,
                         const float* inv_std, const float* gamma,
                         float* grad_gamma, float* grad_beta,
                         float* grad_input) {
  FEDRA_CHECK(batch > 0 && channels > 0 && plane > 0);
  const double count = static_cast<double>(batch) * plane;
  const size_t sample_stride = static_cast<size_t>(channels) * plane;
  ForEachPlane(static_cast<size_t>(channels),
               static_cast<size_t>(batch) * plane, [&](size_t pc) {
    const int c = static_cast<int>(pc);
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (int n = 0; n < batch; ++n) {
      const size_t base = static_cast<size_t>(n) * sample_stride + pc * plane;
      sum_dy += vec::Sum(grad_output + base, plane);
      sum_dy_xhat += vec::Dot(grad_output + base, xhat + base, plane);
    }
    grad_beta[c] += static_cast<float>(sum_dy);
    grad_gamma[c] += static_cast<float>(sum_dy_xhat);
    const float scale = gamma[c] * inv_std[c];
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
    for (int n = 0; n < batch; ++n) {
      const size_t base = static_cast<size_t>(n) * sample_stride + pc * plane;
      vec::NormBackwardDx(grad_output + base, xhat + base, scale, mean_dy,
                          mean_dy_xhat, grad_input + base, plane);
    }
  });
}

}  // namespace ops
}  // namespace fedra
