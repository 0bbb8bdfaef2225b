#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
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

// Whether a panel loop of `flops` arithmetic over `num_cells` independent
// output blocks fans out over GlobalThreadPool: only with enough arithmetic,
// more than one block, and not from inside a pool task (which would wait on
// its own pool).
bool UsePool(long long flops, long long num_cells) {
  return GlobalThreadPool().num_threads() > 1 &&
         flops >= kParallelFlopThreshold && num_cells > 1 &&
         !ThreadPool::OnPoolThread();
}

// Runs task(bi, begin, end) over a 2-D grid of `num_iblocks` row blocks x
// groups of `num_units` column units on GlobalThreadPool. Units are grouped
// so the grid has ~3 tasks per thread: enough slack for dynamic balancing
// without shrinking the per-task GEMM below the panel reuse the packing
// paid for.
template <typename Task>
void ParallelGrid(int num_iblocks, int num_units, const Task& task) {
  ThreadPool& pool = GlobalThreadPool();
  const size_t units = static_cast<size_t>(num_units);
  const size_t target_tasks = 3 * pool.num_threads();
  size_t num_groups = std::max<size_t>(
      1, std::min(units, target_tasks / static_cast<size_t>(num_iblocks)));
  const size_t per_group = (units + num_groups - 1) / num_groups;
  num_groups = (units + per_group - 1) / per_group;
  pool.ParallelFor2d(static_cast<size_t>(num_iblocks), num_groups,
                     [&](size_t bi, size_t gj) {
                       const int begin = static_cast<int>(gj * per_group);
                       const int end = static_cast<int>(
                           std::min(units, (gj + 1) * per_group));
                       task(static_cast<int>(bi), begin, end);
                     });
}

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
// depth steps) lives in tensor/simd_dispatch.cc: a portable loop that GCC
// vectorizes for the build's baseline ISA, and AVX2/AVX-512 tilings that
// the dispatch table swaps in at runtime.

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

      if (UsePool(flops, static_cast<long long>(num_iblocks) * num_jpanels)) {
        // Phase 1: pack every A row block cooperatively into one shared
        // buffer (uniform kMC * kc stride per block; only the last block is
        // short). Phase 2 reads it from every task of a row block x column
        // group grid.
        const size_t block_stride =
            static_cast<size_t>(kMC) * static_cast<size_t>(kc);
        apack_all.resize(static_cast<size_t>(num_iblocks) * block_stride);
        float* apack_data = apack_all.data();
        GlobalThreadPool().ParallelFor(
            static_cast<size_t>(num_iblocks), [&](size_t bi) {
              const int ic = static_cast<int>(bi) * kMC;
              const int mc = std::min(kMC, m - ic);
              PackA(trans_a, a, m, k, ic, mc, pc, kc,
                    apack_data + bi * block_stride);
            });
        ParallelGrid(num_iblocks, num_jpanels,
                     [&](int bi, int panel_begin, int panel_end) {
                       compute_block(bi, apack_data + bi * block_stride,
                                     panel_begin * kNR,
                                     std::min(nc, panel_end * kNR));
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
//
// Conv2d drives the GEMM micro-kernel straight over the NCHW batch; no
// im2col matrix is built. The forward pass and the input gradient are one
// wide GEMM per call whose column j is output pixel j % ohw of sample
// j / ohw: their B panels are packed from zero-bordered copies of the
// samples (the im2col rows of each tap) or from grad_output, and each tile
// is written straight back into NCHW. The weight operand is packed once
// per call: W for the output, W^T for the input gradient. The weight
// gradient keeps one chain per sample (merging samples would reassociate
// its sums): a block of whole samples (or one kKC-pixel chunk of a larger
// one) shares each tap panel, packed run by run straight from the padded
// samples, and each sample's chain reads its own rows of it.
//
// Every output cell keeps the arithmetic of a per-sample im2col + Gemm
// lowering: the same micro-kernel chain over the same kKC depth chunks of
// the same panel values, the bias (or zero) seed plus alpha * acc (alpha
// is 1, so seed + acc), one weight-gradient chain per sample and depth
// chunk added in sample order, and each input-gradient cell receiving its
// taps in ascending order, as col2im adds them
// (tests/backend_parity_test.cc checks it byte for byte).

namespace {

inline size_t Idx4(int n, int c, int h, int w, int channels, int height,
                   int width) {
  return ((static_cast<size_t>(n) * channels + c) * height + h) *
             static_cast<size_t>(width) +
         w;
}

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

inline int RoundUp(int v, int multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

// The columns of one panel (or of one weight-gradient depth chunk), split
// once into the pieces the packers and the write-back walk. `rows` stay
// inside one output row of one sample: columns [col, col + len) hold pixels
// (y, x0 .. x0 + len) of sample n. `runs` merge a sample's rows: pixels
// pix .. pix + len, contiguous in any NCHW tensor of the output's shape.
struct PanelColumns {
  struct Row {
    int n, y, x0, len, col;
  };
  struct Run {
    int n, pix, len, col;
  };
  int nr = 0;
  int num_rows = 0;
  int num_runs = 0;
  Row rows[kKC];
  Run runs[kKC];
};

// Splits batch-wide columns [j0, j0 + nr), nr <= kKC: one division per
// panel.
void SplitPanel(int j0, int nr, int oh, int ow, PanelColumns* cols) {
  const int ohw = oh * ow;
  int n = j0 / ohw;
  int pix = j0 - n * ohw;
  int y = pix / ow;
  int x = pix - y * ow;
  cols->nr = nr;
  cols->num_rows = 0;
  cols->num_runs = 0;
  for (int col = 0; col < nr;) {
    const int len = std::min(ow - x, nr - col);
    cols->rows[cols->num_rows++] = {n, y, x, len, col};
    PanelColumns::Run* last =
        cols->num_runs > 0 ? &cols->runs[cols->num_runs - 1] : nullptr;
    if (last != nullptr && last->n == n) {
      last->len += len;
    } else {
      cols->runs[cols->num_runs++] = {n, y * ow + x, len, col};
    }
    col += len;
    x = 0;
    if (++y == oh) {
      y = 0;
      ++n;
    }
  }
}

// Slack after a padded sample and after a packed buffer: a stride-1 run is
// copied in whole 16-float blocks, so it may read and write up to 15
// floats past its end.
constexpr int kRunBlock = 16;

// Zero-bordered copies of the samples a task reads, so that every im2col
// run is a plain copy with no bounds logic. Sample n sits in slot
// n % slots (a panel's samples are consecutive and fewer than `slots`, so
// none evicts another) and is copied, border included, on first use.
struct PaddedSamples {
  std::vector<float> data;
  std::vector<int> held;  // sample in each slot, -1 when empty
  size_t slot_size = 0;
  int hp = 0;
  int wp = 0;

  void Reset(const Conv2dGeometry& g, int slots) {
    hp = g.in_h + 2 * g.pad;
    wp = g.in_w + 2 * g.pad;
    slot_size = static_cast<size_t>(g.in_channels) * hp * wp + kRunBlock;
    data.resize(slot_size * static_cast<size_t>(slots));
    held.assign(static_cast<size_t>(slots), -1);
  }

  const float* Get(const Conv2dGeometry& g, const float* input, int n) {
    const size_t slot = static_cast<size_t>(n) % held.size();
    float* dst = data.data() + slot * slot_size;
    if (held[slot] != n) {
      held[slot] = n;
      const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
      const float* src =
          input + static_cast<size_t>(n) * g.in_channels * in_plane;
      const size_t pad_rows = static_cast<size_t>(g.pad) * wp;
      for (int ic = 0; ic < g.in_channels; ++ic) {
        float* plane = dst + static_cast<size_t>(ic) * hp * wp;
        std::fill(plane, plane + pad_rows, 0.0f);
        for (int h = 0; h < g.in_h; ++h) {
          float* row = plane + pad_rows + static_cast<size_t>(h) * wp;
          std::fill(row, row + g.pad, 0.0f);
          std::memcpy(row + g.pad,
                      src + ic * in_plane + static_cast<size_t>(h) * g.in_w,
                      static_cast<size_t>(g.in_w) * sizeof(float));
          std::fill(row + g.pad + g.in_w, row + wp, 0.0f);
        }
        std::fill(plane + static_cast<size_t>(hp) * wp - pad_rows,
                  plane + static_cast<size_t>(hp) * wp, 0.0f);
      }
    }
    return dst;
  }
};

// Packs im2col rows [p0, p0 + kc) (taps ic, ky, kx) at the columns of
// `cols` into a forward B panel: panel[p * kNR + c] is tap p0 + p of the
// pixel in column c (0.0f in the padding), and columns [cols.nr, kNR) are
// zeroed. `panel` needs kRunBlock floats of slack past row kc - 1.
void PackImageRows(const Conv2dGeometry& g, const float* input,
                   PaddedSamples* samples, int p0, int kc,
                   const PanelColumns& cols, float* panel) {
  const int k = g.kernel;
  const int s = g.stride;
  const size_t padded_plane = static_cast<size_t>(samples->hp) * samples->wp;
  // Each row's top-left tap in its padded sample.
  const float* base[kKC];
  for (int r = 0; r < cols.num_rows; ++r) {
    const PanelColumns::Row& row = cols.rows[r];
    base[r] = samples->Get(g, input, row.n) +
              static_cast<size_t>(row.y) * s * samples->wp + row.x0 * s;
  }
  int ic = p0 / (k * k);
  int ky = (p0 - ic * k * k) / k;
  int kx = p0 - ic * k * k - ky * k;
  for (int p = 0; p < kc; ++p) {
    float* dst = panel + static_cast<size_t>(p) * kNR;
    const size_t tap = ic * padded_plane +
                       static_cast<size_t>(ky) * samples->wp + kx;
    for (int r = 0; r < cols.num_rows; ++r) {
      const PanelColumns::Row& row = cols.rows[r];
      const float* src = base[r] + tap;
      float* d = dst + row.col;
      if (s == 1) {
        // Whole blocks: the overrun lands in columns a later run (or row)
        // rewrites, or in the slack.
        for (int c = 0; c < row.len; c += kRunBlock) {
          std::memcpy(d + c, src + c, kRunBlock * sizeof(float));
        }
      } else {
        for (int c = 0; c < row.len; ++c) {
          d[c] = src[c * s];
        }
      }
    }
    std::fill(dst + cols.nr, dst + kNR, 0.0f);
    if (++kx == k) {
      kx = 0;
      if (++ky == k) {
        ky = 0;
        ++ic;
      }
    }
  }
}

// Packs taps [t0, t0 + nr) of the im2col rows at the columns of `cols`
// straight into a weight-gradient B panel, one column per panel row:
// panel[c * kNR + j] = tap t0 + j of the pixel in column c (0.0f in the
// padding and in the pad lanes j >= nr). The taps (ic, ky, 0 .. K) of a
// pixel are one run of its padded sample's row, so a panel row is a few
// runs, each copied as one 16-float block: the overrun lands in lanes a
// later run, the pad-lane zeroing or the next panel row rewrites, or in
// the kRunBlock floats of slack `panel` needs past its last row.
void PackTapPanel(const Conv2dGeometry& g, const float* input,
                  PaddedSamples* samples, int t0, int nr,
                  const PanelColumns& cols, float* panel) {
  const int k = g.kernel;
  const size_t padded_plane = static_cast<size_t>(samples->hp) * samples->wp;
  // Run i copies the taps from lane run_lane[i] on, starting at offset
  // run_src[i] from a pixel's top-left tap.
  size_t run_src[kNR];
  int run_lane[kNR];
  int num_runs = 0;
  for (int t = t0; t < t0 + nr; ++num_runs) {
    const int ic = t / (k * k);
    const int ky = t / k - ic * k;
    const int kx = t % k;
    run_src[num_runs] =
        ic * padded_plane + static_cast<size_t>(ky) * samples->wp + kx;
    run_lane[num_runs] = t - t0;
    t += std::min({k - kx, t0 + nr - t, kRunBlock});
  }
  for (int r = 0; r < cols.num_rows; ++r) {
    const PanelColumns::Row& row = cols.rows[r];
    const float* src = samples->Get(g, input, row.n) +
                       static_cast<size_t>(row.y) * g.stride * samples->wp +
                       row.x0 * g.stride;
    float* dst = panel + static_cast<size_t>(row.col) * kNR;
    for (int c = 0; c < row.len; ++c, src += g.stride, dst += kNR) {
      for (int i = 0; i < num_runs; ++i) {
        std::memcpy(dst + run_lane[i], src + run_src[i],
                    kRunBlock * sizeof(float));
      }
      for (int j = nr; j < kNR; j += kRunBlock) {
        std::fill_n(dst + j, kRunBlock, 0.0f);
      }
    }
  }
}

// Packs depth rows [p0, p0 + kc) (output channels) of grad_output for one
// panel: panel[p * kNR + c] = grad_output[n, p0 + p, pixel of column c].
void PackGradOutputPanel(const float* grad_output, int out_channels, int ohw,
                         int p0, int kc, const PanelColumns& cols,
                         float* panel) {
  for (int p = 0; p < kc; ++p) {
    float* dst = panel + static_cast<size_t>(p) * kNR;
    for (int r = 0; r < cols.num_runs; ++r) {
      const PanelColumns::Run& run = cols.runs[r];
      std::memcpy(dst + run.col,
                  grad_output +
                      (static_cast<size_t>(run.n) * out_channels + p0 + p) *
                          ohw +
                      run.pix,
                  static_cast<size_t>(run.len) * sizeof(float));
    }
    std::fill(dst + cols.nr, dst + kNR, 0.0f);
  }
}

// Per-thread scratch of one conv task, each at most one panel's worth.
struct ConvScratch {
  std::vector<float> panel;    // one B panel: kKC x kNR (+ slack)
  std::vector<float> apack;    // weight gradient: a row block x kKC of dY
  std::vector<float> strip;    // input gradient: one panel's taps x kNR
  std::vector<int> tap_range;  // input gradient: TapRange of every kx
  PaddedSamples samples;       // the samples the packed panels read
};

thread_local ConvScratch tls_conv_scratch;
thread_local Conv2dWorkspace tls_conv_workspace;

// Runs `task(i0, mc, begin, end)` over row blocks of `m` rows x groups of
// `num_units` column units: on the pool (ParallelGrid) when the per-sample
// GEMM has the flops a per-sample Gemm call would have fanned out for, else
// inline as one task. `split_rows` = false keeps every row in each task.
// Task boundaries move no bits: each output cell is computed whole in one
// task.
template <typename Task>
void FanOut(long long flops_per_sample, int m, bool split_rows,
            int num_units, const Task& task) {
  const int block_rows = split_rows ? kMC : m;
  const int num_iblocks = (m + block_rows - 1) / block_rows;
  if (!UsePool(flops_per_sample,
               static_cast<long long>(num_iblocks) * num_units)) {
    task(0, m, 0, num_units);
    return;
  }
  ParallelGrid(num_iblocks, num_units, [&](int bi, int begin, int end) {
    const int i0 = bi * block_rows;
    task(i0, std::min(block_rows, m - i0), begin, end);
  });
}

// Packs rows [0, m) of op(A) (m x k) for every kKC depth chunk: the chunk
// at depth p0 starts at packed + p0 * RoundUp(m, kMR).
void PackAllDepthChunks(bool trans_a, const float* a, int m, int k,
                        std::vector<float>* packed) {
  const size_t m_pad = static_cast<size_t>(RoundUp(m, kMR));
  packed->resize(m_pad * static_cast<size_t>(k));
  for (int p0 = 0; p0 < k; p0 += kKC) {
    PackA(trans_a, a, m, k, 0, m, p0, std::min(kKC, k - p0),
          packed->data() + static_cast<size_t>(p0) * m_pad);
  }
}

}  // namespace

void Conv2dForward(const Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output,
                   Conv2dWorkspace* workspace) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  FEDRA_CHECK(oh > 0 && ow > 0) << "conv output is empty";
  const int ohw = oh * ow;
  const int oc_total = g.out_channels;
  const int ickk = g.in_channels * g.kernel * g.kernel;
  const int num_cols = g.batch * ohw;
  Conv2dWorkspace* ws = workspace ? workspace : &tls_conv_workspace;
  // out[OC, cols] = seed + weight[OC, IC*K*K] * im2col[IC*K*K, cols]
  PackAllDepthChunks(false, weight, oc_total, ickk, &ws->packed_weight);
  const float* wpack = ws->packed_weight.data();
  const size_t m_pad = static_cast<size_t>(RoundUp(oc_total, kMR));
  const auto micro_kernel = simd::Kernels().gemm_micro_8x32;

  auto task = [&](int i0, int mc, int panel_begin, int panel_end) {
    ConvScratch& scratch = tls_conv_scratch;
    scratch.panel.resize(static_cast<size_t>(kKC) * kNR + kRunBlock);
    // A panel spans at most (kNR - 1) / ohw + 2 samples.
    scratch.samples.Reset(g, std::min(g.batch, (kNR - 1) / ohw + 2));
    float* panel = scratch.panel.data();
    PanelColumns cols;
    alignas(64) float acc[kMR * kNR];
    for (int jp = panel_begin; jp < panel_end; ++jp) {
      const int j0 = jp * kNR;
      SplitPanel(j0, std::min(kNR, num_cols - j0), oh, ow, &cols);
      for (int p0 = 0; p0 < ickk; p0 += kKC) {
        const int kc = std::min(kKC, ickk - p0);
        PackImageRows(g, input, &scratch.samples, p0, kc, cols, panel);
        for (int ir = i0; ir < i0 + mc; ir += kMR) {
          micro_kernel(kc,
                       wpack + static_cast<size_t>(p0) * m_pad +
                           static_cast<size_t>(ir) * kc,
                       panel, acc);
          const int mr_eff = std::min(kMR, oc_total - ir);
          for (int ii = 0; ii < mr_eff; ++ii) {
            const int oc = ir + ii;
            const float* acc_row = acc + ii * kNR;
            // Seed with the bias (or zero), then accumulate on top.
            const float seed = bias ? bias[oc] : 0.0f;
            for (int r = 0; r < cols.num_runs; ++r) {
              const PanelColumns::Run& run = cols.runs[r];
              float* dst = output +
                           (static_cast<size_t>(run.n) * oc_total + oc) * ohw +
                           run.pix;
              const float* src = acc_row + run.col;
              if (p0 == 0) {
                for (int c = 0; c < run.len; ++c) {
                  dst[c] = seed + src[c];
                }
              } else {
                for (int c = 0; c < run.len; ++c) {
                  dst[c] += src[c];
                }
              }
            }
          }
        }
      }
    }
  };
  FanOut(2LL * oc_total * ohw * ickk, oc_total, /*split_rows=*/true,
         (num_cols + kNR - 1) / kNR, task);
}

void Conv2dBackward(const Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias,
                    Conv2dWorkspace* workspace) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int ohw = oh * ow;
  const int oc_total = g.out_channels;
  const int ickk = g.in_channels * g.kernel * g.kernel;
  const long long flops_per_sample = 2LL * oc_total * ohw * ickk;
  Conv2dWorkspace* ws = workspace ? workspace : &tls_conv_workspace;
  const auto micro_kernel = simd::Kernels().gemm_micro_8x32;

  if (grad_bias) {
    for (int n = 0; n < g.batch; ++n) {
      const float* go_n =
          grad_output + Idx4(n, 0, 0, 0, oc_total, oh, ow);
      for (int oc = 0; oc < oc_total; ++oc) {
        grad_bias[oc] += static_cast<float>(
            vec::Sum(go_n + static_cast<size_t>(oc) * ohw,
                     static_cast<size_t>(ohw)));
      }
    }
  }

  if (grad_weight) {
    // dW[OC, IC*K*K] += dY_n[OC, OH*OW] * im2col_n^T, one chain per sample
    // and kKC-pixel chunk. A block holds the chains of as many whole samples
    // as fit in kKC pixels and whose padded copies fit in one panel's floats
    // (or one chunk of a larger sample): each tap panel is packed once per
    // block, straight from the padded samples, and each chain runs over its
    // own rows of it, samples in order.
    const size_t sample_floats =
        static_cast<size_t>(g.in_channels) * (g.in_h + 2 * g.pad) *
        (g.in_w + 2 * g.pad);
    const size_t panel_floats = static_cast<size_t>(kKC) * kNR;
    const int per_block = static_cast<int>(std::clamp<size_t>(
        std::min<size_t>(kKC / ohw, panel_floats / sample_floats), 1,
        static_cast<size_t>(g.batch)));
    auto task = [&](int i0, int mc, int panel_begin, int panel_end) {
      ConvScratch& scratch = tls_conv_scratch;
      const size_t m_pad = static_cast<size_t>(RoundUp(mc, kMR));
      scratch.panel.resize(static_cast<size_t>(kKC) * kNR + kRunBlock);
      scratch.apack.resize(m_pad * kKC);
      scratch.samples.Reset(g, per_block);
      float* panel = scratch.panel.data();
      float* apack = scratch.apack.data();
      PanelColumns pixels;
      alignas(64) float acc[kMR * kNR];
      for (int n0 = 0; n0 < g.batch; n0 += per_block) {
        const int chains = std::min(per_block, g.batch - n0);
        for (int q0 = 0; q0 < ohw; q0 += kKC) {
          const int kc = std::min(kKC, ohw - q0);
          SplitPanel(n0 * ohw + q0, chains * kc, oh, ow, &pixels);
          for (int i = 0; i < chains; ++i) {
            PackA(false, grad_output + Idx4(n0 + i, 0, 0, 0, oc_total, oh, ow),
                  oc_total, ohw, i0, mc, q0, kc,
                  apack + static_cast<size_t>(i) * m_pad * kc);
          }
          for (int jp = panel_begin; jp < panel_end; ++jp) {
            const int t0 = jp * kNR;
            const int nr = std::min(kNR, ickk - t0);
            PackTapPanel(g, input, &scratch.samples, t0, nr, pixels, panel);
            for (int i = 0; i < chains; ++i) {
              const float* bpanel =
                  panel + static_cast<size_t>(i) * kc * kNR;
              const float* apanel = apack + static_cast<size_t>(i) * m_pad * kc;
              for (int ir = 0; ir < mc; ir += kMR) {
                micro_kernel(kc, apanel + static_cast<size_t>(ir) * kc, bpanel,
                             acc);
                const int mr_eff = std::min(kMR, mc - ir);
                for (int ii = 0; ii < mr_eff; ++ii) {
                  float* gw_row = grad_weight +
                                  static_cast<size_t>(i0 + ir + ii) * ickk +
                                  t0;
                  const float* acc_row = acc + ii * kNR;
                  for (int jj = 0; jj < nr; ++jj) {
                    gw_row[jj] += acc_row[jj];
                  }
                }
              }
            }
          }
        }
      }
    };
    FanOut(flops_per_sample, oc_total, /*split_rows=*/true,
           (ickk + kNR - 1) / kNR, task);
  }

  if (grad_input) {
    // dX = col2im(W^T[IC*K*K, OC] * dY[OC, cols]). A 1x1 stride-1 unpadded
    // conv's col2im is the identity, so its tiles accumulate straight into
    // grad_input, one depth chunk at a time; every other conv finishes each
    // panel's taps in `strip` (zero seed + every depth chunk), and the
    // dispatch layer's col2im_row adds them into grad_input one output row
    // at a time, each cell's taps in ascending order. Panels and their rows
    // run last to first: an input cell's taps in ascending order read
    // columns in descending order, so every cell receives its taps in
    // col2im's order.
    const bool identity_col2im =
        g.kernel == 1 && g.stride == 1 && g.pad == 0;
    PackAllDepthChunks(true, weight, ickk, oc_total, &ws->packed_weight);
    const float* wtpack = ws->packed_weight.data();
    const size_t m_pad = static_cast<size_t>(RoundUp(ickk, kMR));
    const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
    const auto col2im_row = simd::Kernels().col2im_row;

    auto task = [&](int /*i0*/, int /*mc*/, int n_begin, int n_end) {
      ConvScratch& scratch = tls_conv_scratch;
      scratch.panel.resize(static_cast<size_t>(kKC) * kNR);
      scratch.strip.resize(m_pad * kNR);
      // Kernel column kx adds output columns [x_lo[kx], x_hi[kx]) into the
      // map.
      scratch.tap_range.resize(2 * static_cast<size_t>(g.kernel));
      int* x_lo = scratch.tap_range.data();
      int* x_hi = x_lo + g.kernel;
      for (int kx = 0; kx < g.kernel; ++kx) {
        TapRange(kx - g.pad, g.stride, g.in_w, ow, &x_lo[kx], &x_hi[kx]);
      }
      float* panel = scratch.panel.data();
      float* strip = scratch.strip.data();
      simd::Col2imRowArgs rows;
      rows.ld = kNR;
      rows.x_lo = x_lo;
      rows.x_hi = x_hi;
      rows.channels = g.in_channels;
      rows.in_h = g.in_h;
      rows.in_w = g.in_w;
      rows.kernel = g.kernel;
      rows.stride = g.stride;
      rows.pad = g.pad;
      PanelColumns cols;
      alignas(64) float acc[kMR * kNR];
      const int j_begin = n_begin * ohw;
      const int j_end = n_end * ohw;
      const int num_panels = (j_end - j_begin + kNR - 1) / kNR;
      for (int jp = num_panels - 1; jp >= 0; --jp) {
        const int j0 = j_begin + jp * kNR;
        SplitPanel(j0, std::min(kNR, j_end - j0), oh, ow, &cols);
        for (int p0 = 0; p0 < oc_total; p0 += kKC) {
          const int kc = std::min(kKC, oc_total - p0);
          PackGradOutputPanel(grad_output, oc_total, ohw, p0, kc, cols,
                              panel);
          for (int ir = 0; ir < ickk; ir += kMR) {
            micro_kernel(kc,
                         wtpack + static_cast<size_t>(p0) * m_pad +
                             static_cast<size_t>(ir) * kc,
                         panel, acc);
            if (identity_col2im) {
              const int mr_eff = std::min(kMR, ickk - ir);
              for (int ii = 0; ii < mr_eff; ++ii) {
                const float* acc_row = acc + ii * kNR;
                for (int r = 0; r < cols.num_runs; ++r) {
                  const PanelColumns::Run& run = cols.runs[r];
                  float* dst = grad_input +
                               (static_cast<size_t>(run.n) * g.in_channels +
                                ir + ii) *
                                   in_plane +
                               run.pix;
                  for (int c = 0; c < run.len; ++c) {
                    dst[c] += acc_row[run.col + c];
                  }
                }
              }
            } else {
              float* tile = strip + static_cast<size_t>(ir) * kNR;
              for (int e = 0; e < kMR * kNR; ++e) {
                tile[e] = (p0 == 0 ? 0.0f : tile[e]) + acc[e];
              }
            }
          }
        }
        if (identity_col2im) {
          continue;
        }
        // Within the panel, rows run last to first: a cell's taps with a
        // larger ky read an earlier output row.
        for (int r = cols.num_rows - 1; r >= 0; --r) {
          const PanelColumns::Row& row = cols.rows[r];
          rows.taps = strip + row.col;
          rows.grad_input = grad_input + static_cast<size_t>(row.n) *
                                             g.in_channels * in_plane;
          rows.y = row.y;
          rows.x0 = row.x0;
          rows.len = row.len;
          col2im_row(rows);
        }
      }
    };
    // Tasks own whole samples and every row of W^T, so no two write the
    // same input cell; the pool splits the batch only (a batch of one runs
    // as one task).
    FanOut(flops_per_sample, ickk, /*split_rows=*/false, g.batch, task);
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

// Fans plane-granular work over the global pool when the total is big
// enough to amortize the wake/wait round-trip (ParallelFor already inlines
// single-thread calls; a nested call parks its helpers on the calling
// worker's own deque and drains whatever no idle peer steals).
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

// Unpadded 2x2 windows at stride 2 (LeNet's pools, DenseNet's
// transitions) run the dispatch layer's avg_pool_2x2 kernels, which keep
// the general loops' arithmetic: no window is clipped, so each output sums
// its four taps onto +0 in row order and scales by 0.5f * 0.5f, and the
// backward adds (g * 0.5f) / 2.0f to each tap once. A map with one row or
// column clips its windows and stays on the general loops.
bool IsPool2x2(const Conv2dGeometry& g) {
  return g.kernel == 2 && g.stride == 2 && g.pad == 0 && g.in_h >= 2 &&
         g.in_w >= 2;
}

}  // namespace

void AvgPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output) {
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  if (IsPool2x2(g)) {
    simd::Kernels().avg_pool_2x2(input, planes, g.in_h, g.in_w, output);
    return;
  }
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
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
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  if (IsPool2x2(g)) {
    simd::Kernels().avg_pool_2x2_grad(grad_output, planes, g.in_h, g.in_w,
                                      grad_input);
    return;
  }
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
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
