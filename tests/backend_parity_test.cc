// Randomized parity tests: the fast compute backend (ops::Gemm blocked
// packed GEMM, im2col Conv2d, fused vec kernels) against the scalar
// reference oracle in tensor/ref_ops.h. Differences come only from
// floating-point reassociation, so those are held to a relative tolerance
// of 1e-4. The batched sketch accumulation has no reassociation freedom
// and must equal the per-coordinate updates byte for byte.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/ams_sketch.h"
#include "tensor/ops.h"
#include "tensor/ref_ops.h"
#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"

namespace fedra {
namespace {

constexpr double kRelTol = 1e-4;

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -2.0f,
                             float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextUniform(lo, hi);
  }
  return v;
}

// Relative max-error between two spans, normalized by the larger magnitude
// (with a floor of 1 so near-zero entries compare absolutely).
double MaxRelError(const std::vector<float>& got,
                   const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(
        1.0, std::max(std::fabs(static_cast<double>(got[i])),
                      std::fabs(static_cast<double>(want[i]))));
    worst = std::max(
        worst, std::fabs(static_cast<double>(got[i]) - want[i]) / denom);
  }
  return worst;
}

// ------------------------------------------------------------------ GEMM --

void CheckGemmParity(bool trans_a, bool trans_b, int m, int n, int k,
                     float alpha, float beta, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "ta=" << trans_a << " tb=" << trans_b << " m=" << m
               << " n=" << n << " k=" << k << " alpha=" << alpha
               << " beta=" << beta);
  auto a = RandomVec(static_cast<size_t>(m) * k, seed);
  auto b = RandomVec(static_cast<size_t>(k) * n, seed + 1);
  auto c0 = RandomVec(static_cast<size_t>(m) * n, seed + 2);
  std::vector<float> c_fast = c0;
  std::vector<float> c_ref = c0;
  ops::Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
            c_fast.data());
  ref::Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
            c_ref.data());
  EXPECT_LE(MaxRelError(c_fast, c_ref), kRelTol);
}

TEST(GemmParityTest, AllTransposeCombos) {
  uint64_t seed = 100;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      CheckGemmParity(ta, tb, 64, 64, 64, 1.0f, 0.0f, seed++);
    }
  }
}

TEST(GemmParityTest, OddShapesAndTileEdges) {
  uint64_t seed = 200;
  // Shapes straddling the micro-tile (8x32) and cache-block (96/256/1024)
  // boundaries, plus degenerate dims.
  const int shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {17, 1, 9},
                           {8, 32, 256}, {9, 33, 29},   {97, 17, 257},
                           {96, 32, 256}, {5, 1030, 3}, {130, 130, 130}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        CheckGemmParity(ta, tb, s[0], s[1], s[2], 1.0f, 0.0f, seed++);
      }
    }
  }
}

TEST(GemmParityTest, AlphaBeta) {
  uint64_t seed = 300;
  for (float alpha : {0.0f, 1.0f, -1.3f, 0.5f}) {
    for (float beta : {0.0f, 1.0f, 0.25f, -2.0f}) {
      CheckGemmParity(false, true, 37, 41, 23, alpha, beta, seed++);
    }
  }
}

// ------------------------------------------------------------------ conv --

struct ConvCase {
  int kernel;
  int stride;
  int pad;
};

void CheckConvParity(const ConvCase& cc, int batch, int in_channels,
                     int out_channels, int in_h, int in_w, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "k=" << cc.kernel << " s=" << cc.stride << " p=" << cc.pad
               << " in=" << in_h << "x" << in_w);
  ops::Conv2dGeometry g;
  g.batch = batch;
  g.in_channels = in_channels;
  g.in_h = in_h;
  g.in_w = in_w;
  g.out_channels = out_channels;
  g.kernel = cc.kernel;
  g.stride = cc.stride;
  g.pad = cc.pad;
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);

  const size_t in_numel =
      static_cast<size_t>(batch) * in_channels * in_h * in_w;
  const size_t w_numel = static_cast<size_t>(out_channels) * in_channels *
                         cc.kernel * cc.kernel;
  const size_t out_numel =
      static_cast<size_t>(batch) * out_channels * g.out_h() * g.out_w();

  auto input = RandomVec(in_numel, seed);
  auto weight = RandomVec(w_numel, seed + 1, -0.5f, 0.5f);
  auto bias = RandomVec(static_cast<size_t>(out_channels), seed + 2);

  // Forward parity (with and without bias).
  std::vector<float> out_fast(out_numel);
  std::vector<float> out_ref(out_numel);
  ops::Conv2dWorkspace ws;
  ops::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                     out_fast.data(), &ws);
  ref::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                     out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  ops::Conv2dForward(g, input.data(), weight.data(), nullptr, out_fast.data(),
                     &ws);
  ref::Conv2dForward(g, input.data(), weight.data(), nullptr, out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward, no bias";

  // Backward parity: all gradients, accumulating on random initial values
  // (the contract is +=, not =).
  auto grad_out = RandomVec(out_numel, seed + 3);
  auto gi0 = RandomVec(in_numel, seed + 4);
  auto gw0 = RandomVec(w_numel, seed + 5);
  auto gb0 = RandomVec(static_cast<size_t>(out_channels), seed + 6);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  std::vector<float> gw_fast = gw0, gw_ref = gw0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  ops::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      gi_fast.data(), gw_fast.data(), gb_fast.data(), &ws);
  ref::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      gi_ref.data(), gw_ref.data(), gb_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gw_fast, gw_ref), kRelTol) << "grad_weight";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_bias";

  // Null grad_input / grad_bias (first layer; bias-less conv).
  std::vector<float> gw2_fast = gw0, gw2_ref = gw0;
  ops::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      nullptr, gw2_fast.data(), nullptr, &ws);
  ref::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                      nullptr, gw2_ref.data(), nullptr);
  EXPECT_LE(MaxRelError(gw2_fast, gw2_ref), kRelTol)
      << "grad_weight, null grad_input/grad_bias";
}

TEST(ConvParityTest, StridePadKernelSweep) {
  const ConvCase cases[] = {
      {1, 1, 0},  // pointwise fast path
      {3, 1, 1},  // VGG-style same-conv
      {3, 2, 1},  // strided downsampling
      {5, 1, 2},  // large kernel, same padding
      {2, 2, 0},  // even kernel, no padding
      {3, 1, 0},  // valid conv
      {4, 2, 1},  // even kernel with stride and pad
      {3, 3, 2},  // stride > 1 with uneven coverage
  };
  uint64_t seed = 500;
  for (const auto& cc : cases) {
    CheckConvParity(cc, /*batch=*/2, /*in_channels=*/3, /*out_channels=*/4,
                    /*in_h=*/9, /*in_w=*/7, seed);
    seed += 10;
  }
}

TEST(ConvParityTest, SinglePixelOutputAndChannelExtremes) {
  CheckConvParity({3, 1, 0}, 1, 1, 1, 3, 3, 900);   // output is 1x1
  CheckConvParity({3, 1, 1}, 1, 8, 1, 5, 5, 910);   // many-in one-out
  CheckConvParity({1, 1, 0}, 3, 1, 8, 4, 4, 920);   // one-in many-out, 1x1
}

// Conv2d packs its GEMM panels straight from the NCHW batch. It must keep
// the arithmetic of the per-sample lowering it replaced byte for byte: the
// oracle below is that lowering, copied from ops.cc (Im2col + ops::Gemm per
// sample, the bias/zero seed, the per-sample vec::Sum bias gradient, the
// pointwise beta = 1 input-gradient GEMM and Col2imAdd).

void OracleIm2col(const ops::Conv2dGeometry& g, const float* input,
                  float* col) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t ohw = static_cast<size_t>(oh) * ow;
  for (int ic = 0; ic < g.in_channels; ++ic) {
    const float* plane = input + static_cast<size_t>(ic) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        float* row =
            col + ((static_cast<size_t>(ic) * g.kernel + ky) * g.kernel + kx) *
                      ohw;
        for (int y = 0; y < oh; ++y) {
          const int h = y * g.stride - g.pad + ky;
          float* dst = row + static_cast<size_t>(y) * ow;
          for (int x = 0; x < ow; ++x) {
            const int w = x * g.stride - g.pad + kx;
            dst[x] = (h >= 0 && h < g.in_h && w >= 0 && w < g.in_w)
                         ? plane[static_cast<size_t>(h) * g.in_w + w]
                         : 0.0f;
          }
        }
      }
    }
  }
}

void OracleCol2imAdd(const ops::Conv2dGeometry& g, const float* col,
                     float* grad_input) {
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
          for (int x = 0; x < ow; ++x) {
            const int w = x * g.stride - g.pad + kx;
            if (w >= 0 && w < g.in_w) {
              plane[static_cast<size_t>(h) * g.in_w + w] +=
                  row[static_cast<size_t>(y) * ow + x];
            }
          }
        }
      }
    }
  }
}

bool OracleIsPointwise(const ops::Conv2dGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}

void OracleConv2dForward(const ops::Conv2dGeometry& g, const float* input,
                         const float* weight, const float* bias,
                         float* output) {
  const int ohw = g.out_h() * g.out_w();
  const int ickk = g.in_channels * g.kernel * g.kernel;
  std::vector<float> col(static_cast<size_t>(ickk) * ohw);
  for (int n = 0; n < g.batch; ++n) {
    const float* in_n =
        input + static_cast<size_t>(n) * g.in_channels * g.in_h * g.in_w;
    float* out_n = output + static_cast<size_t>(n) * g.out_channels * ohw;
    const float* b = in_n;
    if (!OracleIsPointwise(g)) {
      OracleIm2col(g, in_n, col.data());
      b = col.data();
    }
    if (bias) {
      for (int oc = 0; oc < g.out_channels; ++oc) {
        vec::Fill(out_n + static_cast<size_t>(oc) * ohw,
                  static_cast<size_t>(ohw), bias[oc]);
      }
    } else {
      vec::Fill(out_n, static_cast<size_t>(g.out_channels) * ohw, 0.0f);
    }
    ops::Gemm(false, false, g.out_channels, ohw, ickk, 1.0f, weight, b, 1.0f,
              out_n);
  }
}

void OracleConv2dBackward(const ops::Conv2dGeometry& g, const float* input,
                          const float* weight, const float* grad_output,
                          float* grad_input, float* grad_weight,
                          float* grad_bias) {
  const int ohw = g.out_h() * g.out_w();
  const int ickk = g.in_channels * g.kernel * g.kernel;
  const bool pointwise = OracleIsPointwise(g);
  std::vector<float> col(static_cast<size_t>(ickk) * ohw);
  std::vector<float> grad_col(static_cast<size_t>(ickk) * ohw);
  const size_t in_sample =
      static_cast<size_t>(g.in_channels) * g.in_h * g.in_w;
  for (int n = 0; n < g.batch; ++n) {
    const float* in_n = input + static_cast<size_t>(n) * in_sample;
    const float* go_n =
        grad_output + static_cast<size_t>(n) * g.out_channels * ohw;
    if (grad_bias) {
      for (int oc = 0; oc < g.out_channels; ++oc) {
        grad_bias[oc] += static_cast<float>(
            vec::Sum(go_n + static_cast<size_t>(oc) * ohw,
                     static_cast<size_t>(ohw)));
      }
    }
    if (grad_weight) {
      const float* b = in_n;
      if (!pointwise) {
        OracleIm2col(g, in_n, col.data());
        b = col.data();
      }
      ops::Gemm(false, true, g.out_channels, ickk, ohw, 1.0f, go_n, b, 1.0f,
                grad_weight);
    }
    if (grad_input) {
      float* gi_n = grad_input + static_cast<size_t>(n) * in_sample;
      if (pointwise) {
        ops::Gemm(true, false, ickk, ohw, g.out_channels, 1.0f, weight, go_n,
                  1.0f, gi_n);
      } else {
        ops::Gemm(true, false, ickk, ohw, g.out_channels, 1.0f, weight, go_n,
                  0.0f, grad_col.data());
        OracleCol2imAdd(g, grad_col.data(), gi_n);
      }
    }
  }
}

// Byte-for-byte equality, except that any NaN matches any NaN: a NaN's
// payload depends on which operand the hardware propagates.
void ExpectSameBytes(const std::vector<float>& got,
                     const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) {
      continue;
    }
    uint32_t got_bits, want_bits;
    std::memcpy(&got_bits, &got[i], sizeof(float));
    std::memcpy(&want_bits, &want[i], sizeof(float));
    ASSERT_EQ(got_bits, want_bits)
        << what << " differs at " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

// Random values in [-2, 2); with `specials`, about one in 16 entries is
// replaced by +-0, a denormal, +-inf or NaN (one in 64 for the non-finite
// ones, so most outputs stay finite).
std::vector<float> ValuesWithSpecials(size_t n, uint64_t seed,
                                      bool specials) {
  std::vector<float> v = RandomVec(n, seed);
  if (!specials) {
    return v;
  }
  const float kSpecial[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  Rng rng(seed ^ 0x5eedull);
  for (auto& x : v) {
    const uint64_t r = rng.NextUint64() % 64;
    if (r < 3) {
      x = kSpecial[r];
    } else if (r == 3) {
      x = kSpecial[3 + rng.NextUint64() % 4];
    }
  }
  return v;
}

struct ExactConvCase {
  int batch, in_channels, out_channels, in_h, in_w, kernel, stride, pad;
};

void CheckConvMatchesOracle(const ExactConvCase& c, bool specials,
                            uint64_t seed) {
  ops::Conv2dGeometry g;
  g.batch = c.batch;
  g.in_channels = c.in_channels;
  g.in_h = c.in_h;
  g.in_w = c.in_w;
  g.out_channels = c.out_channels;
  g.kernel = c.kernel;
  g.stride = c.stride;
  g.pad = c.pad;
  SCOPED_TRACE(::testing::Message()
               << "batch=" << c.batch << " ic=" << c.in_channels
               << " oc=" << c.out_channels << " in=" << c.in_h << "x"
               << c.in_w << " k=" << c.kernel << " s=" << c.stride
               << " p=" << c.pad << " out=" << g.out_h() << "x" << g.out_w()
               << " specials=" << specials);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(c.batch) * c.in_channels * c.in_h * c.in_w;
  const size_t w_numel = static_cast<size_t>(c.out_channels) *
                         c.in_channels * c.kernel * c.kernel;
  const size_t out_numel = static_cast<size_t>(c.batch) * c.out_channels *
                           g.out_h() * g.out_w();
  const auto input = ValuesWithSpecials(in_numel, seed, specials);
  const auto weight = ValuesWithSpecials(w_numel, seed + 1, specials);
  const auto bias = ValuesWithSpecials(
      static_cast<size_t>(c.out_channels), seed + 2, specials);
  const auto grad_out = ValuesWithSpecials(out_numel, seed + 3, specials);
  // Accumulate onto non-zero (and, with specials, signed-zero) values.
  const auto gi0 = ValuesWithSpecials(in_numel, seed + 4, specials);
  const auto gw0 = ValuesWithSpecials(w_numel, seed + 5, specials);
  const auto gb0 = ValuesWithSpecials(
      static_cast<size_t>(c.out_channels), seed + 6, specials);

  ops::Conv2dWorkspace ws;
  for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
    std::vector<float> got(out_numel, 7.0f);
    std::vector<float> want(out_numel, -7.0f);
    ops::Conv2dForward(g, input.data(), weight.data(), b, got.data(), &ws);
    OracleConv2dForward(g, input.data(), weight.data(), b, want.data());
    ExpectSameBytes(got, want, b ? "forward" : "forward, no bias");
  }
  for (const bool all_grads : {true, false}) {
    std::vector<float> gi = gi0, gi_want = gi0;
    std::vector<float> gw = gw0, gw_want = gw0;
    std::vector<float> gb = gb0, gb_want = gb0;
    ops::Conv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                        all_grads ? gi.data() : nullptr, gw.data(),
                        all_grads ? gb.data() : nullptr, &ws);
    OracleConv2dBackward(g, input.data(), weight.data(), grad_out.data(),
                         all_grads ? gi_want.data() : nullptr,
                         gw_want.data(), all_grads ? gb_want.data() : nullptr);
    ExpectSameBytes(gi, gi_want, "grad_input");
    ExpectSameBytes(gw, gw_want, "grad_weight");
    ExpectSameBytes(gb, gb_want, "grad_bias");
  }
}

TEST(ConvParityTest, MatchesPerSampleIm2colGemmByteForByte) {
  std::vector<ExactConvCase> cases;
  // Every kernel 1..5 x stride 1..4 x pad 0..2 on small maps, cycling the
  // channel counts and batch sizes.
  const int kOut[] = {1, 6, 9, 16, 17};
  const int kBatch[] = {1, 3, 32, 33};
  int i = 0;
  for (int k = 1; k <= 5; ++k) {
    for (int s = 1; s <= 4; ++s) {
      for (int p = 0; p <= 2; ++p, ++i) {
        cases.push_back({kBatch[i % 4], 1 + (k + p) % 3, kOut[i % 5],
                         7 + (k + s) % 4, 6 + (s + p) % 5, k, s, p});
      }
    }
  }
  const ExactConvCase extra[] = {
      {32, 1, 6, 16, 16, 5, 1, 2},   // LeNet conv1 (the e2e workload)
      {32, 6, 16, 8, 8, 5, 1, 0},    // LeNet conv2: 16-pixel samples
      {3, 11, 9, 12, 12, 5, 1, 2},   // ickk 275: two depth chunks
      {2, 29, 17, 9, 9, 3, 2, 1},    // ickk 261, strided
      {1, 2, 6, 36, 36, 1, 1, 0},    // pointwise, ohw 1296 > kNC
      {3, 3, 16, 36, 36, 3, 1, 1},   // ohw 1296
      {1, 11, 17, 36, 36, 5, 1, 2},  // ohw 1296, ickk 275, pool fan-out
      {33, 4, 6, 5, 5, 5, 1, 0},     // ohw 1
      {32, 3, 9, 3, 3, 3, 4, 0},     // ohw 1, stride past the map
      {2, 3, 260, 5, 5, 3, 1, 1},    // input gradient over two depth chunks
      {3, 5, 300, 4, 4, 1, 1, 0},    // pointwise, two depth chunks
      {1, 6, 16, 8, 8, 5, 1, 0},     // LeNet conv2 at batch 1
      {17, 6, 16, 8, 8, 5, 1, 0},    // conv2: a partial weight-gradient block
      {33, 6, 16, 8, 8, 5, 1, 0},    // conv2: blocks of 16 samples, then 1
      {1, 1, 6, 16, 16, 5, 1, 2},    // LeNet conv1 at batch 1
      {33, 1, 6, 16, 16, 5, 1, 2},   // conv1: one 256-pixel chain a sample
      {5, 2, 3, 5, 5, 5, 1, 0},      // 5x5 valid, output width 1
      {4, 2, 3, 6, 6, 5, 1, 0},      // output width 2
      {3, 2, 3, 7, 7, 5, 1, 0},      // output width 3
      {3, 2, 3, 9, 9, 5, 1, 0},      // output width 5
      {2, 2, 3, 10, 10, 5, 1, 0},    // output width 6
      {2, 2, 3, 11, 11, 5, 1, 0},    // output width 7
      {2, 2, 3, 12, 12, 5, 1, 0},    // output width 8
      {21, 2, 4, 9, 9, 5, 1, 0},     // ohw 25: blocks of 10 samples
      {12, 64, 8, 3, 3, 3, 1, 1},    // ohw 9, 1,600-float samples: blocks of 5
  };
  cases.insert(cases.end(), std::begin(extra), std::end(extra));
  const simd::Level saved = simd::ActiveLevel();
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    uint64_t seed = 3000;
    for (const auto& c : cases) {
      for (const bool specials : {false, true}) {
        CheckConvMatchesOracle(c, specials, seed);
        seed += 10;
        if (::testing::Test::HasFatalFailure()) {
          simd::SetLevel(saved);
          return;
        }
      }
    }
  }
  simd::SetLevel(saved);
}

// ------------------------------------------------------------- vec fused --

TEST(VecParityTest, ReductionsMatchScalarReference) {
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{1023},
                   size_t{4099}}) {
    auto a = RandomVec(n, 40 + n);
    auto b = RandomVec(n, 41 + n);
    EXPECT_NEAR(vec::Dot(a.data(), b.data(), n),
                ref::Dot(a.data(), b.data(), n),
                kRelTol * std::max(1.0, std::fabs(ref::Dot(a.data(), b.data(),
                                                           n))));
    EXPECT_NEAR(vec::SquaredNorm(a.data(), n), ref::SquaredNorm(a.data(), n),
                kRelTol * std::max(1.0, ref::SquaredNorm(a.data(), n)));
    EXPECT_NEAR(vec::Sum(a.data(), n), ref::Sum(a.data(), n),
                kRelTol * std::max(1.0, std::fabs(ref::Sum(a.data(), n))));
  }
}

TEST(VecParityTest, SubSquaredNormMatchesUnfused) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{1024}, size_t{4097}}) {
    auto a = RandomVec(n, 50 + n);
    auto b = RandomVec(n, 51 + n);
    std::vector<float> out_fast(n), out_ref(n);
    const double sq_fast = vec::SubSquaredNorm(a.data(), b.data(),
                                               out_fast.data(), n);
    const double sq_ref = ref::SubSquaredNorm(a.data(), b.data(),
                                              out_ref.data(), n);
    EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
    EXPECT_NEAR(sq_fast, sq_ref, kRelTol * std::max(1.0, sq_ref));
  }
}

TEST(VecParityTest, AddScaledDiffMatchesRef) {
  // The fused FedProx proximal kernel: y += mu * (w - anchor).
  for (size_t n : {size_t{1}, size_t{5}, size_t{255}, size_t{1024},
                   size_t{4099}}) {
    auto w = RandomVec(n, 70 + n);
    auto anchor = RandomVec(n, 71 + n);
    auto y0 = RandomVec(n, 72 + n);
    std::vector<float> y_fast = y0, y_ref = y0;
    vec::AddScaledDiff(0.73f, w.data(), anchor.data(), y_fast.data(), n);
    ref::AddScaledDiff(0.73f, w.data(), anchor.data(), y_ref.data(), n);
    EXPECT_LE(MaxRelError(y_fast, y_ref), kRelTol);
  }
}

TEST(VecParityTest, ReduceScaleMatchesRef) {
  // The collectives' fused tree-reduce + scale kernel, across buffer counts
  // straddling the pairwise-combine edge cases (1, odd, even) and lengths
  // straddling the 256-element accumulator block.
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{9}}) {
    for (size_t n : {size_t{1}, size_t{255}, size_t{256}, size_t{257},
                     size_t{5000}}) {
      std::vector<std::vector<float>> bufs(k);
      std::vector<const float*> ptrs(k);
      for (size_t kk = 0; kk < k; ++kk) {
        bufs[kk] = RandomVec(n, 80 + 10 * k + kk);
        ptrs[kk] = bufs[kk].data();
      }
      const double scale = 1.0 / static_cast<double>(k);
      std::vector<float> out_fast(n), out_ref(n);
      vec::ReduceScale(ptrs.data(), k, n, scale, out_fast.data());
      ref::ReduceScale(ptrs.data(), k, n, scale, out_ref.data());
      EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
      // Aliasing contract: out may be bufs[0] itself.
      std::vector<float> aliased = bufs[0];
      ptrs[0] = aliased.data();
      vec::ReduceScale(ptrs.data(), k, n, scale, aliased.data());
      EXPECT_LE(MaxRelError(aliased, out_ref), kRelTol);
      ptrs[0] = bufs[0].data();
    }
  }
}

// -------------------------------------------------- pooling / depthwise --

ops::Conv2dGeometry PoolGeometry(int batch, int channels, int in_h, int in_w,
                                 int kernel, int stride, int pad) {
  ops::Conv2dGeometry g;
  g.batch = batch;
  g.in_channels = channels;
  g.in_h = in_h;
  g.in_w = in_w;
  g.out_channels = channels;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

void CheckMaxPoolParity(int batch, int channels, int in_h, int in_w,
                        int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "maxpool k=" << kernel << " s=" << stride << " p=" << pad
               << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  std::vector<int> arg_fast(out_numel, -1), arg_ref(out_numel, -1);
  ops::MaxPool2dForward(g, input.data(), out_fast.data(), arg_fast.data());
  ref::MaxPool2dForward(g, input.data(), out_ref.data(), arg_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";
  // Same strict-> comparison in the same tap order: argmax must match
  // exactly, ties included.
  EXPECT_EQ(arg_fast, arg_ref) << "argmax";

  auto grad_out = RandomVec(out_numel, seed + 1);
  auto gi0 = RandomVec(in_numel, seed + 2);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  ops::MaxPool2dBackward(g, grad_out.data(), arg_fast.data(), gi_fast.data());
  ref::MaxPool2dBackward(g, grad_out.data(), arg_ref.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
}

void CheckAvgPoolParity(int batch, int channels, int in_h, int in_w,
                        int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "avgpool k=" << kernel << " s=" << stride << " p=" << pad
               << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  ops::AvgPool2dForward(g, input.data(), out_fast.data());
  ref::AvgPool2dForward(g, input.data(), out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  auto grad_out = RandomVec(out_numel, seed + 1);
  auto gi0 = RandomVec(in_numel, seed + 2);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  ops::AvgPool2dBackward(g, grad_out.data(), gi_fast.data());
  ref::AvgPool2dBackward(g, grad_out.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
}

TEST(PoolParityTest, ShapeStridePadSweep) {
  // Odd extents, stride > 1, windows clipping the right/bottom borders, and
  // padded windows that clip on every side.
  const int cases[][3] = {{2, 2, 0}, {3, 1, 0}, {3, 2, 0}, {3, 2, 1},
                          {2, 1, 0}, {5, 3, 2}, {4, 4, 0}, {3, 3, 1}};
  uint64_t seed = 2000;
  for (const auto& c : cases) {
    CheckMaxPoolParity(2, 3, 9, 7, c[0], c[1], c[2], seed);
    CheckAvgPoolParity(2, 3, 9, 7, c[0], c[1], c[2], seed + 5);
    CheckMaxPoolParity(1, 5, 11, 5, c[0], c[1], c[2], seed + 10);
    CheckAvgPoolParity(1, 5, 11, 5, c[0], c[1], c[2], seed + 15);
    seed += 20;
  }
  // Large enough to cross the plane-parallel threshold.
  CheckMaxPoolParity(4, 16, 32, 32, 2, 2, 0, 2900);
  CheckAvgPoolParity(4, 16, 32, 32, 2, 2, 0, 2910);
}

// Unpadded 2x2 windows at stride 2 run the dispatch layer's avg_pool_2x2
// kernels. They must keep the arithmetic of the general loops byte for
// byte; the oracle below is a copy of those loops from ops.cc, one plane at
// a time.

void OraclePoolTapRange(int w0, int stride, int in_w, int ow, int* x_lo,
                        int* x_hi) {
  const int lo = w0 < 0 ? (-w0 + stride - 1) / stride : 0;
  const int hi =
      in_w > w0 ? std::min(ow, (in_w - w0 + stride - 1) / stride) : 0;
  *x_lo = std::min(lo, hi);
  *x_hi = hi;
}

std::vector<int> OracleClippedTapCounts(int out, int kernel, int stride,
                                        int pad, int in_extent) {
  std::vector<int> counts(static_cast<size_t>(out), 0);
  for (int i = 0; i < out; ++i) {
    const int lo = i * stride - pad;
    counts[static_cast<size_t>(i)] =
        std::min(lo + kernel, in_extent) - std::max(lo, 0);
  }
  return counts;
}

void OracleAvgPool2dForward(const ops::Conv2dGeometry& g, const float* input,
                            float* output) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const auto ch = OracleClippedTapCounts(oh, g.kernel, g.stride, g.pad, g.in_h);
  const auto cw = OracleClippedTapCounts(ow, g.kernel, g.stride, g.pad, g.in_w);
  std::vector<float> inv_cw(static_cast<size_t>(ow), 0.0f);
  for (int x = 0; x < ow; ++x) {
    if (cw[static_cast<size_t>(x)] > 0) {
      inv_cw[static_cast<size_t>(x)] =
          1.0f / static_cast<float>(cw[static_cast<size_t>(x)]);
    }
  }
  for (size_t p = 0; p < planes; ++p) {
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
          OraclePoolTapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
          for (int x = x_lo; x < x_hi; ++x) {
            out_row[x] += src_row[x * g.stride + w0];
          }
        }
      }
      const int chy = ch[static_cast<size_t>(y)];
      const float inv_chy = 1.0f / static_cast<float>(chy);
      for (int x = 0; x < ow; ++x) {
        out_row[x] *= inv_chy * inv_cw[static_cast<size_t>(x)];
      }
    }
  }
}

void OracleAvgPool2dBackward(const ops::Conv2dGeometry& g,
                             const float* grad_output, float* grad_input) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const size_t in_plane = static_cast<size_t>(g.in_h) * g.in_w;
  const size_t out_plane = static_cast<size_t>(oh) * ow;
  const size_t planes = static_cast<size_t>(g.batch) * g.in_channels;
  const auto ch = OracleClippedTapCounts(oh, g.kernel, g.stride, g.pad, g.in_h);
  const auto cw = OracleClippedTapCounts(ow, g.kernel, g.stride, g.pad, g.in_w);
  std::vector<float> share(static_cast<size_t>(ow));
  for (size_t p = 0; p < planes; ++p) {
    const float* go = grad_output + p * out_plane;
    float* gi = grad_input + p * in_plane;
    for (int y = 0; y < oh; ++y) {
      const int chy = ch[static_cast<size_t>(y)];
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
          OraclePoolTapRange(w0, g.stride, g.in_w, ow, &x_lo, &x_hi);
          for (int x = x_lo; x < x_hi; ++x) {
            gi_row[x * g.stride + w0] += share[static_cast<size_t>(x)];
          }
        }
      }
    }
  }
}

// Denormals and signed zeros with random signs: scaling them by 0.5f
// twice rounds twice, which a fused or merged scale would not.
std::vector<float> TinyValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    const uint32_t bits = static_cast<uint32_t>(rng.NextUint64() % 0x800000u) |
                          static_cast<uint32_t>(rng.NextUint64() & 1u) << 31;
    std::memcpy(&x, &bits, sizeof(float));
  }
  return v;
}

TEST(PoolParityTest, Pool2x2MatchesGeneralLoopsByteForByte) {
  // {batch, channels, in_h, in_w}
  const int shapes[][4] = {
      {32, 6, 16, 16},   // LeNet pool1
      {32, 16, 4, 4},    // LeNet pool2
      {256, 6, 16, 16},  // pool1 at eval's batch
      {1, 6, 16, 16},    // batch 1
      {1, 16, 4, 4},     // batch 1, 4 outputs
      {3, 5, 9, 7},      // odd extents: the last row and column in no window
      {2, 3, 5, 5},
      {3, 1, 6, 8},      // 36 outputs: a partial block
      {5, 2, 2, 2},      // one output per plane
      {2, 3, 6, 2},      // one output column
      {2, 2, 32, 32},    // 16 outputs per row
      {2, 2, 7, 40},     // 20 outputs per row, odd height
      {1, 3, 4, 6},      // 3 outputs per row
  };
  const simd::Level saved = simd::ActiveLevel();
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    uint64_t seed = 4000;
    for (const auto& shape : shapes) {
      const auto g = PoolGeometry(shape[0], shape[1], shape[2], shape[3], 2, 2,
                                  0);
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << g.batch << " c=" << g.in_channels
                   << " in=" << g.in_h << "x" << g.in_w);
      const size_t in_numel =
          static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
      const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                               g.out_h() * g.out_w();
      for (int variant = 0; variant < 3; ++variant, seed += 10) {
        // 0: ±0, denormals, ±inf and NaN among values in [-2, 2), onto
        // gradients of the same kind; 1: denormals and signed zeros only;
        // 2: onto -0.0f, which an extra +0.0f addend turns into +0.0f.
        const auto input = variant == 1 ? TinyValues(in_numel, seed)
                                        : ValuesWithSpecials(in_numel, seed,
                                                             true);
        const auto grad_out = variant == 1
                                  ? TinyValues(out_numel, seed + 1)
                                  : ValuesWithSpecials(out_numel, seed + 1,
                                                       true);
        const auto gi0 = variant == 0 ? ValuesWithSpecials(in_numel, seed + 2,
                                                           true)
                         : variant == 1 ? TinyValues(in_numel, seed + 2)
                                        : std::vector<float>(in_numel, -0.0f);
        std::vector<float> got(out_numel, 7.0f);
        std::vector<float> want(out_numel, -7.0f);
        ops::AvgPool2dForward(g, input.data(), got.data());
        OracleAvgPool2dForward(g, input.data(), want.data());
        ExpectSameBytes(got, want, "forward");
        std::vector<float> gi = gi0;
        std::vector<float> gi_want = gi0;
        ops::AvgPool2dBackward(g, grad_out.data(), gi.data());
        OracleAvgPool2dBackward(g, grad_out.data(), gi_want.data());
        ExpectSameBytes(gi, gi_want, "grad_input");
        if (::testing::Test::HasFatalFailure()) {
          simd::SetLevel(saved);
          return;
        }
      }
    }
  }
  simd::SetLevel(saved);
}

TEST(PoolParityTest, RepeatedValuesTieBreakIdentically) {
  // Quantized inputs force duplicate window maxima; argmax must still pick
  // the same (first) tap as the oracle.
  const auto g = PoolGeometry(2, 2, 8, 8, 3, 1, 1);
  const size_t in_numel = static_cast<size_t>(2) * 2 * 8 * 8;
  auto input = RandomVec(in_numel, 3000);
  for (auto& x : input) {
    x = std::round(x);  // values in {-2, -1, 0, 1, 2}
  }
  const size_t out_numel =
      static_cast<size_t>(2) * 2 * g.out_h() * g.out_w();
  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  std::vector<int> arg_fast(out_numel), arg_ref(out_numel);
  ops::MaxPool2dForward(g, input.data(), out_fast.data(), arg_fast.data());
  ref::MaxPool2dForward(g, input.data(), out_ref.data(), arg_ref.data());
  EXPECT_EQ(arg_fast, arg_ref);
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol);
}

void CheckDepthwiseParity(int batch, int channels, int in_h, int in_w,
                          int kernel, int stride, int pad, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "dwconv k=" << kernel << " s=" << stride << " p=" << pad
               << " c=" << channels << " in=" << in_h << "x" << in_w);
  const auto g = PoolGeometry(batch, channels, in_h, in_w, kernel, stride,
                              pad);
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  const size_t in_numel =
      static_cast<size_t>(batch) * channels * in_h * in_w;
  const size_t w_numel = static_cast<size_t>(channels) * kernel * kernel;
  const size_t out_numel =
      static_cast<size_t>(batch) * channels * g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, seed);
  auto weight = RandomVec(w_numel, seed + 1, -0.5f, 0.5f);
  auto bias = RandomVec(static_cast<size_t>(channels), seed + 2);

  std::vector<float> out_fast(out_numel), out_ref(out_numel);
  ops::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                              out_fast.data());
  ref::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                              out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward";

  ops::DepthwiseConv2dForward(g, input.data(), weight.data(), nullptr,
                              out_fast.data());
  ref::DepthwiseConv2dForward(g, input.data(), weight.data(), nullptr,
                              out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "forward, no bias";

  // Backward accumulates on random initial values (the contract is +=).
  auto grad_out = RandomVec(out_numel, seed + 3);
  auto gi0 = RandomVec(in_numel, seed + 4);
  auto gw0 = RandomVec(w_numel, seed + 5);
  auto gb0 = RandomVec(static_cast<size_t>(channels), seed + 6);
  std::vector<float> gi_fast = gi0, gi_ref = gi0;
  std::vector<float> gw_fast = gw0, gw_ref = gw0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  ops::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), gi_fast.data(),
                               gw_fast.data(), gb_fast.data());
  ref::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), gi_ref.data(), gw_ref.data(),
                               gb_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gw_fast, gw_ref), kRelTol) << "grad_weight";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_bias";

  // Null grad_input / grad_bias.
  std::vector<float> gw2_fast = gw0, gw2_ref = gw0;
  ops::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), nullptr, gw2_fast.data(),
                               nullptr);
  ref::DepthwiseConv2dBackward(g, input.data(), weight.data(),
                               grad_out.data(), nullptr, gw2_ref.data(),
                               nullptr);
  EXPECT_LE(MaxRelError(gw2_fast, gw2_ref), kRelTol)
      << "grad_weight, null grad_input/grad_bias";
}

TEST(DepthwiseParityTest, StridePadKernelSweep) {
  const int cases[][3] = {{3, 1, 1},  // ConvNeXt-style same conv
                          {3, 2, 1},  // strided downsampling
                          {5, 1, 2},  // large kernel
                          {7, 1, 3},  // ConvNeXt 7x7
                          {2, 2, 0},  // even kernel
                          {3, 1, 0},  // valid conv
                          {3, 3, 2}}; // stride > kernel - pad
  uint64_t seed = 4000;
  for (const auto& c : cases) {
    CheckDepthwiseParity(2, 3, 9, 7, c[0], c[1], c[2], seed);
    CheckDepthwiseParity(1, 6, 13, 11, c[0], c[1], c[2], seed + 7);
    seed += 20;
  }
  // Large enough to cross the plane-parallel threshold.
  CheckDepthwiseParity(2, 32, 24, 24, 3, 1, 1, 4900);
}

// ------------------------------------------------------------- batchnorm --

void CheckBatchNormParity(int batch, int channels, int h, int w,
                          uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "bn b=" << batch << " c=" << channels
                                    << " plane=" << h << "x" << w);
  const size_t plane = static_cast<size_t>(h) * w;
  const size_t numel = static_cast<size_t>(batch) * channels * plane;
  auto input = RandomVec(numel, seed);
  auto gamma = RandomVec(static_cast<size_t>(channels), seed + 1, 0.5f, 1.5f);
  auto beta = RandomVec(static_cast<size_t>(channels), seed + 2);
  const float epsilon = 1e-5f;

  std::vector<float> xhat_fast(numel), xhat_ref(numel);
  std::vector<float> istd_fast(static_cast<size_t>(channels));
  std::vector<float> istd_ref(static_cast<size_t>(channels));
  std::vector<float> out_fast(numel), out_ref(numel);
  ops::BatchNorm2dForward(batch, channels, plane, input.data(), gamma.data(),
                          beta.data(), epsilon, xhat_fast.data(),
                          istd_fast.data(), out_fast.data());
  ref::BatchNorm2dForward(batch, channels, plane, input.data(), gamma.data(),
                          beta.data(), epsilon, xhat_ref.data(),
                          istd_ref.data(), out_ref.data());
  EXPECT_LE(MaxRelError(out_fast, out_ref), kRelTol) << "output";
  EXPECT_LE(MaxRelError(xhat_fast, xhat_ref), kRelTol) << "xhat";
  EXPECT_LE(MaxRelError(istd_fast, istd_ref), kRelTol) << "inv_std";

  auto grad_out = RandomVec(numel, seed + 3);
  auto gg0 = RandomVec(static_cast<size_t>(channels), seed + 4);
  auto gb0 = RandomVec(static_cast<size_t>(channels), seed + 5);
  std::vector<float> gg_fast = gg0, gg_ref = gg0;
  std::vector<float> gb_fast = gb0, gb_ref = gb0;
  std::vector<float> gi_fast(numel), gi_ref(numel);
  ops::BatchNorm2dBackward(batch, channels, plane, grad_out.data(),
                           xhat_fast.data(), istd_fast.data(), gamma.data(),
                           gg_fast.data(), gb_fast.data(), gi_fast.data());
  ref::BatchNorm2dBackward(batch, channels, plane, grad_out.data(),
                           xhat_ref.data(), istd_ref.data(), gamma.data(),
                           gg_ref.data(), gb_ref.data(), gi_ref.data());
  EXPECT_LE(MaxRelError(gi_fast, gi_ref), kRelTol) << "grad_input";
  EXPECT_LE(MaxRelError(gg_fast, gg_ref), kRelTol) << "grad_gamma";
  EXPECT_LE(MaxRelError(gb_fast, gb_ref), kRelTol) << "grad_beta";
}

TEST(BatchNormParityTest, ShapeSweep) {
  CheckBatchNormParity(1, 1, 1, 1, 5000);      // degenerate
  CheckBatchNormParity(2, 3, 5, 7, 5010);      // odd plane
  CheckBatchNormParity(3, 8, 9, 9, 5020);      // odd, multi-channel
  CheckBatchNormParity(4, 16, 16, 16, 5030);   // crosses parallel threshold
  CheckBatchNormParity(2, 1, 31, 3, 5040);     // single channel, odd plane
}

TEST(VecParityTest, SumAndSquaredNormMatchesUnfused) {
  for (size_t n : {size_t{1}, size_t{5}, size_t{1023}, size_t{4099}}) {
    auto x = RandomVec(n, 70 + n);
    double sum = 1.5;     // accumulates on a nonzero start (+= contract)
    double sum_sq = -2.0;
    vec::SumAndSquaredNorm(x.data(), n, &sum, &sum_sq);
    const double want_sum = 1.5 + ref::Sum(x.data(), n);
    const double want_sq = -2.0 + ref::SquaredNorm(x.data(), n);
    EXPECT_NEAR(sum, want_sum, kRelTol * std::max(1.0, std::fabs(want_sum)));
    EXPECT_NEAR(sum_sq, want_sq, kRelTol * std::max(1.0, std::fabs(want_sq)));
  }
}

// ---------------------------------------------------------------- sketch --

TEST(SketchParityTest, BatchedAccumulateMatchesPerCoordinateUpdate) {
  // Each cell adds its coordinates in ascending order, as the Update loop
  // does, and a sign flip gives the bits of a multiply by +-1: the bytes
  // match at every SIMD level.
  const size_t dim = 10000;  // crosses the 4096-coordinate blocking boundary
  auto family = AmsHashFamily::Create(5, 250, dim, 77);
  auto v = RandomVec(dim, 78);
  AmsSketch reference(family);
  for (size_t j = 0; j < dim; ++j) {
    reference.Update(j, v[j]);
  }
  const simd::Level saved_level = simd::ActiveLevel();
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    AmsSketch batched(family);
    batched.AccumulateVector(v.data());
    ASSERT_EQ(batched.numel(), reference.numel());
    EXPECT_EQ(0, std::memcmp(batched.data(), reference.data(),
                             reference.numel() * sizeof(float)));
  }
  simd::SetLevel(saved_level);
}

TEST(SketchParityTest, BucketListsHoldEveryCoordinateOnceInAscendingOrder) {
  struct Shape {
    int rows;
    int cols;
    size_t dim;
  };
  // A tail block; cols % 16 != 0; lanes longer than 255 entries; one lane
  // holding a whole block, then a block of one coordinate.
  for (const Shape& shape : {Shape{5, 250, 10000}, Shape{3, 17, 513},
                             Shape{2, 4, 9000}, Shape{1, 1, 4097}}) {
    SCOPED_TRACE(::testing::Message() << shape.rows << "x" << shape.cols
                                      << " dim=" << shape.dim);
    auto family = AmsHashFamily::Create(shape.rows, shape.cols, shape.dim, 9);
    const vec::BucketSumArgs args = family->BucketSumArgs(nullptr, nullptr);
    ASSERT_EQ(args.num_blocks,
              (shape.dim + vec::kBucketBlock - 1) / vec::kBucketBlock);
    ASSERT_EQ(args.rows, shape.rows);
    ASSERT_EQ(args.cols, shape.cols);
    std::vector<int> seen(static_cast<size_t>(shape.rows) * shape.dim, 0);
    const vec::BucketRun* run = args.runs;
    size_t offset = 0;
    for (size_t b = 0; b < args.num_blocks; ++b) {
      for (int r = 0; r < shape.rows; ++r) {
        for (int c0 = 0; c0 < shape.cols; c0 += vec::kBucketLanes, ++run) {
          ASSERT_EQ(run->offset, offset) << "runs are packed in order";
          int longest = 0;
          for (int i = 0; i < vec::kBucketLanes; ++i) {
            const int cell = c0 + i;
            const int len = run->len[i];
            longest = std::max(longest, len);
            if (cell >= shape.cols) {
              ASSERT_EQ(len, 0) << "lane past the row's last cell";
            }
            size_t previous = 0;
            for (int k = 0; k < len; ++k) {
              const uint32_t entry =
                  args.entries[offset + static_cast<size_t>(k) *
                                            vec::kBucketLanes + i];
              const size_t j =
                  b * vec::kBucketBlock + (entry & (vec::kBucketSign - 1));
              ASSERT_LT(j, shape.dim);
              if (k > 0) {
                ASSERT_GT(j, previous) << "lane " << i << " not ascending";
              }
              previous = j;
              ASSERT_EQ(family->bucket(r, j), static_cast<uint32_t>(cell))
                  << "r=" << r << " j=" << j;
              ASSERT_EQ((entry & vec::kBucketSign) != 0 ? -1.0f : 1.0f,
                        family->sign(r, j))
                  << "r=" << r << " j=" << j;
              ++seen[static_cast<size_t>(r) * shape.dim + j];
            }
          }
          ASSERT_EQ(run->steps, longest);
          offset += static_cast<size_t>(run->steps) * vec::kBucketLanes;
        }
      }
    }
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], 1) << "(row, coordinate) " << i / shape.dim << ", "
                            << i % shape.dim;
    }
  }
}

}  // namespace
}  // namespace fedra
