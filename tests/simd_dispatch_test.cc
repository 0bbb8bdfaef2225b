// Dispatch-matrix parity suite: force-runs every supported SIMD level on
// this machine (simd::SupportedLevels + simd::SetLevel) and checks each
// dispatched kernel against its ref:: oracle to parity tolerance. Also pins
// the exact clauses of the determinism contract (docs/determinism.md): a
// fixed level is bit-deterministic run-to-run, and the element-wise
// adam_step and tanh, the per-cell ordered bucket_sum and the data-moving
// pack_b_trans are bit-identical at every level. The golden suites pin
// kScalar, so this file (and the level check in opt_test.cc) is what runs
// the wide adam_step, tanh, bucket_sum and pack_b_trans variants. Sizes
// straddle every vector width's main-loop/remainder split so tail handling
// is covered at all levels.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/hashing.h"
#include "tensor/ops.h"
#include "tensor/ref_ops.h"
#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

constexpr double kRelTol = 1e-4;

// Remainders against 8/16/32/64-wide strides, plus tiny and empty spans.
constexpr size_t kSizes[] = {0, 1, 3, 7, 8, 15, 16, 31, 33, 64, 127, 257,
                             1000, 4096 + 5};

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -2.0f,
                             float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextUniform(lo, hi);
  }
  return v;
}

void ExpectSpanNear(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(
        1.0, std::max(std::fabs(static_cast<double>(got[i])),
                      std::fabs(static_cast<double>(want[i]))));
    ASSERT_NEAR(got[i], want[i], kRelTol * denom) << "index " << i;
  }
}

// Restores whatever level resolution had picked before the test fiddled
// with it, so suites sharing the binary see an unchanged dispatch state.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = simd::ActiveLevel(); }
  void TearDown() override { simd::SetLevel(saved_level_); }

  simd::Level saved_level_;
};

TEST_F(SimdDispatchTest, SupportedLevelsListThePortableTierFirst) {
  // Exactly one portable level, kScalar, always supported and listed first;
  // every level after it is an intrinsics tier, in ascending order.
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kScalar));
  const auto levels = simd::SupportedLevels();
  ASSERT_GE(levels.size(), 1u);
  EXPECT_EQ(levels[0], simd::Level::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_NE(levels[i], simd::Level::kScalar) << simd::LevelName(levels[i]);
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  for (simd::Level level : levels) {
    EXPECT_TRUE(simd::LevelSupported(level)) << simd::LevelName(level);
  }
}

TEST_F(SimdDispatchTest, LevelNamesRoundTripThroughParse) {
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevelName(simd::LevelName(level), &parsed))
        << simd::LevelName(level);
    EXPECT_EQ(parsed, level);
  }
  simd::Level parsed;
  EXPECT_FALSE(simd::ParseLevelName("sse9", &parsed));
  EXPECT_FALSE(simd::ParseLevelName("", &parsed));
  // Names of deleted levels must not parse: an old FEDRA_SIMD setting then
  // aborts with the supported list instead of running some other level.
  EXPECT_FALSE(simd::ParseLevelName("generic", &parsed));
  EXPECT_FALSE(simd::ParseLevelName("neon", &parsed));
}

TEST_F(SimdDispatchTest, SetLevelPublishesMatchingActiveLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level) << simd::LevelName(level);
    // The table must be the level's own table, observable through behavior:
    // a trivial dot must work at every level.
    const float one[4] = {1.0f, 1.0f, 1.0f, 1.0f};
    EXPECT_DOUBLE_EQ(simd::Kernels().dot(one, one, 4), 4.0);
  }
}

// ------------------------------------------------------- flat-span parity --

TEST_F(SimdDispatchTest, AxpyMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto x = RandomVec(n, 101 + n);
      auto y = RandomVec(n, 202 + n);
      auto want = y;
      ref::Axpy(0.37f, x.data(), want.data(), n);
      simd::Kernels().axpy(0.37f, x.data(), y.data(), n);
      ExpectSpanNear(y, want);
    }
  }
}

TEST_F(SimdDispatchTest, DotMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto a = RandomVec(n, 303 + n);
      const auto b = RandomVec(n, 404 + n);
      const double want = ref::Dot(a.data(), b.data(), n);
      const double got = simd::Kernels().dot(a.data(), b.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::fabs(want)));
    }
  }
}

TEST_F(SimdDispatchTest, SquaredNormMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto x = RandomVec(n, 505 + n);
      const double want = ref::SquaredNorm(x.data(), n);
      const double got = simd::Kernels().squared_norm(x.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, want));
    }
  }
}

TEST_F(SimdDispatchTest, SubSquaredNormMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto a = RandomVec(n, 606 + n);
      const auto b = RandomVec(n, 707 + n);
      std::vector<float> out(n, 0.0f);
      std::vector<float> want_out(n, 0.0f);
      const double want =
          ref::SubSquaredNorm(a.data(), b.data(), want_out.data(), n);
      const double got =
          vec::SubSquaredNorm(a.data(), b.data(), out.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, want));
      ExpectSpanNear(out, want_out);
    }
  }
}

// -------------------------------------------------------- reduction parity --

TEST_F(SimdDispatchTest, ReduceScaleMatchesOracleAtEveryLevel) {
  constexpr size_t kBufs = 5;
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      std::vector<std::vector<float>> storage;
      std::vector<const float*> bufs;
      for (size_t k = 0; k < kBufs; ++k) {
        storage.push_back(RandomVec(n, 1111 + 13 * k + n));
        bufs.push_back(storage.back().data());
      }
      std::vector<float> out(n, 0.0f);
      std::vector<float> want(n, 0.0f);
      ref::ReduceScale(bufs.data(), kBufs, n, 1.0 / kBufs, want.data());
      simd::Kernels().reduce_scale(bufs.data(), kBufs, n, 1.0 / kBufs,
                                   out.data());
      ExpectSpanNear(out, want);
    }
  }
}

// ----------------------------------------------------- GEMM micro-kernel --

// acc[i][j] = sum_k apanel[k*Mr + i] * bpanel[k*Nr + j], one double
// accumulator per cell — the packed-panel contract every variant implements.
void MicroKernelOracle(int kc, const float* apanel, const float* bpanel,
                       float* acc) {
  for (int i = 0; i < simd::kGemmMr; ++i) {
    for (int j = 0; j < simd::kGemmNr; ++j) {
      double sum = 0.0;
      for (int k = 0; k < kc; ++k) {
        sum += static_cast<double>(apanel[k * simd::kGemmMr + i]) *
               static_cast<double>(bpanel[k * simd::kGemmNr + j]);
      }
      acc[i * simd::kGemmNr + j] = static_cast<float>(sum);
    }
  }
}

TEST_F(SimdDispatchTest, GemmMicroKernelMatchesOracleAtEveryLevel) {
  const size_t tile =
      static_cast<size_t>(simd::kGemmMr) * static_cast<size_t>(simd::kGemmNr);
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (int kc : {1, 2, 7, 64, 256}) {
      SCOPED_TRACE(::testing::Message() << "kc=" << kc);
      const auto apanel = RandomVec(
          static_cast<size_t>(kc) * simd::kGemmMr, 3333 + kc);
      const auto bpanel = RandomVec(
          static_cast<size_t>(kc) * simd::kGemmNr, 4444 + kc);
      std::vector<float> acc(tile, 0.0f);
      std::vector<float> want(tile, 0.0f);
      MicroKernelOracle(kc, apanel.data(), bpanel.data(), want.data());
      simd::Kernels().gemm_micro_8x32(kc, apanel.data(), bpanel.data(),
                                      acc.data());
      ExpectSpanNear(acc, want);
    }
  }
}

// ----------------------------------------------------------- pack_b_trans --

// Packs one panel of `b` at the active level into a buffer pre-filled with a
// sentinel, so a panel element the kernel never writes shows up.
std::vector<float> PackPanel(const std::vector<float>& b, size_t depth_offset,
                             size_t ld, int kc, int nr) {
  std::vector<float> panel(static_cast<size_t>(kc) * simd::kGemmNr, -7.0f);
  simd::Kernels().pack_b_trans(b.data() + depth_offset, ld, kc, nr,
                               panel.data());
  return panel;
}

// Every level packs the same bytes as kScalar, which packs the documented
// layout: panel[p][j] = b[j * ld + p], pad lanes j >= nr exactly +0.0f.
void ExpectPackBTransBitIdentical(int nr, int kc, size_t ld,
                                  size_t depth_offset) {
  SCOPED_TRACE(::testing::Message() << "nr=" << nr << " kc=" << kc
                                    << " ld=" << ld
                                    << " offset=" << depth_offset);
  // The buffer ends at the last element the panel reads.
  const size_t len =
      depth_offset + static_cast<size_t>(nr - 1) * ld + static_cast<size_t>(kc);
  const auto b = RandomVec(len, 1200 + 37 * nr + kc);
  simd::SetLevel(simd::Level::kScalar);
  const auto want = PackPanel(b, depth_offset, ld, kc, nr);
  const float zero = 0.0f;
  for (int p = 0; p < kc; ++p) {
    for (int j = 0; j < simd::kGemmNr; ++j) {
      const float got = want[static_cast<size_t>(p) * simd::kGemmNr + j];
      if (j < nr) {
        ASSERT_EQ(got, b[depth_offset + static_cast<size_t>(j) * ld + p])
            << "p=" << p << " j=" << j;
      } else {
        ASSERT_EQ(0, std::memcmp(&got, &zero, sizeof(float)))
            << "pad lane p=" << p << " j=" << j << " holds " << got;
      }
    }
  }
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    const auto got = PackPanel(b, depth_offset, ld, kc, nr);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)));
  }
}

TEST_F(SimdDispatchTest, PackBTransIsBitIdenticalAtEveryLevel) {
  // Every depth 1..300 (multiples of 16 and every remainder) for full and
  // partial panels, every panel width 1..32 for a few depths; each with a
  // tight row stride at depth offset 0 and a wider one at offset 3.
  std::vector<std::pair<int, int>> shapes;
  for (int kc = 1; kc <= 300; ++kc) {
    for (int nr : {1, 17, simd::kGemmNr}) {
      shapes.emplace_back(nr, kc);
    }
  }
  for (int nr = 1; nr <= simd::kGemmNr; ++nr) {
    for (int kc : {5, 16, 33, 256}) {
      shapes.emplace_back(nr, kc);
    }
  }
  for (const auto& [nr, kc] : shapes) {
    const size_t tight = static_cast<size_t>(kc);
    ExpectPackBTransBitIdentical(nr, kc, tight, 0);
    ExpectPackBTransBitIdentical(nr, kc, tight + 19, 3);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST_F(SimdDispatchTest, GemmTransBMatchesExplicitTransposeAtEveryLevel) {
  // op(B) = B^T packed by pack_b_trans must give the same bytes as the same
  // B copied out transposed and packed by the plain row copy: the panels
  // are equal, so the micro-kernel sees equal inputs. n crosses the 32-wide
  // panel edges; k crosses the 256-deep depth panel, whose second half
  // starts at a nonzero depth offset.
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (int m = 1; m <= 9; ++m) {
      for (int n : {1, 7, 31, 32, 33, 64, 70}) {
        for (int k : {1, 15, 16, 17, 100, 256, 257, 300}) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " n=" << n << " k=" << k);
          const auto a = RandomVec(static_cast<size_t>(m) * k, 2100 + k);
          const auto bt = RandomVec(static_cast<size_t>(n) * k, 2200 + n);
          std::vector<float> b(bt.size());
          for (int j = 0; j < n; ++j) {
            for (int p = 0; p < k; ++p) {
              b[static_cast<size_t>(p) * n + j] =
                  bt[static_cast<size_t>(j) * k + p];
            }
          }
          std::vector<float> c_trans(static_cast<size_t>(m) * n);
          std::vector<float> c_plain(c_trans.size());
          ops::Gemm(false, /*trans_b=*/true, m, n, k, 1.0f, a.data(),
                    bt.data(), 0.0f, c_trans.data());
          ops::Gemm(false, /*trans_b=*/false, m, n, k, 1.0f, a.data(),
                    b.data(), 0.0f, c_plain.data());
          ASSERT_EQ(0, std::memcmp(c_trans.data(), c_plain.data(),
                                   c_trans.size() * sizeof(float)));
        }
      }
    }
  }
}

// -------------------------------------------------- determinism contract --

TEST_F(SimdDispatchTest, FixedLevelIsBitDeterministicRunToRun) {
  const size_t n = 4096 + 5;
  const auto a = RandomVec(n, 5555);
  const auto b = RandomVec(n, 6666);
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    const double first = simd::Kernels().dot(a.data(), b.data(), n);
    const double norm_first = simd::Kernels().squared_norm(a.data(), n);
    for (int rep = 0; rep < 3; ++rep) {
      // EXPECT_EQ, not NEAR: same level + same inputs must be the same bits.
      EXPECT_EQ(simd::Kernels().dot(a.data(), b.data(), n), first);
      EXPECT_EQ(simd::Kernels().squared_norm(a.data(), n), norm_first);
    }
  }
}

// ------------------------------------------------------------- adam_step --

// Byte equality, except that two NaNs match whatever their payloads.
::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const bool got_nan = std::isnan(got[i]);
    const bool want_nan = std::isnan(want[i]);
    if (got_nan || want_nan) {
      if (got_nan != want_nan) {
        return ::testing::AssertionFailure()
               << "NaN position differs at " << i << ": " << got[i]
               << " vs " << want[i];
      }
      continue;
    }
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct AdamState {
  std::vector<float> params;
  std::vector<float> m;
  std::vector<float> v;
};

// Twenty consecutive steps (t = 1..20, so the bias-corrected rate changes
// every step) from the same params and zeroed moments, one gradient vector
// per step, at the active level.
AdamState RunAdamSteps(vec::AdamStepArgs args,
                       const std::vector<float>& params,
                       const std::vector<std::vector<float>>& grads) {
  AdamState state{params, std::vector<float>(params.size(), 0.0f),
                  std::vector<float>(params.size(), 0.0f)};
  for (size_t t = 1; t <= grads.size(); ++t) {
    const double bias1 =
        1.0 - std::pow(static_cast<double>(args.beta1), static_cast<double>(t));
    const double bias2 =
        1.0 - std::pow(static_cast<double>(args.beta2), static_cast<double>(t));
    args.corrected_lr =
        args.lr * static_cast<float>(std::sqrt(bias2) / bias1);
    simd::Kernels().adam_step(args, grads[t - 1].data(), state.params.data(),
                              state.m.data(), state.v.data(),
                              params.size());
  }
  return state;
}

TEST_F(SimdDispatchTest, AdamStepIsBitIdenticalAtEveryLevel) {
  constexpr size_t kAdamSizes[] = {0, 1, 15, 16, 17, 33, 4096, 68362};
  constexpr int kSteps = 20;
  struct Config {
    const char* name;
    float weight_decay;
    bool decoupled;
  };
  const Config configs[] = {{"adam", 0.0f, false},
                            {"adam_wd", 0.01f, false},
                            {"adamw", 0.01f, true}};
  // Planted at fixed strides over every length: signed zeros, denormals,
  // and gradients whose square overflows float (1e20 * 1e20).
  const float special_params[] = {0.0f, -0.0f, 1e-40f, -3e-39f};
  const float special_grads[] = {0.0f, -0.0f, 1e-41f, -2e-39f, 1e20f,
                                 -1e20f};
  for (size_t n : kAdamSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(4242 + n);
    std::vector<float> params(n);
    for (float& p : params) {
      p = rng.NextGaussian(0.0f, 1.0f);
    }
    std::vector<std::vector<float>> grads(kSteps, std::vector<float>(n));
    for (auto& step_grads : grads) {
      for (float& g : step_grads) {
        g = rng.NextGaussian(0.0f, 1e-2f);  // standard deviation 1e-2
      }
    }
    for (size_t i = 0; i < n; i += 5) {
      params[i] = special_params[(i / 5) % 4];
    }
    for (size_t i = 2; i < n; i += 7) {
      for (auto& step_grads : grads) {
        step_grads[i] = special_grads[(i / 7) % 6];
      }
    }
    for (const Config& config : configs) {
      SCOPED_TRACE(config.name);
      vec::AdamStepArgs args;
      args.lr = 1e-3f;
      args.beta1 = 0.9f;
      args.beta2 = 0.999f;
      args.epsilon = 1e-7f;
      args.weight_decay = config.weight_decay;
      args.decoupled = config.decoupled;
      simd::SetLevel(simd::Level::kScalar);
      const AdamState want = RunAdamSteps(args, params, grads);
      for (simd::Level level : simd::SupportedLevels()) {
        SCOPED_TRACE(simd::LevelName(level));
        simd::SetLevel(level);
        const AdamState got = RunAdamSteps(args, params, grads);
        EXPECT_TRUE(SameBits(got.params, want.params)) << "params";
        EXPECT_TRUE(SameBits(got.m, want.m)) << "m";
        EXPECT_TRUE(SameBits(got.v, want.v)) << "v";
      }
    }
  }
}

// ------------------------------------------------------------------ tanh --

// Byte equality of n floats, NaN payloads included.
::testing::AssertionResult SameBytes(const float* got, const float* want,
                                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": got 0x" << std::hex
             << std::bit_cast<uint32_t>(got[i]) << ", want 0x"
             << std::bit_cast<uint32_t>(want[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

// The inputs every level is checked on: a strided sweep of all 2^32 bit
// patterns, then each branch threshold of the portable body +-4 ulps at
// both signs, then the special values.
std::vector<float> TanhProbeInputs() {
  std::vector<float> xs;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4093) {
    xs.push_back(std::bit_cast<float>(static_cast<uint32_t>(bits)));
  }
  const uint32_t thresholds[] = {
      0x24000000u,  // tanhf: |x| < 2^-55 returns x * (1 + x)
      0x3f800000u,  // tanhf: |x| >= 1 takes expm1f(2|x|)
      0x41b00000u,  // tanhf: |x| >= 22 returns +-1
      0x32800000u,  // expm1f(-2|x|): |arg| < 2^-25 returns arg
      0x3e317218u,  // expm1f(-2|x|): |arg| > 0.5 ln2 reduces, k = -1
      0x3f051592u,  // expm1f(-2|x|): |arg| >= 1.5 ln2, k = -2
      0x3f5dce9eu,  // expm1f(-2|x|): k = -3 from here
      0x40f98872u,  // expm1f(2|x|): k = 23 from here (22 below)
      0x419ca6b9u,  // expm1f(2|x|): k = 57 from here (56 below)
  };
  for (uint32_t threshold : thresholds) {
    for (uint32_t sign : {0u, 0x80000000u}) {
      for (uint32_t bits = threshold - 4; bits <= threshold + 4; ++bits) {
        xs.push_back(std::bit_cast<float>(bits | sign));
      }
    }
  }
  const uint32_t specials[] = {
      0x00000000u, 0x80000000u,                            // +-0
      0x00000001u, 0x80000001u, 0x007fffffu, 0x807fffffu,  // denormals
      0x7f800000u, 0xff800000u,                            // +-inf
      0x7fc00000u, 0xffc00000u, 0x7fc12345u,               // quiet NaNs
      0x7f800001u, 0xff812345u, 0x7fbfffffu,               // signalling NaNs
  };
  for (uint32_t bits : specials) {
    xs.push_back(std::bit_cast<float>(bits));
  }
  return xs;
}

TEST_F(SimdDispatchTest, TanhIsBitIdenticalAtEveryLevel) {
  const std::vector<float> xs = TanhProbeInputs();
  const size_t total = xs.size();
  simd::SetLevel(simd::Level::kScalar);
  std::vector<float> want(total);
  simd::Kernels().tanh(xs.data(), want.data(), total);
  const float sentinel = -7.0f;
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    std::vector<float> got(total);
    simd::Kernels().tanh(xs.data(), got.data(), total);
    ASSERT_TRUE(SameBytes(got.data(), want.data(), total));
    // Every length 0..40, from the start of the sweep and over the last
    // inputs (thresholds and specials), out of place and in place: every
    // masked tail, and no store past the end.
    for (size_t n = 0; n <= 40; ++n) {
      for (size_t start : {size_t{0}, total - n}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " start=" << start);
        std::vector<float> out(n + 1, sentinel);
        simd::Kernels().tanh(xs.data() + start, out.data(), n);
        ASSERT_TRUE(SameBytes(out.data(), want.data() + start, n));
        ASSERT_TRUE(SameBytes(&out[n], &sentinel, 1)) << "store past the end";
        std::vector<float> in_place(xs.begin() + start, xs.begin() + start + n);
        in_place.push_back(sentinel);
        simd::Kernels().tanh(in_place.data(), in_place.data(), n);
        ASSERT_TRUE(SameBytes(in_place.data(), want.data() + start, n));
        ASSERT_TRUE(SameBytes(&in_place[n], &sentinel, 1))
            << "store past the end";
      }
    }
  }
}

TEST_F(SimdDispatchTest, TanhMatchesPinnedGlibcBits) {
  // (input, output) bit pairs from glibc 2.36's tanhf, one or more per
  // branch of the port, so the portable body is held to libm's bits
  // without calling the host's libm. Several outputs are not the correctly
  // rounded tanh (0x3e317219, 0x3f051591, 0x3f051592, 0x3f200000): a libm
  // that rounds correctly would not reproduce them.
  const std::pair<uint32_t, uint32_t> pinned[] = {
      {0x00000000u, 0x00000000u},  // +0
      {0x80000000u, 0x80000000u},  // -0
      {0x00000001u, 0x00000001u},  // denormals: x * (1 + x)
      {0x807fffffu, 0x807fffffu},
      {0x23ffffffu, 0x23ffffffu},  // |x| < 2^-55
      {0xa3ffffffu, 0xa3ffffffu},
      {0x24000000u, 0x24000000u},  // expm1f returns its argument
      {0xb2000000u, 0xb2000000u},
      {0x327fffffu, 0x327fffffu},
      {0x32800000u, 0x32800000u},  // k = 0
      {0x3c23d70au, 0x3c23d5a4u},
      {0xbdcccccdu, 0xbdcc1ebcu},
      {0x3e317218u, 0x3e2fb0cdu},
      {0x3e317219u, 0x3e2fb0cdu},  // k = -1
      {0x3e800000u, 0x3e7acbf5u},
      {0xbeb33333u, 0xbeac396au},
      {0x3f051591u, 0x3ef486f8u},
      {0x3f051592u, 0x3ef486f8u},  // k = -2
      {0x3f200000u, 0x3f0dfa40u},
      {0xbf400000u, 0xbf22991fu},
      {0x3f5dce9du, 0x3f331638u},
      {0xbf5dce9eu, 0xbf331638u},  // k = -3
      {0x3f600000u, 0x3f343328u},
      {0xbf7fffffu, 0xbf42f7d5u},
      {0x3f800000u, 0x3f42f7d6u},  // k = 3..22
      {0xbfc00000u, 0xbf67b7ccu},
      {0x40000000u, 0x3f76ca83u},
      {0x40400000u, 0x3f7ebbe9u},
      {0x40800000u, 0x3f7fd40cu},
      {0xc0b00000u, 0xbf7ffdd0u},
      {0xc0f00000u, 0xbf7ffff6u},
      {0x40f98871u, 0x3f7ffffau},
      {0xc0f98872u, 0xbf7ffffau},  // k = 23..56
      {0x41000000u, 0x3f7ffffcu},
      {0x41800000u, 0x3f800000u},
      {0x419ca6b8u, 0x3f800000u},
      {0xc19ca6b9u, 0xbf800000u},  // k = 57..63
      {0x41a00000u, 0x3f800000u},
      {0x41afffffu, 0x3f800000u},
      {0x41b00000u, 0x3f800000u},  // |x| >= 22
      {0xc2c80000u, 0xbf800000u},
      {0x7f7fffffu, 0x3f800000u},
      {0x7f800000u, 0x3f800000u},  // +-inf
      {0xff800000u, 0xbf800000u},
      {0x7fc00000u, 0x7fc00000u},  // NaNs keep sign and payload, quieted
      {0xffc00001u, 0xffc00001u},
      {0x7f800001u, 0x7fc00001u},
      {0xff812345u, 0xffc12345u},
  };
  std::vector<float> xs;
  std::vector<float> want;
  for (const auto& [in, out] : pinned) {
    xs.push_back(std::bit_cast<float>(in));
    want.push_back(std::bit_cast<float>(out));
  }
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    std::vector<float> got(xs.size());
    simd::Kernels().tanh(xs.data(), got.data(), xs.size());
    EXPECT_TRUE(SameBytes(got.data(), want.data(), xs.size()));
  }
}

// ------------------------------------------------------------ bucket_sum --

// A drift-like input: Gaussian values at a trained model's drift scale, or,
// when `wide`, magnitudes log-uniform over 1e-30..1e30 with +-inf and NaNs
// planted. Both carry +-0 and denormals at a fixed stride.
std::vector<float> BucketSumInput(size_t dim, bool wide, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(dim);
  for (float& v : x) {
    v = wide ? rng.NextSign() * std::pow(10.0f, rng.NextUniform(-30.0f, 30.0f))
             : rng.NextGaussian(0.0f, 1e-3f);
  }
  const float tiny[] = {0.0f, -0.0f, 1e-45f, -1e-40f, 3e-39f};
  for (size_t j = 3; j < dim; j += 11) {
    x[j] = tiny[(j / 11) % 5];
  }
  if (wide) {
    const float specials[] = {INFINITY, -INFINITY, NAN};
    for (size_t j = 5; j < dim; j += 1009) {
      x[j] = specials[(j / 1009) % 3];
    }
  }
  return x;
}

TEST_F(SimdDispatchTest, BucketSumIsBitIdenticalAtEveryLevel) {
  struct Shape {
    int rows;
    int cols;
    size_t dim;
  };
  // mlp_wide's sketch; a tail block; cols % 16 != 0; lanes longer than 255
  // entries; one lane holding a whole block, then a block of one
  // coordinate.
  const Shape shapes[] = {{5, 250, 265482},
                          {5, 250, 10000},
                          {3, 17, 513},
                          {2, 4, 9000},
                          {1, 1, 4097}};
  // The cells sit between two margins of sentinels, so a read or write
  // outside [0, rows * cols) shows up.
  constexpr size_t kMargin = 2 * vec::kBucketLanes;
  for (const Shape& shape : shapes) {
    const auto family =
        AmsHashFamily::Create(shape.rows, shape.cols, shape.dim, 31);
    const size_t numel = static_cast<size_t>(shape.rows) * shape.cols;
    for (bool wide : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << shape.rows << "x" << shape.cols << " dim=" << shape.dim
                   << (wide ? " wide" : " drift"));
      const auto x = BucketSumInput(shape.dim, wide, 4000 + shape.dim);
      // bucket_sum adds into the cells, so they start from nonzero values.
      auto start = RandomVec(numel + 2 * kMargin, 4100 + numel);
      std::fill(start.begin(), start.begin() + kMargin, -7.0f);
      std::fill(start.end() - kMargin, start.end(), -7.0f);
      // The definition: each (row, coordinate) in ascending coordinate
      // order, one multiply by +-1 and one add apiece.
      auto reference = start;
      for (size_t j = 0; j < shape.dim; ++j) {
        for (int r = 0; r < shape.rows; ++r) {
          reference[kMargin + static_cast<size_t>(r) * shape.cols +
                    family->bucket(r, j)] += family->sign(r, j) * x[j];
        }
      }
      const auto run = [&] {
        std::vector<float> cells = start;
        simd::Kernels().bucket_sum(
            family->BucketSumArgs(x.data(), cells.data() + kMargin));
        return cells;
      };
      simd::SetLevel(simd::Level::kScalar);
      const std::vector<float> want = run();
      ASSERT_TRUE(SameBits(want, reference));
      for (simd::Level level : simd::SupportedLevels()) {
        SCOPED_TRACE(simd::LevelName(level));
        simd::SetLevel(level);
        const std::vector<float> got = run();
        ASSERT_TRUE(SameBytes(got.data(), start.data(), kMargin))
            << "write before the first cell";
        ASSERT_TRUE(SameBytes(got.data() + kMargin + numel,
                              start.data() + kMargin + numel, kMargin))
            << "write past the last cell";
        ASSERT_TRUE(SameBits(got, want));
      }
    }
  }
}

TEST_F(SimdDispatchTest, MagnitudeCompactIsExactAtEveryLevel) {
  // Every length 0..80 (whole 16-lane steps and every tail) and the
  // fleet_codec drift length, over keys that include +-0, denormals, +-Inf
  // and NaNs, at floors from 0 (everything passes) to past every key. The
  // output buffer carries sentinels past n, which no level may touch.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 80; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(17098);
  Rng rng(4200);
  for (const size_t n : lengths) {
    std::vector<float> x(n);
    for (float& v : x) {
      const uint64_t r = rng.NextUint64();
      switch (r % 8) {
        case 0:
          v = (r & 8) != 0 ? -0.0f : 0.0f;
          break;
        case 1:
          v = std::bit_cast<float>(static_cast<uint32_t>(r >> 32) &
                                   0x807fffffu);  // +-denormal
          break;
        case 2:
          v = std::bit_cast<float>(0x7f800000u |
                                   static_cast<uint32_t>(r >> 40));  // Inf/NaN
          break;
        default:
          v = rng.NextGaussian(0.0f, 1.0f);
      }
    }
    const uint32_t floors[] = {0u,          1u,          0x00800000u,
                               0x3f000000u, 0x3f800000u, 0x3fd00000u,
                               0x7f800000u, 0x7f800001u, 0xffffffffu};
    for (const uint32_t floor_key : floors) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " floor=0x" << std::hex
                                        << floor_key);
      std::vector<uint32_t> want;
      for (size_t i = 0; i < n; ++i) {
        if ((std::bit_cast<uint32_t>(x[i]) & 0x7fffffffu) >= floor_key) {
          want.push_back(static_cast<uint32_t>(i));
        }
      }
      for (simd::Level level : simd::SupportedLevels()) {
        SCOPED_TRACE(simd::LevelName(level));
        simd::SetLevel(level);
        constexpr uint32_t kSentinel = 0xdeadbeefu;
        std::vector<uint32_t> out(n + 16, kSentinel);
        const size_t count =
            simd::Kernels().magnitude_compact(x.data(), n, floor_key,
                                              out.data());
        ASSERT_EQ(count, want.size());
        ASSERT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
        for (size_t i = n; i < out.size(); ++i) {
          ASSERT_EQ(out[i], kSentinel) << "write past n at " << i;
        }
      }
    }
  }
}

// All 2^32 inputs at every level against kScalar, in fixed 2^16-element
// chunks over the global pool. About 15 s on 4 cores, so it is
// disabled in the default run; CI runs it once with
// --gtest_also_run_disabled_tests --gtest_filter='*TanhExhaustive*'.
TEST_F(SimdDispatchTest, DISABLED_TanhExhaustiveAtEveryLevel) {
  constexpr size_t kChunk = size_t{1} << 16;
  constexpr size_t kChunks = (uint64_t{1} << 32) / kChunk;
  simd::SetLevel(simd::Level::kScalar);
  const auto want_tanh = simd::Kernels().tanh;
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    const auto got_tanh = simd::Kernels().tanh;
    if (got_tanh == want_tanh) {
      continue;  // the portable body itself
    }
    std::atomic<uint64_t> mismatches{0};
    std::mutex first_mutex;
    uint64_t first_bad = UINT64_MAX;
    GlobalThreadPool().ParallelForRange(
        kChunks, 16, [&](size_t begin, size_t end) {
          std::vector<float> xs(kChunk);
          std::vector<float> want(kChunk);
          std::vector<float> got(kChunk);
          for (size_t chunk = begin; chunk < end; ++chunk) {
            const uint64_t base = chunk * kChunk;
            for (size_t j = 0; j < kChunk; ++j) {
              xs[j] = std::bit_cast<float>(static_cast<uint32_t>(base + j));
            }
            want_tanh(xs.data(), want.data(), kChunk);
            got_tanh(xs.data(), got.data(), kChunk);
            for (size_t j = 0; j < kChunk; ++j) {
              if (std::memcmp(&got[j], &want[j], sizeof(float)) != 0) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(first_mutex);
                first_bad = std::min(first_bad, base + j);
              }
            }
          }
        });
    EXPECT_EQ(mismatches.load(), 0u)
        << "first mismatching input 0x" << std::hex << first_bad;
  }
}

}  // namespace
}  // namespace fedra
