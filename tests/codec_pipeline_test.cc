// WireCodec stage-pipeline tests: per-stage wire-size goldens, round-trip
// composition, deterministic tie-breaking, allocation-free hot path,
// error-feedback residual paging through ClientStateStore (fleet rotation),
// payload-carrying subset billing, and the compressed-hierarchy composition
// the pipeline unlocked.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/client_store.h"
#include "core/compression.h"
#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/collectives.h"
#include "sim/topology_tree.h"
#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"

namespace fedra {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  return v;
}

// ----------------------------------------------------------- stage configs

TEST(CodecStageTest, FactoriesValidateAndPrint) {
  EXPECT_TRUE(CodecStageConfig::TopK(0.05).Validate().ok());
  EXPECT_TRUE(CodecStageConfig::LayerTopK(0.1).Validate().ok());
  EXPECT_TRUE(CodecStageConfig::Quantize(8).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::TopK(0.0).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::TopK(1.5).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::Quantize(1).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::Quantize(17).Validate().ok());
  EXPECT_EQ(CompressionConfig::TopKQuantize(0.05, 8).ToString(), "top5%+q8");
}

TEST(CodecStageTest, PipelineValidationRules) {
  // At most one mask stage.
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::TopK(0.1),
                                          CodecStageConfig::LayerTopK(0.1)})
                   .Validate()
                   .ok());
  // At most one quantize stage.
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::Quantize(8),
                                          CodecStageConfig::Quantize(4)})
                   .Validate()
                   .ok());
  // Mask must precede quantize (quantize-then-mask would re-rank on
  // already-rounded magnitudes).
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::Quantize(8),
                                          CodecStageConfig::TopK(0.1)})
                   .Validate()
                   .ok());
  EXPECT_TRUE(CompressionConfig::Stages({CodecStageConfig::TopK(0.1),
                                         CodecStageConfig::Quantize(8)})
                  .Validate()
                  .ok());
  // A NaN mask fraction fails validation instead of reaching the kept
  // count's cast to size_t.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(CodecStageConfig::TopK(nan).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::LayerTopK(nan).Validate().ok());
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::TopK(nan),
                                          CodecStageConfig::Quantize(8)})
                   .Validate()
                   .ok());
}

TEST(CodecStageTest, NoneStaysDisabledAndStagePipelinesEnable) {
  EXPECT_FALSE(CompressionConfig::None().enabled());
  EXPECT_TRUE(CompressionConfig::Quantize8().enabled());
  EXPECT_TRUE(
      CompressionConfig::Stages({CodecStageConfig::TopK(0.1)}).enabled());
}

// ------------------------------------------------------- wire-size goldens

TEST(CodecWireTest, StageGoldensMatchWireModel) {
  const size_t n = 10000;
  // Stacked top-5% + q8: 500 kept * (4 index + 1 value) + 4 scale bytes.
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.05, 8), n, 1);
  EXPECT_EQ(stack.WireBytes(n), 500u * 4u + 500u + 4u);
  // Top-5% + q4: values pack two per byte.
  SyncCompressor stack4(CompressionConfig::TopKQuantize(0.05, 4), n, 1);
  EXPECT_EQ(stack4.WireBytes(n), 500u * 4u + 250u + 4u);
  // Single-stage pipelines reproduce the historical single-codec sizes.
  SyncCompressor q8(
      CompressionConfig::Stages({CodecStageConfig::Quantize(8)}), n, 1);
  EXPECT_EQ(q8.WireBytes(n), n + 4u);
  SyncCompressor q4(
      CompressionConfig::Stages({CodecStageConfig::Quantize(4)}), n, 1);
  EXPECT_EQ(q4.WireBytes(n), (n + 1u) / 2u + 4u);
  SyncCompressor topk(
      CompressionConfig::Stages({CodecStageConfig::TopK(0.05)}), n, 1);
  EXPECT_EQ(topk.WireBytes(n), 500u * 8u);
}

TEST(CodecWireTest, CompressInPlaceReturnsWireBytes) {
  const size_t n = 512;
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.1, 8), n, 1);
  auto v = RandomVec(n, 11);
  EXPECT_EQ(stack.CompressInPlace(0, v.data(), n), stack.WireBytes(n));
}

// -------------------------------------------------------- stage round-trip

TEST(CodecPipelineTest, TopKThenQuantizeComposes) {
  const size_t n = 1000;
  auto v = RandomVec(n, 12);
  auto original = v;
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.05, 8, false), n, 1);
  stack.CompressInPlace(0, v.data(), n);
  // The mask keeps exactly 50 coordinates; quantization must not densify
  // (zeros stay zero), so the payload is still 50-sparse.
  size_t nonzero = 0;
  float max_kept = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0f) {
      ++nonzero;
      max_kept = std::max(max_kept, std::fabs(original[i]));
    }
  }
  EXPECT_LE(nonzero, 50u);
  EXPECT_GT(nonzero, 0u);
  // Survivors are quantized to the 8-bit grid of the masked vector's max.
  const float step = max_kept / 127.0f;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0f) {
      EXPECT_LE(std::fabs(v[i] - original[i]), 0.5f * step + 1e-6f);
    }
  }
}

TEST(CodecPipelineTest, LayerTopKKeepsEveryLayerAlive) {
  // Two 8-float layers; all the magnitude lives in layer 0. Global top-25%
  // would starve layer 1 entirely — layer-wise keeps 2 from each.
  const size_t n = 16;
  std::vector<float> v(n, 0.0f);
  for (size_t i = 0; i < 8; ++i) {
    v[i] = 10.0f + static_cast<float>(i);
  }
  for (size_t i = 8; i < 16; ++i) {
    v[i] = 0.01f * static_cast<float>(i - 7);
  }
  SyncCompressor codec(
      CompressionConfig::Stages({CodecStageConfig::LayerTopK(0.25)}), n, 1);
  codec.SetLayerOffsets({0, 8}, n);
  auto payload = v;
  codec.CompressInPlace(0, payload.data(), n);
  size_t kept_head = 0;
  size_t kept_tail = 0;
  for (size_t i = 0; i < 8; ++i) {
    kept_head += payload[i] != 0.0f;
  }
  for (size_t i = 8; i < 16; ++i) {
    kept_tail += payload[i] != 0.0f;
  }
  EXPECT_EQ(kept_head, 2u);
  EXPECT_EQ(kept_tail, 2u);
  // And the wire model agrees: 4 kept coordinates at 4+4 bytes each.
  EXPECT_EQ(codec.WireBytes(n), 4u * 8u);
}

// ------------------------------------------------- deterministic tie-break

TEST(CodecDeterminismTest, MagnitudeTiesBreakToLowestIndex) {
  // Every coordinate has |v| == 1, so only the tie rule decides the kept
  // set. The mask breaks ties by ascending index, so the survivors are
  // exactly the lowest indices.
  const size_t n = 8;
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 2 == 0) ? 1.0f : -1.0f;
  }
  SyncCompressor codec(CompressionConfig::TopK(0.25, false), n, 1);
  auto payload = v;
  codec.CompressInPlace(0, payload.data(), n);
  EXPECT_EQ(payload[0], 1.0f);
  EXPECT_EQ(payload[1], -1.0f);
  for (size_t i = 2; i < n; ++i) {
    EXPECT_EQ(payload[i], 0.0f);
  }
  // MaskPreview selects the same set without touching the data.
  EXPECT_EQ(codec.MaskPreview(v.data(), n), 2u);
  ASSERT_EQ(codec.kept_indices().size(), 2u);
  EXPECT_EQ(codec.kept_indices()[0], 0u);
  EXPECT_EQ(codec.kept_indices()[1], 1u);
}

TEST(CodecDeterminismTest, NonFiniteValuesRankAboveEveryFiniteValue) {
  // The mask ranks by bits(x) & 0x7fffffff, a total order: NaN > +-Inf >
  // every finite magnitude. A comparator on fabs() is no strict weak order
  // under NaN; the key order makes the selection defined and repeatable.
  const size_t n = 64;
  auto v = RandomVec(n, 77);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  v[5] = nan;
  v[17] = -inf;
  v[40] = -nan;
  v[41] = inf;
  // kept = 2 (fraction 2/64): exactly the two NaNs.
  SyncCompressor two(CompressionConfig::TopK(2.0 / 64.0, false), n, 1);
  ASSERT_EQ(two.MaskPreview(v.data(), n), 2u);
  EXPECT_EQ(two.kept_indices(), (std::vector<uint32_t>{5, 40}));
  // kept = 4: the NaNs and the infinities, whatever their signs.
  SyncCompressor four(CompressionConfig::TopKQuantize(4.0 / 64.0, 8), n, 1);
  ASSERT_EQ(four.MaskPreview(v.data(), n), 4u);
  EXPECT_EQ(four.kept_indices(), (std::vector<uint32_t>{5, 17, 40, 41}));
  // Encoding is repeatable bit for bit, NaN payloads included.
  auto a = v;
  auto b = v;
  SyncCompressor other(CompressionConfig::TopKQuantize(4.0 / 64.0, 8), n, 1);
  four.CompressInPlace(0, a.data(), n);
  other.CompressInPlace(0, b.data(), n);
  EXPECT_EQ(four.kept_indices(), other.kept_indices());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(four.ResidualData(0), other.ResidualData(0),
                        n * sizeof(float)),
            0);
}

// --------------------------------------------- radix select vs nth_element

// The mask stage's previous selection, kept as the oracle: nth_element over
// an index array with the (|x| desc, index asc) comparator. Undefined under
// NaN (not a strict weak order), so it only sees NaN-free inputs.
void OracleSelectRange(const float* data, size_t begin, size_t len,
                       size_t kept, std::vector<uint8_t>* keep) {
  if (kept >= len) {
    std::fill(keep->begin() + static_cast<long>(begin),
              keep->begin() + static_cast<long>(begin + len), uint8_t{1});
    return;
  }
  std::vector<size_t> order(len);
  for (size_t i = 0; i < len; ++i) {
    order[i] = i;
  }
  std::nth_element(order.begin(), order.begin() + static_cast<long>(kept - 1),
                   order.end(), [data, begin](size_t a, size_t b) {
                     const float fa = std::fabs(data[begin + a]);
                     const float fb = std::fabs(data[begin + b]);
                     if (fa != fb) {
                       return fa > fb;
                     }
                     return a < b;
                   });
  for (size_t i = 0; i < kept; ++i) {
    (*keep)[begin + order[i]] = 1;
  }
}

size_t OracleKeptOfRange(double fraction, size_t len) {
  return std::min(len, std::max<size_t>(1, static_cast<size_t>(
                                               fraction *
                                               static_cast<double>(len))));
}

/// Oracle mask: kept indices ascending. Empty `offsets` means global top-k;
/// otherwise per-layer top-k over the block starts in `offsets`.
std::vector<uint32_t> OracleKept(const float* data, size_t n, double fraction,
                                 const std::vector<size_t>& offsets) {
  std::vector<uint8_t> keep(n, 0);
  if (offsets.empty()) {
    OracleSelectRange(data, 0, n, OracleKeptOfRange(fraction, n), &keep);
  } else {
    for (size_t b = 0; b < offsets.size(); ++b) {
      const size_t end = b + 1 < offsets.size() ? offsets[b + 1] : n;
      const size_t len = end - offsets[b];
      OracleSelectRange(data, offsets[b], len,
                        OracleKeptOfRange(fraction, len), &keep);
    }
  }
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < n; ++i) {
    if (keep[i] != 0) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  return kept;
}

/// Oracle encode: EF add, mask, dense quantize over all n coordinates
/// (`bits` == 0: no quantize stage), residual update. Returns the kept set.
std::vector<uint32_t> OracleCompress(float* data, size_t n, double fraction,
                                     int bits,
                                     const std::vector<size_t>& offsets,
                                     float* residual) {
  for (size_t i = 0; i < n; ++i) {
    data[i] += residual[i];
  }
  const std::vector<float> original(data, data + n);
  const std::vector<uint32_t> kept = OracleKept(data, n, fraction, offsets);
  std::vector<uint8_t> keep(n, 0);
  for (uint32_t i : kept) {
    keep[i] = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    if (keep[i] == 0) {
      data[i] = 0.0f;
    }
  }
  if (bits > 0) {
    const float levels = static_cast<float>((1 << (bits - 1)) - 1);
    float max_abs = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      max_abs = std::max(max_abs, std::fabs(data[i]));
    }
    if (max_abs != 0.0f) {
      const float scale = max_abs / levels;
      for (size_t i = 0; i < n; ++i) {
        data[i] = std::round(data[i] / scale) * scale;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    residual[i] = original[i] - data[i];
  }
  return kept;
}

/// SelectRangeTopK's sample stride (src/core/compression.cc): the last
/// parity family puts its large keys at the sampled positions, so that the
/// sampled floor overshoots whenever the mask keeps more keys than the
/// sample holds, and the full-histogram fallback runs.
constexpr size_t kSelectSampleStride = 13;

/// Input families the parity sweep draws from.
std::vector<float> ParityInput(int family, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  switch (family) {
    case 0:
    case 1:
    case 2:
    case 3: {  // Gaussians at 1e-6, 1e-3, 1 and 1e2 scale.
      const float scales[] = {1e-6f, 1e-3f, 1.0f, 1e2f};
      for (auto& x : v) {
        x = rng.NextGaussian(0.0f, scales[family]);
      }
      break;
    }
    case 4:  // Heavy ties: five magnitudes, both signs.
      for (auto& x : v) {
        const float level = static_cast<float>(rng.NextUint64() % 5);
        x = (rng.NextUint64() % 2 == 0) ? level : -level;
      }
      break;
    case 5:  // Mostly +0 and -0, a few nonzero.
      for (auto& x : v) {
        const uint64_t r = rng.NextUint64() % 16;
        x = r == 0 ? rng.NextGaussian(0.0f, 1.0f) : (r % 2 == 0 ? 0.0f : -0.0f);
      }
      break;
    case 6:  // Denormals and zeros, sprinkled with tiny normals.
      for (auto& x : v) {
        const uint64_t r = rng.NextUint64();
        const uint32_t sign = (r & 1u) ? 0x80000000u : 0u;
        uint32_t bits = sign | static_cast<uint32_t>((r >> 8) & 0x7fffffu);
        if (r % 7 == 0) {
          bits = sign;  // +-0
        } else if (r % 11 == 0) {
          bits |= 0x00800000u;  // smallest normal exponent
        }
        x = std::bit_cast<float>(bits);
      }
      break;
    case 7:  // Quantized grid: Gaussians rounded to multiples of 1/16.
      for (auto& x : v) {
        x = std::round(rng.NextGaussian(0.0f, 1.0f) * 16.0f) / 16.0f;
      }
      break;
    case 8: {  // +-Inf among Gaussians.
      const float inf = std::numeric_limits<float>::infinity();
      for (auto& x : v) {
        const uint64_t r = rng.NextUint64() % 13;
        x = r == 0 ? inf : (r == 1 ? -inf : rng.NextGaussian(0.0f, 1.0f));
      }
      break;
    }
    case 9:  // One magnitude, both signs: every key ties.
      for (auto& x : v) {
        x = rng.NextUint64() % 2 == 0 ? 0.75f : -0.75f;
      }
      break;
    case 10:  // Two magnitudes in one high-digit bucket, both signs.
      for (auto& x : v) {
        const uint64_t r = rng.NextUint64();
        const float level = (r & 2) != 0 ? 1.0f : 1.0625f;
        x = (r & 1) != 0 ? level : -level;
      }
      break;
    default:  // Large keys exactly at the sampled positions, small elsewhere.
      for (size_t i = 0; i < n; ++i) {
        v[i] = i % kSelectSampleStride == 0 ? 4.0f
                                            : rng.NextGaussian(0.0f, 0.1f);
      }
      break;
  }
  return v;
}

constexpr int kParityFamilies = 12;
constexpr int kInfFamily = 8;

/// Runs `body` at every SIMD level this host supports (the mask's candidate
/// compaction is a dispatched kernel), then restores the active level.
template <typename Body>
void AtEveryLevel(Body body) {
  const simd::Level saved = simd::ActiveLevel();
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    body();
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  simd::SetLevel(saved);
}

/// Runs `rounds` EF encodes of `input` through the codec and the oracle and
/// requires bit-identical kept sets, payloads and residuals. Also checks
/// MaskPreview against the oracle on the raw input.
void ExpectCodecMatchesOracle(double fraction, int bits, bool layered,
                              const std::vector<size_t>& offsets,
                              const std::vector<float>& input, int rounds) {
  const size_t n = input.size();
  std::vector<CodecStageConfig> stages = {
      layered ? CodecStageConfig::LayerTopK(fraction)
              : CodecStageConfig::TopK(fraction)};
  if (bits > 0) {
    stages.push_back(CodecStageConfig::Quantize(bits));
  }
  SyncCompressor codec(CompressionConfig::Stages(stages), n, 1);
  std::vector<size_t> oracle_offsets;
  if (layered) {
    codec.SetLayerOffsets(offsets, n);
    oracle_offsets = offsets;
  }
  codec.MaskPreview(input.data(), n);
  ASSERT_EQ(codec.kept_indices(),
            OracleKept(input.data(), n, fraction, oracle_offsets));
  std::vector<float> residual(n, 0.0f);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    auto got = input;
    auto want = input;
    codec.CompressInPlace(0, got.data(), n);
    ASSERT_EQ(codec.kept_indices(),
              OracleCompress(want.data(), n, fraction, bits, oracle_offsets,
                             residual.data()));
    ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(codec.ResidualData(0), residual.data(),
                          n * sizeof(float)),
              0);
  }
}

/// Global top-k over every family, at lengths 15..33, which straddle the
/// compaction's 16-lane steps, and at 4099 and 17,098 (fleet_codec's MLP),
/// which take the sampled floor; the last families make that floor hold
/// every key (all-equal and two-valued inputs) or overshoot (the fallback).
void ExpectGlobalTopKMatchesOracle() {
  const size_t lengths[] = {1,  2,  3,  7,  15,   16,   17,
                            31, 33, 64, 1000, 4099, 17098};
  for (int family = 0; family < kParityFamilies; ++family) {
    for (size_t n : lengths) {
      const auto input =
          ParityInput(family, n, 500 + 31 * static_cast<uint64_t>(family) + n);
      // kept = 1, len - 1, len, and two interior fractions.
      const double fractions[] = {1e-9,
                                  (static_cast<double>(n) - 0.5) /
                                      static_cast<double>(n),
                                  1.0, 0.05, 0.3};
      for (double fraction : fractions) {
        SCOPED_TRACE(::testing::Message() << "family " << family << " n " << n
                                          << " fraction " << fraction);
        // Infinities make the EF residual NaN (Inf - Inf), which the oracle
        // cannot rank, and an Inf scale turns every quantized coordinate
        // NaN: one mask-only round for that family.
        if (family == kInfFamily) {
          ExpectCodecMatchesOracle(fraction, 0, false, {}, input, 1);
        } else {
          ExpectCodecMatchesOracle(fraction, 0, false, {}, input, 3);
          ExpectCodecMatchesOracle(fraction, 8, false, {}, input, 3);
        }
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

/// Layer top-k over 1-element layers, a 2-element layer, and uneven large
/// blocks.
void ExpectLayerTopKMatchesOracle() {
  const size_t n = 3001;
  const std::vector<size_t> offsets = {0, 1, 2, 4, 517, 518, 2049, 3000};
  for (int family = 0; family < kParityFamilies; ++family) {
    const auto input = ParityInput(family, n, 900 + family);
    for (double fraction : {1e-9, 0.05, 0.5, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "family " << family << " fraction "
                                        << fraction);
      if (family == kInfFamily) {
        ExpectCodecMatchesOracle(fraction, 0, true, offsets, input, 1);
      } else {
        ExpectCodecMatchesOracle(fraction, 0, true, offsets, input, 3);
        ExpectCodecMatchesOracle(fraction, 8, true, offsets, input, 3);
      }
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(CodecRadixSelectTest, MatchesNthElementOracleBitForBit) {
  AtEveryLevel(ExpectGlobalTopKMatchesOracle);
}

TEST(CodecRadixSelectTest, LayerTopKMatchesOracleOnUnevenLayers) {
  AtEveryLevel(ExpectLayerTopKMatchesOracle);
}

// -------------------------------------------------- allocation-free path

TEST(CodecScratchTest, HotPathNeverReallocates) {
  const size_t n = 2048;
  SyncCompressor codec(CompressionConfig::TopKQuantize(0.05, 8), n, 4);
  SyncCompressor layered(
      CompressionConfig::Stages({CodecStageConfig::LayerTopK(0.05),
                                 CodecStageConfig::Quantize(8)}),
      n, 4);
  layered.SetLayerOffsets({0, 1, 100, 1024, 2047}, n);
  for (int round = 0; round < 50; ++round) {
    for (int worker = 0; worker < 4; ++worker) {
      auto v = RandomVec(n, 100 + static_cast<uint64_t>(round));
      auto w = v;
      codec.CompressInPlace(worker, v.data(), n);
      codec.MaskPreview(v.data(), n);
      layered.CompressInPlace(worker, w.data(), n);
      layered.MaskPreview(w.data(), n);
    }
  }
  EXPECT_EQ(codec.scratch_reallocs(), 0u);
  EXPECT_EQ(layered.scratch_reallocs(), 0u);
}

// --------------------------------------- EF residuals under fleet rotation

TEST(CodecResidualPagingTest, StoreRoundTripsResiduals) {
  ClientStoreConfig config;
  config.population = 4;
  config.cohort_slots = 2;
  config.dim = 8;
  config.opt_state_slots = 0;
  config.seed = 1;
  ClientStateStore store(config);
  store.SetStateSize(0);
  store.SetResidualSize(8);

  std::vector<float> anchor(8, 0.0f);
  std::vector<float> params(8, 1.0f);
  std::vector<float> residual(8);
  for (size_t i = 0; i < 8; ++i) {
    residual[i] = static_cast<float>(i + 1);
  }
  store.AdoptInitialResident(2);
  store.CheckOut(2, params.data(), anchor.data(), nullptr, Rng(1), Rng(2),
                 /*optimizer_steps=*/3, /*steps_this_residency=*/1, nullptr,
                 residual.data());

  std::vector<float> params_out(8, 0.0f);
  std::vector<float> residual_out(8, -1.0f);
  auto restored = store.CheckIn(2, anchor.data(), params_out.data(), nullptr,
                                nullptr, residual_out.data());
  EXPECT_TRUE(restored.restored);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(residual_out[i], residual[i]);
  }
  // A fresh client pages in with empty compression memory.
  std::fill(residual_out.begin(), residual_out.end(), -1.0f);
  auto fresh = store.CheckIn(3, anchor.data(), params_out.data(), nullptr,
                             nullptr, residual_out.data());
  EXPECT_TRUE(fresh.first_touch);
  for (float x : residual_out) {
    EXPECT_EQ(x, 0.0f);
  }
}

TEST(CodecResidualPagingTest, RotationPreservesErrorFeedbackBitExactly) {
  // Compressor A runs 10 rounds resident; compressor B pages its residual
  // out to a ClientStateStore slot and back in between every round. The
  // error-feedback trajectory must be bit-identical — rotation is memory
  // movement, not an algorithm change.
  const size_t n = 32;
  const auto input = RandomVec(n, 7);
  SyncCompressor resident(CompressionConfig::TopK(0.1, true), n, 1);
  SyncCompressor rotated(CompressionConfig::TopK(0.1, true), n, 1);

  ClientStoreConfig config;
  config.population = 2;
  config.cohort_slots = 1;
  config.dim = n;
  config.opt_state_slots = 0;
  config.seed = 9;
  ClientStateStore store(config);
  store.SetStateSize(0);
  store.SetResidualSize(n);
  std::vector<float> anchor(n, 0.0f);
  std::vector<float> params(n, 0.5f);
  std::vector<float> params_out(n);
  store.AdoptInitialResident(0);

  for (int round = 0; round < 10; ++round) {
    auto a = input;
    resident.CompressInPlace(0, a.data(), n);
    auto b = input;
    rotated.CompressInPlace(0, b.data(), n);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
    // Rotate worker 0's client out and back in through a page.
    store.CheckOut(0, params.data(), anchor.data(), nullptr, Rng(1), Rng(2),
                   1, 1, nullptr, rotated.ResidualData(0));
    rotated.ResetWorker(0);
    store.CheckIn(0, anchor.data(), params_out.data(), nullptr, nullptr,
                  rotated.ResidualData(0));
  }
  ASSERT_EQ(std::memcmp(resident.ResidualData(0), rotated.ResidualData(0),
                        n * sizeof(float)),
            0);
}

TEST(CodecResidualTest, ErrorFeedbackBeatsNoFeedbackOnCumulativeError) {
  // Transmit the same vector R times through an aggressive mask. Without
  // EF the dropped 90% is lost every round (cumulative error grows
  // linearly: R * ||dropped||); with EF the backlog re-enters and the
  // cumulative transmitted sum tracks R * input to within the bounded
  // residual.
  const size_t n = 64;
  const int rounds = 50;
  const auto input = RandomVec(n, 21);
  SyncCompressor with_ef(CompressionConfig::TopK(0.1, true), n, 1);
  SyncCompressor no_ef(CompressionConfig::TopK(0.1, false), n, 1);
  std::vector<double> sum_ef(n, 0.0);
  std::vector<double> sum_no(n, 0.0);
  for (int round = 0; round < rounds; ++round) {
    auto a = input;
    with_ef.CompressInPlace(0, a.data(), n);
    auto b = input;
    no_ef.CompressInPlace(0, b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      sum_ef[i] += a[i];
      sum_no[i] += b[i];
    }
  }
  double err_ef = 0.0;
  double err_no = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double target = static_cast<double>(rounds) * input[i];
    err_ef += (sum_ef[i] - target) * (sum_ef[i] - target);
    err_no += (sum_no[i] - target) * (sum_no[i] - target);
  }
  EXPECT_LT(err_ef, 0.05 * err_no);
}

// ------------------------------------------------- payload subset billing

TEST(PayloadCollectiveTest, SubsetBillsExactlyTheStatedPayloads) {
  // Oracle: a subset AllReduce of m compressed payloads of B bytes each
  // must bill exactly like an uncompressed subset AllReduce whose span is
  // B bytes long — the codec only changes the stated payload size.
  const size_t n = 100;            // decompressed span: 400 bytes
  const size_t wire_floats = 10;   // compressed wire: 40 bytes
  const std::vector<int> participants = {0, 1, 2};

  SimNetwork compressed(4, NetworkModel::Federated(),
                        AllReduceAlgorithm::kFlat);
  std::vector<std::vector<float>> buffers;
  std::vector<float*> pointers;
  for (int i = 0; i < 3; ++i) {
    buffers.push_back(RandomVec(n, 30 + static_cast<uint64_t>(i)));
  }
  std::vector<double> mean(n, 0.0);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      mean[i] += buffer[i] / 3.0;
    }
  }
  for (auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  const std::vector<size_t> payloads(3, wire_floats * sizeof(float));
  compressed.AllReduceAverageSubsetWithPayloads(pointers, participants, n,
                                                payloads,
                                                TrafficClass::kModelSync);

  SimNetwork oracle(4, NetworkModel::Federated(), AllReduceAlgorithm::kFlat);
  std::vector<std::vector<float>> small(3, std::vector<float>(wire_floats));
  std::vector<float*> small_ptrs;
  for (auto& buffer : small) {
    small_ptrs.push_back(buffer.data());
  }
  oracle.AllReduceAverageSubset(small_ptrs, participants, wire_floats,
                                TrafficClass::kModelSync);

  EXPECT_EQ(compressed.stats().bytes_total, oracle.stats().bytes_total);
  EXPECT_DOUBLE_EQ(compressed.stats().comm_seconds,
                   oracle.stats().comm_seconds);
  // The payload-carrying version still installs the exact mean everywhere.
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffer[i], mean[i], 1e-5);
    }
  }
}

// -------------------------------------- compressed hierarchy composition

TEST(CompressedHierarchyTest, SubtreeSyncsBillCompressedBytes) {
  // The combination HierarchicalFdaPolicy x sync_compression used to be a
  // FEDRA_CHECK abort. Now the cluster-local resolutions move coded deltas:
  // same local-only schedule, strictly fewer intra-tier bytes, still
  // exactly zero uplink.
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 512;
  data_config.num_test = 256;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  ASSERT_TRUE(data.ok());
  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };

  auto run = [&](CompressionConfig compression, uint64_t* local_syncs,
                 uint64_t* global_syncs) {
    TrainerConfig config;
    config.num_workers = 4;
    config.batch_size = 16;
    config.local_optimizer = OptimizerConfig::Adam(0.002f);
    config.seed = 23;
    config.max_steps = 30;
    config.eval_every_steps = 15;
    config.eval_subset = 128;
    config.topology = TopologyTree::EdgeCloud(2);
    config.sync_compression = compression;
    DistributedTrainer trainer(factory, data->train, data->test, config);
    HierarchicalFdaConfig policy_config;
    policy_config.monitor.kind = MonitorKind::kLinear;
    policy_config.theta_by_depth = {1e18, 0.0};  // local-only trips
    auto policy = MakeHierarchicalFdaPolicy(policy_config,
                                            trainer.model_dim());
    FEDRA_CHECK(policy.ok()) << policy.status();
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok()) << result.status();
    *local_syncs = (*policy)->local_sync_count();
    *global_syncs = (*policy)->global_sync_count();
    return *result;
  };

  uint64_t plain_local = 0;
  uint64_t plain_global = 0;
  TrainResult plain =
      run(CompressionConfig::None(), &plain_local, &plain_global);
  uint64_t coded_local = 0;
  uint64_t coded_global = 0;
  TrainResult coded = run(CompressionConfig::TopKQuantize(0.05, 8),
                          &coded_local, &coded_global);

  // Identical schedule shape: local tier controls drift, uplink silent.
  EXPECT_GT(coded_local, 0u);
  EXPECT_EQ(coded_global, 0u);
  EXPECT_EQ(plain_global, 0u);
  EXPECT_EQ(coded.comm.BytesAtDepth(0), 0u);
  // The coded subtree resolutions move far fewer bytes per sync.
  ASSERT_GT(plain_local, 0u);
  const double plain_per_sync =
      static_cast<double>(plain.comm.bytes_model_sync) /
      static_cast<double>(plain_local);
  const double coded_per_sync =
      static_cast<double>(coded.comm.bytes_model_sync) /
      static_cast<double>(coded_local);
  EXPECT_LT(coded_per_sync, 0.3 * plain_per_sync);
}

}  // namespace
}  // namespace fedra
