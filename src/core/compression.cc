#include "core/compression.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "tensor/simd_dispatch.h"
#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

CodecStageConfig CodecStageConfig::TopK(double fraction) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kTopK;
  stage.fraction = fraction;
  return stage;
}

CodecStageConfig CodecStageConfig::LayerTopK(double fraction) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kLayerTopK;
  stage.fraction = fraction;
  return stage;
}

CodecStageConfig CodecStageConfig::Quantize(int bits) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kQuantize;
  stage.bits = bits;
  return stage;
}

Status CodecStageConfig::Validate() const {
  switch (kind) {
    case CodecStageKind::kTopK:
    case CodecStageKind::kLayerTopK:
      // Written so that NaN fails too (KeptOfRange casts it to size_t).
      if (!(fraction > 0.0 && fraction <= 1.0)) {
        return Status::InvalidArgument(
            "codec mask stage fraction must be in (0, 1]");
      }
      return Status::Ok();
    case CodecStageKind::kQuantize:
      if (bits < 2 || bits > 16) {
        return Status::InvalidArgument(
            "codec quantize stage bits must be in [2, 16]");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown codec stage kind");
}

std::string CodecStageConfig::ToString() const {
  switch (kind) {
    case CodecStageKind::kTopK:
      return StrFormat("top%.3g%%", 100.0 * fraction);
    case CodecStageKind::kLayerTopK:
      return StrFormat("ltop%.3g%%", 100.0 * fraction);
    case CodecStageKind::kQuantize:
      return StrFormat("q%d", bits);
  }
  return "?";
}

CompressionConfig CompressionConfig::None() { return CompressionConfig(); }

CompressionConfig CompressionConfig::Quantize8(bool error_feedback) {
  return Stages({CodecStageConfig::Quantize(8)}, error_feedback);
}

CompressionConfig CompressionConfig::Quantize4(bool error_feedback) {
  return Stages({CodecStageConfig::Quantize(4)}, error_feedback);
}

CompressionConfig CompressionConfig::TopK(double fraction,
                                          bool error_feedback) {
  return Stages({CodecStageConfig::TopK(fraction)}, error_feedback);
}

CompressionConfig CompressionConfig::Stages(
    std::vector<CodecStageConfig> stages, bool error_feedback) {
  CompressionConfig config;
  config.stages = std::move(stages);
  config.error_feedback = error_feedback;
  return config;
}

CompressionConfig CompressionConfig::TopKQuantize(double fraction, int bits,
                                                  bool error_feedback) {
  return Stages({CodecStageConfig::TopK(fraction),
                 CodecStageConfig::Quantize(bits)},
                error_feedback);
}

Status CompressionConfig::Validate() const {
  int first_mask = -1;
  int first_quantize = -1;
  for (size_t i = 0; i < stages.size(); ++i) {
    Status stage_status = stages[i].Validate();
    if (!stage_status.ok()) {
      return stage_status;
    }
    if (stages[i].kind == CodecStageKind::kQuantize) {
      if (first_quantize >= 0) {
        return Status::InvalidArgument(
            "codec pipeline supports at most one quantize stage");
      }
      first_quantize = static_cast<int>(i);
    } else {
      if (first_mask >= 0) {
        return Status::InvalidArgument(
            "codec pipeline supports at most one mask stage");
      }
      first_mask = static_cast<int>(i);
    }
  }
  if (first_mask >= 0 && first_quantize >= 0 && first_quantize < first_mask) {
    return Status::InvalidArgument(
        "codec mask stage must precede the quantize stage");
  }
  return Status::Ok();
}

std::string CompressionConfig::ToString() const {
  if (stages.empty()) {
    return "none";
  }
  std::string out;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      out += "+";
    }
    out += stages[i].ToString();
  }
  return out;
}

namespace {

/// Symmetric uniform quantization to `levels` positive steps, in place, of
/// the `count` coordinates data[index(j)]. After a mask stage only the kept
/// coordinates are passed: the dropped ones are +0, which can neither raise
/// max_abs nor move under round(+0 / scale) * scale, so that equals
/// quantizing the whole vector bit for bit whenever scale is a positive
/// finite float.
template <typename Index>
void QuantizeInPlace(float* data, size_t count, int bits, Index index) {
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  float max_abs = 0.0f;
  for (size_t j = 0; j < count; ++j) {
    max_abs = std::max(max_abs, std::fabs(data[index(j)]));
  }
  if (max_abs == 0.0f) {
    return;
  }
  const float scale = max_abs / levels;
  for (size_t j = 0; j < count; ++j) {
    float& x = data[index(j)];
    x = std::round(x / scale) * scale;
  }
}

size_t KeptOfRange(double fraction, size_t len) {
  return std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(len)));
}

/// The mask stage's ranking key: the float's bits without the sign. For
/// finite floats it orders exactly like |x| (IEEE-754 magnitudes are
/// monotone in their bit patterns) and gives +0 and -0 the same key; +-Inf
/// rank above every finite value and NaNs above Inf. The order is total,
/// so selection is defined for every input.
inline uint32_t MagnitudeKey(float x) {
  return std::bit_cast<uint32_t>(x) & 0x7fffffffu;
}

// The 31-bit key splits into three radix digits, high to low.
constexpr int kMidShift = 10;
constexpr int kHighShift = 20;
constexpr size_t kHighBuckets = size_t{1} << (31 - kHighShift);  // 2048
constexpr size_t kDigitBuckets = size_t{1} << kMidShift;  // 1024
constexpr uint32_t kDigitMask = kDigitBuckets - 1;

// The sampled floor (SelectRangeTopK): every kSampleStride-th key of a
// range of at least kMinSampledLen keys. 13 is a prime that divides no
// power-of-two width, so the sample walks across the columns of a weight
// matrix instead of down one of them (a stride of 16 hit the border pixel
// of every image row of a 256-wide input layer, which tripled the
// candidates).
constexpr size_t kSampleStride = 13;
constexpr size_t kMinSampledLen = 4096;

/// Scans `counts` from the top bucket down to the one holding the
/// `*rank`-th largest key (1-based); on return `*rank` is that key's rank
/// within the bucket. Blocks of 16 buckets that end above it are skipped
/// with one sum each: most of the scan crosses empty buckets.
uint32_t BoundaryBucket(const uint32_t* counts, size_t buckets,
                        size_t* rank) {
  constexpr size_t kBlock = 16;
  size_t b = buckets;
  for (; b >= kBlock; b -= kBlock) {
    uint32_t block = 0;
    for (size_t j = b - kBlock; j < b; ++j) {
      block += counts[j];
    }
    if (block >= *rank) {
      break;
    }
    *rank -= block;
  }
  while (b-- > 0) {
    if (counts[b] >= *rank) {
      return static_cast<uint32_t>(b);
    }
    *rank -= counts[b];
  }
  FEDRA_CHECK(false) << "radix select rank exceeds the range length";
  return 0;
}

/// A floor key at or, with high probability, below the kept-th largest key
/// of x[0 .. len): the low edge of the high-digit bucket that holds the
/// sample's rank-th largest key, where the rank is the sample's share of
/// `kept` plus about two standard deviations of its sampling noise. On
/// fleet_codec's drifts (5% kept of 17,098) 1.4 times `kept` keys pass it
/// on average, and about one mask in 10^4 overshoots. Only the work of
/// SelectRangeTopK depends on it, never the kept set. Histograms the
/// sample into `counts`, which must be zero on entry.
uint32_t SampledFloor(const float* x, size_t len, size_t kept,
                      uint32_t* counts) {
  size_t samples = 0;
  for (size_t i = 0; i < len; i += kSampleStride, ++samples) {
    ++counts[MagnitudeKey(x[i]) >> kHighShift];
  }
  const size_t share = (kept * samples + len - 1) / len;
  const auto noise =
      static_cast<size_t>(std::sqrt(static_cast<double>(share)));
  size_t rank = std::min(samples, share + 2 * noise + 2);
  return BoundaryBucket(counts, kHighBuckets, &rank) << kHighShift;
}

/// Radix digits 2 (key bits 19..10) and 3 (bits 9..0) of the select: among
/// the keys key_at(0 .. n) whose digit 1 is `high`, returns the `*rank`-th
/// largest; on return `*rank` is its rank among the keys equal to it.
template <typename KeyAt>
uint32_t LowerDigits(uint32_t high, size_t n, KeyAt key_at, size_t* rank) {
  std::array<uint32_t, kDigitBuckets> counts{};
  for (size_t j = 0; j < n; ++j) {
    const uint32_t key = key_at(j);
    counts[(key >> kMidShift) & kDigitMask] += (key >> kHighShift) == high;
  }
  const uint32_t mid = BoundaryBucket(counts.data(), kDigitBuckets, rank);
  const uint32_t upper = (high << (kHighShift - kMidShift)) | mid;
  counts.fill(0);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t key = key_at(j);
    counts[key & kDigitMask] += (key >> kMidShift) == upper;
  }
  const uint32_t low = BoundaryBucket(counts.data(), kDigitBuckets, rank);
  return (upper << kMidShift) | low;
}

}  // namespace

SyncCompressor::SyncCompressor(const CompressionConfig& config, size_t dim,
                               int num_workers)
    : config_(config), dim_(dim) {
  FEDRA_CHECK_OK(config.Validate());
  FEDRA_CHECK_GT(num_workers, 0);
  const std::vector<CodecStageConfig>& stages = config_.stages;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].kind == CodecStageKind::kQuantize) {
      quantize_stage_ = static_cast<int>(i);
    } else {
      mask_stage_ = static_cast<int>(i);
    }
  }
  if (!stages.empty() && config_.error_feedback) {
    residuals_.assign(static_cast<size_t>(num_workers),
                      std::vector<float>(dim, 0.0f));
    original_.resize(dim);
  }
  if (mask_stage_ >= 0) {
    radix_scratch_.resize(dim);
    kept_indices_.reserve(dim);
  }
}

void SyncCompressor::SetLayerOffsets(const std::vector<size_t>& offsets,
                                     size_t total) {
  layer_offsets_.clear();
  if (offsets.empty()) {
    return;
  }
  FEDRA_CHECK_EQ(offsets[0], 0u);
  FEDRA_CHECK_EQ(total, dim_);
  for (size_t i = 1; i < offsets.size(); ++i) {
    FEDRA_CHECK_LT(offsets[i - 1], offsets[i]);
  }
  FEDRA_CHECK_LE(offsets.back(), total);
  layer_offsets_ = offsets;
  layer_offsets_.push_back(total);
}

size_t SyncCompressor::KeptCount(size_t n) const {
  if (mask_stage_ < 0) {
    return n;
  }
  const CodecStageConfig& mask =
      config_.stages[static_cast<size_t>(mask_stage_)];
  if (mask.kind == CodecStageKind::kLayerTopK &&
      layer_offsets_.size() >= 2 && n == dim_) {
    size_t kept = 0;
    for (size_t b = 0; b + 1 < layer_offsets_.size(); ++b) {
      const size_t len = layer_offsets_[b + 1] - layer_offsets_[b];
      if (len == 0) {
        continue;
      }
      kept += std::min(len, KeptOfRange(mask.fraction, len));
    }
    return kept;
  }
  return std::min(n, KeptOfRange(mask.fraction, n));
}

size_t SyncCompressor::WireBytes(size_t n) const {
  if (config_.stages.empty()) {
    return n * sizeof(float);
  }
  const size_t kept = KeptCount(n);
  const size_t bits =
      quantize_stage_ >= 0
          ? static_cast<size_t>(
                config_.stages[static_cast<size_t>(quantize_stage_)].bits)
          : 8 * sizeof(float);
  size_t bytes = (kept * bits + 7) / 8;
  if (mask_stage_ >= 0) {
    bytes += kept * sizeof(uint32_t);  // coordinate indices
  }
  if (quantize_stage_ >= 0) {
    bytes += sizeof(float);  // the scale
  }
  return bytes;
}

void SyncCompressor::EnsureScratch(size_t n) {
  bool grew = false;
  if (!residuals_.empty() && original_.size() < n) {
    original_.resize(n);
    grew = true;
  }
  if (mask_stage_ >= 0 && radix_scratch_.size() < n) {
    radix_scratch_.resize(n);
    kept_indices_.reserve(n);
    grew = true;
  }
  if (grew) {
    ++scratch_reallocs_;
  }
}

void SyncCompressor::SelectRangeTopK(const float* data, size_t begin,
                                     size_t len, size_t kept) {
  if (kept >= len) {
    for (size_t i = begin; i < begin + len; ++i) {
      kept_indices_.push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  const float* x = data + begin;
  uint32_t* scratch = radix_scratch_.data();
  const auto compact = simd::Kernels().magnitude_compact;
  // Every kept key is at least the kept-th largest, so a floor at or below
  // that key makes the indices of the keys >= floor (ascending) a candidate
  // set holding every kept coordinate, and the radix digits need only run
  // over it. The sampled floor is low enough exactly when at least `kept`
  // keys pass it.
  std::array<uint32_t, kHighBuckets> counts{};
  size_t candidates = 0;
  if (len >= kMinSampledLen) {
    candidates =
        compact(x, len, SampledFloor(x, len, kept, counts.data()), scratch);
    counts.fill(0);
  }
  const bool sampled = candidates >= kept;
  // Digit 1 (key bits 30..20): histogram the candidates, or every key when
  // the sample was skipped or its floor overshot, and find the bucket
  // holding the kept-th largest; `rank` becomes its rank inside it.
  if (sampled) {
    for (size_t j = 0; j < candidates; ++j) {
      ++counts[MagnitudeKey(x[scratch[j]]) >> kHighShift];
    }
  } else {
    for (size_t i = 0; i < len; ++i) {
      ++counts[MagnitudeKey(x[i]) >> kHighShift];
    }
  }
  size_t rank = kept;
  const uint32_t high = BoundaryBucket(counts.data(), kHighBuckets, &rank);
  if (!sampled) {
    // The floor of bucket `high` is the highest one at or below the kept-th
    // largest key.
    candidates = compact(x, len, high << kHighShift, scratch);
  }
  // Digits 2 and 3 need only the keys in bucket `high`. When they fit, they
  // are gathered once into `counts`, which digit 1 is done with; otherwise
  // (most keys in one bucket) both digits read every candidate.
  const size_t bucket = counts[high];
  uint32_t threshold = 0;
  if (bucket < kHighBuckets) {
    size_t b = 0;
    for (size_t j = 0; j < candidates; ++j) {
      const uint32_t key = MagnitudeKey(x[scratch[j]]);
      counts[b] = key;  // b <= bucket < kHighBuckets
      b += (key >> kHighShift) == high;
    }
    threshold = LowerDigits(
        high, bucket, [&](size_t j) { return counts[j]; }, &rank);
  } else {
    threshold = LowerDigits(
        high, candidates,
        [&](size_t j) { return MagnitudeKey(x[scratch[j]]); }, &rank);
  }
  // The kept-th largest key is `threshold`: keep every larger key and the
  // `rank` lowest-index coordinates equal to it. That is the prefix of the
  // (key desc, index asc) order, emitted in ascending index order.
  const auto offset = static_cast<uint32_t>(begin);
  size_t ties = rank;
  size_t count = 0;
  for (size_t j = 0; j < candidates; ++j) {
    const uint32_t i = scratch[j];
    const uint32_t key = MagnitudeKey(x[i]);
    const bool tie = key == threshold && ties > 0;
    scratch[count] = offset + i;  // count <= j: compacts in place
    count += (key > threshold) | tie;
    ties -= tie;
  }
  FEDRA_DCHECK_EQ(count, kept);
  kept_indices_.insert(kept_indices_.end(), scratch, scratch + count);
}

size_t SyncCompressor::SelectMask(const CodecStageConfig& stage,
                                  const float* data, size_t n) {
  kept_indices_.clear();
  if (stage.kind == CodecStageKind::kLayerTopK &&
      layer_offsets_.size() >= 2 && n == dim_) {
    for (size_t b = 0; b + 1 < layer_offsets_.size(); ++b) {
      const size_t begin = layer_offsets_[b];
      const size_t len = layer_offsets_[b + 1] - begin;
      if (len == 0) {
        continue;
      }
      SelectRangeTopK(data, begin, len,
                      std::min(len, KeptOfRange(stage.fraction, len)));
    }
  } else {
    SelectRangeTopK(data, 0, n, std::min(n, KeptOfRange(stage.fraction, n)));
  }
  return kept_indices_.size();
}

size_t SyncCompressor::MaskPreview(const float* data, size_t n) {
  FEDRA_CHECK_EQ(n, dim_);
  kept_indices_.clear();
  if (mask_stage_ < 0) {
    return n;
  }
  EnsureScratch(n);
  return SelectMask(config_.stages[static_cast<size_t>(mask_stage_)], data,
                    n);
}

size_t SyncCompressor::CompressInPlace(int worker, float* data, size_t n) {
  FEDRA_CHECK_EQ(n, dim_);
  if (config_.stages.empty()) {
    return WireBytes(n);
  }
  EnsureScratch(n);
  float* residual = nullptr;
  if (config_.error_feedback) {
    FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
    residual = residuals_[static_cast<size_t>(worker)].data();
    // EF: compress (input + carried residual).
    for (size_t i = 0; i < n; ++i) {
      data[i] += residual[i];
    }
    // Keep the pre-compression payload to compute the new residual.
    std::copy(data, data + n, original_.begin());
  }
  kept_indices_.clear();
  for (const CodecStageConfig& stage : config_.stages) {
    switch (stage.kind) {
      case CodecStageKind::kTopK:
      case CodecStageKind::kLayerTopK: {
        SelectMask(stage, data, n);
        // Zero the gaps between consecutive kept indices (ascending).
        size_t next = 0;
        for (uint32_t kept : kept_indices_) {
          std::fill(data + next, data + kept, 0.0f);
          next = kept + 1;
        }
        std::fill(data + next, data + n, 0.0f);
        break;
      }
      case CodecStageKind::kQuantize:
        // Validate() orders any mask stage first, so kept_indices_ is set.
        if (mask_stage_ >= 0) {
          const uint32_t* kept = kept_indices_.data();
          QuantizeInPlace(data, kept_indices_.size(), stage.bits,
                          [kept](size_t j) { return kept[j]; });
        } else {
          QuantizeInPlace(data, n, stage.bits, [](size_t j) { return j; });
        }
        break;
    }
  }
  if (residual != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      residual[i] = original_[i] - data[i];
    }
  }
  return WireBytes(n);
}

double SyncCompressor::ResidualEnergy(int worker) const {
  if (residuals_.empty()) {
    return 0.0;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  double energy = 0.0;
  for (float r : residuals_[static_cast<size_t>(worker)]) {
    energy += static_cast<double>(r) * r;
  }
  return energy;
}

float* SyncCompressor::ResidualData(int worker) {
  if (residuals_.empty()) {
    return nullptr;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  return residuals_[static_cast<size_t>(worker)].data();
}

const float* SyncCompressor::ResidualData(int worker) const {
  if (residuals_.empty()) {
    return nullptr;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  return residuals_[static_cast<size_t>(worker)].data();
}

void SyncCompressor::ResetWorker(int worker) {
  if (residuals_.empty()) {
    return;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  std::fill(residuals_[static_cast<size_t>(worker)].begin(),
            residuals_[static_cast<size_t>(worker)].end(), 0.0f);
}

void SyncCompressor::Reset() {
  for (auto& residual : residuals_) {
    std::fill(residual.begin(), residual.end(), 0.0f);
  }
}

}  // namespace fedra
