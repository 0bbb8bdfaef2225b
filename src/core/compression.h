// Synchronization compression (paper §2, "Compression"):
//
//   "FDA is fully compatible with any technique that reduces the cost of
//    synchronization (e.g. model compression). Our approach simply adjusts
//    the timing of the synchronization decision without altering the data
//    being synchronized."
//
// This module makes that compatibility concrete. A SyncCompressor applies a
// composable WireCodec stage pipeline to each worker's delta (w_k - w_sync)
// before the AllReduce: an optional mask stage (global top-k, or layer-wise
// top-k over ModelGraph block offsets) selects coordinates, an optional
// quantize stage rounds the survivors to b-bit levels, and a wire-size model
// bills the collective at the resulting byte count. Per-worker error
// feedback (Karimireddy et al.-style EF, as used by Qsparse-local-SGD [4])
// carries what the codec dropped into the next synchronization; under fleet
// rotation the residual is a per-client page in ClientStateStore, checked
// out and in alongside drift and optimizer state.
//
// Wire-size model for a stacked codec over an n-float payload:
//
//   kept  = mask ? sum of per-range max(1, fraction*range) : n
//   bytes = (mask ? kept * 4 index bytes : 0)
//         + ceil(kept * bits / 8)             // bits = 32 without quantize
//         + (quantize ? 4 scale bytes : 0)
//
// which for the one-stage presets is q8 = n + 4, q4 = ceil(n/2) + 4 and
// top-k = kept * 8.
//
// Determinism: the mask stage ranks coordinates by the key
// bits(x) & 0x7fffffff (the float's bits without the sign) and keeps the
// first k of the order (key desc, index asc): ties break to the lowest
// index. For finite floats the key orders exactly like |x|, with +0 and -0
// equal. The key order is total, so the selection is defined and
// deterministic for every input: +-Inf rank above every finite value, and
// NaNs above Inf. The select is an exact three-digit radix select
// (11/10/10 bits) with no comparator and no stdlib-defined order, so
// compressed runs are bit-reproducible across stdlibs and thread counts.

#ifndef FEDRA_CORE_COMPRESSION_H_
#define FEDRA_CORE_COMPRESSION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedra {

/// One stage of a WireCodec pipeline.
enum class CodecStageKind {
  /// Magnitude top-k over the whole vector (value + index on the wire).
  kTopK,
  /// Magnitude top-k within each model layer (ModelGraph block): every
  /// layer keeps at least one coordinate, so small heads are never starved
  /// by large body layers (L-FGADMM-style layer-wise selective sync).
  kLayerTopK,
  /// Symmetric uniform quantization of the surviving coordinates.
  kQuantize,
};

struct CodecStageConfig {
  CodecStageKind kind = CodecStageKind::kTopK;
  /// kTopK / kLayerTopK: fraction of coordinates kept, in (0, 1].
  double fraction = 0.05;
  /// kQuantize: bits per surviving coordinate, in [2, 16].
  int bits = 8;

  static CodecStageConfig TopK(double fraction);
  static CodecStageConfig LayerTopK(double fraction);
  static CodecStageConfig Quantize(int bits);

  Status Validate() const;
  std::string ToString() const;
};

struct CompressionConfig {
  /// Accumulate what compression dropped and re-inject it next sync.
  bool error_feedback = true;
  /// Stage pipeline, applied in order (mask before quantize). Empty means
  /// no compression.
  std::vector<CodecStageConfig> stages;

  static CompressionConfig None();
  /// One-stage presets: 8-bit and 4-bit quantization, global top-k.
  static CompressionConfig Quantize8(bool error_feedback = true);
  static CompressionConfig Quantize4(bool error_feedback = true);
  static CompressionConfig TopK(double fraction, bool error_feedback = true);
  /// An arbitrary stage pipeline.
  static CompressionConfig Stages(std::vector<CodecStageConfig> stages,
                                  bool error_feedback = true);
  /// The flagship stack: top-k mask then b-bit quantization.
  static CompressionConfig TopKQuantize(double fraction, int bits,
                                        bool error_feedback = true);

  /// True when any codec stage is configured.
  bool enabled() const { return !stages.empty(); }

  Status Validate() const;
  std::string ToString() const;
};

/// Per-worker lossy compressor with error-feedback memory.
class SyncCompressor {
 public:
  /// `dim`: model dimension; `num_workers`: one residual buffer each.
  SyncCompressor(const CompressionConfig& config, size_t dim,
                 int num_workers);

  const CompressionConfig& config() const { return config_; }

  /// Layer block boundaries for kLayerTopK: `offsets` are the start offsets
  /// of each block (ascending, first == 0) and `total` the model dimension.
  /// Without this, kLayerTopK degrades to whole-vector top-k.
  void SetLayerOffsets(const std::vector<size_t>& offsets, size_t total);

  /// Applies the codec pipeline to worker `worker`'s delta in place:
  /// data becomes the decompressed (lossy) payload the wire would deliver;
  /// the dropped part enters the worker's residual when error feedback is
  /// on. Returns the wire size in bytes.
  size_t CompressInPlace(int worker, float* data, size_t n);

  /// Wire bytes for an n-float payload under this codec (no side effects).
  size_t WireBytes(size_t n) const;

  /// True when the pipeline contains a mask (sparsifying) stage.
  bool has_mask() const { return mask_stage_ >= 0; }

  /// Indices kept by the mask stage in the last CompressInPlace /
  /// MaskPreview call, ascending. Empty when the pipeline has no mask
  /// stage (the payload stays dense).
  const std::vector<uint32_t>& kept_indices() const { return kept_indices_; }

  /// Runs only the mask stage's selection over `data` (no mutation, no
  /// error-feedback side effects) and records the kept indices in
  /// kept_indices(). Returns the kept count, or n when there is no mask
  /// stage. Used to monitor the *compressed* drift: variance states can be
  /// accumulated over just these coordinates.
  size_t MaskPreview(const float* data, size_t n);

  /// Sum of squared residuals currently held for a worker (diagnostics).
  double ResidualEnergy(int worker) const;

  /// True when per-worker error-feedback residuals are materialized.
  bool has_residuals() const { return !residuals_.empty(); }

  /// The worker's residual buffer (dim floats). Fleet rotation pages this
  /// in and out of ClientStateStore alongside drift and optimizer state.
  float* ResidualData(int worker);
  const float* ResidualData(int worker) const;

  /// Zeroes one worker's error-feedback state (e.g. a rejoiner re-anchored
  /// to the current global model, or a fresh client paged into the slot).
  void ResetWorker(int worker);

  /// Drops all error-feedback state.
  void Reset();

  /// Number of times a scratch buffer had to grow after construction.
  /// Stays 0 when every call uses n == dim: the hot path is allocation-free.
  size_t scratch_reallocs() const { return scratch_reallocs_; }

 private:
  /// Applies mask stage selection over data, filling kept_indices_.
  /// Returns the kept count.
  size_t SelectMask(const CodecStageConfig& stage, const float* data,
                    size_t n);
  /// Exact radix top-k over [begin, begin+len) of data: appends the kept
  /// indices to kept_indices_ in ascending order.
  void SelectRangeTopK(const float* data, size_t begin, size_t len,
                       size_t kept);
  /// Kept-coordinate count of the mask stage for an n-float payload.
  size_t KeptCount(size_t n) const;
  void EnsureScratch(size_t n);

  CompressionConfig config_;
  int mask_stage_ = -1;      // index into config_.stages, or -1
  int quantize_stage_ = -1;  // index into config_.stages, or -1
  size_t dim_;
  std::vector<size_t> layer_offsets_;  // block starts; back() == total
  std::vector<std::vector<float>> residuals_;  // per worker
  // Scratch, pre-sized to dim at construction so the per-sync hot path
  // performs no allocations (scratch_reallocs() audits this).
  std::vector<uint32_t> radix_scratch_;  // select candidates, then output
  std::vector<float> original_;
  std::vector<uint32_t> kept_indices_;
  size_t scratch_reallocs_ = 0;
};

}  // namespace fedra

#endif  // FEDRA_CORE_COMPRESSION_H_
