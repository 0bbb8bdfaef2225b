// AMS sketch: a linear, low-dimensional summary of a vector v in R^d whose
// M2 estimator recovers ||v||_2^2 within (1 +- eps) with confidence 1-delta,
// where rows = O(log 1/delta) and cols = O(1/eps^2). (Alon-Matias-Szegedy;
// the fast bucketed variant of Cormode-Garofalakis, "Sketching Streams
// through the Net", VLDB 2005 — the paper's reference [8].)
//
// SketchFDA (paper SS3.1) ships sk(u_k) as the low-dimensional part of each
// worker's local state; linearity makes AllReduce-averaged sketches equal
// the sketch of the averaged drift, which is what Theorem 3.1 needs.

#ifndef FEDRA_SKETCH_AMS_SKETCH_H_
#define FEDRA_SKETCH_AMS_SKETCH_H_

#include <memory>
#include <vector>

#include "sketch/hashing.h"

namespace fedra {

class AmsSketch {
 public:
  /// An all-zero sketch bound to `family` (shape rows x cols from family).
  explicit AmsSketch(std::shared_ptr<const AmsHashFamily> family);

  /// sk(v) for a full vector of the family's dimension.
  static AmsSketch OfVector(std::shared_ptr<const AmsHashFamily> family,
                            const float* v);

  int rows() const { return family_->rows(); }
  int cols() const { return family_->cols(); }
  const AmsHashFamily& family() const { return *family_; }

  /// Raw cells, row-major rows x cols. Used for AllReduce payloads.
  float* data() { return cells_.data(); }
  const float* data() const { return cells_.data(); }
  size_t numel() const { return cells_.size(); }

  /// Wire size in bytes when transmitted (float32 cells).
  size_t ByteSize() const { return cells_.size() * sizeof(float); }

  /// Resets all cells to zero.
  void Clear();

  /// sk += delta * e_j (single-coordinate update).
  void Update(size_t j, float delta);

  /// sk += sk(v) for a full vector of the family's dimension.
  void AccumulateVector(const float* v);

  /// sk += sk(v restricted to `indices`): only the `count` listed
  /// coordinates of v are folded in, so the cost is O(count * rows) instead
  /// of O(dim * rows). Equivalent to AccumulateVector of the vector that is
  /// v on `indices` and zero elsewhere — the sketch of a masked drift.
  void AccumulateSparse(const float* v, const uint32_t* indices,
                        size_t count);

  /// The two accumulators over caller-owned rows x cols cells (row-major):
  /// SketchFDA folds sk(u) straight into a worker's state row. They touch
  /// nothing but `cells`, so concurrent calls on distinct cells are safe;
  /// the members above wrap them.
  static void AccumulateVector(const AmsHashFamily& family, const float* v,
                               float* cells);
  static void AccumulateSparse(const AmsHashFamily& family, const float* v,
                               const uint32_t* indices, size_t count,
                               float* cells);

  /// sk += alpha * other (linearity; families must match).
  void AddScaled(const AmsSketch& other, float alpha);

  /// sk *= alpha.
  void Scale(float alpha);

  /// M2 estimate of ||v||_2^2: median over rows of the row's cell-energy.
  double EstimateSquaredNorm() const;

  /// Theoretical error bound eps ~ sqrt(8/cols) used for the conservative
  /// deflation in Theorem 3.1's H function (see VarianceMonitor).
  double ErrorBound() const;

 private:
  std::shared_ptr<const AmsHashFamily> family_;
  std::vector<float> cells_;  // rows x cols, row-major
};

}  // namespace fedra

#endif  // FEDRA_SKETCH_AMS_SKETCH_H_
