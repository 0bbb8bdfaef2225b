// Hash families for AMS sketches.
//
// The AMS F2 estimator needs, per sketch row, (a) a 4-wise independent
// {-1,+1} sign hash and (b) a pairwise-independent bucket hash. Both are
// polynomial hashes over the Mersenne prime p = 2^61 - 1 (Carter-Wegman),
// which gives exactly the independence the estimator's variance analysis
// requires. Because FDA sketches the same model dimension at every step,
// the family evaluates the hashes once per dimension and stores them twice:
//
//   * a forward table, one word per (row, coordinate) holding the cell and
//     the sign, for single-coordinate and sparse updates;
//   * bucket lists for whole-vector sums (vec::BucketSum): per block of
//     vec::kBucketBlock coordinates and per row, each cell's coordinates in
//     ascending order, 16 adjacent cells side by side, so that a SIMD lane
//     sums one cell in a register while gathering from the L1-resident
//     block instead of scattering one load-add-store per coordinate.
//
// A run's lanes are padded to its longest list, so the lists take
// 16 / min(cols, 16) times 2 bytes per (row, coordinate), plus that
// padding: 2.25 bytes at cols = 250 (the forward table takes 4), but 32
// bytes at cols = 1, where 15 of the 16 lanes are empty. Outside tests,
// every sketch in this repository has cols >= 50.

#ifndef FEDRA_SKETCH_HASHING_H_
#define FEDRA_SKETCH_HASHING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/vec_ops.h"

namespace fedra {

/// x mod (2^61 - 1), for x already reduced once (x < 2^122).
uint64_t MersenneMod(unsigned __int128 x);

/// Degree-3 polynomial hash over GF(2^61 - 1): 4-wise independent.
class FourWiseHash {
 public:
  /// Coefficients are drawn from `seed` via SplitMix64.
  FourWiseHash(uint64_t seed);

  /// Uniform 61-bit value, 4-wise independent across keys.
  uint64_t Hash(uint64_t key) const;

  /// Rademacher variable in {-1, +1}, 4-wise independent.
  float Sign(uint64_t key) const { return (Hash(key) & 1) ? 1.0f : -1.0f; }

 private:
  uint64_t coeff_[4];
};

/// Degree-1 polynomial hash: pairwise independent, used for bucket choice.
class PairwiseHash {
 public:
  PairwiseHash(uint64_t seed);

  /// Bucket in [0, num_buckets).
  uint32_t Bucket(uint64_t key, uint32_t num_buckets) const;

 private:
  uint64_t coeff_[2];
};

/// The shared, precomputed hash family for a fixed (rows, cols, dim).
///
/// All workers in a cluster must share one family (same seed) so that
/// sketches are linear across workers: sk(a*u + b*v) = a*sk(u) + b*sk(v).
class AmsHashFamily {
 public:
  /// Bit 31 of a forward-table word: set when the coordinate's sign is -1.
  /// The bits below it hold the cell, so rows * cols must not exceed
  /// kMaxCells.
  static constexpr uint32_t kSignBit = 0x80000000u;
  static constexpr int64_t kMaxCells = int64_t{1} << 31;

  /// Precomputes the tables for coordinate indices [0, dim).
  AmsHashFamily(int rows, int cols, size_t dim, uint64_t seed);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t dim() const { return dim_; }
  uint64_t seed() const { return seed_; }

  /// Bucket of coordinate j in row r.
  uint32_t bucket(int r, size_t j) const {
    return (signed_cells(r)[j] & ~kSignBit) -
           static_cast<uint32_t>(r) * static_cast<uint32_t>(cols_);
  }
  /// Sign (+1/-1) of coordinate j in row r.
  float sign(int r, size_t j) const {
    return (signed_cells(r)[j] & kSignBit) != 0 ? -1.0f : 1.0f;
  }

  /// The forward table of row r: signed_cells(r)[j] is the absolute cell
  /// r * cols + bucket(r, j), with kSignBit set when sign(r, j) is -1.
  const uint32_t* signed_cells(int r) const {
    return signed_cells_.data() + static_cast<size_t>(r) * dim_;
  }

  /// The vec::BucketSum call that adds sk(x) into `cells` (rows x cols,
  /// row-major): its lists hold every (row, coordinate) once.
  vec::BucketSumArgs BucketSumArgs(const float* x, float* cells) const;

  /// The same call restricted to coordinate block `block` (coordinates
  /// [block * vec::kBucketBlock, ...)), with `x_block` holding that block's
  /// values from its first coordinate on. Running every block in ascending
  /// order adds each cell's entries in BucketSumArgs' order.
  vec::BucketSumArgs BlockBucketSumArgs(size_t block, const float* x_block,
                                        float* cells) const;

  /// Creates a family usable by every worker of a run (value-shared).
  static std::shared_ptr<const AmsHashFamily> Create(int rows, int cols,
                                                     size_t dim,
                                                     uint64_t seed);

 private:
  void BuildBucketLists();

  int rows_;
  int cols_;
  size_t dim_;
  uint64_t seed_;
  std::vector<uint32_t> signed_cells_;       // rows x dim
  std::vector<uint16_t> bucket_entries_;     // every run's entries
  std::vector<vec::BucketRun> bucket_runs_;  // (block, row, group) order
};

}  // namespace fedra

#endif  // FEDRA_SKETCH_HASHING_H_
