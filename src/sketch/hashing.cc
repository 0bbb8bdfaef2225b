#include "sketch/hashing.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace fedra {

namespace {
constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;
}  // namespace

uint64_t MersenneMod(unsigned __int128 x) {
  // Fold twice: any 122-bit value reduces below 2*p after one fold.
  uint64_t lo = static_cast<uint64_t>(x & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t result = lo + hi;
  if (result >= kMersenne61) {
    result -= kMersenne61;
  }
  return result;
}

FourWiseHash::FourWiseHash(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& c : coeff_) {
    c = SplitMix64(sm) % kMersenne61;
  }
  // The leading coefficient must be nonzero for full independence.
  if (coeff_[3] == 0) {
    coeff_[3] = 1;
  }
}

uint64_t FourWiseHash::Hash(uint64_t key) const {
  const uint64_t x = key % kMersenne61;
  // Horner evaluation of a3*x^3 + a2*x^2 + a1*x + a0 mod p.
  uint64_t acc = coeff_[3];
  for (int i = 2; i >= 0; --i) {
    unsigned __int128 prod =
        static_cast<unsigned __int128>(acc) * x + coeff_[i];
    acc = MersenneMod(prod);
  }
  return acc;
}

PairwiseHash::PairwiseHash(uint64_t seed) {
  uint64_t sm = seed ^ 0xabcdef1234567890ULL;
  coeff_[0] = SplitMix64(sm) % kMersenne61;
  coeff_[1] = SplitMix64(sm) % kMersenne61;
  if (coeff_[1] == 0) {
    coeff_[1] = 1;
  }
}

uint32_t PairwiseHash::Bucket(uint64_t key, uint32_t num_buckets) const {
  FEDRA_CHECK_GT(num_buckets, 0u);
  const uint64_t x = key % kMersenne61;
  unsigned __int128 prod =
      static_cast<unsigned __int128>(coeff_[1]) * x + coeff_[0];
  return static_cast<uint32_t>(MersenneMod(prod) % num_buckets);
}

AmsHashFamily::AmsHashFamily(int rows, int cols, size_t dim, uint64_t seed)
    : rows_(rows), cols_(cols), dim_(dim), seed_(seed) {
  FEDRA_CHECK_GT(rows, 0);
  FEDRA_CHECK_GT(cols, 0);
  FEDRA_CHECK_GT(dim, 0u);
  FEDRA_CHECK_LE(static_cast<int64_t>(rows) * cols, kMaxCells);
  signed_cells_.resize(static_cast<size_t>(rows) * dim);
  uint64_t sm = seed;
  for (int r = 0; r < rows; ++r) {
    const FourWiseHash sign_hash(SplitMix64(sm));
    const PairwiseHash bucket_hash(SplitMix64(sm));
    uint32_t* row = signed_cells_.data() + static_cast<size_t>(r) * dim;
    const uint32_t cell_base = static_cast<uint32_t>(r) *
                               static_cast<uint32_t>(cols);
    for (size_t j = 0; j < dim; ++j) {
      const uint32_t bucket =
          bucket_hash.Bucket(j, static_cast<uint32_t>(cols));
      row[j] = (cell_base + bucket) |
               (sign_hash.Sign(j) < 0.0f ? kSignBit : 0u);
    }
  }
  BuildBucketLists();
}

void AmsHashFamily::BuildBucketLists() {
  constexpr int kLanes = vec::kBucketLanes;
  const size_t num_blocks = (dim_ + vec::kBucketBlock - 1) / vec::kBucketBlock;
  const size_t groups = (static_cast<size_t>(cols_) + kLanes - 1) / kLanes;
  bucket_runs_.resize(num_blocks * static_cast<size_t>(rows_) * groups);
  // One counting pass per (block, row) sizes every run, then a second pass
  // places each coordinate, in ascending order, into its cell's lane.
  std::vector<uint32_t> count(groups * kLanes);
  size_t total = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t j0 = b * vec::kBucketBlock;
    const size_t j1 = std::min(dim_, j0 + vec::kBucketBlock);
    for (int r = 0; r < rows_; ++r) {
      const uint32_t* row = signed_cells(r);
      const uint32_t cell_base = static_cast<uint32_t>(r) *
                                 static_cast<uint32_t>(cols_);
      std::fill(count.begin(), count.end(), 0u);
      for (size_t j = j0; j < j1; ++j) {
        ++count[(row[j] & ~kSignBit) - cell_base];
      }
      vec::BucketRun* run =
          &bucket_runs_[(b * static_cast<size_t>(rows_) + r) * groups];
      for (size_t g = 0; g < groups; ++g) {
        FEDRA_CHECK_LE(total, size_t{UINT32_MAX});
        run[g].offset = static_cast<uint32_t>(total);
        uint32_t steps = 0;
        for (int i = 0; i < kLanes; ++i) {
          const uint32_t len = count[g * kLanes + i];
          run[g].len[i] = static_cast<uint16_t>(len);
          steps = std::max(steps, len);
        }
        run[g].steps = static_cast<uint16_t>(steps);
        total += static_cast<size_t>(steps) * kLanes;
      }
    }
  }
  bucket_entries_.assign(total, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t j0 = b * vec::kBucketBlock;
    const size_t j1 = std::min(dim_, j0 + vec::kBucketBlock);
    for (int r = 0; r < rows_; ++r) {
      const uint32_t* row = signed_cells(r);
      const uint32_t cell_base = static_cast<uint32_t>(r) *
                                 static_cast<uint32_t>(cols_);
      const vec::BucketRun* run =
          &bucket_runs_[(b * static_cast<size_t>(rows_) + r) * groups];
      std::fill(count.begin(), count.end(), 0u);
      for (size_t j = j0; j < j1; ++j) {
        const uint32_t cell = (row[j] & ~kSignBit) - cell_base;
        const size_t lane = cell % kLanes;
        const size_t at = run[cell / kLanes].offset +
                          static_cast<size_t>(count[cell]++) * kLanes + lane;
        bucket_entries_[at] = static_cast<uint16_t>(
            (j - j0) | ((row[j] & kSignBit) != 0 ? vec::kBucketSign : 0u));
      }
    }
  }
}

vec::BucketSumArgs AmsHashFamily::BucketSumArgs(const float* x,
                                                float* cells) const {
  vec::BucketSumArgs args;
  args.x = x;
  args.cells = cells;
  args.entries = bucket_entries_.data();
  args.runs = bucket_runs_.data();
  args.num_blocks = (dim_ + vec::kBucketBlock - 1) / vec::kBucketBlock;
  args.rows = rows_;
  args.cols = cols_;
  return args;
}

vec::BucketSumArgs AmsHashFamily::BlockBucketSumArgs(size_t block,
                                                     const float* x_block,
                                                     float* cells) const {
  vec::BucketSumArgs args = BucketSumArgs(x_block, cells);
  FEDRA_DCHECK_LT(block, args.num_blocks);
  const size_t groups =
      (static_cast<size_t>(cols_) + vec::kBucketLanes - 1) / vec::kBucketLanes;
  args.runs += block * static_cast<size_t>(rows_) * groups;
  args.num_blocks = 1;
  return args;
}

std::shared_ptr<const AmsHashFamily> AmsHashFamily::Create(int rows, int cols,
                                                           size_t dim,
                                                           uint64_t seed) {
  return std::make_shared<const AmsHashFamily>(rows, cols, dim, seed);
}

}  // namespace fedra
