#include "tensor/vec_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd_dispatch.h"

namespace fedra {
namespace vec {

// The element-wise kernels are written as plain contiguous loops: at -O3 the
// compiler turns each into packed SIMD. The hot kernels — Axpy, the
// double-accumulated reductions, the Adam update, tanh, the sketch's bucket
// sums, and the reduce family the collectives sit on — forward through the
// runtime SIMD dispatch table instead; their canonical portable bodies live
// in tensor/simd_dispatch.cc alongside the per-ISA variants (see that file
// for the determinism contract).

void Copy(const float* src, float* dst, size_t n) {
  std::memcpy(dst, src, n * sizeof(float));
}

void Fill(float* dst, size_t n, float value) { std::fill(dst, dst + n, value); }

void Scale(float* x, size_t n, float alpha) {
  for (size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  simd::Kernels().axpy(alpha, x, y, n);
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void Mul(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

double Dot(const float* a, const float* b, size_t n) {
  return simd::Kernels().dot(a, b, n);
}

double SquaredNorm(const float* x, size_t n) {
  return simd::Kernels().squared_norm(x, n);
}

double Sum(const float* x, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(x[i]);
    acc1 += static_cast<double>(x[i + 1]);
    acc2 += static_cast<double>(x[i + 2]);
    acc3 += static_cast<double>(x[i + 3]);
  }
  for (; i < n; ++i) {
    acc0 += static_cast<double>(x[i]);
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

double Norm(const float* x, size_t n) { return std::sqrt(SquaredNorm(x, n)); }

double MaxAbsDiff(const float* a, const float* b, size_t n) {
  double max_diff = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double diff = std::fabs(static_cast<double>(a[i]) - b[i]);
    if (diff > max_diff) {
      max_diff = diff;
    }
  }
  return max_diff;
}

double SubSquaredNorm(const float* a, const float* b, float* out, size_t n) {
  DriftFoldLanes lanes;
  DriftFoldArgs args;
  args.a = a;
  args.b = b;
  args.out = out;
  args.n = n;
  args.last = true;
  args.lanes = &lanes;
  DriftFold(args);
  return lanes.sq_sum;
}

void DriftFold(const DriftFoldArgs& args) { simd::Kernels().drift_fold(args); }

void SumAndSquaredNorm(const float* x, size_t n, double* sum,
                       double* sum_sq) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
    s0 += x0;
    s1 += x1;
    s2 += x2;
    s3 += x3;
    q0 += x0 * x0;
    q1 += x1 * x1;
    q2 += x2 * x2;
    q3 += x3 * x3;
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    s0 += xi;
    q0 += xi * xi;
  }
  *sum += (s0 + s1) + (s2 + s3);
  *sum_sq += (q0 + q1) + (q2 + q3);
}

void NormalizeAffine(const float* x, float mean, float inv_std, float gamma,
                     float beta, float* xhat, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float xh = (x[i] - mean) * inv_std;
    xhat[i] = xh;
    y[i] = gamma * xh + beta;
  }
}

void NormBackwardDx(const float* dy, const float* xhat, float scale,
                    float mean_dy, float mean_dy_xhat, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dx[i] = scale * (dy[i] - mean_dy - xhat[i] * mean_dy_xhat);
  }
}

void AddScaledDiff(float alpha, const float* a, const float* b, float* y,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * (a[i] - b[i]);
  }
}

void AdamStep(const AdamStepArgs& args, const float* grads, float* params,
              float* m, float* v, size_t n) {
  simd::Kernels().adam_step(args, grads, params, m, v, n);
}

void Tanh(const float* x, float* y, size_t n) { simd::Kernels().tanh(x, y, n); }

void BucketSum(const BucketSumArgs& args) { simd::Kernels().bucket_sum(args); }

void ReduceScale(const float* const* bufs, size_t num_bufs, size_t n,
                 double scale, float* out) {
  simd::Kernels().reduce_scale(bufs, num_bufs, n, scale, out);
}

}  // namespace vec
}  // namespace fedra
