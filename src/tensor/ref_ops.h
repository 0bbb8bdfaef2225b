// Reference scalar kernels: the original naive loops kept verbatim as the
// correctness oracle for the fast backend in ops.cc / vec_ops.cc.
//
// Everything here is deliberately simple and unoptimized. Parity tests
// (tests/backend_parity_test.cc) compare the fast kernels against these, and
// bench_micro exposes them via --backend=ref so speedups are measured
// against a fixed baseline instead of a moving one.

#ifndef FEDRA_TENSOR_REF_OPS_H_
#define FEDRA_TENSOR_REF_OPS_H_

#include <cstddef>

#include "tensor/ops.h"

namespace fedra {
namespace ref {

/// C = alpha * op(A) * op(B) + beta * C; scalar i-p-j loops.
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// Direct (non-im2col) convolution, NCHW.
void Conv2dForward(const ops::Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output);
void Conv2dBackward(const ops::Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias);

/// Direct depthwise convolution (per-output-pixel tap loops).
void DepthwiseConv2dForward(const ops::Conv2dGeometry& g, const float* input,
                            const float* weight, const float* bias,
                            float* output);
void DepthwiseConv2dBackward(const ops::Conv2dGeometry& g, const float* input,
                             const float* weight, const float* grad_output,
                             float* grad_input, float* grad_weight,
                             float* grad_bias);

/// Per-output-pixel pooling loops (windows clipped at borders).
void MaxPool2dForward(const ops::Conv2dGeometry& g, const float* input,
                      float* output, int* argmax);
void MaxPool2dBackward(const ops::Conv2dGeometry& g, const float* grad_output,
                       const int* argmax, float* grad_input);
void AvgPool2dForward(const ops::Conv2dGeometry& g, const float* input,
                      float* output);
void AvgPool2dBackward(const ops::Conv2dGeometry& g, const float* grad_output,
                       float* grad_input);

/// Per-channel batch normalization over (batch, plane) with single-
/// accumulator statistics loops; same contract as ops::BatchNorm2d*.
void BatchNorm2dForward(int batch, int channels, size_t plane,
                        const float* input, const float* gamma,
                        const float* beta, float epsilon, float* xhat,
                        float* inv_std, float* output);
void BatchNorm2dBackward(int batch, int channels, size_t plane,
                         const float* grad_output, const float* xhat,
                         const float* inv_std, const float* gamma,
                         float* grad_gamma, float* grad_beta,
                         float* grad_input);

/// Scalar flat-span kernels (single-accumulator loops).
void Fill(float* dst, size_t n, float value);
void Scale(float* x, size_t n, float alpha);
void Axpy(float alpha, const float* x, float* y, size_t n);
void Add(const float* a, const float* b, float* out, size_t n);
void Sub(const float* a, const float* b, float* out, size_t n);
void Mul(const float* a, const float* b, float* out, size_t n);
double Dot(const float* a, const float* b, size_t n);
double SquaredNorm(const float* x, size_t n);
double Sum(const float* x, size_t n);

/// Unfused reference for the fused fast kernel: out = a - b and returns
/// ||out||^2.
double SubSquaredNorm(const float* a, const float* b, float* out, size_t n);

/// Scalar FedProx proximal term: y[i] += alpha * (a[i] - b[i]).
void AddScaledDiff(float alpha, const float* a, const float* b, float* y,
                   size_t n);

/// Serial element-major reduction oracle for the collectives engine:
/// out[i] = scale * sum_k bufs[k][i], one double accumulator per element.
void ReduceScale(const float* const* bufs, size_t num_bufs, size_t n,
                 double scale, float* out);

}  // namespace ref
}  // namespace fedra

#endif  // FEDRA_TENSOR_REF_OPS_H_
