// Dense-compute kernels used by the nn layers: GEMM, convolution and
// pooling (NCHW); all kernels have exact backward passes.
//
// GEMM is a cache-blocked, packed-panel kernel with a register-tiled
// micro-kernel, parallelized over row-block panels via GlobalThreadPool.
// Conv2d drives the same micro-kernel directly: it packs GEMM panels
// straight from the NCHW batch (im2col rows, grad_output, the weights) and
// writes each tile back into NCHW, with the arithmetic of a per-sample
// im2col + Gemm lowering but no im2col matrix. The original scalar loops
// survive as the correctness oracle in tensor/ref_ops.h (`ref::`,
// bench_micro --backend=ref).

#ifndef FEDRA_TENSOR_OPS_H_
#define FEDRA_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace fedra {
namespace ops {

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// op(A) is m x k, op(B) is k x n, C is m x n, all row-major.
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// Spatial geometry of a convolution/pooling with square kernels.
struct Conv2dGeometry {
  int batch = 0;
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int out_channels = 0;
  int kernel = 1;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// The weight operand of a conv call, packed into micro-kernel panels (W
/// for the forward pass, W^T for the input gradient) and read by every task
/// of the call. A layer owns one workspace and passes it to every
/// Forward/Backward call, so after the first step the inner training loop
/// performs no allocation (vectors keep their capacity); the per-task
/// scratch is thread-local and at most one panel's worth per buffer.
/// Passing nullptr falls back to a thread-local workspace.
struct Conv2dWorkspace {
  std::vector<float> packed_weight;
};

/// output[B, OC, OH, OW]; weight[OC, IC, K, K]; bias[OC] (may be null).
void Conv2dForward(const Conv2dGeometry& g, const float* input,
                   const float* weight, const float* bias, float* output,
                   Conv2dWorkspace* workspace = nullptr);

/// Accumulates gradients (caller zeroes them when appropriate).
/// grad_input may be null (e.g. first layer).
void Conv2dBackward(const Conv2dGeometry& g, const float* input,
                    const float* weight, const float* grad_output,
                    float* grad_input, float* grad_weight, float* grad_bias,
                    Conv2dWorkspace* workspace = nullptr);

/// Depthwise conv: out_channels == in_channels; weight[C, K, K]; bias[C].
void DepthwiseConv2dForward(const Conv2dGeometry& g, const float* input,
                            const float* weight, const float* bias,
                            float* output);
void DepthwiseConv2dBackward(const Conv2dGeometry& g, const float* input,
                             const float* weight, const float* grad_output,
                             float* grad_input, float* grad_weight,
                             float* grad_bias);

/// Max pooling; `argmax` receives the flat input index of each output
/// element (size = output numel) for the backward pass.
void MaxPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output, int* argmax);
void MaxPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       const int* argmax, float* grad_input);

/// Average pooling over kernel windows.
void AvgPool2dForward(const Conv2dGeometry& g, const float* input,
                      float* output);
void AvgPool2dBackward(const Conv2dGeometry& g, const float* grad_output,
                       float* grad_input);

/// Global average pooling: [B, C, H, W] -> [B, C].
void GlobalAvgPoolForward(int batch, int channels, int h, int w,
                          const float* input, float* output);
void GlobalAvgPoolBackward(int batch, int channels, int h, int w,
                           const float* grad_output, float* grad_input);

/// Per-channel batch normalization over (batch, plane) using batch
/// statistics. Writes xhat (normalized input, cached for backward), one
/// inv_std per channel, and output = gamma * xhat + beta. `plane` is
/// H * W for NCHW inputs.
void BatchNorm2dForward(int batch, int channels, size_t plane,
                        const float* input, const float* gamma,
                        const float* beta, float epsilon, float* xhat,
                        float* inv_std, float* output);

/// Accumulates grad_gamma/grad_beta (+=) and writes grad_input.
void BatchNorm2dBackward(int batch, int channels, size_t plane,
                         const float* grad_output, const float* xhat,
                         const float* inv_std, const float* gamma,
                         float* grad_gamma, float* grad_beta,
                         float* grad_input);

}  // namespace ops
}  // namespace fedra

#endif  // FEDRA_TENSOR_OPS_H_
