// Micro-benchmarks (google-benchmark) of the kernels FDA's per-step cost
// rests on: AMS sketch construction and estimation, the simulated
// AllReduce, GEMM, convolution, and the fused FDA vec kernels.
//
// --backend=ref|fast (default fast) selects which implementation the GEMM,
// Conv2d, pooling, BatchNorm, and depthwise benchmarks run: `fast` is the
// vectorized backend in tensor/ops.cc, `ref` the scalar oracle in
// tensor/ref_ops.h. --threads=N pins the global thread pool (N=1 gives
// deterministic single-core numbers; sweep N for scheduler scaling curves).
// Record results with google-benchmark's own flags, e.g.
//   bench_micro --backend=ref --benchmark_out=BENCH_micro_ref.json
//               --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "core/client_store.h"
#include "core/compression.h"
#include "core/variance_monitor.h"
#include "core/worker_arena.h"
#include "nn/composite.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "sketch/ams_sketch.h"
#include "tensor/ops.h"
#include "tensor/ref_ops.h"
#include "tensor/simd_dispatch.h"
#include "tensor/vec_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedra {
namespace {

bool g_use_ref_backend = false;

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  return v;
}

void GemmDispatch(int m, int n, int k, const float* a, const float* b,
                  float* c) {
  if (g_use_ref_backend) {
    ref::Gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  } else {
    ops::Gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  }
}

void BM_SketchAccumulate(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  auto family = AmsHashFamily::Create(5, 250, dim, 1);
  auto v = RandomVec(dim, 2);
  AmsSketch sketch(family);
  for (auto _ : state) {
    sketch.Clear();
    sketch.AccumulateVector(v.data());
    benchmark::DoNotOptimize(sketch.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dim));
}
BENCHMARK(BM_SketchAccumulate)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_SketchEstimate(benchmark::State& state) {
  const size_t dim = 1 << 14;
  auto family = AmsHashFamily::Create(5, 250, dim, 3);
  auto v = RandomVec(dim, 4);
  AmsSketch sketch = AmsSketch::OfVector(family, v.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.EstimateSquaredNorm());
  }
}
BENCHMARK(BM_SketchEstimate);

void BM_HashFamilyBuild(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto family = AmsHashFamily::Create(5, 250, dim, 7);
    benchmark::DoNotOptimize(family);
  }
}
BENCHMARK(BM_HashFamilyBuild)->Arg(1 << 14)->Arg(1 << 17);

void BM_AllReduce(benchmark::State& state) {
  // The parallel reduction engine behind every simulated collective:
  // fused vec::ReduceScale tree-reduce over GlobalThreadPool chunks.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, NetworkModel::Hpc(),
                     AllReduceAlgorithm::kFlat);
  for (auto _ : state) {
    network.AllReduceAverage(pointers, dim, TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_AllReduce)->Args({1 << 14, 4})->Args({1 << 14, 16})
    ->Args({1 << 18, 4})->Args({1 << 20, 8})->Args({1 << 22, 8});

void BM_FaultInjectorRound(benchmark::State& state) {
  // One BeginRound advances every worker churn chain and link chain in
  // fixed order — the fault layer's entire per-round overhead. It must
  // stay negligible next to the collectives it gates.
  const int workers = static_cast<int>(state.range(0));
  FaultConfig config = FaultConfig::Churn(10.0, 2.5);
  config.link_mttf_rounds = 20.0;
  config.link_mttr_rounds = 3.0;
  config.message_loss_prob = 0.01;
  FaultInjector injector(config, workers, /*seed=*/7);
  for (auto _ : state) {
    injector.BeginRound();
    benchmark::DoNotOptimize(injector.NumUp());
  }
  state.SetItemsProcessed(state.iterations() * workers);
}
// 100000 is fleet_codec's population, one fault entity per client.
BENCHMARK(BM_FaultInjectorRound)->Arg(8)->Arg(64)->Arg(512)->Arg(100000);

void BM_MaskPreview(benchmark::State& state) {
  // The codec's top-5% mask selection alone, as the masked monitor runs it
  // on every worker step: d = 17,098 is fleet_codec's MLP, d = 2^20 a large
  // model. A Gaussian drift.
  const size_t dim = static_cast<size_t>(state.range(0));
  SyncCompressor compressor(CompressionConfig::TopKQuantize(0.05, 8), dim, 1);
  const auto drift = RandomVec(dim, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compressor.MaskPreview(drift.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
}
BENCHMARK(BM_MaskPreview)->Arg(17098)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_AllReduceSerial(benchmark::State& state) {
  // The seed's serial scalar AllReduceAverage, kept verbatim as the fixed
  // baseline the reduction engine is measured against: accumulate every
  // buffer into a double scratch vector, then write the scaled mean back
  // into every buffer — K extra passes over an n-double scratch.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  std::vector<double> reduce_buffer;
  for (auto _ : state) {
    reduce_buffer.assign(dim, 0.0);
    for (const float* buffer : pointers) {
      for (size_t i = 0; i < dim; ++i) {
        reduce_buffer[i] += static_cast<double>(buffer[i]);
      }
    }
    const double inv_k = 1.0 / static_cast<double>(workers);
    for (float* buffer : pointers) {
      for (size_t i = 0; i < dim; ++i) {
        buffer[i] = static_cast<float>(reduce_buffer[i] * inv_k);
      }
    }
    benchmark::DoNotOptimize(pointers[0]);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_AllReduceSerial)->Args({1 << 14, 4})->Args({1 << 18, 4})
    ->Args({1 << 20, 8})->Args({1 << 22, 8});

void BM_HierarchicalAllReduce(benchmark::State& state) {
  // Grouped (edge->cloud) collective: identical arithmetic, two-tier cost
  // accounting — measures the topology layer's overhead over BM_AllReduce.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, TopologyTree::EdgeCloud(2),
                     AllReduceAlgorithm::kFlat);
  for (auto _ : state) {
    network.AllReduceAverage(pointers, dim, TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_HierarchicalAllReduce)->Args({1 << 20, 8});

void BM_TreeAllReduce(benchmark::State& state) {
  // Arbitrary-depth tree collective (3-tier device -> site -> cloud):
  // identical arithmetic again, recursive per-depth cost accounting —
  // measures the TopologyTree layer's overhead over BM_AllReduce and
  // BM_HierarchicalAllReduce.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, TopologyTree::DeviceSiteCloud(2, 2),
                     AllReduceAlgorithm::kFlat);
  for (auto _ : state) {
    network.AllReduceAverage(pointers, dim, TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_TreeAllReduce)->Args({1 << 20, 8})->Args({1 << 20, 64});

void BM_TreeSubtreeAllReduce(benchmark::State& state) {
  // Cluster-scoped collective of the hierarchical FDA scheduler: average
  // one site's subtree (half the cohort) on its own tiers only.
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  SimNetwork network(workers, TopologyTree::DeviceSiteCloud(2, 2),
                     AllReduceAlgorithm::kFlat);
  int begin = 0;
  int end = 0;
  network.tree().SubtreeSpan(/*site 0 node=*/1, workers, &begin, &end);
  std::vector<float*> members(pointers.begin() + begin,
                              pointers.begin() + end);
  for (auto _ : state) {
    network.SubtreeAllReduceAverage(1, members, dim,
                                    TrafficClass::kModelSync);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * members.size() *
                                               sizeof(float)));
}
BENCHMARK(BM_TreeSubtreeAllReduce)->Args({1 << 20, 8});

void BM_TreeCollectiveCost(benchmark::State& state) {
  // Pure cost-model evaluation (no arithmetic): one recursive
  // GroupedAllReduceCost sweep over a `range(0)`-site tree with straggler
  // link factors — the per-collective accounting overhead the simulator
  // pays on top of the reduction itself.
  const int sites = static_cast<int>(state.range(0));
  const int workers = sites * 8;
  const TopologyTree tree = TopologyTree::DeviceSiteCloud(sites, 2);
  std::vector<double> factors(static_cast<size_t>(workers));
  Rng rng(5);
  for (auto& f : factors) {
    f = 1.0 + 3.0 * rng.NextDouble();
  }
  for (auto _ : state) {
    TreeCost cost = tree.GroupedAllReduceCost(
        1 << 22, workers, AllReduceAlgorithm::kRing, &factors);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_TreeCollectiveCost)->Arg(2)->Arg(16)->Arg(128);

void BM_ReduceMeanInto(benchmark::State& state) {
  // The trainers' eval-model averaging (one output span, no install pass).
  const size_t dim = static_cast<size_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<std::vector<float>> buffers(static_cast<size_t>(workers));
  std::vector<const float*> pointers;
  for (int k = 0; k < workers; ++k) {
    buffers[static_cast<size_t>(k)] =
        RandomVec(dim, 10 + static_cast<uint64_t>(k));
    pointers.push_back(buffers[static_cast<size_t>(k)].data());
  }
  std::vector<float> dst(dim);
  for (auto _ : state) {
    ReduceMeanInto(pointers.data(), pointers.size(), dim, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dim * workers *
                                               sizeof(float)));
}
BENCHMARK(BM_ReduceMeanInto)->Args({1 << 20, 8});

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = RandomVec(static_cast<size_t>(n) * n, 20);
  auto b = RandomVec(static_cast<size_t>(n) * n, 21);
  std::vector<float> c(static_cast<size_t>(n) * n);
  for (auto _ : state) {
    GemmDispatch(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

void RunConvBench(benchmark::State& state, const ops::Conv2dGeometry& g) {
  auto input = RandomVec(static_cast<size_t>(g.batch) * g.in_channels *
                             g.in_h * g.in_w,
                         30);
  auto weight = RandomVec(static_cast<size_t>(g.out_channels) *
                              g.in_channels * g.kernel * g.kernel,
                          31);
  std::vector<float> bias(static_cast<size_t>(g.out_channels), 0.1f);
  std::vector<float> output(static_cast<size_t>(g.batch) * g.out_channels *
                            g.out_h() * g.out_w());
  ops::Conv2dWorkspace workspace;
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                         output.data());
    } else {
      ops::Conv2dForward(g, input.data(), weight.data(), bias.data(),
                         output.data(), &workspace);
    }
    benchmark::DoNotOptimize(output.data());
  }
  const long long flops = 2LL * g.batch * g.out_channels * g.out_h() *
                          g.out_w() * g.in_channels * g.kernel * g.kernel;
  state.SetItemsProcessed(state.iterations() * flops);
}

void BM_Conv2dForward(benchmark::State& state) {
  ops::Conv2dGeometry g;
  g.batch = 8;
  g.in_channels = 8;
  g.in_h = g.in_w = 16;
  g.out_channels = 16;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  RunConvBench(state, g);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardVgg(benchmark::State& state) {
  // VGG-style body conv: 3x3, 64 -> 64 channels, 32x32 feature map.
  ops::Conv2dGeometry g;
  g.batch = 2;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  RunConvBench(state, g);
}
BENCHMARK(BM_Conv2dForwardVgg);

// One training backward pass: grad_weight and grad_bias, plus grad_input
// when `input_grad` (a first layer skips it, as LeNet's conv1 does).
void RunConvBackwardBench(benchmark::State& state,
                          const ops::Conv2dGeometry& g, bool input_grad) {
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  const size_t out_numel = static_cast<size_t>(g.batch) * g.out_channels *
                           g.out_h() * g.out_w();
  const size_t w_numel = static_cast<size_t>(g.out_channels) *
                         g.in_channels * g.kernel * g.kernel;
  auto input = RandomVec(in_numel, 32);
  auto weight = RandomVec(w_numel, 33);
  auto grad_output = RandomVec(out_numel, 34);
  std::vector<float> grad_input(input_grad ? in_numel : 0);
  std::vector<float> grad_weight(w_numel);
  std::vector<float> grad_bias(static_cast<size_t>(g.out_channels));
  float* gi = input_grad ? grad_input.data() : nullptr;
  ops::Conv2dWorkspace workspace;
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::Conv2dBackward(g, input.data(), weight.data(), grad_output.data(),
                          gi, grad_weight.data(), grad_bias.data());
    } else {
      ops::Conv2dBackward(g, input.data(), weight.data(), grad_output.data(),
                          gi, grad_weight.data(), grad_bias.data(),
                          &workspace);
    }
    benchmark::DoNotOptimize(grad_weight.data());
  }
  const long long gemm_flops = 2LL * g.batch * g.out_channels * g.out_h() *
                               g.out_w() * g.in_channels * g.kernel *
                               g.kernel;
  state.SetItemsProcessed(state.iterations() * gemm_flops *
                          (input_grad ? 2 : 1));
}

void BM_Conv2dBackwardVgg(benchmark::State& state) {
  ops::Conv2dGeometry g;
  g.batch = 2;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  RunConvBackwardBench(state, g, /*input_grad=*/true);
}
BENCHMARK(BM_Conv2dBackwardVgg);

// LeNet-5's two convs on 16x16 inputs at batch 32, as the
// lenet_sketchfda workload trains them: conv1 1->6 5x5 pad 2 (the first
// layer: no input gradient), conv2 6->16 5x5 valid on the pooled 8x8 map.
ops::Conv2dGeometry LenetConvGeometry(int layer) {
  ops::Conv2dGeometry g;
  g.batch = 32;
  g.in_channels = layer == 1 ? 1 : 6;
  g.in_h = g.in_w = layer == 1 ? 16 : 8;
  g.out_channels = layer == 1 ? 6 : 16;
  g.kernel = 5;
  g.stride = 1;
  g.pad = layer == 1 ? 2 : 0;
  return g;
}

void BM_Conv2dForwardLenet(benchmark::State& state) {
  RunConvBench(state, LenetConvGeometry(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_Conv2dForwardLenet)->Arg(1)->Arg(2);

void BM_Conv2dBackwardLenet(benchmark::State& state) {
  const int layer = static_cast<int>(state.range(0));
  RunConvBackwardBench(state, LenetConvGeometry(layer),
                       /*input_grad=*/layer == 2);
}
BENCHMARK(BM_Conv2dBackwardLenet)->Arg(1)->Arg(2);

void BM_VarianceIdentity(benchmark::State& state) {
  // The per-step scalar work of LinearFDA's state computation.
  const size_t dim = static_cast<size_t>(state.range(0));
  auto u = RandomVec(dim, 40);
  auto xi = RandomVec(dim, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::SquaredNorm(u.data(), dim));
    benchmark::DoNotOptimize(vec::Dot(xi.data(), u.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  // ||u||^2 reads u once; <xi, u> reads both: three dim-length streams.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * dim * sizeof(float)));
}
BENCHMARK(BM_VarianceIdentity)->Arg(1 << 14)->Arg(1 << 18);

void BM_SubSquaredNorm(benchmark::State& state) {
  // The fused drift kernel: u = w - w_sync and ||u||^2 in one pass.
  const size_t dim = static_cast<size_t>(state.range(0));
  auto w = RandomVec(dim, 50);
  auto w_sync = RandomVec(dim, 51);
  std::vector<float> u(dim);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      benchmark::DoNotOptimize(
          ref::SubSquaredNorm(w.data(), w_sync.data(), u.data(), dim));
    } else {
      benchmark::DoNotOptimize(
          vec::SubSquaredNorm(w.data(), w_sync.data(), u.data(), dim));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  // Reads w and w_sync, writes u: three dim-length streams per pass.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(3 * dim * sizeof(float)));
}
BENCHMARK(BM_SubSquaredNorm)->Arg(1 << 14)->Arg(1 << 18);

void BM_WorkerStepFold(benchmark::State& state) {
  // One worker's Adam step and its LinearFDA state, as the trainer runs
  // them: range(1) == 0 steps, then runs the separate dense pass
  // (ComputeDriftAndState through a drift row); 1 folds the state into the
  // step's blocks (VarianceMonitor::FoldBlock). The calls cycle through 32
  // workers' rows, so each streams its rows from beyond L2 as a round over
  // a cohort does (tree_hierfda: d = 68,362; mlp_wide_parallel: 265,482).
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool folded = state.range(1) != 0;
  constexpr size_t kRows = 32;
  std::vector<float> params(kRows * dim);
  std::vector<float> grads(kRows * dim);
  std::vector<float> drift(kRows * dim);
  std::vector<float> moments(kRows * 2 * dim);
  std::vector<float> states(kRows * 2);
  std::vector<std::unique_ptr<Optimizer>> optimizers;
  optimizers.reserve(kRows);
  for (size_t k = 0; k < kRows; ++k) {
    const auto p = RandomVec(dim, 80 + k);
    const auto g = RandomVec(dim, 120 + k);
    std::copy(p.begin(), p.end(), params.begin() + k * dim);
    std::transform(g.begin(), g.end(), grads.begin() + k * dim,
                   [](float x) { return 0.01f * x; });
    optimizers.push_back(Optimizer::Create(OptimizerConfig::Adam(0.001f),
                                           dim, moments.data() + k * 2 * dim));
  }
  const auto sync = RandomVec(dim, 78);
  const auto prev_sync = RandomVec(dim, 79);
  LinearVarianceMonitor monitor(dim);
  monitor.OnSynchronized(sync.data(), prev_sync.data());
  size_t k = 0;
  for (auto _ : state) {
    float* p = params.data() + k * dim;
    const float* g = grads.data() + k * dim;
    float* s = states.data() + k * 2;
    if (folded) {
      StateFold fold(monitor, sync.data(), s);
      optimizers[k]->Step(p, g, dim, &VarianceMonitor::FoldBlockFn, &fold);
    } else {
      optimizers[k]->Step(p, g, dim);
      monitor.ComputeDriftAndState(p, sync.data(), drift.data() + k * dim,
                                   s);
    }
    benchmark::DoNotOptimize(s[0]);
    k = (k + 1) % kRows;
  }
  state.SetLabel(folded ? "folded" : "separate");
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
}
BENCHMARK(BM_WorkerStepFold)->ArgsProduct({{68362, 265482}, {0, 1}});

void BM_ParallelForOverhead(benchmark::State& state) {
  // Scheduler round-trip cost: fan a trivial chunked loop over the pool and
  // wait on its completion token. With --threads=1 this measures the inline
  // fallback; with more threads, the push/steal/wake path.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> data(n, 1.0f);
  for (auto _ : state) {
    GlobalThreadPool().ParallelForRange(
        n, /*grain=*/1024, [&](size_t begin, size_t end) {
          float acc = 0.0f;
          for (size_t i = begin; i < end; ++i) {
            acc += data[i];
          }
          benchmark::DoNotOptimize(acc);
        });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // One read stream; at small n the GB/s figure is dominated by scheduler
  // round-trip cost, which is exactly what this benchmark isolates.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_MaxPool2d(benchmark::State& state) {
  // DenseNet/VGG-style downsampling: 2x2 stride-2 over a 32x32 map.
  ops::Conv2dGeometry g;
  g.batch = 8;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 2;
  g.stride = 2;
  g.pad = 0;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, 70);
  std::vector<float> output(out_numel);
  std::vector<int> argmax(out_numel);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::MaxPool2dForward(g, input.data(), output.data(), argmax.data());
    } else {
      ops::MaxPool2dForward(g, input.data(), output.data(), argmax.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out_numel) * g.kernel *
                          g.kernel);
}
BENCHMARK(BM_MaxPool2d);

// 2x2 stride-2 average pools: /0 a DenseNet-style 8x64x32x32 map, /1 and
// /2 LeNet-5's two pools at batch 32 (6x16x16 and 16x4x4 inputs). The
// second argument selects the forward (0) or backward (1) pass.
void BM_AvgPool2d(benchmark::State& state) {
  const int shapes[][3] = {{8, 64, 32}, {32, 6, 16}, {32, 16, 4}};
  const int* shape = shapes[state.range(0)];
  const bool backward = state.range(1) != 0;
  ops::Conv2dGeometry g;
  g.batch = shape[0];
  g.in_channels = shape[1];
  g.in_h = g.in_w = shape[2];
  g.out_channels = shape[1];
  g.kernel = 2;
  g.stride = 2;
  g.pad = 0;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  const size_t out_numel = static_cast<size_t>(g.batch) * g.in_channels *
                           g.out_h() * g.out_w();
  auto input = RandomVec(in_numel, 71);
  auto grad_output = RandomVec(out_numel, 72);
  std::vector<float> output(out_numel);
  std::vector<float> grad_input(in_numel);
  for (auto _ : state) {
    if (backward) {
      if (g_use_ref_backend) {
        ref::AvgPool2dBackward(g, grad_output.data(), grad_input.data());
      } else {
        ops::AvgPool2dBackward(g, grad_output.data(), grad_input.data());
      }
      benchmark::DoNotOptimize(grad_input.data());
    } else {
      if (g_use_ref_backend) {
        ref::AvgPool2dForward(g, input.data(), output.data());
      } else {
        ops::AvgPool2dForward(g, input.data(), output.data());
      }
      benchmark::DoNotOptimize(output.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out_numel) * g.kernel *
                          g.kernel);
}
BENCHMARK(BM_AvgPool2d)->ArgsProduct({{0, 1, 2}, {0, 1}});

// LeNet-5's layers one at a time, as lenet_sketchfda trains them: batch
// 32, 16x16 inputs, one Forward and one Backward per iteration on a fixed
// input and output gradient. The argument indexes the model's Sequential
// (0 conv1, 1 tanh, 2 pool1, 3 conv2, 4 tanh, 5 pool2, 6 flatten, 7-11
// the dense head); the label names the layer. The first layer skips its
// input gradient, as in training. Run with --threads=1 for the workload's
// single-threaded pool.
void BM_LenetLayer(benchmark::State& state) {
  const size_t index = static_cast<size_t>(state.range(0));
  auto model = zoo::LeNet5(1, 16, 10);
  model->InitParams(61);
  ModelGraph& graph = model->graph();
  auto& root = static_cast<Sequential&>(graph.root());
  auto slot = graph.AcquireSlot();
  ExecContext ctx;
  ctx.training = true;
  ctx.view = model->view();
  ctx.states = slot.states();
  Tensor x({32, 1, 16, 16});
  const auto pixels = RandomVec(x.numel(), 62);
  std::copy(pixels.begin(), pixels.end(), x.data());
  for (size_t i = 0; i < index; ++i) {
    x = root.layer(i)->Forward(x, ctx);
  }
  Layer* layer = root.layer(index);
  Tensor grad_output(layer->Forward(x, ctx).shape());
  const auto grads = RandomVec(grad_output.numel(), 63);
  std::copy(grads.begin(), grads.end(), grad_output.data());
  ctx.input_grad = index > 0;
  for (auto _ : state) {
    Tensor y = layer->Forward(x, ctx);
    benchmark::DoNotOptimize(y.data());
    Tensor grad_input = layer->Backward(grad_output, ctx);
    benchmark::DoNotOptimize(grad_input.data());
  }
  state.SetLabel(layer->name());
}
BENCHMARK(BM_LenetLayer)->DenseRange(0, 11);

void BM_BatchNormForward(benchmark::State& state) {
  const int batch = 8;
  const int channels = 64;
  const size_t plane = 32 * 32;
  const size_t numel = static_cast<size_t>(batch) * channels * plane;
  auto input = RandomVec(numel, 72);
  std::vector<float> gamma(static_cast<size_t>(channels), 1.0f);
  std::vector<float> beta(static_cast<size_t>(channels), 0.0f);
  std::vector<float> xhat(numel);
  std::vector<float> inv_std(static_cast<size_t>(channels));
  std::vector<float> output(numel);
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::BatchNorm2dForward(batch, channels, plane, input.data(),
                              gamma.data(), beta.data(), 1e-5f, xhat.data(),
                              inv_std.data(), output.data());
    } else {
      ops::BatchNorm2dForward(batch, channels, plane, input.data(),
                              gamma.data(), beta.data(), 1e-5f, xhat.data(),
                              inv_std.data(), output.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(numel));
}
BENCHMARK(BM_BatchNormForward);

void BM_DepthwiseConv2dForward(benchmark::State& state) {
  // ConvNeXt-style 7x7 depthwise over a 32x32 map.
  ops::Conv2dGeometry g;
  g.batch = 4;
  g.in_channels = 64;
  g.in_h = g.in_w = 32;
  g.out_channels = 64;
  g.kernel = 7;
  g.stride = 1;
  g.pad = 3;
  const size_t in_numel =
      static_cast<size_t>(g.batch) * g.in_channels * g.in_h * g.in_w;
  auto input = RandomVec(in_numel, 73);
  auto weight = RandomVec(
      static_cast<size_t>(g.in_channels) * g.kernel * g.kernel, 74);
  std::vector<float> bias(static_cast<size_t>(g.in_channels), 0.1f);
  std::vector<float> output(static_cast<size_t>(g.batch) * g.in_channels *
                            g.out_h() * g.out_w());
  for (auto _ : state) {
    if (g_use_ref_backend) {
      ref::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                                  output.data());
    } else {
      ops::DepthwiseConv2dForward(g, input.data(), weight.data(), bias.data(),
                                  output.data());
    }
    benchmark::DoNotOptimize(output.data());
  }
  const long long flops = 2LL * g.batch * g.in_channels * g.out_h() *
                          g.out_w() * g.kernel * g.kernel;
  state.SetItemsProcessed(state.iterations() * flops);
}
BENCHMARK(BM_DepthwiseConv2dForward);

// ------------------------------------------------- worker cohort bench --

// One simulated worker training step through the shared-graph + arena
// cohort: zero grads, Forward, loss, Backward, optimizer update — the unit
// the trainers repeat K times per simulated step. `range(0)` is the worker
// count K: the graph and arena are cohort-sized, the loop round-robins
// workers so the measurement includes the slab-stride access pattern.
// Counters report the arena's bytes per worker next to the old
// one-Model-per-worker baseline (params + grads vectors per Model, plus a
// per-worker optimizer-state and drift allocation).
void BM_WorkerStepMlp(benchmark::State& state) {
  const int num_workers = static_cast<int>(state.range(0));
  const int batch = 32;
  const int input_dim = 16 * 16;
  auto model = zoo::Mlp(input_dim, {128, 64}, 10);
  ModelGraph& graph = model->graph();
  const size_t dim = graph.dim();
  const OptimizerConfig opt_config = OptimizerConfig::Adam(0.001f);
  WorkerArena arena(num_workers, dim, opt_config.StateSlots());
  std::vector<std::unique_ptr<Optimizer>> optimizers;
  for (int k = 0; k < num_workers; ++k) {
    graph.InitParams(7, arena.view(k));
    optimizers.push_back(Optimizer::Create(opt_config, dim,
                                           arena.opt_state(k)));
  }
  Tensor images({batch, input_dim});
  Rng rng(11);
  for (size_t i = 0; i < images.numel(); ++i) {
    images[i] = rng.NextGaussian(0.0f, 1.0f);
  }
  std::vector<int> labels(batch);
  for (int b = 0; b < batch; ++b) {
    labels[b] = static_cast<int>(rng.NextBounded(10));
  }
  Rng worker_rng(13);
  int k = 0;
  for (auto _ : state) {
    ParameterView view = arena.view(k);
    vec::Fill(view.grads, dim, 0.0f);
    ModelGraph::ExecSlot slot = graph.AcquireSlot();
    Tensor logits = graph.Forward(images, view, slot, /*training=*/true,
                                  &worker_rng);
    LossResult loss = SoftmaxCrossEntropy(logits, labels);
    graph.Backward(loss.grad_logits, view, slot);
    optimizers[static_cast<size_t>(k)]->Step(view.params, view.grads, dim);
    benchmark::DoNotOptimize(view.params[0]);
    k = (k + 1) % num_workers;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["arena_bytes_per_worker"] = static_cast<double>(
      arena.total_bytes() / static_cast<size_t>(num_workers));
  // The cohort's total slab allocations (constant in K; the per-Model
  // baseline performed ~5 heap allocations per worker) and the number of
  // activation/im2col workspaces actually materialized (scales with
  // concurrent executions, not with K — the baseline kept K of them).
  state.counters["arena_allocations"] =
      static_cast<double>(arena.allocation_count());
  state.counters["graph_exec_slots"] =
      static_cast<double>(graph.num_slots());
}
BENCHMARK(BM_WorkerStepMlp)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

/// Minor page faults this process has taken so far (0 without getrusage).
long MinorFaults() {
#ifdef __linux__
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return usage.ru_minflt;
  }
#endif
  return 0;
}

// The cohort-construction cost itself: building the arena slabs and
// initializing worker 0, as a function of K. Demonstrates that setup work
// is slab-bound, not K-object-bound.
void BM_WorkerCohortSetup(benchmark::State& state) {
  const int num_workers = static_cast<int>(state.range(0));
  auto model = zoo::Mlp(16 * 16, {128, 64}, 10);
  ModelGraph& graph = model->graph();
  const size_t dim = graph.dim();
  const OptimizerConfig opt_config = OptimizerConfig::Adam(0.001f);
  const long faults_before = MinorFaults();
  for (auto _ : state) {
    WorkerArena arena(num_workers, dim, opt_config.StateSlots());
    graph.InitParams(7, arena.view(0));
    for (int k = 1; k < num_workers; ++k) {
      vec::Copy(arena.params(0), arena.params(k), dim);
    }
    benchmark::DoNotOptimize(arena.params_slab());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_workers));
  // Page faults the slabs take on first touch, per cohort built.
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WorkerCohortSetup)
    ->Arg(4)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ fleet sweep --

/// Steady-state resident set size of this process, in bytes (VmRSS); 0 when
/// the platform has no procfs.
size_t CurrentRssBytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  size_t rss_kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = std::strtoul(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss_kb * 1024;
#else
  return 0;
#endif
}

/// One simulated fleet harness: K resident rows over a population-N paged
/// ClientStateStore, rotated through the CohortSampler. Each rotation
/// checks departing occupants out (drift + LinearFDA state fold into the
/// store) and arrivals in, exactly as DistributedTrainer does — minus the
/// training step, so the numbers isolate the store's paging cost.
struct FleetHarness {
  ClientStoreConfig config;
  ClientStateStore store;
  CohortSampler sampler;
  LinearVarianceMonitor monitor;
  std::vector<float> anchor;
  std::vector<std::vector<float>> params;  // K resident rows
  std::vector<uint32_t> cohort;
  uint64_t round = 0;
  uint64_t swaps = 0;

  static ClientStoreConfig MakeConfig(size_t population, int slots,
                                      size_t dim) {
    ClientStoreConfig c;
    c.population = population;
    c.cohort_slots = slots;
    c.dim = dim;
    c.opt_state_slots = 0;  // cross-device clients run plain SGD
    c.seed = 42;
    return c;
  }

  FleetHarness(size_t population, int slots, size_t dim)
      : config(MakeConfig(population, slots, dim)),
        store(config, nullptr),
        sampler(&store, CohortScheduleKind::kUniform, config.seed),
        monitor(dim),
        anchor(dim, 0.5f),
        params(static_cast<size_t>(slots)),
        cohort(static_cast<size_t>(slots)) {
    store.SetStateSize(monitor.StateSize());
    Rng rng(7);
    for (size_t k = 0; k < params.size(); ++k) {
      params[k].resize(dim);
      for (size_t j = 0; j < dim; ++j) {
        params[k][j] = anchor[j] + rng.NextGaussian(0.0f, 0.01f);
      }
      cohort[k] = static_cast<uint32_t>(k);
      store.AdoptInitialResident(cohort[k]);
    }
  }

  void Rotate() {
    const std::vector<uint32_t> sampled = sampler.Sample(round++, nullptr);
    for (size_t k = 0; k < cohort.size(); ++k) {
      if (sampled[k] == cohort[k]) {
        continue;
      }
      store.CheckOut(cohort[k], params[k].data(), anchor.data(), nullptr,
                     Rng(1), Rng(2), /*optimizer_steps=*/round,
                     /*steps_this_residency=*/1, &monitor);
    }
    for (size_t k = 0; k < cohort.size(); ++k) {
      if (sampled[k] == cohort[k]) {
        continue;
      }
      store.CheckIn(sampled[k], anchor.data(), params[k].data(), nullptr);
      // The arrival "trains": perturb so its next check-out stores a
      // nonzero drift page rather than hitting the lazy no-store path.
      params[k][0] += 0.01f;
      cohort[k] = sampled[k];
      ++swaps;
    }
  }
};

/// Per-rotation cost of the paged store as the population grows with the
/// cohort pinned at K=64: the swap set stays ~K, so rotation time and store
/// memory must be population-independent (O(cohort + touched drift)).
void BM_FleetRotation(benchmark::State& state) {
  const size_t population = static_cast<size_t>(state.range(0));
  const size_t dim = 4096;
  FleetHarness harness(population, /*slots=*/64, dim);
  for (auto _ : state) {
    harness.Rotate();
    benchmark::DoNotOptimize(harness.store.pages_in_use());
  }
  state.SetItemsProcessed(static_cast<int64_t>(harness.swaps));
  state.counters["swaps_per_rotation"] =
      static_cast<double>(harness.swaps) /
      static_cast<double>(std::max<uint64_t>(1, harness.round));
  state.counters["store_mb"] =
      static_cast<double>(harness.store.resident_bytes()) / (1024.0 * 1024.0);
  state.counters["touched_clients"] =
      static_cast<double>(harness.store.touched_clients());
  state.counters["pages_in_use"] =
      static_cast<double>(harness.store.pages_in_use());
}
BENCHMARK(BM_FleetRotation)
    ->Arg(64)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

/// Writes the BENCH_population.json sweep: K=64 resident slots, population
/// 64 -> 10^6, a fixed number of rotations each, reporting rotation cost,
/// per-swap check-out/in cost, store bytes, and steady-state process RSS.
int RunPopulationSweep(const std::string& path) {
  const int slots = 64;
  const size_t dim = 4096;
  const uint64_t rotations = 32;
  const size_t populations[] = {64, 4096, 65536, 1000000};
  std::string json = "[\n";
  bool first = true;
  for (size_t population : populations) {
    FleetHarness harness(population, slots, dim);
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < rotations; ++r) {
      harness.Rotate();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const ClientStateStore& store = harness.store;
    const double per_swap_us =
        harness.swaps == 0
            ? 0.0
            : seconds * 1e6 / static_cast<double>(harness.swaps);
    // One swap moves a page each way: dim + state floats out, same back.
    const size_t swap_bytes =
        2 * (dim + store.state_size()) * sizeof(float);
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%s  {\"population\": %zu, \"cohort_slots\": %d, \"dim\": %zu,\n"
        "   \"rotations\": %llu, \"swaps\": %llu,\n"
        "   \"rotation_seconds_total\": %.6f, \"per_swap_us\": %.3f,\n"
        "   \"swap_bytes\": %zu, \"store_resident_bytes\": %zu,\n"
        "   \"touched_clients\": %zu, \"pages_in_use\": %zu,\n"
        "   \"pages_allocated\": %zu, \"process_rss_bytes\": %zu}",
        first ? "" : ",\n", population, slots, dim,
        static_cast<unsigned long long>(rotations),
        static_cast<unsigned long long>(harness.swaps), seconds, per_swap_us,
        swap_bytes, store.resident_bytes(), store.touched_clients(),
        store.pages_in_use(), store.pages_allocated(), CurrentRssBytes());
    json += buf;
    first = false;
    std::printf(
        "population=%zu swaps=%llu per_swap_us=%.3f store_mb=%.1f "
        "touched=%zu rss_mb=%.1f\n",
        population, static_cast<unsigned long long>(harness.swaps),
        per_swap_us,
        static_cast<double>(store.resident_bytes()) / (1024.0 * 1024.0),
        store.touched_clients(),
        static_cast<double>(CurrentRssBytes()) / (1024.0 * 1024.0));
  }
  json += "\n]\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ------------------------------------------------- hardware-limit sweeps --

/// Median-free steady-state timing: warm up once, then grow the repetition
/// count until one measured batch runs >= 25 ms, and report seconds per
/// call. steady_clock measures elapsed time only; nothing is seeded from it.
double SecondsPerCall(const std::function<void()>& fn) {
  fn();  // warm-up: faults pages, primes caches and the dispatch table
  long reps = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (long r = 0; r < reps; ++r) {
      fn();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds >= 0.025) {
      return seconds / static_cast<double>(reps);
    }
    // Aim past the threshold with margin; cap growth for very fast calls.
    const double target = 0.035;
    reps = seconds <= 1e-6
               ? reps * 64
               : static_cast<long>(static_cast<double>(reps) * target /
                                   seconds) +
                     1;
  }
}

/// The `host` member of the recorded sweeps: what the timings depend on —
/// online cores, the active SIMD level, whether the build is -march=native
/// (the portable bodies vectorize for the build's ISA, so their timings
/// depend on it), and FEDRA_NUM_THREADS verbatim (null when unset). Opens
/// the JSON object: "{\n  \"host\": {...},\n".
std::string HostJsonHead() {
  const char* num_threads_env = std::getenv("FEDRA_NUM_THREADS");
  const char* quote = num_threads_env != nullptr ? "\"" : "";
  char host[256];
  std::snprintf(host, sizeof(host),
                "{\n  \"host\": {\"nproc\": %u, \"simd_level\": \"%s\", "
                "\"native_arch\": %s, \"fedra_num_threads\": %s%s%s},\n",
                std::thread::hardware_concurrency(),
                simd::LevelName(simd::ActiveLevel()),
                FEDRA_BENCH_NATIVE_ARCH != 0 ? "true" : "false", quote,
                num_threads_env != nullptr ? num_threads_env : "null", quote);
  return host;
}

/// Writes BENCH_kernels.json: the `host` object (HostJsonHead), then every
/// dispatched kernel timed at every SIMD level this host supports
/// (simd::SupportedLevels x simd::SetLevel), with bytes-touched GB/s,
/// GFLOP/s where FLOPs are well-defined, and speedup relative to the
/// kScalar portable bodies. Buffers are L2-resident (n = 4096; the
/// 256 x 256 pack_b_trans operand is 256 KB) so the numbers expose compute
/// limits, not DRAM bandwidth. Each kernel is timed in kSweeps sweeps over
/// the levels, interleaved so that a slow phase of the host lands on every
/// level alike, and each level reports its median sweep.
int RunKernelsSweep(const std::string& path) {
  constexpr int kSweeps = 5;
  const size_t n = 4096;
  const size_t reduce_bufs = 8;
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  const simd::Level default_level = simd::ActiveLevel();

  auto x = RandomVec(n, 80);
  auto b2 = RandomVec(n, 81);
  auto y = RandomVec(n, 82);
  std::vector<float> out(n);
  std::vector<std::vector<float>> reduce_storage;
  std::vector<const float*> bufs;
  for (size_t k = 0; k < reduce_bufs; ++k) {
    reduce_storage.push_back(RandomVec(n, 83 + k));
    bufs.push_back(reduce_storage.back().data());
  }
  const int kc = 256;
  auto apanel = RandomVec(static_cast<size_t>(kc) * simd::kGemmMr, 90);
  auto bpanel = RandomVec(static_cast<size_t>(kc) * simd::kGemmNr, 91);
  std::vector<float> acc(static_cast<size_t>(simd::kGemmMr) * simd::kGemmNr);
  auto adam_params = RandomVec(n, 92);
  std::vector<float> adam_m(n, 0.0f);
  std::vector<float> adam_v(n, 0.0f);
  vec::AdamStepArgs adam;
  adam.lr = 1e-3f;
  adam.corrected_lr = 1e-3f;
  adam.beta1 = 0.9f;
  adam.beta2 = 0.999f;
  adam.epsilon = 1e-7f;
  auto tanh_in = RandomVec(n, 94);
  for (float& v : tanh_in) {
    v *= 1.5f;  // standard deviation 1.5, about a LeNet pre-activation's
  }
  const int pack_dim = 256;
  const size_t pack_elems = static_cast<size_t>(pack_dim) * pack_dim;
  auto pack_src = RandomVec(pack_elems, 93);
  std::vector<float> pack_dst(pack_elems);
  // One block of SketchFDA's 5 x 250 sketch: a family over exactly
  // vec::kBucketBlock coordinates. Its lists' entry count (padding
  // included, since every step loads all 16 lanes) sets the bytes read.
  const int sketch_rows = 5;
  const int sketch_cols = 250;
  const auto bucket_family =
      AmsHashFamily::Create(sketch_rows, sketch_cols, vec::kBucketBlock, 95);
  auto bucket_x = RandomVec(vec::kBucketBlock, 96);
  std::vector<float> bucket_cells(static_cast<size_t>(sketch_rows) *
                                  sketch_cols);
  const vec::BucketSumArgs bucket_args =
      bucket_family->BucketSumArgs(bucket_x.data(), bucket_cells.data());
  const size_t bucket_runs =
      static_cast<size_t>(sketch_rows) *
      ((sketch_cols + vec::kBucketLanes - 1) / vec::kBucketLanes);
  double bucket_entries = 0.0;
  for (size_t i = 0; i < bucket_runs; ++i) {
    bucket_entries += static_cast<double>(bucket_args.runs[i].steps) *
                      vec::kBucketLanes;
  }
  // 2x2 pools: LeNet's first pool at batch 32 (192 planes of 16 x 16, the
  // kernels' block path) and 16 planes of 32 x 32 (their row path).
  struct PoolShape {
    size_t planes;
    int hw;
  };
  const PoolShape pool_blocks{32 * 6, 16};
  const PoolShape pool_rows{16, 32};
  const size_t pool_in_max = pool_blocks.planes * pool_blocks.hw *
                             pool_blocks.hw;
  auto pool_in = RandomVec(pool_in_max, 97);
  auto pool_out = RandomVec(pool_in_max / 4, 98);
  std::vector<float> pool_grad(pool_in_max, 0.0f);
  // col2im: every output row of LeNet conv2's input gradient at batch 32
  // (6 x 8 x 8 inputs, 5 x 5 valid: four 4-pixel rows a sample), read
  // from 32-column tap panels of two samples, as Conv2dBackward does.
  simd::Col2imRowArgs col2im;
  col2im.ld = simd::kGemmNr;
  col2im.channels = 6;
  col2im.in_h = col2im.in_w = 8;
  col2im.kernel = 5;
  col2im.stride = 1;
  col2im.pad = 0;
  col2im.x0 = 0;
  col2im.len = 4;
  const int col2im_batch = 32;
  const int col2im_taps = col2im.channels * col2im.kernel * col2im.kernel;
  const size_t col2im_sample =
      static_cast<size_t>(col2im.channels) * col2im.in_h * col2im.in_w;
  const std::vector<int> col2im_lo(5, 0);
  const std::vector<int> col2im_hi(5, col2im.len);
  col2im.x_lo = col2im_lo.data();
  col2im.x_hi = col2im_hi.data();
  auto col2im_strip =
      RandomVec(static_cast<size_t>(col2im_taps) * col2im.ld, 99);
  std::vector<float> col2im_grad(col2im_sample * col2im_batch, 0.0f);
  const double col2im_adds =
      static_cast<double>(col2im_batch) * 16 * col2im_taps;
  // The top-k mask's candidate compaction over fleet_codec's drift length
  // (d = 17,098) of Gaussians, at the floor of the top ~7%: about the
  // candidate share the sampled floor leaves a 5% mask.
  const size_t compact_n = 17098;
  auto compact_x = RandomVec(compact_n, 100);
  std::vector<uint32_t> compact_out(compact_n);
  const uint32_t compact_floor = std::bit_cast<uint32_t>(1.8f);
  const auto compact_passing = static_cast<double>(std::count_if(
      compact_x.begin(), compact_x.end(),
      [](float v) { return std::fabs(v) >= 1.8f; }));
  auto pool_bytes = [](const PoolShape& s) {
    return 1.25 * static_cast<double>(s.planes) * s.hw * s.hw * sizeof(float);
  };
  auto pool_outputs = [](const PoolShape& s) {
    return 0.25 * static_cast<double>(s.planes) * s.hw * s.hw;
  };

  struct Kernel {
    const char* name;
    double bytes_per_call;  // streams touched, for GB/s
    double flops_per_call;  // 0 when FLOPs are not the natural unit
    std::function<void()> run;
  };
  const double fn = static_cast<double>(n);
  const Kernel kernels[] = {
      {"axpy", 3 * fn * sizeof(float), 2 * fn,
       [&] { simd::Kernels().axpy(0.37f, x.data(), y.data(), n); }},
      {"dot", 2 * fn * sizeof(float), 2 * fn,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().dot(x.data(), b2.data(),
                                                      n));
       }},
      {"squared_norm", fn * sizeof(float), 2 * fn,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().squared_norm(x.data(), n));
       }},
      // A drift_fold pass of one block that stores u and has no xi.
      {"sub_squared_norm", 3 * fn * sizeof(float), 3 * fn,
       [&] {
         benchmark::DoNotOptimize(vec::SubSquaredNorm(
             x.data(), b2.data(), out.data(), n));
       }},
      // One whole pass as a single block, with <xi, u> and no store of u:
      // LinearFDA's fold. Reads w, w_t0 and xi; sub + two FMAs per element.
      {"drift_fold", 3 * fn * sizeof(float), 5 * fn,
       [&] {
         vec::DriftFoldLanes lanes;
         vec::DriftFoldArgs args;
         args.a = x.data();
         args.b = b2.data();
         args.xi = y.data();
         args.n = n;
         args.last = true;
         args.lanes = &lanes;
         simd::Kernels().drift_fold(args);
         benchmark::DoNotOptimize(lanes.dot_sum);
       }},
      {"reduce_scale",
       (static_cast<double>(reduce_bufs) + 1) * fn * sizeof(float),
       (static_cast<double>(reduce_bufs) + 1) * fn,
       [&] {
         simd::Kernels().reduce_scale(bufs.data(), reduce_bufs, n,
                                      1.0 / reduce_bufs, out.data());
       }},
      // Reads grads and reads+writes params, m and v: 7 floats per element.
      // 14 flops per element for Adam and AdamW alike, an FMA counting as
      // 2 and sqrt and div as 1 each: the wd FMA (AdamW: the decay FMA),
      // m's mul + FMA, v's 2 muls + FMA, and mul, sqrt, add, div, sub for
      // the update.
      {"adam_step", 7 * fn * sizeof(float), 14 * fn,
       [&] {
         simd::Kernels().adam_step(adam, x.data(), adam_params.data(),
                                   adam_m.data(), adam_v.data(), n);
         benchmark::DoNotOptimize(adam_params.data());
       }},
      // Reads x and writes y: 8 bytes per element. No FLOP count: the
      // branches of the portable body run different operation counts.
      {"tanh", 2 * fn * sizeof(float), 0.0,
       [&] {
         simd::Kernels().tanh(tanh_in.data(), out.data(), n);
         benchmark::DoNotOptimize(out.data());
         benchmark::ClobberMemory();
       }},
      // Reads 2 bytes per list entry and 4 per coordinate of the x block;
      // the 1,250 cells stay in registers and L1 and are not counted. One
      // add per (row, coordinate).
      {"bucket_sum",
       2.0 * bucket_entries +
           static_cast<double>(vec::kBucketBlock) * sizeof(float),
       static_cast<double>(sketch_rows) *
           static_cast<double>(vec::kBucketBlock),
       [&] {
         simd::Kernels().bucket_sum(bucket_args);
         benchmark::DoNotOptimize(bucket_cells.data());
         benchmark::ClobberMemory();
       }},
      {"gemm_micro_8x32",
       static_cast<double>(kc) * (simd::kGemmMr + simd::kGemmNr) *
           sizeof(float),
       2.0 * kc * simd::kGemmMr * simd::kGemmNr,
       [&] {
         simd::Kernels().gemm_micro_8x32(kc, apanel.data(), bpanel.data(),
                                         acc.data());
         benchmark::DoNotOptimize(acc.data());
       }},
      // A 256 x 256 trans_b operand (a Dense layer's weight) packed into
      // eight 32-wide panels, as the GEMM's PackB does: every float is read
      // once and written once, 8 bytes per element, and no arithmetic.
      {"pack_b_trans", 8.0 * static_cast<double>(pack_elems), 0.0,
       [&] {
         for (int j = 0; j < pack_dim; j += simd::kGemmNr) {
           const size_t offset = static_cast<size_t>(j) * pack_dim;
           simd::Kernels().pack_b_trans(pack_src.data() + offset,
                                        static_cast<size_t>(pack_dim),
                                        pack_dim, simd::kGemmNr,
                                        pack_dst.data() + offset);
         }
         benchmark::DoNotOptimize(pack_dst.data());
         benchmark::ClobberMemory();
       }},
      // A partial panel: a 10-output Dense head's 10 x 256 weight, the
      // operand every classifier's last layer packs per forward pass. It
      // reads 10 rows and writes the whole 32-wide panel, pad lanes zeroed.
      {"pack_b_trans_nr10",
       (10.0 + simd::kGemmNr) * pack_dim * sizeof(float), 0.0,
       [&] {
         simd::Kernels().pack_b_trans(pack_src.data(),
                                      static_cast<size_t>(pack_dim), pack_dim,
                                      10, pack_dst.data());
         benchmark::DoNotOptimize(pack_dst.data());
         benchmark::ClobberMemory();
       }},
      // Reads 4 inputs and writes 1 output per window: 4 adds and 1 mul.
      {"avg_pool_2x2", pool_bytes(pool_blocks),
       5.0 * pool_outputs(pool_blocks),
       [&] {
         simd::Kernels().avg_pool_2x2(pool_in.data(), pool_blocks.planes,
                                      pool_blocks.hw, pool_blocks.hw,
                                      pool_out.data());
         benchmark::DoNotOptimize(pool_out.data());
         benchmark::ClobberMemory();
       }},
      {"avg_pool_2x2_rows", pool_bytes(pool_rows),
       5.0 * pool_outputs(pool_rows),
       [&] {
         simd::Kernels().avg_pool_2x2(pool_in.data(), pool_rows.planes,
                                      pool_rows.hw, pool_rows.hw,
                                      pool_out.data());
         benchmark::DoNotOptimize(pool_out.data());
         benchmark::ClobberMemory();
       }},
      // Reads 1 output gradient and reads and writes 4 input cells per
      // window: a mul and a div per window, one add per cell.
      {"avg_pool_2x2_grad",
       pool_bytes(pool_blocks) +
           4.0 * pool_outputs(pool_blocks) * sizeof(float),
       6.0 * pool_outputs(pool_blocks),
       [&] {
         simd::Kernels().avg_pool_2x2_grad(pool_out.data(), pool_blocks.planes,
                                           pool_blocks.hw, pool_blocks.hw,
                                           pool_grad.data());
         benchmark::DoNotOptimize(pool_grad.data());
         benchmark::ClobberMemory();
       }},
      {"avg_pool_2x2_grad_rows",
       pool_bytes(pool_rows) + 4.0 * pool_outputs(pool_rows) * sizeof(float),
       6.0 * pool_outputs(pool_rows),
       [&] {
         simd::Kernels().avg_pool_2x2_grad(pool_out.data(), pool_rows.planes,
                                           pool_rows.hw, pool_rows.hw,
                                           pool_grad.data());
         benchmark::DoNotOptimize(pool_grad.data());
         benchmark::ClobberMemory();
       }},
      // Reads each tap once and reads and writes each input cell once; one
      // add per tap (a valid conv's taps all land inside the map).
      {"col2im_row",
       col2im_adds * sizeof(float) +
           2.0 * static_cast<double>(col2im_grad.size()) * sizeof(float),
       col2im_adds,
       [&] {
         simd::Col2imRowArgs row = col2im;
         for (int n = 0; n < col2im_batch; ++n) {
           row.grad_input = col2im_grad.data() + n * col2im_sample;
           for (row.y = 3; row.y >= 0; --row.y) {
             row.taps = col2im_strip.data() + (n % 2) * 16 + row.y * 4;
             simd::Kernels().col2im_row(row);
           }
         }
         benchmark::DoNotOptimize(col2im_grad.data());
         benchmark::ClobberMemory();
       }},
      // Reads each key once and writes the passing indices; no arithmetic.
      {"magnitude_compact",
       (static_cast<double>(compact_n) + compact_passing) * sizeof(float),
       0.0,
       [&] {
         benchmark::DoNotOptimize(simd::Kernels().magnitude_compact(
             compact_x.data(), compact_n, compact_floor, compact_out.data()));
         benchmark::ClobberMemory();
       }},
  };

  std::string json = HostJsonHead() + "  \"n\": 4096,\n  \"sweeps\": " +
                     std::to_string(kSweeps) + ",\n  \"levels\": [";
  for (size_t i = 0; i < levels.size(); ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" +
            simd::LevelName(levels[i]) + "\"";
  }
  json += "],\n  \"default_level\": \"";
  json += simd::LevelName(default_level);
  json += "\",\n  \"kernels\": [\n";

  bool first_kernel = true;
  for (const Kernel& kernel : kernels) {
    std::vector<std::vector<double>> sweeps(levels.size());
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (size_t i = 0; i < levels.size(); ++i) {
        simd::SetLevel(levels[i]);
        sweeps[i].push_back(SecondsPerCall(kernel.run));
      }
    }
    std::vector<double> seconds(levels.size());
    for (size_t i = 0; i < levels.size(); ++i) {
      std::sort(sweeps[i].begin(), sweeps[i].end());
      seconds[i] = sweeps[i][kSweeps / 2];
    }
    json += first_kernel ? "" : ",\n";
    first_kernel = false;
    char head[128];
    std::snprintf(head, sizeof(head), "    {\"kernel\": \"%s\", \"runs\": [",
                  kernel.name);
    json += head;
    for (size_t i = 0; i < levels.size(); ++i) {
      const double gbs = kernel.bytes_per_call / seconds[i] / 1e9;
      const double gflops = kernel.flops_per_call / seconds[i] / 1e9;
      // levels[0] is kScalar, the portable bodies, on every host.
      const double speedup = seconds[0] / seconds[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n      {\"level\": \"%s\", \"ns_per_call\": %.1f, "
                    "\"gb_per_s\": %.2f, \"gflop_per_s\": %.2f, "
                    "\"speedup_vs_scalar\": %.2f}",
                    i == 0 ? "" : ",", simd::LevelName(levels[i]),
                    seconds[i] * 1e9, gbs, gflops, speedup);
      json += buf;
      std::printf("%-18s %-8s %9.1f ns/call %8.2f GB/s %8.2f GFLOP/s "
                  "%5.2fx vs scalar\n",
                  kernel.name, simd::LevelName(levels[i]), seconds[i] * 1e9,
                  gbs, gflops, speedup);
    }
    json += "]}";
  }
  json += "\n  ]\n}\n";
  simd::SetLevel(default_level);

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Writes BENCH_compression.json: the `host` object (HostJsonHead), then the
/// WireCodec zoo over a 64K-float sync payload. Per codec: wire bytes and the
/// uplink reduction factor vs the raw float32 payload, the in-place encode
/// cost, the mask selection alone (MaskPreview), the dense vs
/// mask-restricted (sparse) SketchFDA state cost — the monitoring side of
/// the "AMS sketch accumulates the compressed drift" contract — and the
/// error-feedback residual energy after 32 rounds of re-sending the same
/// delta (bounded backlog, not linear growth).
int RunCompressionSweep(const std::string& path) {
  const size_t dim = 1 << 16;
  struct Codec {
    const char* label;
    CompressionConfig config;
    bool layered;
  };
  const Codec codecs[] = {
      {"none", CompressionConfig::None(), false},
      {"q8", CompressionConfig::Quantize8(), false},
      {"q4", CompressionConfig::Quantize4(), false},
      {"top5%", CompressionConfig::TopK(0.05), false},
      {"top5%+q8", CompressionConfig::TopKQuantize(0.05, 8), false},
      {"top5%+q4", CompressionConfig::TopKQuantize(0.05, 4), false},
      {"ltop5%+q8",
       CompressionConfig::Stages({CodecStageConfig::LayerTopK(0.05),
                                  CodecStageConfig::Quantize(8)}),
       true},
  };
  // Synthetic 16-layer model: 4096-float blocks, the layer-wise mask's unit.
  std::vector<size_t> layer_offsets;
  for (size_t offset = 0; offset < dim; offset += 4096) {
    layer_offsets.push_back(offset);
  }
  const auto drift = RandomVec(dim, 95);
  SketchVarianceMonitor sketch_monitor(dim, 5, 250, 0xa5a5a5a5ULL);
  std::vector<float> state(sketch_monitor.StateSize());
  std::string json = HostJsonHead() + "  \"codecs\": [\n";
  bool first = true;
  for (const Codec& codec : codecs) {
    SyncCompressor compressor(codec.config, dim, 1);
    if (codec.layered) {
      compressor.SetLayerOffsets(layer_offsets, dim);
    }
    const size_t raw_bytes = dim * sizeof(float);
    const size_t wire_bytes = compressor.WireBytes(dim);
    std::vector<float> payload(dim);
    const double encode_us =
        codec.config.enabled()
            ? SecondsPerCall([&] {
                std::memcpy(payload.data(), drift.data(),
                            dim * sizeof(float));
                compressor.CompressInPlace(0, payload.data(), dim);
              }) * 1e6
            : 0.0;
    const double dense_state_us = SecondsPerCall([&] {
      sketch_monitor.ComputeLocalState(drift.data(), state.data());
    }) * 1e6;
    // Masked monitoring splits into selection (MaskPreview, an O(dim)
    // radix select shared with the codec's own mask) and the sketch
    // accumulation proper, which shrinks to O(kept x rows).
    double mask_preview_us = 0.0;
    double sparse_state_us = dense_state_us;
    if (compressor.has_mask()) {
      mask_preview_us = SecondsPerCall([&] {
        benchmark::DoNotOptimize(compressor.MaskPreview(drift.data(), dim));
      }) * 1e6;
      const size_t kept = compressor.MaskPreview(drift.data(), dim);
      sparse_state_us = SecondsPerCall([&] {
        sketch_monitor.ComputeLocalStateSparse(
            drift.data(), compressor.kept_indices().data(), kept,
            state.data());
      }) * 1e6;
    }
    compressor.Reset();
    for (int round = 0; round < 32; ++round) {
      std::memcpy(payload.data(), drift.data(), dim * sizeof(float));
      compressor.CompressInPlace(0, payload.data(), dim);
    }
    const double ef_energy =
        compressor.has_residuals() ? compressor.ResidualEnergy(0) : 0.0;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"codec\": \"%s\", \"dim\": %zu, \"raw_bytes\": %zu,\n"
        "     \"wire_bytes\": %zu, \"reduction_x\": %.2f,\n"
        "     \"encode_us\": %.3f, \"mask_preview_us\": %.3f,\n"
        "     \"dense_state_us\": %.3f, \"sparse_state_us\": %.3f,\n"
        "     \"ef_energy_after_32\": %.6f}",
        first ? "" : ",\n", codec.config.ToString().c_str(), dim, raw_bytes,
        wire_bytes,
        static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes),
        encode_us, mask_preview_us, dense_state_us, sparse_state_us,
        ef_energy);
    json += buf;
    first = false;
    std::printf(
        "codec=%-10s wire=%zu reduction=%.2fx encode_us=%.1f mask_us=%.1f "
        "state_us dense=%.1f sparse=%.1f\n",
        codec.label, wire_bytes,
        static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes),
        encode_us, mask_preview_us, dense_state_us, sparse_state_us);
  }
  json += "\n  ]\n}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Writes BENCH_scheduler.json: the `host` object (HostJsonHead), then
/// Chase-Lev pool throughput at 1, 4, and 16 threads (sizes above `nproc`
/// measure oversubscription, not scaling). Two workloads per size: a chunked
/// ParallelForRange sweep over a 4M-float buffer (elements/s — fan-out,
/// steal, and completion-token cost amortized over real reads) and a burst
/// of 4096 trivial Schedule()d tasks plus Wait() (tasks/s — per-task
/// push/pop/wake cost, nothing amortized).
int RunSchedulerSweep(const std::string& path) {
  const size_t thread_counts[] = {1, 4, 16};
  const size_t n = 1 << 22;
  const size_t grain = 32768;
  const int burst = 4096;
  std::vector<float> data(n, 1.0f);

  std::string json = HostJsonHead() + "  \"pools\": [\n";

  bool first = true;
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    const double sweep_seconds = SecondsPerCall([&] {
      pool.ParallelForRange(n, grain, [&](size_t begin, size_t end) {
        float acc = 0.0f;
        for (size_t i = begin; i < end; ++i) {
          acc += data[i];
        }
        benchmark::DoNotOptimize(acc);
      });
    });
    std::atomic<int> sink{0};
    const double burst_seconds = SecondsPerCall([&] {
      for (int i = 0; i < burst; ++i) {
        pool.Schedule([&] { sink.fetch_add(1, std::memory_order_relaxed); });
      }
      pool.Wait();
    });
    const double elems_per_s = static_cast<double>(n) / sweep_seconds;
    const double tasks_per_s = static_cast<double>(burst) / burst_seconds;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"threads\": %zu, \"parallel_for_elems_per_s\": %.3e, "
        "\"parallel_for_gb_per_s\": %.2f, \"schedule_tasks_per_s\": %.3e, "
        "\"schedule_task_ns\": %.1f}",
        first ? "" : ",\n", threads, elems_per_s,
        static_cast<double>(n) * sizeof(float) / sweep_seconds / 1e9,
        tasks_per_s, burst_seconds / burst * 1e9);
    json += buf;
    first = false;
    std::printf("threads=%zu parallel_for=%.3e elems/s schedule=%.3e "
                "tasks/s\n",
                threads, elems_per_s, tasks_per_s);
  }
  json += "\n  ]\n}\n";

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace fedra

int main(int argc, char** argv) {
  // Pull out our own --backend/--threads flags before google-benchmark sees
  // argv.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const std::string value = argv[i] + 10;
      if (value == "ref") {
        fedra::g_use_ref_backend = true;
      } else if (value == "fast") {
        fedra::g_use_ref_backend = false;
      } else {
        std::fprintf(stderr, "unknown --backend=%s (want ref|fast)\n",
                     value.c_str());
        return 1;
      }
    } else if (std::strncmp(argv[i], "--population_json=", 18) == 0) {
      // Fleet population sweep: writes BENCH_population.json-style output
      // and exits without running the registered benchmarks.
      return fedra::RunPopulationSweep(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--kernels_json=", 15) == 0) {
      // Per-SIMD-level kernel sweep: writes BENCH_kernels.json and exits.
      return fedra::RunKernelsSweep(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--scheduler_json=", 17) == 0) {
      // Pool throughput sweep: writes BENCH_scheduler.json and exits.
      return fedra::RunSchedulerSweep(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--compression_json=", 19) == 0) {
      // WireCodec zoo sweep: writes BENCH_compression.json and exits.
      return fedra::RunCompressionSweep(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Sizes the lazily created global pool; must land before any kernel
      // touches it, which main() guarantees.
      const unsigned long n = std::strtoul(argv[i] + 10, nullptr, 10);
      if (n == 0) {
        std::fprintf(stderr, "--threads=N needs N >= 1\n");
        return 1;
      }
      fedra::SetGlobalThreadPoolThreads(static_cast<size_t>(n));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
