// Determinism-lint self-test fixture: every banned construct, one per
// rule, in its simplest form. lint_determinism.py --self-test asserts the
// exact rule counts below fire — update both together when rules change.
// Never compiled; linter input only.
//
// Expected findings:
//   std-rand            x3  (std::rand(), srand(), cohort-pick rand())
//   wall-clock-seed     x3  (time(nullptr), system_clock, round-rng time())
//   random-device       x1
//   unordered-iteration x1
//   raw-thread          x2  (std::thread, std::async)
//   variable-chunk      x1
//   raw-cpu-dispatch    x8  (__builtin_cpu_supports, #ifdef __AVX2__,
//                            <immintrin.h>, <arm_neon.h>, target attribute,
//                            [[gnu::target]], __m512 type, _mm512_ call)
//   fp-contract         x7  (#pragma GCC optimize, #pragma clang fp,
//                            #pragma STDC FP_CONTRACT, #pragma
//                            float_control, _Pragma("GCC optimize"),
//                            optimize attribute, [[gnu::optimize]])
//   empty-waiver        x1

#include <arm_neon.h>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <future>
#include <immintrin.h>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fedra_lint_fixture {

struct Pool {
  template <typename Body>
  void ParallelForRange(unsigned long n, unsigned long grain,
                        const Body& body);
  unsigned long num_threads() const;
};

int CRand() { return std::rand(); }

void CSeed(unsigned seed) { srand(seed); }

unsigned WallClockSeed() { return static_cast<unsigned>(time(nullptr)); }

long SystemClockEntropy() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

unsigned FreshEntropy() {
  std::random_device device;
  return device();
}

double HashOrderSum(const std::unordered_map<int, double>& values) {
  double total = 0.0;
  for (const auto& [key, value] : values) {
    total += value;  // hash-order float accumulation: the canonical bug
  }
  return total;
}

void RawThread() {
  std::thread worker([] {});
  worker.join();
}

void RawAsync() { auto f = std::async([] { return 1; }); }

// The cohort-sampling shape of the same bugs: picking a fleet's cohort
// with the C PRNG makes the schedule irreproducible and thread-timing
// dependent, and seeding the per-round stream from the wall clock makes
// every run sample a different fleet. The blessed pattern (a per-round
// Rng::Fork of the run seed) lives in the clean fixture.
unsigned long SampleCohortClient(unsigned long population) {
  return static_cast<unsigned long>(rand()) % population;
}

unsigned long long RoundRngSeed(unsigned long long round) {
  return static_cast<unsigned long long>(time(nullptr)) + round;
}

void VariableChunkReduce(Pool& pool, const std::vector<float>& xs) {
  // Grain derived from the thread count: boundaries differ per machine.
  pool.ParallelForRange(xs.size(), xs.size() / pool.num_threads(),
                        [](unsigned long, unsigned long) {});
}

// Ad-hoc ISA branching: which accumulation pattern runs now depends on the
// host CPU of this call site, invisible to the dispatch parity suite. The
// blessed path is the simd::Kernels() table in src/tensor/simd_dispatch.*.
bool HostPicksTheKernel() { return __builtin_cpu_supports("avx2"); }

#ifdef __AVX2__
inline constexpr int kIsaTunedBlock = 16;
#else
inline constexpr int kIsaTunedBlock = 4;
#endif

// A target attribute compiles an ISA kernel under any -march with no #ifdef
// at all, so the kernel itself is flagged: the attribute (in either
// spelling), the vector type, and the intrinsic call each on its own line.
__attribute__((target("avx512f"))) void HandVectorizedLoad(float* x) {
  __m512 lanes;
  lanes = _mm512_loadu_ps(x);
  (void)lanes;
}

[[gnu::target("avx2")]] void OtherAttributeSpelling();

// A contraction setting picks, per call site, whether a multiply and an add
// round once (FMA) or twice, so the same expression gives different bits
// under it than in the rest of the build. Every spelling is flagged.
#pragma GCC optimize("fp-contract=off")
#pragma clang fp contract(fast)
#pragma STDC FP_CONTRACT ON
#pragma float_control(precise, off)
_Pragma("GCC optimize(\"fp-contract=fast\")")

__attribute__((optimize("fp-contract=fast"))) float FusedHere(float a,
                                                             float b) {
  return a * b + 1.0f;
}

[[gnu::optimize("O0")]] float OtherOptimizeSpelling(float a);

// A waiver that names no reason is rejected outright:
// fedra-nondeterminism-ok:
int kUnjustified = 0;

}  // namespace fedra_lint_fixture
