// Determinism-lint self-test fixture: every construct here is either
// blessed or correctly waived, so lint_determinism.py must report nothing.
// This file is never compiled (it is not a *_test.cc target); it exists
// only as linter input. Keep it in sync with the rules when they change.

#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

namespace fedra_lint_fixture {

constexpr size_t kReduceChunk = 1 << 15;

struct Rng {
  unsigned long long state;
  double NextDouble();
};

struct Pool {
  template <typename Body>
  void ParallelForRange(size_t n, size_t grain, const Body& body);
  size_t num_threads() const;
};

// Seeded streams through the blessed Rng type: fine.
double SampleLoss(Rng& rng) { return rng.NextDouble(); }

// Ordered container iteration: reproducible, no waiver needed.
double SumOrdered(const std::map<int, double>& values) {
  double total = 0.0;
  for (const auto& [key, value] : values) {
    total += value;
  }
  return total;
}

// Mentioning std::thread or rand() in a comment is not a violation; only
// code counts. Strings are blanked too: "call rand() never" stays inert.
const char* kDoc = "never call rand() or spawn a raw std::thread";

// Hash map probed by key only, never iterated: waived with a reason on the
// same line.
int LookupOnly(int key) {
  static std::unordered_map<int, int> cache;  // fedra-nondeterminism-ok: probed by key only, never iterated; no accumulation sees hash order
  auto it = cache.find(key);
  return it == cache.end() ? 0 : it->second;
}

// Standalone waiver comment covering the next line also works.
// fedra-nondeterminism-ok: identity dedup set, queried per element and never iterated
static std::unordered_map<long, bool> seen_ids;

// Fixed-chunk parallel reduction: grain is a thread-count-independent
// constant, so chunk boundaries (and the float combine order) are stable
// for any pool size.
void ReduceFixed(Pool& pool, const std::vector<float>& xs, double* out) {
  pool.ParallelForRange(xs.size(), kReduceChunk,
                        [&](size_t begin, size_t end) {
                          double partial = 0.0;
                          for (size_t i = begin; i < end; ++i) {
                            partial += xs[i];
                          }
                          (void)partial;
                          (void)out;
                        });
}

// Thread-count queries are fine on their own (sizing scratch buffers);
// only a ParallelFor grain derived from them is flagged.
size_t ScratchRows(const Pool& pool) { return pool.num_threads(); }

// The blessed cohort-sampling pattern (core/client_store.cc): the
// per-round stream is a pure function of (seed, round) via a seeded fork,
// so the fleet schedule replays bit-identically on any machine.
struct ForkableRng {
  unsigned long long state;
  ForkableRng Fork(unsigned long long stream) const;
  unsigned long long NextBounded(unsigned long long bound);
};

// Words that merely contain "target" are not target attributes.
struct Result {
  double gigabytes_to_target() const;
};
double Reach(const Result& result) { return result.gigabytes_to_target(); }

// Diagnostic pragmas change no arithmetic, and a method named optimize is
// not an optimize attribute.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-parameter"
struct Solver {
  double optimize(double x) const;
};
double Solve(const Solver& solver) { return solver.optimize(1.0); }
#pragma GCC diagnostic pop

unsigned long long SampleCohortClient(const ForkableRng& master,
                                      unsigned long long round,
                                      unsigned long long population) {
  ForkableRng round_rng = master.Fork(round);
  return round_rng.NextBounded(population);
}

}  // namespace fedra_lint_fixture
