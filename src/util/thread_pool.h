// Work-stealing thread pool with chunked ParallelFor conveniences.
//
// The simulated cluster can evaluate worker-local training steps in parallel;
// determinism is preserved because each worker owns its forked Rng stream and
// workers never share mutable state within a step. The tensor backend also
// uses the pool (GEMM row x column tile grid), so ParallelFor is re-entrancy
// safe: a call made from inside a pool worker parks its helper runners on
// that worker's own deque and drains its chunks itself, so it never blocks
// on a task that is still queued.
//
// Scheduling model: each worker owns a lock-free Chase-Lev deque
// (util/chase_lev_deque.h) — the owner pushes and pops LIFO at the bottom,
// idle peers steal FIFO from the top. Pushes from threads outside the pool
// land in a mutex-guarded injector queue that any worker drains; targeted
// tasks (ScheduleOn) land in the target worker's private inbox, which is
// never stolen — that is what makes first-touch page placement addressable
// (core/worker_arena.h). Every ParallelFor/ParallelForRange call carries its
// own heap-owned completion token, so two independent callers on different
// threads only ever wait for their *own* chunks — never each other's. The
// calling thread participates in draining its own chunks, so a ParallelFor
// makes progress even when every worker is busy with someone else's work.

#ifndef FEDRA_UTIL_THREAD_POOL_H_
#define FEDRA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/chase_lev_deque.h"

namespace fedra {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is a worker of *some* ThreadPool. Callers
  /// use it to keep work that would block on a pool from a pool task
  /// (ops.cc's UsePool, first-touch arena zeroing); ParallelForRange uses it
  /// to run a call from another pool's worker inline.
  static bool OnPoolThread();

  /// Enqueues a task; it runs on some pool thread.
  void Schedule(std::function<void()> task);

  /// Enqueues a task that runs on worker `index` specifically — it goes to
  /// that worker's inbox and is never stolen. For placement-sensitive work
  /// (first-touch page zeroing, per-worker cache warmup). Tracked by Wait()
  /// exactly like Schedule().
  void ScheduleOn(size_t index, std::function<void()> task);

  /// Blocks until all tasks passed to Schedule()/ScheduleOn() have
  /// completed. ParallelFor chunks are tracked by their own per-call token
  /// and never count here.
  void Wait();

  /// Runs body(i) for i in [0, n), distributing across the pool and blocking
  /// until done. Indices are handed out `grain` at a time so fine-grained
  /// loops don't pay one queue round-trip per index. Runs inline when the
  /// pool has one thread or n <= grain. A nested call from one of this
  /// pool's own workers pushes its helper runners onto that worker's own
  /// deque — idle peers steal them, so nested loops (a GEMM inside a
  /// parallel worker step) still fan out; the caller drains all remaining
  /// chunks itself, so an all-busy pool degrades to the old inline behavior.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   size_t grain = 1);

  /// Range flavor: runs body(begin, end) over disjoint [begin, end) chunks of
  /// at most `grain` indices covering [0, n). Preferred for kernels that can
  /// amortize work across a whole chunk (GEMM row-block panels, vec spans).
  void ParallelForRange(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body);

  /// 2-D tile grid: runs body(r, c) for every (r, c) in [0, rows) x [0, cols)
  /// with one task per tile. Used by the packed-panel GEMM to expose
  /// row x column parallelism instead of row blocks only.
  void ParallelFor2d(size_t rows, size_t cols,
                     const std::function<void(size_t, size_t)>& body);

 private:
  // Tasks are heap-allocated so the Chase-Lev cells hold fixed-size atomic
  // pointers; whoever dequeues a task runs and deletes it.
  using Task = std::function<void()>;

  // Targeted tasks for one worker. A plain mutex is fine here: the inbox
  // carries rare, coarse placement work, not the steady-state task stream.
  // `size` is the lock-free occupancy hint the sleep predicate and the pop
  // fast path read.
  struct Inbox {
    std::mutex mutex;
    std::deque<Task*> tasks;
    std::atomic<size_t> size{0};
  };

  void WorkerLoop(size_t worker_index);
  // Pops from the bottom of the worker's own deque, then its inbox, then
  // the injector, then steals from the top of each peer's deque. Returns
  // nullptr when everything came up empty (a lost steal race also ends the
  // sweep empty-handed; the caller re-checks the occupancy counters).
  Task* TryPop(size_t preferred);
  // Stealable push: the calling worker's own deque when called from a pool
  // thread, else the injector. The backbone of Schedule and ParallelFor.
  void PushTask(std::function<void()> task);
  // Push to one specific worker: its own deque when the caller *is* that
  // worker (nested ParallelFor), else its inbox.
  void PushTaskTo(size_t index, std::function<void()> task);

  std::vector<std::unique_ptr<ChaseLevDeque<Task>>> deques_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::thread> threads_;
  std::mutex injector_mutex_;
  std::deque<Task*> injector_;
  // Stealable tasks in flight: deques + injector. Inbox occupancy is
  // per-worker (Inbox::size) so idle peers don't spin on work only one
  // worker may take.
  std::atomic<size_t> queued_{0};
  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::atomic<size_t> scheduled_in_flight_{0};  // Schedule()d tasks only
  std::mutex wait_mutex_;
  std::condition_variable scheduled_done_;
  std::atomic<bool> shutting_down_{false};
};

/// Process-wide pool for library internals. Sized, in order of precedence, by
/// SetGlobalThreadPoolThreads(), the FEDRA_NUM_THREADS environment variable,
/// or hardware concurrency.
ThreadPool& GlobalThreadPool();

/// Overrides the size of the lazily created global pool. Must be called
/// before the first GlobalThreadPool() use to have any effect (benchmarks
/// call it from main() when given --threads=N); 0 restores the default.
void SetGlobalThreadPoolThreads(size_t num_threads);

}  // namespace fedra

#endif  // FEDRA_UTIL_THREAD_POOL_H_
