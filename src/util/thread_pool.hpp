// Fixed-size worker pool shared by the query service and the parallel
// oracle builds (solve_msrp_subtree's pool, Config::build_pool).
//
// Tasks come in two flavours:
//
//   * submit() — fire-and-forget closures. Nothing waits on them: a task
//     that needs its outcome seen delivers it itself (QueryService::submit
//     invokes the batch callback as its last step). A task that throws
//     loses the exception; the worker survives and takes the next task.
//   * parallel_for() — a blocking parallel loop in which the CALLING thread
//     participates: items are claimed from a shared atomic cursor by the
//     caller and by helper tasks on the pool, so the loop completes even
//     when every worker is busy (or when the caller itself *is* a pool
//     worker, as in a cold-cache oracle build or a point batch running on
//     the service pool). This is the one sanctioned way for a pool task to
//     fan out onto its own pool without deadlocking, and the one way to
//     wait for work on the pool.
//
// Tasks must never block on other tasks of the same pool: with every
// worker parked in a wait there is nobody left to run the task being
// waited for. parallel_for is safe because the waiter drains the loop
// itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace msrp {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Never blocks. An exception the task throws is
  /// swallowed.
  void submit(std::function<void()> task);

  /// Runs body(i, slot) for every i in [0, n), spreading items across the
  /// pool's workers AND the calling thread, then returns once all n items
  /// have finished. `slot` identifies the participant (0 = the caller,
  /// 1..size() = pool helpers) and is stable for that thread across the
  /// whole loop — bodies use it to pick a private scratch arena. Items are
  /// claimed dynamically from an atomic cursor — which partition each
  /// thread ends up with is scheduling-dependent, so bodies must only
  /// write item-private state or accumulate through commutative operations
  /// (sums, mins) for the overall result to be deterministic. Every item
  /// runs exactly once even if some throw; the recorded exception of the
  /// smallest-index failure is rethrown in the caller. Deadlock-free from
  /// inside pool tasks: the caller drains the loop itself if no worker is
  /// free.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Participant count parallel_for may use: the caller plus every worker.
  std::size_t max_parallelism() const { return workers_.size() + 1; }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  bool stop_ = false;
};

/// parallel_for through an optional pool: runs sequentially (slot 0) when
/// `pool` is null, has a single worker, or the loop is trivially small. The
/// solver's phase loops all funnel through this so a Config with no pool
/// costs nothing over the pre-parallel code path.
template <typename F>
void maybe_parallel_for(ThreadPool* pool, std::size_t n, F&& body) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  pool->parallel_for(
      n, std::function<void(std::size_t, std::size_t)>(std::forward<F>(body)));
}

}  // namespace msrp
