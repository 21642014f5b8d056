#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace msrp {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

namespace {

/// Shared state of one parallel_for: the claim cursor, the completion count,
/// and the lowest-index failure. Helper tasks co-own it, so a helper that
/// fires only after the loop has drained finds an exhausted cursor and
/// returns without ever touching the (by then destroyed) loop body.
struct LoopState {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable all_done_cv;
  std::size_t done = 0;  // guarded by mu; caller waits for done == n
  std::size_t error_index = 0;
  std::exception_ptr error;

  /// Claims and runs items until the cursor is exhausted. Failing items are
  /// recorded, not short-circuited: every item runs exactly once, which is
  /// what lets the caller wait for the simple condition done == n with no
  /// cancellation races (errors are rare and the phase result is discarded
  /// on throw anyway).
  std::size_t drain(std::size_t slot) {
    std::size_t completed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*body)(i, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
      ++completed;
    }
    return completed;
  }

  void finish(std::size_t completed) {
    if (completed == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += completed;
    if (done == n) all_done_cv.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->body = &body;
  state->n = n;

  // One helper per worker (capped by the item count); the caller is the
  // (size()+1)-th participant and starts draining immediately, so the loop
  // completes even if no helper is ever scheduled — the property that makes
  // fan-out from inside a pool task (cold oracle build on the service pool)
  // deadlock-free.
  const std::size_t helpers = std::min<std::size_t>(size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state, h] { state->finish(state->drain(h + 1)); });
  }
  state->finish(state->drain(0));

  // Every item is claimed and completed by exactly one participant, so
  // done == n both terminates the wait and proves no thread is still inside
  // `body` — late helpers see an exhausted cursor and bail out.
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done_cv.wait(lock, [&] { return state->done == state->n; });
  if (state->error) {
    std::exception_ptr err = state->error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // A throwing task must not take its worker down with it.
    }
  }
}

}  // namespace msrp
