/// \file
/// Round-robin admission control in front of the query service.
///
/// The QueryService pool is a shared resource: without a gate, one tenant
/// streaming huge batches at one digest occupies every worker and every
/// other tenant's batches queue behind its backlog. The dispatcher sits
/// between the server's frame handler and QueryService::submit<W> and
/// enforces three limits:
///
///   * per-tenant inflight cap — at most `per_tenant_inflight` batches of
///     one digest inside the service at once; excess arrivals queue;
///   * per-tenant queue cap — at most `per_tenant_queue` batches parked
///     per digest; beyond that the verdict is kBusy and the caller sends a
///     BUSY frame (the batch is never silently dropped);
///   * total inflight cap — the sum across tenants, so the pool's task
///     queue stays bounded no matter how many tenants are registered.
///
/// Queued batches drain in round-robin order: each completion pumps the
/// ring, granting one batch per tenant per lap. A saturating tenant
/// therefore cannot starve another — the starved tenant's first queued
/// batch is at most one ring lap away from dispatch, and the fairness test
/// in tests/registry_test.cpp pins exactly that property.
///
/// Thread safety: submit_task() and the internal completion hook may run
/// concurrently from any threads. A batch's start function is always
/// invoked OUTSIDE the dispatcher lock (it may do real work), and the
/// completion bookkeeping runs BEFORE the caller's callback — so by the
/// time a server's inflight gate releases its last batch, the dispatcher
/// is quiescent and safe to destroy.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "service/query_service.hpp"
#include "util/deadline.hpp"

namespace msrp::registry {

struct DispatchOptions {
  /// Batches one digest may have inside the QueryService at once (>= 1).
  std::size_t per_tenant_inflight = 16;
  /// Batches parked per digest beyond the inflight cap; 0 = never queue,
  /// reject with kBusy as soon as the inflight cap binds.
  std::size_t per_tenant_queue = 256;
  /// Summed inflight cap across all tenants (>= 1).
  std::size_t total_inflight = 128;
};

enum class DispatchVerdict {
  kDispatched,  ///< handed to the service immediately
  kQueued,      ///< parked; dispatches when a completion frees capacity
  kBusy,        ///< rejected — queue full; the callback will never run
};

class FairDispatcher {
 public:
  /// A deferred batch of any workload: invoked (at most once, outside the
  /// dispatcher lock) when the batch wins an inflight slot, with the
  /// dispatcher's bookkeeping wrapped into the callback it must hand to the
  /// service, and the batch's end-to-end budget (kNoDeadline = none),
  /// already spent in part by any time the batch sat in the queue.
  /// Admission control does not care what the batch computes — only that
  /// exactly one completion comes back.
  using StartFn = std::function<void(service::BatchCallback, Deadline)>;

  explicit FairDispatcher(DispatchOptions opts);

  FairDispatcher(const FairDispatcher&) = delete;
  FairDispatcher& operator=(const FairDispatcher&) = delete;

  /// Admits one batch for `digest`. On kDispatched/kQueued, `start` runs
  /// once the batch holds an inflight slot and must hand the callback and
  /// deadline it receives to exactly one service submit; `done` then fires
  /// exactly once when the batch completes (bookkeeping already done). On
  /// kBusy neither ever runs. A batch whose `deadline` passes while parked
  /// in the queue is completed with DeadlineExceeded at the next pump, and
  /// its `start` is never invoked.
  DispatchVerdict submit_task(std::uint64_t digest, StartFn start,
                              service::BatchCallback done, Deadline deadline = kNoDeadline);

  // Observability (tests assert against these).
  std::size_t inflight_batches() const;
  std::size_t queued_batches() const;
  std::size_t tenant_inflight(std::uint64_t digest) const;
  std::uint64_t busy_rejections() const;
  std::uint64_t dispatched_total() const;
  /// Queued batches completed with DeadlineExceeded before dispatch.
  std::uint64_t deadline_expirations() const;

 private:
  struct Pending {
    StartFn start;  ///< hands the batch to the service when dispatched
    service::BatchCallback done;
    Deadline deadline = kNoDeadline;
  };
  struct Tenant {
    std::deque<Pending> queue;
    std::size_t inflight = 0;
    bool in_ring = false;
  };
  /// One batch popped by the pump, dispatched outside the lock.
  struct Ready {
    std::uint64_t digest = 0;
    Pending batch;
  };

  void on_complete(std::uint64_t digest);
  /// Drains the ring as far as the caps allow; fills `out` for the caller
  /// to dispatch after unlocking, and `expired` with queued batches whose
  /// deadline passed (their callbacks fire outside the lock, with
  /// DeadlineExceeded — they never took an inflight slot).
  void pump_locked(std::vector<Ready>& out, std::vector<Pending>& expired);
  /// Moves expired entries of every queued tenant into `expired`. Gated on
  /// queued_deadlines_ so deadline-free workloads pay nothing.
  void expire_queued_locked(std::vector<Pending>& expired);
  void dispatch(std::uint64_t digest, Pending batch);
  /// Drops a tenant with no queued or inflight work (keeps the map bounded
  /// under digest churn).
  void maybe_erase_locked(std::uint64_t digest);

  DispatchOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Tenant> tenants_;
  std::deque<std::uint64_t> ring_;  // digests with queued work, RR order
  std::size_t total_inflight_ = 0;
  std::size_t total_queued_ = 0;
  std::size_t queued_deadlines_ = 0;  // queued batches with a real deadline
  std::uint64_t busy_rejections_ = 0;
  std::uint64_t dispatched_total_ = 0;
  std::uint64_t deadline_expirations_ = 0;
};

}  // namespace msrp::registry
