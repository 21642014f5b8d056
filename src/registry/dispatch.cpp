#include "registry/dispatch.hpp"

#include <utility>

#include "util/assert.hpp"

namespace msrp::registry {

FairDispatcher::FairDispatcher(DispatchOptions opts) : opts_(opts) {
  MSRP_REQUIRE(opts_.per_tenant_inflight >= 1, "dispatcher: per-tenant inflight cap must be >= 1");
  MSRP_REQUIRE(opts_.total_inflight >= 1, "dispatcher: total inflight cap must be >= 1");
}

DispatchVerdict FairDispatcher::submit_task(std::uint64_t digest, StartFn start,
                                            service::BatchCallback done, Deadline deadline) {
  MSRP_REQUIRE(start != nullptr, "dispatcher: null start function");
  MSRP_REQUIRE(done != nullptr, "dispatcher: null callback");
  Pending batch{std::move(start), std::move(done), deadline};
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tenant& t = tenants_[digest];
    // Fast path only when nothing of this tenant is queued — a batch must
    // never overtake its own tenant's parked predecessors (per-tenant FIFO
    // is part of the contract).
    if (t.queue.empty() && t.inflight < opts_.per_tenant_inflight &&
        total_inflight_ < opts_.total_inflight) {
      ++t.inflight;
      ++total_inflight_;
      ++dispatched_total_;
    } else if (t.queue.size() >= opts_.per_tenant_queue) {
      ++busy_rejections_;
      maybe_erase_locked(digest);
      return DispatchVerdict::kBusy;
    } else {
      t.queue.push_back(std::move(batch));
      ++total_queued_;
      if (deadline != kNoDeadline) ++queued_deadlines_;
      if (!t.in_ring) {
        t.in_ring = true;
        ring_.push_back(digest);
      }
      return DispatchVerdict::kQueued;
    }
  }
  dispatch(digest, std::move(batch));
  return DispatchVerdict::kDispatched;
}

void FairDispatcher::dispatch(std::uint64_t digest, Pending batch) {
  // The wrapper does the dispatcher's completion bookkeeping BEFORE the
  // caller's callback: the callback typically releases a server-side
  // inflight gate whose drain implies "the dispatcher is idle", so nothing
  // of ours may run after it.
  auto wrapper = [this, digest, done = std::move(batch.done)](service::BatchResult result) {
    on_complete(digest);
    done(std::move(result));
  };
  try {
    batch.start(wrapper, batch.deadline);
  } catch (...) {
    // start threw before enqueueing anything (allocation failure): the
    // service will never invoke the wrapper, so deliver the failure
    // ourselves — exactly once, with the bookkeeping the wrapper carries.
    wrapper(service::BatchResult{{}, nullptr, std::current_exception()});
  }
}

void FairDispatcher::on_complete(std::uint64_t digest) {
  std::vector<Ready> ready;
  std::vector<Pending> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(digest);
    MSRP_CHECK(it != tenants_.end() && it->second.inflight > 0,
               "dispatcher: completion for an unknown batch");
    --it->second.inflight;
    --total_inflight_;
    pump_locked(ready, expired);
    maybe_erase_locked(digest);
  }
  // Expired batches never held an inflight slot, so their completion is
  // just the callback — no recursive on_complete.
  for (Pending& p : expired) {
    p.done(service::BatchResult{
        {}, nullptr,
        std::make_exception_ptr(DeadlineExceeded("batch expired in dispatch queue"))});
  }
  for (Ready& r : ready) dispatch(r.digest, std::move(r.batch));
}

void FairDispatcher::expire_queued_locked(std::vector<Pending>& expired) {
  if (queued_deadlines_ == 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (std::uint64_t digest : ring_) {
    auto it = tenants_.find(digest);
    if (it == tenants_.end()) continue;
    auto& q = it->second.queue;
    for (auto pit = q.begin(); pit != q.end();) {
      if (pit->deadline == kNoDeadline || now < pit->deadline) {
        ++pit;
        continue;
      }
      expired.push_back(std::move(*pit));
      pit = q.erase(pit);
      --total_queued_;
      --queued_deadlines_;
      ++deadline_expirations_;
    }
  }
}

void FairDispatcher::pump_locked(std::vector<Ready>& out, std::vector<Pending>& expired) {
  expire_queued_locked(expired);
  // Round robin over the digests with queued work: the front tenant takes
  // one grant and rotates to the back. A full lap of rotations without a
  // single grant means every queued tenant is pinned by a cap — stop; the
  // next completion pumps again. Queued work always implies inflight work
  // somewhere (batches only queue when a cap binds), so the pump is always
  // re-entered and queues cannot wedge.
  std::size_t stalled = 0;
  while (!ring_.empty() && total_inflight_ < opts_.total_inflight) {
    const std::uint64_t digest = ring_.front();
    ring_.pop_front();
    Tenant& t = tenants_[digest];
    if (t.queue.empty()) {
      t.in_ring = false;
      maybe_erase_locked(digest);
      continue;
    }
    ring_.push_back(digest);
    if (t.inflight >= opts_.per_tenant_inflight) {
      if (++stalled >= ring_.size()) break;
      continue;
    }
    ++t.inflight;
    ++total_inflight_;
    ++dispatched_total_;
    --total_queued_;
    if (t.queue.front().deadline != kNoDeadline) --queued_deadlines_;
    stalled = 0;
    out.push_back(Ready{digest, std::move(t.queue.front())});
    t.queue.pop_front();
  }
}

void FairDispatcher::maybe_erase_locked(std::uint64_t digest) {
  auto it = tenants_.find(digest);
  if (it != tenants_.end() && it->second.inflight == 0 && it->second.queue.empty() &&
      !it->second.in_ring) {
    tenants_.erase(it);
  }
}

std::size_t FairDispatcher::inflight_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_inflight_;
}

std::size_t FairDispatcher::queued_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_;
}

std::size_t FairDispatcher::tenant_inflight(std::uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(digest);
  return it == tenants_.end() ? 0 : it->second.inflight;
}

std::uint64_t FairDispatcher::busy_rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_rejections_;
}

std::uint64_t FairDispatcher::dispatched_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatched_total_;
}

std::uint64_t FairDispatcher::deadline_expirations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_expirations_;
}

}  // namespace msrp::registry
