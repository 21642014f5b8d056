/// \file
/// Lock-free SPSC query transport between the shard router and one worker.
///
/// Each shard gets one shared-memory segment holding a ShardChannel: a
/// control block plus two single-producer/single-consumer rings of
/// fixed-width slots — requests flowing supervisor -> worker, responses
/// flowing back. SPSC is guaranteed structurally: the router serializes its
/// batches (one producer), and each worker is a single-threaded loop (one
/// consumer). Under that discipline a ring needs nothing beyond one
/// acquire/release cursor pair per direction — no CAS, no futex, no
/// syscalls on the hot path.
///
/// Every request tag carries a batch namespace in its high 32 bits and the
/// query's batch index in the low 32 (make_tag/tag_namespace/tag_index);
/// every response echoes it. That is what lets several batches overlap in
/// the rings at once: the router merges completions by (namespace, index)
/// no matter how shards or batches interleave, and can requeue precisely
/// the unanswered tags — across all namespaces — when a worker dies
/// mid-flight (the supervisor then reset()s the rings before the respawned
/// worker attaches).
///
/// Idle waiting is doorbell-based (util/futex.hpp): request_doorbell() is
/// bumped+woken by the supervisor after pushing requests (and on stop), so
/// an idle worker parks in the kernel instead of sleep-polling; workers
/// ring back through the router-global ShardDoorbell segment after pushing
/// responses. Both sides spin kShardSpinRounds empty rounds before
/// parking, which keeps sub-µs latency while traffic flows.
///
/// The slots and cursors are plain trivially-copyable data + lock-free
/// std::atomic, so the struct can live in zero-initialized shared memory
/// mapped by unrelated processes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "graph/graph.hpp"
#include "util/distance.hpp"

namespace msrp::service {

/// Empty poll rounds the collector and each worker busy-spin before
/// parking on their futex doorbell.
inline constexpr std::uint32_t kShardSpinRounds = 64;
/// Upper bound on one doorbell park, in microseconds. It bounds how long a
/// lost wake (a crashed peer) can stall either side, and it is the cadence
/// of the collector's worker-death checks and the workers' orphan checks.
inline constexpr std::uint64_t kShardParkTimeoutUs = 10000;

/// Tags are (batch namespace << 32) | batch index: the namespace names one
/// in-flight batch, the index the query's slot within it. Batches are
/// capped at 2^32 queries by construction.
inline std::uint64_t make_tag(std::uint32_t ns, std::uint32_t index) {
  return (std::uint64_t{ns} << 32) | index;
}
inline std::uint32_t tag_namespace(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag >> 32);
}
inline std::uint32_t tag_index(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag);
}

/// One routed point query; `tag` is make_tag(namespace, batch index).
struct ShardRequest {
  std::uint64_t tag = 0;
  std::uint32_t si = 0;  // source index LOCAL to the shard's sub-snapshot
  Vertex t = 0;
  EdgeId e = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ShardRequest) == 24 && std::is_trivially_copyable_v<ShardRequest>);

/// One answer; echoes the request's tag.
struct ShardResponse {
  std::uint64_t tag = 0;
  Dist answer = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ShardResponse) == 16 && std::is_trivially_copyable_v<ShardResponse>);

/// A ring cursor on its own cache line (producer and consumer each own one,
/// so neither write ping-pongs the other's line).
struct alignas(64) ShardCursor {
  std::atomic<std::uint64_t> pos;
  char pad_[64 - sizeof(std::atomic<std::uint64_t>)];
};
static_assert(sizeof(ShardCursor) == 64);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "shard channel atomics must be address-free for cross-process use");

class ShardChannel {
 public:
  static constexpr std::uint64_t kMagic = 0x524148'53505253ull;  // "SRPSHAR"

  enum WorkerState : std::uint32_t {
    kStarting = 0,  ///< forked, not yet attached/validated
    kReady = 1,     ///< serving
    kExited = 2,    ///< clean worker exit
  };

  /// Segment size for a channel with `capacity` slots per ring.
  static std::size_t bytes_for(std::uint32_t capacity) {
    return sizeof(ShardChannel) +
           std::size_t{capacity} * (sizeof(ShardRequest) + sizeof(ShardResponse));
  }

  /// Formats a zero-initialized segment as a channel (supervisor side, once).
  static ShardChannel* init(void* mem, std::uint32_t capacity, std::uint32_t shard_index);

  /// Validates a mapped segment's magic/capacity (worker side).
  static ShardChannel* adopt(void* mem, std::size_t bytes);

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t shard_index() const { return shard_index_; }

  // ----- control block ----------------------------------------------------

  std::atomic<std::uint32_t>& worker_state() { return worker_state_; }
  std::atomic<std::uint32_t>& stop_flag() { return stop_flag_; }
  /// Bumped by the supervisor on every respawn (observability/tests).
  std::atomic<std::uint32_t>& generation() { return generation_; }
  /// Doorbell the supervisor rings (bump + futex wake) after pushing
  /// requests or raising the stop flag; an idle worker parks on it.
  std::atomic<std::uint32_t>& request_doorbell() { return request_doorbell_; }

  // ----- rings ------------------------------------------------------------

  bool try_push_request(const ShardRequest& req) {
    return push(req_head_, req_tail_, req_slots(), req);
  }
  bool try_pop_request(ShardRequest& out) {
    return pop(req_head_, req_tail_, req_slots(), out);
  }
  bool try_push_response(const ShardResponse& resp) {
    return push(resp_head_, resp_tail_, resp_slots(), resp);
  }
  bool try_pop_response(ShardResponse& out) {
    return pop(resp_head_, resp_tail_, resp_slots(), out);
  }

  /// Requests sitting in the ring, not yet popped by the worker.
  std::uint64_t requests_pending() const {
    return req_head_.pos.load(std::memory_order_acquire) -
           req_tail_.pos.load(std::memory_order_acquire);
  }

  /// Empties both rings. Supervisor-only, and only while no worker is
  /// attached (respawn path: the previous worker is dead, the next one has
  /// not been forked yet).
  void reset_rings() {
    req_head_.pos.store(0, std::memory_order_relaxed);
    req_tail_.pos.store(0, std::memory_order_relaxed);
    resp_head_.pos.store(0, std::memory_order_relaxed);
    resp_tail_.pos.store(0, std::memory_order_release);
  }

 private:
  template <typename Slot>
  bool push(ShardCursor& head, const ShardCursor& tail, Slot* slots, const Slot& value) {
    const std::uint64_t h = head.pos.load(std::memory_order_relaxed);
    if (h - tail.pos.load(std::memory_order_acquire) >= capacity_) return false;  // full
    slots[h & (capacity_ - 1)] = value;
    head.pos.store(h + 1, std::memory_order_release);
    return true;
  }

  template <typename Slot>
  bool pop(const ShardCursor& head, ShardCursor& tail, const Slot* slots, Slot& out) {
    const std::uint64_t t = tail.pos.load(std::memory_order_relaxed);
    if (t == head.pos.load(std::memory_order_acquire)) return false;  // empty
    out = slots[t & (capacity_ - 1)];
    tail.pos.store(t + 1, std::memory_order_release);
    return true;
  }

  ShardRequest* req_slots() {
    return reinterpret_cast<ShardRequest*>(reinterpret_cast<std::uint8_t*>(this) +
                                           sizeof(ShardChannel));
  }
  ShardResponse* resp_slots() {
    return reinterpret_cast<ShardResponse*>(req_slots() + capacity_);
  }

  std::uint64_t magic_ = 0;
  std::uint32_t capacity_ = 0;     // slots per ring; power of two
  std::uint32_t shard_index_ = 0;
  std::atomic<std::uint32_t> worker_state_;
  std::atomic<std::uint32_t> stop_flag_;
  std::atomic<std::uint32_t> generation_;
  std::atomic<std::uint32_t> request_doorbell_;
  ShardCursor req_head_, req_tail_;    // producer: supervisor / consumer: worker
  ShardCursor resp_head_, resp_tail_;  // producer: worker / consumer: supervisor
  // Followed in the segment by ShardRequest[capacity], ShardResponse[capacity].
};
static_assert(std::is_trivially_destructible_v<ShardChannel>,
              "shard channels are abandoned in shared memory, never destroyed");

/// Router-global completion doorbell, in its own tiny shm segment
/// (shard_doorbell_name). Every worker bumps + wakes `seq` after pushing
/// responses; the collector — which must wait on "any shard completed",
/// something a per-channel word cannot express with one futex — parks here.
/// Submitters bump it too, so a parked collector picks up new batches
/// immediately.
struct ShardDoorbell {
  static constexpr std::uint64_t kMagic = 0x4c4c'45425253ull;  // "SRBELL"

  static std::size_t bytes_for() { return sizeof(ShardDoorbell); }
  /// Formats a zero-initialized segment (supervisor side, once).
  static ShardDoorbell* init(void* mem);
  /// Validates a mapped segment's magic (worker side).
  static ShardDoorbell* adopt(void* mem, std::size_t bytes);

  std::atomic<std::uint32_t>& seq() { return seq_; }

 private:
  std::uint64_t magic_ = 0;
  std::atomic<std::uint32_t> seq_;
  std::uint32_t pad_ = 0;
};
static_assert(std::is_trivially_destructible_v<ShardDoorbell> &&
              std::is_trivially_copyable_v<ShardCursor>);

}  // namespace msrp::service
