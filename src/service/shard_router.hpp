/// \file
/// Multi-process sharded serving: supervisor side.
///
/// A ShardRouter scales one oracle past a single process. Construction
/// does all the placement work exactly once:
///
///   1. ShardPlan::build partitions the oracle's sources into K contiguous
///      shards, balanced by replacement-table cells;
///   2. for each shard, Snapshot::slice + encode produce a self-contained
///      v2 image of just that shard's sources, written into a named POSIX
///      shared-memory segment (util/shm.hpp) — the only time table bytes
///      are copied;
///   3. a second segment per shard carries the SPSC request/response rings
///      (shard_channel.hpp), plus one tiny router-global segment for the
///      completion doorbell all workers ring;
///   4. one worker process per shard is forked (optionally exec'ing
///      ShardRouterOptions::worker_argv, e.g. `msrp_serve --shard-worker`),
///      attaches the segments, serves the image zero-copy via
///      Snapshot::attach, and flags itself ready.
///
/// query_batch() is pipelined: each call allocates a fresh batch namespace
/// (the high 32 bits of every SPSC tag), buckets its queries by owning
/// shard, hands the batch to the router's collector thread, and blocks on a
/// condition variable until its answers are merged. The collector is the
/// single thread that touches the rings — one producer per request ring,
/// one consumer per response ring, so SPSC stays structural — and it
/// multiplexes every in-flight batch at once: queries from different
/// batches interleave freely in the rings and completions are keyed by
/// (namespace, index). Concurrent callers therefore overlap instead of
/// serializing; results are still bit-identical to the in-process
/// QueryService, it is only the work that moves.
///
/// Worker death is detected by waitpid polling whenever the collector
/// stops making progress. A dead shard is respawned single-flight, its
/// rings are reset, and the unanswered tags of *every* in-flight batch are
/// requeued in order, so batches survive a worker crash with no lost or
/// duplicated answers. The destructor stops the collector and the workers
/// (one shared deadline across all pids), reaps them, and unlinks every
/// segment; ~ShmSegment unlinks even on exception paths.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "service/query.hpp"
#include "service/shard_channel.hpp"
#include "service/shard_plan.hpp"
#include "service/shard_process.hpp"
#include "service/snapshot.hpp"
#include "util/shm.hpp"

namespace msrp::service {

/// How long the router waits for a spawned worker to flag itself ready.
inline constexpr std::chrono::milliseconds kWorkerReadyTimeout{30000};

struct ShardRouterOptions {
  /// Worker processes; clamped to the oracle's source count.
  unsigned shards = 2;
  /// Slots per ring direction (power of two). Also the per-shard cap on
  /// in-flight queries (across all overlapping batches).
  std::uint32_t ring_capacity = 1024;
  /// Non-empty: fork + exec this argv with "--shard-worker <base>:<k>"
  /// appended (production deployment; the child gets a fresh address
  /// space). Empty: plain fork — the child runs run_shard_worker() in the
  /// parent's image. Fork-without-exec from a multithreaded process relies
  /// on the C library making malloc fork-safe (glibc quiesces the
  /// allocator around fork) — embedders whose processes hold other locks
  /// across calls should prefer exec mode.
  std::vector<std::string> worker_argv = {};
  /// Test hook: run each worker as a std::thread in this process instead
  /// of forking. run_shard_worker attaches the same shm segments by name,
  /// so the transport is exercised end to end — but under TSan, which
  /// cannot follow forked children. Forced-respawn of a wedged thread is
  /// not supported in this mode (there is no SIGKILL for a thread).
  bool workers_in_process = false;
};

/// Monotonic counters; see ShardRouter::stats(). `segments_placed` staying
/// at num_shards() across a workload is the "placed once, served
/// zero-copy" guarantee the tests pin down.
struct ShardRouterStats {
  std::uint64_t segments_placed = 0;  ///< snapshot images written to shm
  std::uint64_t bytes_placed = 0;     ///< summed size of those images
  std::uint64_t queries_routed = 0;   ///< answers merged across all batches
  std::uint64_t respawns = 0;         ///< dead workers replaced
  std::uint64_t batches_routed = 0;   ///< query_batch calls completed
  /// High-water mark of batches simultaneously in flight — > 1 proves
  /// pipelining actually overlapped callers (the differential tests
  /// assert this).
  std::uint64_t peak_inflight_batches = 0;
  /// Total time spent blocked in wait_worker_ready, µs. With the futex
  /// path this is dominated by genuine worker startup (fork + attach),
  /// not polling granularity; shard_test asserts it stays sane.
  std::uint64_t ready_wait_us = 0;
};

class ShardRouter {
 public:
  /// Shards `oracle` and spawns the workers; throws std::runtime_error if a
  /// worker cannot be spawned or does not come up ready in time. The oracle
  /// is only read during construction (sliced into the segments); the
  /// router keeps its own copies of the routing metadata.
  explicit ShardRouter(const Snapshot& oracle, const ShardRouterOptions& opts = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Answers queries[i] into result[i], routing each query to the shard
  /// owning its source and merging in batch order. Validates every query
  /// up front (same contract as QueryService::query_batch). Thread-safe;
  /// concurrent batches overlap in the rings under distinct tag
  /// namespaces instead of serializing.
  std::vector<Dist> query_batch(std::span<const Query> queries);

  unsigned num_shards() const { return static_cast<unsigned>(shards_.size()); }
  const ShardPlan& plan() const { return plan_; }
  const std::string& base_name() const { return base_name_; }
  ShardRouterStats stats() const;

  /// OS pid of shard k's worker (tests, diagnostics; -1 if never spawned
  /// or running in-process).
  long worker_pid(unsigned k) const;

  /// Shared-memory names this router owns (tests assert they vanish on
  /// destruction).
  std::vector<std::string> segment_names() const;

  /// Answers the router has received from all shards, summed — the
  /// `shard.worker.<k>.requests` counters. Counted on the router side, so
  /// worker death and respawn neither lose nor double an answer.
  std::uint64_t worker_requests_total() const;

 private:
  struct Shard {
    ShmSegment snap_seg;
    ShmSegment chan_seg;
    ShardChannel* ch = nullptr;
    long pid = -1;
    std::thread thr;  // workers_in_process flavour
  };

  /// One query_batch call in flight. Lives on the caller's stack; the
  /// collector borrows it between submission (under mu_) and completion
  /// (done set under mu_ + cv notify), so ownership hand-off is a plain
  /// mutex acquire both ways.
  struct Batch {
    std::uint32_t ns = 0;
    std::span<const Query> queries;
    std::vector<std::uint32_t> local_si;               // per query
    std::vector<std::vector<std::uint32_t>> buckets;   // per shard, batch order
    std::vector<Dist> out;
    std::size_t remaining = 0;
    bool done = false;
    std::string error;  // non-empty => failed
  };

  /// (batch, index-within-batch): the unit the collector moves between its
  /// per-shard pending and inflight queues.
  struct Entry {
    Batch* b = nullptr;
    std::uint32_t qi = 0;
  };

  void place_shard(const Snapshot& oracle, unsigned k);
  void spawn_worker(unsigned k);
  void wait_worker_ready(unsigned k);
  /// True if shard k's worker has exited (reaps it as a side effect).
  bool worker_dead(unsigned k);
  /// Replaces a dead worker; collector-thread only. Bumps the channel
  /// generation so late observers of the old incarnation can tell.
  void respawn_worker(unsigned k);
  void stop_all_workers() noexcept;

  // ----- collector ---------------------------------------------------------

  void collector_main();
  /// One multiplex round over submissions + all shards; returns whether
  /// anything moved. Collector-thread only.
  bool collector_poll();
  /// Moves newly submitted batches into the collector's queues; returns
  /// whether any arrived.
  bool drain_submissions();
  void requeue_inflight(unsigned k);
  /// After an exception escaped the collector: fail every in-flight batch,
  /// kill + respawn all workers, and empty the rings so stranded tags
  /// cannot leak into later batches; sets poisoned_ when even that fails.
  void recover_after_error(const std::string& why) noexcept;
  void fail_all_batches(const std::string& why);
  void ring_submit_bell();
  /// Adds answers_unfolded_ into answers_received_; caller holds mu_.
  void fold_answer_counts_locked();

  ShardRouterOptions opts_;
  std::string base_name_;
  ShardPlan plan_;
  // Routing metadata copied out of the oracle at construction.
  Vertex n_ = 0;
  EdgeId m_ = 0;
  std::vector<std::int32_t> source_index_;  // n; -1 = not a source
  std::vector<Shard> shards_;
  ShmSegment bell_seg_;
  ShardDoorbell* bell_ = nullptr;

  // Shared submitter/collector state, all under mu_.
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::deque<Batch*> submitted_;  // handed to the collector, FIFO
  ShardRouterStats stats_;
  std::vector<std::uint64_t> answers_received_;  // per shard
  bool collector_stop_ = false;
  // Set when post-exception recovery could not restore clean rings +
  // workers; every later batch then fails fast instead of mis-merging.
  bool poisoned_ = false;

  // Collector-thread-only state (no lock): every batch between submission
  // and completion, and where each of its queries currently sits.
  std::unordered_map<std::uint32_t, Batch*> active_;
  std::vector<std::deque<Entry>> pending_;   // per shard, not yet in the ring
  std::vector<std::deque<Entry>> inflight_;  // per shard, in the ring, unanswered
  // Per shard, answers popped since the last fold into answers_received_:
  // counted without a lock, folded once per poll round and before any
  // batch completes.
  std::vector<std::uint64_t> answers_unfolded_;
  std::uint32_t next_ns_ = 1;

  std::thread collector_;
  // Last member: unregistered (blocking on any in-flight snapshot) before
  // anything the callback reads — stats_ and answers_received_ under mu_ —
  // dies.
  obs::MetricsRegistry::CollectorHandle metrics_collector_;
};

}  // namespace msrp::service
