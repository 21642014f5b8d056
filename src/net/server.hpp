/// \file
/// TCP front end over the query service: the deployable server.
///
/// One Server serves one oracle (or a registry of them) through a
/// QueryService, across ServerOptions::loops event-loop threads. The
/// threading split mirrors the async API it sits on (submit on accept,
/// reply on completion — the handler shape PR 2's future/callback API was
/// designed for):
///
///   * each LOOP THREAD (an epoll EventLoop; run() starts loops-1 extra
///     threads and serves loop 0 on the caller) owns its accepted sockets
///     and all their per-connection state outright: it reads and
///     frame-decodes request bytes, writes reply bytes, and enforces
///     backpressure. No frame decode or reply write ever crosses loops,
///     so there are no locks anywhere on this path. Every loop has its
///     own SO_REUSEPORT listener on the shared port and the kernel spreads
///     accepts;
///   * the POOL THREADS (QueryService's workers) answer batches. A decoded
///     batch of any workload W (service/workloads.hpp) is handed to
///     QueryService::submit<W> with a callback; the callback encodes the
///     reply on a worker and posts it back to the connection's OWN loop
///     through that loop's eventfd doorbell. The worker never touches a
///     socket, loop threads never wait on a batch — each side stays at
///     its own latency scale.
///
/// Registry, dispatcher, and QueryService state stay shared across loops
/// behind their existing locks; only connection state is per-loop.
///
/// Pipelining falls out of the request ids: a connection may have up to
/// max_inflight_batches batches in the service at once, and replies go out
/// in *completion* order, tagged with the request id they answer.
///
/// Backpressure is per connection and two-sided. Reads pause (the fd drops
/// out of the epoll interest set) while the connection has
/// max_inflight_batches batches in flight or more than kOutputHighWater
/// reply bytes queued; they resume when both clear. Combined with the
/// frame-size cap this bounds the memory a connection can hold:
/// inflight * max_frame + queued output, no matter how fast it writes or
/// how slowly it reads.
///
/// shutdown() drains instead of dropping: the listener closes immediately,
/// reads stop, but every batch already in the service completes and its
/// reply is flushed before the connection closes (bounded by
/// kDrainTimeout, then force-closed). A client that disconnects
/// mid-batch just has its replies dropped on completion — the service is
/// never cancelled, the server never blocks.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "registry/dispatch.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_service.hpp"

namespace msrp::net {

/// Queued unsent reply bytes per connection beyond which reads pause until
/// the client drains its socket.
inline constexpr std::size_t kOutputHighWater = 8u << 20;
/// How long shutdown() waits for in-flight batches to complete and their
/// replies to flush before force-closing connections.
inline constexpr std::chrono::milliseconds kDrainTimeout{10000};

/// Every connection's frame-size cap, both directions, is
/// kDefaultMaxFrameBytes (net/protocol.hpp).
struct ServerOptions {
  /// Address to bind (dotted IPv4). Loopback by default: exposing an
  /// unauthenticated oracle on a public interface is an explicit decision.
  std::string bind_addr = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Batches one connection may have inside the QueryService at once;
  /// reads pause beyond this (pipelining window).
  std::size_t max_inflight_batches = 64;
  /// Event-loop threads. Each loop gets its own listener on the shared
  /// port (SO_REUSEPORT when there are several) and owns its accepted
  /// connections outright. 0 is treated as 1.
  unsigned loops = 1;
  /// Evict a connection with no batches in flight, no queued output, and
  /// no bytes read for this long (0 = never). Bounds the sockets a silent
  /// peer can pin; swept on the ~100 ms loop tick.
  unsigned idle_timeout_ms = 0;
  /// Evict a connection whose queued output has made no write progress for
  /// this long (0 = never) — a reader stuck below the high-water mark
  /// would otherwise hold its replies (and their memory) forever.
  unsigned write_stall_timeout_ms = 0;
  /// Admission-control caps for the fair dispatcher every batch routes
  /// through (per-tenant inflight/queue, total inflight; see
  /// registry/dispatch.hpp). A batch the dispatcher refuses is answered
  /// with a BUSY frame instead of queueing without bound.
  registry::DispatchOptions dispatch;
  /// Optional trace ring (obs/trace.hpp): one batch in N gets its per-stage
  /// span published here. Not owned; must outlive the server. Null = no
  /// sampling (stage histograms still record unconditionally).
  obs::TraceRing* trace_ring = nullptr;
};

/// Monotonic counters, readable from any thread while the server runs.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t batches_received = 0;  ///< all batch kinds, point queries included
  std::uint64_t queries_answered = 0;
  std::uint64_t vitality_batches = 0;  ///< TOP_K_VITAL batches received
  std::uint64_t vickrey_batches = 0;   ///< VICKREY_PRICES batches received
  std::uint64_t kfail_batches = 0;     ///< K_FAIL batches received
  std::uint64_t batch_errors = 0;     ///< batches answered with an ERROR frame
  std::uint64_t protocol_errors = 0;  ///< connections dropped for bad framing
  std::uint64_t replies_dropped = 0;  ///< completions whose connection was gone
  std::uint64_t busy_rejected = 0;    ///< batches answered with a BUSY frame
  std::uint64_t oracles_registered = 0;     ///< successful wire registrations
  std::uint64_t registrations_failed = 0;   ///< rejected or failed registrations
  std::uint64_t deadline_exceeded = 0;      ///< batches answered DEADLINE_EXCEEDED
  std::uint64_t connections_evicted = 0;    ///< idle / write-stall evictions
};

class Server {
 public:
  /// Binds and listens immediately (throws std::runtime_error on failure);
  /// serving starts when run() is called. `svc` and `oracle` must outlive
  /// the server; the oracle shared_ptr pins the snapshot for its lifetime.
  Server(service::QueryService& svc, std::shared_ptr<const service::Snapshot> oracle,
         ServerOptions opts = {});

  /// Multi-tenant flavour: batches may target any oracle `registry` has
  /// ready (protocol v2), and REGISTER_GRAPH / LIST_ORACLES / UNREGISTER
  /// are served. `oracle` is the HELLO default for untargeted batches and
  /// may be null (clients must then name a digest per batch). The registry
  /// must outlive the server — declare it first.
  Server(service::QueryService& svc, std::shared_ptr<const service::Snapshot> oracle,
         registry::OracleRegistry* registry, ServerOptions opts = {});

  /// Calls shutdown() and waits for in-flight batch callbacks to finish
  /// delivering. Destroy only after run() has returned (or was never
  /// called) — the loop must not be executing.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Serves until shutdown() completes a drain: starts loops-1 extra
  /// threads and runs loop 0 on the calling thread, joining the others
  /// before returning.
  void run();

  /// Initiates graceful shutdown from any thread: stop accepting, let
  /// in-flight batches complete and flush, then stop the loop. Idempotent.
  void shutdown();

  ServerStats stats() const;

 private:
  struct Conn;
  struct LoopShard;
  struct BatchReply;

  void on_accept(LoopShard& ls, std::uint32_t events);
  /// Registers an accepted socket with `ls` (its home loop from then on);
  /// runs on ls's loop thread.
  void adopt_conn(LoopShard& ls, int fd);
  void on_conn_event(const std::shared_ptr<Conn>& conn, std::uint32_t events);
  void on_readable(const std::shared_ptr<Conn>& conn);
  void on_writable(const std::shared_ptr<Conn>& conn);
  /// True while the connection may start another batch (pipelining window
  /// open, output below the high-water mark, not draining).
  bool has_capacity(const Conn& conn) const;
  /// Processes frames already buffered in the decoder as far as
  /// has_capacity allows, then re-syncs the epoll read interest.
  void pump(const std::shared_ptr<Conn>& conn);
  /// Dispatches one frame. `recv_ns` is the obs::now_ns() stamp pump took
  /// before reassembling and verifying it: the zero point of a batch's
  /// decode stage.
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame frame, std::uint64_t recv_ns);
  /// Decodes and admits one batch of workload W, stamped `recv_ns`.
  template <class W>
  void handle_batch(const std::shared_ptr<Conn>& conn, BatchFrame<W> batch,
                    std::uint64_t recv_ns);
  /// Answers STATS_REQUEST with a typed dump of the process metrics
  /// registry (counters, gauges, sparse histogram buckets).
  void handle_stats(const std::shared_ptr<Conn>& conn, std::uint64_t request_id);
  /// Starts a trace span for a sampled batch (null when unsampled or no
  /// ring is configured) with the decode stage already stamped.
  std::shared_ptr<obs::TraceSpan> begin_span(std::uint64_t request_id,
                                             std::uint32_t frame_type, std::uint32_t queries,
                                             std::uint64_t recv_ns, std::uint64_t submit_ns);
  /// Resolves a batch's target oracle (frame digest, else the HELLO
  /// default) and reports it via `digest_out`. On failure the reply —
  /// batch ERROR or BUSY — is already sent and nullptr comes back; shared
  /// by every batch opcode.
  std::shared_ptr<const service::Snapshot> resolve_oracle(
      const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
      const std::optional<std::uint64_t>& digest_opt, std::uint64_t* digest_out);
  /// Admits one batch through the dispatcher with the standard accounting
  /// (conn inflight, destructor gate, registry notes, BUSY rollback).
  /// `start` submits to the service; its completion must fill `reply` on
  /// success before invoking the dispatcher-wrapped callback.
  void admit_batch(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                   std::uint64_t digest, registry::FairDispatcher::StartFn start,
                   std::shared_ptr<BatchReply> reply, Deadline deadline,
                   std::shared_ptr<obs::TraceSpan> span);
  /// Loop-thread tail of every batch: ships the encoded reply, or an ERROR
  /// frame for `error`, then frees the pipelining slot.
  void on_batch_done(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                     const std::shared_ptr<BatchReply>& reply, std::exception_ptr error,
                     const std::shared_ptr<obs::TraceSpan>& span);
  void handle_register(const std::shared_ptr<Conn>& conn, RegisterGraphFrame reg);
  void handle_list_oracles(const std::shared_ptr<Conn>& conn, std::uint64_t request_id);
  void handle_unregister(const std::shared_ptr<Conn>& conn, const UnregisterFrame& un);
  void on_register_done(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                        registry::RegisterOutcome outcome);
  /// Answers one batch-level error without touching the connection state.
  void send_batch_error(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                        const std::string& message);
  /// Appends bytes to the connection's output queue and flushes what the
  /// socket will take now.
  void send_bytes(const std::shared_ptr<Conn>& conn, std::vector<std::uint8_t> bytes);
  void flush(const std::shared_ptr<Conn>& conn);
  /// Sends a connection-level ERROR frame and closes once it is flushed.
  void fail_conn(const std::shared_ptr<Conn>& conn, const std::string& message);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void update_read_interest(const std::shared_ptr<Conn>& conn);
  void update_epoll(const std::shared_ptr<Conn>& conn);
  /// Close-if-drained check used by the drain path.
  void maybe_finish_conn(const std::shared_ptr<Conn>& conn);
  /// Periodic work: re-arm a paused listener, police the drain deadline,
  /// evict idle / write-stalled connections, poke the registry's timers.
  void on_tick(LoopShard& ls);
  void check_drain_done(LoopShard& ls);
  /// Loop-thread half of shutdown(): close the listener, stop reads,
  /// flush-and-close what is idle.
  void drain_loop(LoopShard& ls);

  service::QueryService& svc_;
  std::shared_ptr<const service::Snapshot> oracle_;
  registry::OracleRegistry* registry_ = nullptr;  ///< optional; not owned
  std::uint64_t default_digest_ = 0;              ///< HELLO oracle; 0 = none
  /// Every batch routes through this round-robin gate (even single-oracle
  /// servers: the caps then act as a global inflight bound).
  std::unique_ptr<registry::FairDispatcher> dispatcher_;
  ServerOptions opts_;
  /// One per event loop; unique_ptr keeps addresses stable (Conns point at
  /// their home shard). Sized and wired in the constructor, before any
  /// thread exists.
  std::vector<std::unique_ptr<LoopShard>> loops_;
  std::uint16_t port_ = 0;
  std::vector<std::uint8_t> hello_bytes_;  // encoded once, sent per accept

  std::atomic<bool> draining_{false};
  // Written once by the shutdown() call that wins the draining_ CAS,
  // before any loop observes draining_ == true.
  std::chrono::steady_clock::time_point drain_deadline_{};

  // Batches inside the QueryService whose callback has not yet returned;
  // the destructor waits for this to hit zero so no callback can touch a
  // dead server.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_total_ = 0;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> batches_received_{0};
  std::atomic<std::uint64_t> queries_answered_{0};
  /// Batches received per workload (service::workload_index); exported
  /// under each trait's kStatsCounter.
  std::array<std::atomic<std::uint64_t>, std::tuple_size_v<service::Workloads>>
      workload_batches_{};
  std::atomic<std::uint64_t> batch_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> replies_dropped_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::atomic<std::uint64_t> oracles_registered_{0};
  std::atomic<std::uint64_t> registrations_failed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> connections_evicted_{0};

  // Per-stage latency histograms ("query_latency" in the process registry),
  // recorded for every batch. Raw registry handles — stable for process
  // lifetime, wait-free to record into.
  obs::Histogram* stage_decode_ = nullptr;
  obs::Histogram* stage_queue_ = nullptr;
  obs::Histogram* stage_execute_ = nullptr;
  obs::Histogram* stage_flush_ = nullptr;
  obs::TraceRing* trace_ = nullptr;  ///< opts_.trace_ring; null = no sampling
  // Exports the atomics above plus dispatcher and failpoint counters into
  // the registry. Declared last: destroyed first, so no snapshot can call
  // into a half-destroyed server.
  obs::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace msrp::net
