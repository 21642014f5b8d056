/// \file
/// Client side of the wire protocol: a blocking-socket library for callers
/// and load generators.
///
/// One Client owns one TCP connection: connect() dials, performs the HELLO
/// handshake (version check, oracle identity capture), and then batches
/// flow. Batches of every workload (service/workloads.hpp: Point, the
/// default, plus Vitality, Vickrey and KFail) share one set of calls:
///
///   * call<W>() — the synchronous round trip: send one batch, block until
///     its answers arrive;
///   * send<W>() / wait<W>(id) / wait_any() — explicit pipelining: send()
///     writes a batch and returns its request id immediately, any number
///     of any mix of workloads may be in flight, and the waits collect
///     completed batches in whatever order the server finishes them
///     (replies for other ids are buffered, never lost). Replies pair by
///     request id AND answer frame type — a reply of the wrong kind for an
///     id is a protocol violation — and wait_any() returns point batches
///     only. This is the shape the msrp_client load generator drives;
///   * call_retry<W>() — call() inside a retry loop (RetryPolicy).
///
/// Protocol v2 adds registry control: register_graph() /
/// register_snapshot_path() upload or name a graph and block until the
/// server's oracle is built (minutes for big graphs — size the socket's
/// patience accordingly), list_oracles() enumerates what is resident, and
/// unregister() retires a digest. Batches may target any registered oracle
/// by passing its digest to send()/call(); without one the connection's
/// HELLO default answers, exactly as in v1. Control calls interleave
/// freely with pipelined batches — answers arriving during a control wait
/// are buffered for their own wait() to find.
///
/// A server-reported batch failure (ERROR frame with our id) surfaces as a
/// thrown std::runtime_error from the wait that collects it; an
/// admission-control rejection (BUSY frame) surfaces as BusyError — the
/// batch did not run and an identical resend is safe after backing off. A
/// connection-level ERROR (id 0) or any framing violation additionally
/// marks the connection dead, and in-flight ids die with the socket.
/// call_retry<W>() is the one recovery path: on its next attempt it
/// re-dials, re-handshakes and resends the batch (every batch frame is
/// idempotent — same oracle, same queries, same answers). A send or a
/// control call on a dead connection throws.
///
/// Protocol v4 adds observability: stats() performs a STATS_REQUEST /
/// STATS_SNAPSHOT control round trip and returns the server's typed
/// metrics dump — every counter, gauge, and latency histogram in its
/// process registry, histograms as sparse (bucket index, count) pairs over
/// the fixed obs/metrics.hpp geometry, so percentiles are derivable
/// client-side without shipping 136 buckets per series. Like the other
/// control calls it interleaves freely with pipelined batches.
///
/// The handshake accepts exactly kProtocolVersion: protocol v5 changed the
/// frame checksum, so a v1–v4 server's HELLO fails verification and the
/// constructor throws, naming the checksum.
///
/// Instances are not thread-safe; give each thread its own Client (the
/// load generator opens one per connection by design).
#pragma once

#include <any>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "service/workloads.hpp"
#include "util/assert.hpp"
#include "util/deadline.hpp"
#include "util/distance.hpp"

namespace msrp::net {

/// Per-dial connect timeout.
inline constexpr std::chrono::milliseconds kConnectTimeout{5000};
/// Pause between two dial attempts.
inline constexpr std::chrono::milliseconds kRetryDelay{200};
/// Local wait bound for batches sent with a deadline: a wait gives up
/// (DeadlineError, socket closed — the orphaned reply could never be
/// reconciled) this long after the batch's own deadline passes with no
/// reply, so a dead or wedged server cannot park the client forever.
/// Batches sent without a deadline keep the unbounded wait.
inline constexpr std::chrono::milliseconds kDeadlineGrace{500};

/// Every client frame is capped at kDefaultMaxFrameBytes (net/protocol.hpp),
/// the server's cap too.
struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Extra dial attempts before connect() gives up — lets a client start
  /// before its server finishes binding (CI does exactly this).
  unsigned connect_retries = 0;
};

/// One completed batch collected by wait_any().
struct BatchAnswer {
  std::uint64_t request_id = 0;
  std::vector<Dist> answers;
};

/// The server refused a batch or a registration under admission control
/// (BUSY frame). Nothing ran; retry after a backoff.
class BusyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The server answered DEADLINE_EXCEEDED: the batch's end-to-end budget
/// ran out somewhere in the pipeline (dispatch queue, service, or shard
/// router). The batch produced no answers; a resend with a fresh budget is
/// safe.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retry schedule for call_retry(): exponential backoff with
/// deterministic jitter, bounded by attempts and an overall deadline.
struct RetryPolicy {
  /// Overall budget for the call, across every attempt and backoff
  /// (0 = unbounded). Each attempt's wire deadline is the time remaining.
  std::uint32_t deadline_ms = 0;
  /// Total attempts, first try included (clamped up to 1).
  unsigned max_attempts = 3;
  unsigned initial_backoff_ms = 10;
  double multiplier = 2.0;
  unsigned max_backoff_ms = 1000;
  /// +/- fraction applied to each backoff, derived deterministically from
  /// (seed, attempt) — no global RNG, so tests can pin exact schedules.
  double jitter = 0.2;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// The pause before attempt `attempt` (1-based; attempt 0 is the first
  /// try and never waits). Pure function of the policy fields.
  std::chrono::milliseconds backoff_for(unsigned attempt) const;
};

class Client {
 public:
  /// Dials and handshakes; throws std::runtime_error when the server is
  /// unreachable (after retries), its HELLO fails the frame checksum, or
  /// it announces a protocol version other than kProtocolVersion.
  explicit Client(ClientOptions opts);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Server identity from the handshake (oracle digest, n, m, sources).
  const HelloInfo& hello() const { return hello_; }

  /// True when the server advertises registry support (HELLO flag).
  bool registry_enabled() const { return (hello_.flags & kHelloRegistryEnabled) != 0; }

  bool connected() const { return fd_ >= 0; }

  /// Batches sent but not yet collected by a wait.
  std::size_t inflight() const { return inflight_.size() + ready_.size(); }

  /// Writes one batch of workload W and returns its request id without
  /// waiting. `digest` targets a registered oracle (v2); nullopt sends the
  /// v1-compatible shape answered by the HELLO default oracle.
  /// `deadline_ms` is the batch's end-to-end budget, carried on the wire;
  /// the server answers DEADLINE_EXCEEDED instead of running past it.
  template <class W = service::Point>
  std::uint64_t send(std::span<const typename W::Query> queries,
                     std::optional<std::uint64_t> digest = std::nullopt,
                     std::optional<std::uint32_t> deadline_ms = std::nullopt);

  /// Blocks until the batch with this id completes (others are buffered);
  /// one result per query, in query order. Throws std::runtime_error if
  /// the server reported that batch failed (DeadlineError when it reported
  /// DEADLINE_EXCEEDED), BusyError if admission control rejected it.
  template <class W = service::Point>
  std::vector<typename W::Result> wait(std::uint64_t request_id);

  /// Blocks for the next completed point batch, in server-completion
  /// order. Same throw surface as wait(), for a failure of any batch.
  BatchAnswer wait_any();

  /// send() + wait(): the synchronous round trip.
  template <class W = service::Point>
  std::vector<typename W::Result> call(
      std::span<const typename W::Query> queries,
      std::optional<std::uint64_t> digest = std::nullopt,
      std::optional<std::uint32_t> deadline_ms = std::nullopt);

  /// call() with a retry loop: BUSY rejections, connection loss, and
  /// DEADLINE_EXCEEDED replies are retried on the policy's backoff
  /// schedule, re-dialing first when the connection is dead (every batch
  /// frame is idempotent, so a resend is always safe); any other
  /// server-reported failure rethrows immediately. The policy's deadline
  /// bounds the whole call, backoffs included, and each attempt carries the
  /// remaining budget on the wire.
  template <class W = service::Point>
  std::vector<typename W::Result> call_retry(
      std::span<const typename W::Query> queries, const RetryPolicy& policy,
      std::optional<std::uint64_t> digest = std::nullopt);

  // perfbench/ (which builds against this tree but is versioned with the
  // benchmark) still calls the typed pipelining calls by their old names.
  std::uint64_t send_vitality(std::span<const service::VitalityQuery> q) {
    return send<service::Vitality>(q);
  }
  std::uint64_t send_vickrey(std::span<const service::VickreyQuery> q) {
    return send<service::Vickrey>(q);
  }
  std::uint64_t send_kfail(std::span<const service::KFailQuery> q) {
    return send<service::KFail>(q);
  }
  std::vector<service::VitalityResult> wait_vitality(std::uint64_t id) {
    return wait<service::Vitality>(id);
  }
  std::vector<service::VickreyResult> wait_vickrey(std::uint64_t id) {
    return wait<service::Vickrey>(id);
  }
  std::vector<Dist> wait_kfail(std::uint64_t id) { return wait<service::KFail>(id); }

  // ----- registry control (protocol v2) -----------------------------------

  /// Uploads an edge list and blocks until the server's oracle is ready.
  /// `seed` is the solver Config::seed for the build; nullopt uses the
  /// library default, which is what local differential tests build with.
  /// Returns the ack carrying the oracle's content digest — the handle
  /// every subsequent batch targets. Throws std::runtime_error when the
  /// server rejects or the build fails, BusyError when admission says no.
  RegisterAckFrame register_graph(std::uint32_t num_vertices,
                                  std::span<const std::pair<Vertex, Vertex>> edges,
                                  std::span<const Vertex> sources,
                                  std::optional<std::uint64_t> seed = std::nullopt);

  /// Asks the server to load a snapshot from its own filesystem (the path
  /// is resolved server-side). Same blocking contract as register_graph.
  RegisterAckFrame register_snapshot_path(const std::string& path);

  /// Enumerates the server's resident oracles (sorted by digest).
  std::vector<OracleListEntry> list_oracles();

  /// Retires a digest. The returned state is kUnregistered (gone now) or
  /// kExpiring (draining in-flight batches, gone when they finish).
  RegisterAckFrame unregister(std::uint64_t digest);

  // ----- observability (protocol v4) ---------------------------------------

  /// Dumps the server's metrics registry: a STATS_REQUEST / STATS_SNAPSHOT
  /// round trip. Counters and gauges carry their registry names verbatim
  /// ("server.batches_received"); histogram buckets are sparse over the
  /// shared obs geometry.
  StatsSnapshotFrame stats();

 private:
  void dial();
  void close_socket();
  /// Drops the current socket (in-flight ids are lost) and dials fresh.
  void reconnect();
  void write_all(std::span<const std::uint8_t> bytes);
  /// Reads socket bytes into the decoder until one frame is complete.
  Frame read_frame();
  /// Reads one frame and routes it. Batch traffic (any workload's answer
  /// frame, per-id ERROR/BUSY for an in-flight batch) lands in ready_ and
  /// returns nullopt; a control reply carrying `control_id` (nonzero) is
  /// returned to the caller. Control-shaped frames with no control call
  /// pending are protocol violations.
  std::optional<Frame> route_one(std::uint64_t control_id);
  /// Performs one control round trip: writes `bytes`, blocks for the reply
  /// to `control_id`, decodes ERROR/BUSY into the documented throws.
  Frame control_round_trip(std::uint64_t control_id, std::vector<std::uint8_t> bytes);
  /// Throws unless the connection is up; shared by send() and the control
  /// calls.
  void ensure_connected() const;
  /// Shared tail of every send: registers the already-encoded frame under
  /// `id` (expecting `count` replies of `expect`'s kind), arms the wire
  /// deadline, writes — rolling all of it back when the write fails.
  std::uint64_t track_and_write(std::uint64_t id, std::vector<std::uint8_t> bytes,
                                FrameType expect, std::size_t count,
                                std::optional<std::uint32_t> deadline_ms);
  /// On a reply frame: looks up `request_id` expecting `got`-typed replies
  /// owing `answered` entries; erases the in-flight record on match, fails
  /// the connection on any mismatch.
  void settle_inflight(std::uint64_t request_id, FrameType got, std::size_t answered);
  /// One collected reply: decoded answers of the workload whose answer
  /// frame is `type`, or the message of an ERROR / BUSY reply.
  struct Reply {
    FrameType type = FrameType::kAnswerBatch;
    std::any answers;  ///< std::vector<W::Result> for W::kAnswerFrame == type
    std::string message;
  };
  /// Blocks until the reply for `request_id` arrives and removes it;
  /// throws for an ERROR or BUSY reply.
  Reply take_reply(std::uint64_t request_id);
  /// Runs `attempt` (one round trip, given the remaining wire budget) on
  /// the policy's retry schedule.
  void retry(const RetryPolicy& policy,
             const std::function<void(std::optional<std::uint32_t>)>& attempt);

  ClientOptions opts_;
  int fd_ = -1;
  FrameDecoder decoder_;
  HelloInfo hello_;
  std::uint64_t next_id_ = 1;
  /// One batch on the wire: which reply frame kind must answer it and how
  /// many entries that reply owes us.
  struct Inflight {
    FrameType expect = FrameType::kAnswerBatch;
    std::size_t count = 0;
  };
  // Ids on the wire — a reply whose id, frame kind, or size does not match
  // something we sent is treated as a protocol violation, never returned
  // to the caller.
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  // Replies (answers, server-reported errors, busy rejections) that
  // arrived while waiting for a different id.
  std::unordered_map<std::uint64_t, Reply> ready_;
  // Local give-up instant (wire deadline + grace) per in-flight batch that
  // was sent with a deadline; bounds the waits via recv_bound_.
  std::unordered_map<std::uint64_t, Deadline> wire_deadlines_;
  // The bound the current wait imposes on read_frame (kNoDeadline = wait
  // forever); set by wait()/wait_any() per pass, cleared for control calls.
  Deadline recv_bound_ = kNoDeadline;
};

template <class W>
std::uint64_t Client::send(std::span<const typename W::Query> queries,
                           std::optional<std::uint64_t> digest,
                           std::optional<std::uint32_t> deadline_ms) {
  ensure_connected();
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> bytes;
  append_batch<W>(bytes, id, queries, digest, deadline_ms);
  return track_and_write(id, std::move(bytes), W::kAnswerFrame, queries.size(), deadline_ms);
}

template <class W>
std::vector<typename W::Result> Client::wait(std::uint64_t request_id) {
  Reply reply = take_reply(request_id);
  MSRP_REQUIRE(reply.type == W::kAnswerFrame,
               "net client: waiting with a different workload than the batch was sent with");
  return std::any_cast<std::vector<typename W::Result>>(std::move(reply.answers));
}

template <class W>
std::vector<typename W::Result> Client::call(std::span<const typename W::Query> queries,
                                             std::optional<std::uint64_t> digest,
                                             std::optional<std::uint32_t> deadline_ms) {
  return wait<W>(send<W>(queries, digest, deadline_ms));
}

template <class W>
std::vector<typename W::Result> Client::call_retry(std::span<const typename W::Query> queries,
                                                   const RetryPolicy& policy,
                                                   std::optional<std::uint64_t> digest) {
  std::vector<typename W::Result> out;
  retry(policy, [&](std::optional<std::uint32_t> wire_ms) {
    out = call<W>(queries, digest, wire_ms);
  });
  return out;
}

}  // namespace msrp::net
