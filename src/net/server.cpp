#include "net/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/assert.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace msrp::net {

/// One event loop plus everything it owns: its listener, its accepted
/// connections, and its drain progress. All fields are touched exclusively
/// on this shard's loop thread (other threads reach it via loop.post).
struct Server::LoopShard {
  EventLoop loop;
  unsigned index = 0;
  int listen_fd = -1;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  // Listener unwatched after EMFILE/ENFILE; the tick re-arms it.
  bool accept_paused = false;
  bool drain_started = false;
};

/// Per-connection state; touched exclusively on its home loop's thread.
/// Pool callbacks reach a Conn only through the shared_ptr their closure
/// captured via home->loop.post, and a closure arriving after the
/// connection died sees closed == true and drops its reply.
struct Server::Conn {
  int fd = -1;
  LoopShard* home = nullptr;  // the one loop allowed to touch this Conn
  FrameDecoder decoder;
  // Output queue: encoded reply frames in write order; out_off is the
  // partially-written prefix of the front buffer.
  std::deque<std::vector<std::uint8_t>> outq;
  std::size_t out_off = 0;
  std::size_t out_bytes = 0;
  std::size_t inflight = 0;   // batches inside the QueryService
  bool reading = true;        // EPOLLIN currently wanted
  bool want_write = false;    // EPOLLOUT currently wanted
  bool closing = false;       // close as soon as outq flushes
  bool closed = false;
  // Eviction stamps, swept on the loop tick: last bytes read off the
  // socket, and last time queued output made write progress.
  std::chrono::steady_clock::time_point last_read;
  std::chrono::steady_clock::time_point last_write_progress;
};

/// Success reply of one batch. The service callback encodes it on a pool
/// worker — each workload has its own answer frame — and the shared
/// completion path on the loop thread only ships bytes; on error the bytes
/// stay empty and an ERROR frame is sent instead.
struct Server::BatchReply {
  std::vector<std::uint8_t> bytes;
  std::size_t answered = 0;  ///< queries answered (stats + registry notes)
};

namespace {

/// Binds + listens one non-blocking listener. Returns -1 with `why` set on
/// failure.
int make_listener(const std::string& bind_addr, std::uint16_t port, bool reuseport,
                  std::string* why) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *why = "socket() failed";
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    *why = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    *why = "bad bind address " + bind_addr;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    *why = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  ::sockaddr_in addr{};
  ::socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &len);
  return ntohs(addr.sin_port);
}

}  // namespace

Server::Server(service::QueryService& svc, std::shared_ptr<const service::Snapshot> oracle,
               ServerOptions opts)
    : Server(svc, std::move(oracle), nullptr, std::move(opts)) {}

Server::Server(service::QueryService& svc, std::shared_ptr<const service::Snapshot> oracle,
               registry::OracleRegistry* registry, ServerOptions opts)
    : svc_(svc), oracle_(std::move(oracle)), registry_(registry), opts_(std::move(opts)) {
  MSRP_REQUIRE(oracle_ != nullptr || registry_ != nullptr,
               "net server: need an oracle or a registry");

  // Every batch funnels through the fair dispatcher; with a single oracle
  // its caps simply act as a global inflight bound.
  dispatcher_ = std::make_unique<registry::FairDispatcher>(opts_.dispatch);

  // Per-stage latency histograms plus the registry export of everything the
  // server already counts. The histogram handles are process-global, so
  // several servers in one process (tests) merge into the same series.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  stage_decode_ = metrics.histogram("query_latency", "decode");
  stage_queue_ = metrics.histogram("query_latency", "queue");
  stage_execute_ = metrics.histogram("query_latency", "execute");
  stage_flush_ = metrics.histogram("query_latency", "flush");
  trace_ = opts_.trace_ring;
  collector_ = metrics.register_collector([this](obs::MetricsSnapshot& out) {
    const auto counter = [&out](const char* name, std::uint64_t v) {
      out.counters.push_back({name, v});
    };
    counter("server.connections_accepted",
            connections_accepted_.load(std::memory_order_relaxed));
    counter("server.connections_closed", connections_closed_.load(std::memory_order_relaxed));
    counter("server.batches_received", batches_received_.load(std::memory_order_relaxed));
    counter("server.queries_answered", queries_answered_.load(std::memory_order_relaxed));
    service::for_each_workload([&](auto tag) {
      using W = typename decltype(tag)::type;
      if (W::kStatsCounter != nullptr) {
        counter(W::kStatsCounter, workload_batches_[service::workload_index<W>].load(
                                      std::memory_order_relaxed));
      }
    });
    counter("server.batch_errors", batch_errors_.load(std::memory_order_relaxed));
    counter("server.protocol_errors", protocol_errors_.load(std::memory_order_relaxed));
    counter("server.replies_dropped", replies_dropped_.load(std::memory_order_relaxed));
    counter("server.busy_rejected", busy_rejected_.load(std::memory_order_relaxed));
    counter("server.oracles_registered",
            oracles_registered_.load(std::memory_order_relaxed));
    counter("server.registrations_failed",
            registrations_failed_.load(std::memory_order_relaxed));
    counter("server.deadline_exceeded", deadline_exceeded_.load(std::memory_order_relaxed));
    counter("server.connections_evicted",
            connections_evicted_.load(std::memory_order_relaxed));
    out.gauges.push_back({"dispatch.inflight_batches",
                          static_cast<std::int64_t>(dispatcher_->inflight_batches())});
    out.gauges.push_back({"dispatch.queued_batches",
                          static_cast<std::int64_t>(dispatcher_->queued_batches())});
    counter("dispatch.busy_rejections", dispatcher_->busy_rejections());
    counter("dispatch.dispatched_total", dispatcher_->dispatched_total());
    counter("dispatch.deadline_expirations", dispatcher_->deadline_expirations());
  });

  HelloInfo hello;
  if (registry_ != nullptr) hello.flags |= kHelloRegistryEnabled;
  if (oracle_ != nullptr) {
    default_digest_ = oracle_->content_digest();
    // The default oracle is a first-class tenant: v2 clients can LIST it,
    // target it by digest, and its batch stats are tracked like any other.
    if (registry_ != nullptr) registry_->adopt(oracle_);
    hello.oracle_digest = default_digest_;
    hello.num_vertices = oracle_->num_vertices();
    hello.num_edges = oracle_->num_edges();
    hello.sources = oracle_->sources();
  }
  append_hello(hello_bytes_, hello);

  const unsigned nloops = std::max(1u, opts_.loops);
  loops_.reserve(nloops);
  for (unsigned i = 0; i < nloops; ++i) {
    loops_.push_back(std::make_unique<LoopShard>());
    loops_[i]->index = i;
  }

  // One listener per loop on the shared port. Several loops bind with
  // SO_REUSEPORT and the kernel spreads accepts across them; a single loop
  // binds without it, so a port already taken fails with EADDRINUSE.
  std::uint16_t port = opts_.port;
  for (auto& ls : loops_) {
    std::string why;
    ls->listen_fd = make_listener(opts_.bind_addr, port, /*reuseport=*/nloops > 1, &why);
    if (ls->listen_fd < 0) {
      for (auto& opened : loops_) {
        if (opened->listen_fd >= 0) ::close(opened->listen_fd);
      }
      throw std::runtime_error("net server: cannot listen on " + opts_.bind_addr + ":" +
                               std::to_string(port) + " (" + why + ")");
    }
    port = bound_port(ls->listen_fd);  // resolves port 0 for the remaining binds
  }
  port_ = port;
  for (auto& lsp : loops_) {
    LoopShard* ls = lsp.get();
    ls->loop.add_fd(ls->listen_fd, EPOLLIN,
                    [this, ls](std::uint32_t ev) { on_accept(*ls, ev); });
  }
}

Server::~Server() {
  shutdown();
  // No callback may outlive the server: each batch callback posts
  // its reply and only then decrements the count, so once it reaches zero
  // nothing can touch any loop or the counters again.
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_total_ == 0; });
  for (auto& ls : loops_) {
    if (ls->listen_fd >= 0) ::close(ls->listen_fd);
    for (auto& [fd, conn] : ls->conns) {
      if (!conn->closed) ::close(conn->fd);
    }
  }
}

void Server::run() {
  // Loops 1..N-1 on their own threads, loop 0 on the caller; every loop
  // stops itself once its own shard finishes draining.
  std::vector<std::thread> threads;
  threads.reserve(loops_.size() - 1);
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    LoopShard* ls = loops_[i].get();
    threads.emplace_back([this, ls] {
      ls->loop.set_tick([this, ls] { on_tick(*ls); }, 100);
      ls->loop.run();
    });
  }
  loops_[0]->loop.set_tick([this] { on_tick(*loops_[0]); }, 100);
  loops_[0]->loop.run();
  for (auto& t : threads) t.join();
}

void Server::shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return;  // idempotent: the winner already posted the drain everywhere
  }
  // Written before any loop can observe draining_ == true via its posted
  // closure below.
  drain_deadline_ = std::chrono::steady_clock::now() + kDrainTimeout;
  for (auto& lsp : loops_) {
    LoopShard* ls = lsp.get();
    ls->loop.post([this, ls] { drain_loop(*ls); });
  }
}

void Server::drain_loop(LoopShard& ls) {
  if (ls.drain_started) return;
  ls.drain_started = true;
  if (ls.listen_fd >= 0) {
    ls.loop.remove_fd(ls.listen_fd);
    ::close(ls.listen_fd);
    ls.listen_fd = -1;
  }
  // Stop reading new requests everywhere; flush + close what is idle.
  // Collect first: maybe_finish_conn mutates conns.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(ls.conns.size());
  for (auto& [fd, conn] : ls.conns) all.push_back(conn);
  for (auto& conn : all) {
    if (conn->reading) {
      conn->reading = false;
      update_epoll(conn);
    }
    maybe_finish_conn(conn);
  }
  check_drain_done(ls);  // stops this loop once its last connection drains
}

void Server::on_tick(LoopShard& ls) {
  if (ls.accept_paused && !draining_.load(std::memory_order_acquire) &&
      ls.listen_fd >= 0) {
    ls.loop.modify_fd(ls.listen_fd, EPOLLIN);  // retry accepting after fd pressure
    ls.accept_paused = false;
  }
  // Registry timers (build timeouts, FAILED-tenant reaping) ride the tick
  // of one loop so the sweep is not multiplied by the loop count.
  if (registry_ != nullptr && ls.index == 0) registry_->poke();
  const bool idle_on = opts_.idle_timeout_ms > 0;
  const bool stall_on = opts_.write_stall_timeout_ms > 0;
  if ((idle_on || stall_on) && !draining_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    // Collect first: close_conn mutates ls.conns.
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, conn] : ls.conns) {
      if (conn->closed) continue;
      const bool idle =
          idle_on && conn->inflight == 0 && conn->outq.empty() &&
          now - conn->last_read >= std::chrono::milliseconds(opts_.idle_timeout_ms);
      const bool stalled =
          stall_on && !conn->outq.empty() &&
          now - conn->last_write_progress >=
              std::chrono::milliseconds(opts_.write_stall_timeout_ms);
      if (idle || stalled) victims.push_back(conn);
    }
    for (auto& conn : victims) {
      connections_evicted_.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn);
    }
  }
  // shutdown() posts drain_loop, but a loop that was already stopped when
  // shutdown ran (or raced the post) still drains off its tick.
  if (draining_.load(std::memory_order_acquire) && !ls.drain_started) drain_loop(ls);
  check_drain_done(ls);
}

void Server::check_drain_done(LoopShard& ls) {
  if (!draining_.load(std::memory_order_acquire) || !ls.drain_started) return;
  if (!ls.conns.empty() && std::chrono::steady_clock::now() >= drain_deadline_) {
    std::vector<std::shared_ptr<Conn>> all;
    all.reserve(ls.conns.size());
    for (auto& [fd, conn] : ls.conns) all.push_back(conn);
    for (auto& conn : all) close_conn(conn);  // force: replies are lost
  }
  if (ls.conns.empty()) ls.loop.stop();
}

void Server::on_accept(LoopShard& ls, std::uint32_t) {
  for (;;) {
    const int fd = ::accept4(ls.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors with the backlog still pending: a level-
        // triggered listener would re-fire every epoll_wait and peg the
        // loop. Stop watching it; the tick re-arms it (~100 ms) and we
        // retry once something has closed.
        ls.loop.modify_fd(ls.listen_fd, 0);
        ls.accept_paused = true;
        return;
      }
      return;  // transient accept failures (ECONNABORTED, ...) — keep serving
    }
    adopt_conn(ls, fd);
  }
}

void Server::adopt_conn(LoopShard& ls, int fd) {
  if (draining_.load(std::memory_order_acquire)) {
    // shutdown() has begun but this loop's drain closure has not run yet;
    // nothing may adopt a connection now.
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->home = &ls;
  conn->last_read = conn->last_write_progress = std::chrono::steady_clock::now();
  ls.conns.emplace(fd, conn);
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  ls.loop.add_fd(fd, EPOLLIN,
                 [this, conn](std::uint32_t ev) { on_conn_event(conn, ev); });
  send_bytes(conn, hello_bytes_);  // copy; the template outlives everything
}

void Server::on_conn_event(const std::shared_ptr<Conn>& conn, std::uint32_t events) {
  if (conn->closed) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(conn);
    return;
  }
  if (events & EPOLLOUT) on_writable(conn);
  if (conn->closed) return;
  if (events & EPOLLIN) on_readable(conn);
}

void Server::on_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[65536];
  for (;;) {
    if (!conn->reading) return;  // backpressure kicked in mid-drain
    const ::ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n == 0) {
      // Peer closed. Any batches still in flight will complete and find
      // closed == true; their replies are dropped, nothing blocks.
      close_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(conn);
      return;
    }
    conn->last_read = std::chrono::steady_clock::now();
    conn->decoder.feed({buf, static_cast<std::size_t>(n)});
    pump(conn);
    if (conn->closed || conn->closing) return;
  }
  pump(conn);
}

bool Server::has_capacity(const Conn& conn) const {
  return !draining_.load(std::memory_order_acquire) &&
         conn.inflight < opts_.max_inflight_batches &&
         conn.out_bytes <= kOutputHighWater;
}

void Server::pump(const std::shared_ptr<Conn>& conn) {
  // Process frames the decoder already holds, as far as the pipelining
  // window and output backpressure allow. Called whenever capacity may
  // have been created (bytes read, a batch completed, output drained) —
  // a client that sent its whole pipeline in one burst makes progress
  // even when no new bytes ever arrive.
  try {
    while (!conn->closed && !conn->closing && has_capacity(*conn)) {
      // The decode stage's zero point, taken before reassembly and the
      // checksum so that they count toward it.
      const std::uint64_t recv_ns = obs::now_ns();
      auto frame = conn->decoder.next();
      if (!frame) break;
      handle_frame(conn, std::move(*frame), recv_ns);
    }
  } catch (const ProtocolError& ex) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, ex.what());
    return;
  }
  update_read_interest(conn);
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn, Frame frame,
                          std::uint64_t recv_ns) {
  // Decode errors and a reserved request id are connection-fatal; anything
  // per-request is answered on the request's own id and the connection
  // keeps serving.
  try {
    bool batch = false;
    service::for_each_workload([&](auto tag) {
      using W = typename decltype(tag)::type;
      if (!batch && frame.type == W::kBatchFrame) {
        batch = true;
        handle_batch<W>(conn, decode_batch<W>(frame.payload), recv_ns);
      }
    });
    if (batch) return;
    switch (frame.type) {
      case FrameType::kRegisterGraph:
        handle_register(conn, decode_register_graph(frame.payload));
        return;
      case FrameType::kListOracles:
        handle_list_oracles(conn, decode_list_oracles(frame.payload));
        return;
      case FrameType::kUnregister:
        handle_unregister(conn, decode_unregister(frame.payload));
        return;
      case FrameType::kStatsRequest:
        handle_stats(conn, decode_stats_request(frame.payload));
        return;
      default: {
        std::string allowed;
        service::for_each_workload([&](auto tag) {
          allowed += std::string(decltype(tag)::type::kFrameName) + ", ";
        });
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        fail_conn(conn, "unexpected frame type " +
                            std::to_string(static_cast<std::uint32_t>(frame.type)) +
                            " (client may only send " + allowed +
                            "REGISTER_GRAPH, LIST_ORACLES, UNREGISTER or STATS_REQUEST)");
        return;
      }
    }
  } catch (const ProtocolError& ex) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, ex.what());
  }
}

void Server::send_batch_error(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                              const std::string& message) {
  std::vector<std::uint8_t> reply;
  append_error(reply, request_id, message);
  send_bytes(conn, std::move(reply));
}

namespace {

std::string hex_digest(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace

std::shared_ptr<const service::Snapshot> Server::resolve_oracle(
    const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
    const std::optional<std::uint64_t>& digest_opt, std::uint64_t* digest_out) {
  // Resolve the target oracle: the frame's digest (v2), else the HELLO
  // default. Unknown digests are batch errors; a digest still building is
  // BUSY (retryable) — the registration will land, the batch's data won't
  // change.
  const std::uint64_t digest = digest_opt ? *digest_opt : default_digest_;
  *digest_out = digest;
  if (registry_ != nullptr) {
    if (digest == 0) {
      batch_errors_.fetch_add(1, std::memory_order_relaxed);
      send_batch_error(conn, request_id,
                       "this server has no default oracle; send a target digest "
                       "(REGISTER_GRAPH first, or LIST_ORACLES)");
      return nullptr;
    }
    std::shared_ptr<const service::Snapshot> oracle = registry_->resolve(digest);
    if (oracle == nullptr) {
      const registry::OracleState st = registry_->state(digest);
      if (st == registry::OracleState::kRegistering ||
          st == registry::OracleState::kBuilding) {
        busy_rejected_.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::uint8_t> reply;
        append_busy(reply, request_id,
                    "oracle " + hex_digest(digest) + " is still building; retry");
        send_bytes(conn, std::move(reply));
        return nullptr;
      }
      batch_errors_.fetch_add(1, std::memory_order_relaxed);
      if (st == registry::OracleState::kFailed) {
        send_batch_error(conn, request_id,
                         "oracle " + hex_digest(digest) +
                             " failed to build (LIST_ORACLES carries the reason)");
        return nullptr;
      }
      send_batch_error(conn, request_id, "unknown oracle digest " + hex_digest(digest));
      return nullptr;
    }
    return oracle;
  }
  if (digest_opt && *digest_opt != default_digest_) {
    batch_errors_.fetch_add(1, std::memory_order_relaxed);
    send_batch_error(conn, request_id,
                     "unknown oracle digest " + hex_digest(digest) +
                         " (single-oracle server)");
    return nullptr;
  }
  return oracle_;
}

template <class W>
void Server::handle_batch(const std::shared_ptr<Conn>& conn, BatchFrame<W> batch,
                          std::uint64_t recv_ns) {
  if (batch.request_id == 0) {
    // Id 0 is reserved for connection-level errors; echoing it back for a
    // failed batch would read as "connection dead" to a conformant client.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, "request id 0 is reserved (batch ids must be nonzero)");
    return;
  }
  batches_received_.fetch_add(1, std::memory_order_relaxed);
  workload_batches_[service::workload_index<W>].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = batch.request_id;
  // The relative budget on the wire becomes an absolute instant here, at
  // decode — every later stage (dispatcher queue, service, shard router)
  // compares against this same instant.
  const Deadline deadline =
      batch.deadline_ms ? deadline_after_ms(*batch.deadline_ms) : kNoDeadline;

  std::uint64_t digest = 0;
  std::shared_ptr<const service::Snapshot> oracle =
      resolve_oracle(conn, id, batch.digest, &digest);
  if (oracle == nullptr) return;

  // Decode stage ends here: frame parsed, oracle resolved, dispatcher next.
  const std::uint64_t submit_ns = obs::now_ns();
  stage_decode_->record(submit_ns - recv_ns);
  std::shared_ptr<obs::TraceSpan> span =
      begin_span(id, static_cast<std::uint32_t>(W::kBatchFrame),
                 static_cast<std::uint32_t>(batch.queries.size()), recv_ns, submit_ns);
  auto reply = std::make_shared<BatchReply>();
  admit_batch(
      conn, id, digest,
      [this, oracle = std::move(oracle), queries = std::move(batch.queries), id, reply,
       submit_ns, span](service::BatchCallback cb, Deadline dl) mutable {
        // Queue stage ends when the dispatcher grants the inflight slot;
        // execute runs from here to the encoded reply. `dl` is the instant
        // decoded above — queue time burns the batch's own budget.
        const std::uint64_t start_ns = obs::now_ns();
        stage_queue_->record(start_ns - submit_ns);
        if (span != nullptr) span->queue_ns = start_ns - submit_ns;
        svc_.submit<W>(
            std::move(oracle), std::move(queries),
            [this, cb = std::move(cb), id, reply, start_ns,
             span](service::WorkloadResult<W> r) {
              if (r.error == nullptr) {
                reply->answered = r.answers.size();
                append_answer<W>(reply->bytes, id, r.answers);
              }
              const std::uint64_t done_ns = obs::now_ns();
              stage_execute_->record(done_ns - start_ns);
              if (span != nullptr) span->execute_ns = done_ns - start_ns;
              cb(service::BatchResult{{}, std::move(r.oracle), r.error});
            },
            dl);
      },
      reply, deadline, span);
}

void Server::admit_batch(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                         std::uint64_t digest, registry::FairDispatcher::StartFn start,
                         std::shared_ptr<BatchReply> reply, Deadline deadline,
                         std::shared_ptr<obs::TraceSpan> span) {
  // Every opcode takes a dispatcher slot under its tenant digest, so a
  // vitality flood fights a point-query flood for exactly one round-robin
  // turn.
  ++conn->inflight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_total_;
  }
  if (registry_ != nullptr) registry_->note_batch(digest);
  // The callback fires on a pool worker: registry bookkeeping first, then
  // hop back to the loop thread with the reply, then release the
  // destructor's inflight gate. Order matters twice over — post first,
  // decrement after, so a destructor waiting on the gate cannot miss a
  // reply still being posted; and notify WHILE holding the mutex, so the
  // destructor cannot wake, see zero, and destroy the condition variable
  // out from under notify_all. (The registry outlives the server by the
  // same gate: note_complete runs before the decrement.)
  const registry::DispatchVerdict verdict = dispatcher_->submit_task(
      digest, std::move(start),
      [this, conn, request_id, digest, reply, span](service::BatchResult result) {
        if (registry_ != nullptr) registry_->note_complete(digest, reply->answered);
        conn->home->loop.post([this, conn, request_id, reply, span,
                               error = result.error]() mutable {
          on_batch_done(conn, request_id, reply, std::move(error), span);
        });
        std::lock_guard<std::mutex> lock(inflight_mu_);
        --inflight_total_;
        inflight_cv_.notify_all();
      },
      deadline);
  if (verdict == registry::DispatchVerdict::kBusy) {
    // Rejected without queueing: the callback will never fire, so roll
    // every piece of accounting back and tell the client to retry.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_total_;
    }
    --conn->inflight;
    if (registry_ != nullptr) registry_->note_busy(digest);
    busy_rejected_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> busy;
    append_busy(busy, request_id,
                "server busy: tenant " + hex_digest(digest) + " queue is full; retry");
    send_bytes(conn, std::move(busy));
  }
}

void Server::on_batch_done(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                           const std::shared_ptr<BatchReply>& reply, std::exception_ptr error,
                           const std::shared_ptr<obs::TraceSpan>& span) {
  if (conn->closed || conn->closing) {
    // Gone, or already told "fatal error, closing" — nothing may follow a
    // connection-level ERROR on the wire.
    replies_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (!conn->closed) --conn->inflight;
    return;
  }
  MSRP_CHECK(conn->inflight > 0, "net server: completion without an in-flight batch");
  --conn->inflight;
  // Flush stage: completion back on the loop thread -> reply bytes pushed
  // into the connection's send path.
  const std::uint64_t flush_start_ns = obs::now_ns();
  const bool failed = error != nullptr;
  std::vector<std::uint8_t> bytes;
  if (failed) {
    std::string message = "batch failed";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& ex) {
      message = ex.what();
    } catch (...) {
    }
    if (is_deadline_exceeded_message(message)) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      batch_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    append_error(bytes, request_id, message);
  } else {
    queries_answered_.fetch_add(reply->answered, std::memory_order_relaxed);
    bytes = std::move(reply->bytes);
  }
  send_bytes(conn, std::move(bytes));
  const std::uint64_t flush_ns = obs::now_ns() - flush_start_ns;
  stage_flush_->record(flush_ns);
  if (span != nullptr) {
    span->flush_ns = flush_ns;
    span->error = failed;
    trace_->publish(*span);
  }
  if (conn->closed) return;  // send_bytes may close on a write error
  pump(conn);                // the completion freed pipelining capacity
  maybe_finish_conn(conn);
}

void Server::handle_register(const std::shared_ptr<Conn>& conn, RegisterGraphFrame reg) {
  if (reg.request_id == 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, "request id 0 is reserved (request ids must be nonzero)");
    return;
  }
  const std::uint64_t id = reg.request_id;
  if (registry_ == nullptr) {
    registrations_failed_.fetch_add(1, std::memory_order_relaxed);
    send_batch_error(conn, id,
                     "registry is disabled on this server (start with --registry)");
    return;
  }
  ++conn->inflight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_total_;
  }
  // Same delivery discipline as batches: the outcome posts to the loop
  // thread, then the gate releases.
  auto done = [this, conn, id](registry::RegisterOutcome outcome) {
    conn->home->loop.post([this, conn, id, outcome = std::move(outcome)]() mutable {
      on_register_done(conn, id, std::move(outcome));
    });
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_total_;
    inflight_cv_.notify_all();
  };
  bool admitted = false;
  std::string reason;
  if (reg.mode == RegisterMode::kEdgeList) {
    Config cfg;
    cfg.seed = reg.seed;
    admitted = registry_->register_graph(reg.num_vertices, std::move(reg.edges),
                                         std::move(reg.sources), cfg, done, &reason);
  } else {
    admitted = registry_->register_snapshot(std::move(reg.snapshot_path), done, &reason);
  }
  if (!admitted) {
    // Admission rejected synchronously: `done` never runs; roll back.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_total_;
    }
    --conn->inflight;
    registrations_failed_.fetch_add(1, std::memory_order_relaxed);
    send_batch_error(conn, id, reason);
  }
}

void Server::on_register_done(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                              registry::RegisterOutcome outcome) {
  if (outcome.state == registry::OracleState::kReady) {
    oracles_registered_.fetch_add(1, std::memory_order_relaxed);
  } else {
    registrations_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->closed || conn->closing) {
    replies_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (!conn->closed) --conn->inflight;
    return;
  }
  MSRP_CHECK(conn->inflight > 0, "net server: registration done without an in-flight slot");
  --conn->inflight;
  std::vector<std::uint8_t> reply;
  if (outcome.state == registry::OracleState::kReady) {
    RegisterAckFrame ack;
    ack.request_id = request_id;
    ack.digest = outcome.digest;
    ack.state = outcome.state;
    ack.num_vertices = outcome.oracle->num_vertices();
    ack.num_edges = outcome.oracle->num_edges();
    ack.sources = outcome.oracle->sources();
    append_register_ack(reply, ack);
  } else {
    append_error(reply, request_id, outcome.error);
  }
  send_bytes(conn, std::move(reply));
  if (conn->closed) return;
  pump(conn);
  maybe_finish_conn(conn);
}

void Server::handle_list_oracles(const std::shared_ptr<Conn>& conn,
                                 std::uint64_t request_id) {
  if (request_id == 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, "request id 0 is reserved (request ids must be nonzero)");
    return;
  }
  OracleListFrame reply;
  reply.request_id = request_id;
  if (registry_ != nullptr) {
    for (const registry::OracleInfo& info : registry_->list()) {
      OracleListEntry e;
      e.digest = info.digest;
      e.state = info.state;
      e.num_vertices = info.num_vertices;
      e.num_edges = info.num_edges;
      e.sources = info.sources;
      e.inflight_batches = info.inflight_batches;
      e.queries_answered = info.queries_answered;
      e.footprint_bytes = info.footprint_bytes;
      e.error = info.error;
      reply.oracles.push_back(std::move(e));
    }
  } else {
    OracleListEntry e;
    e.digest = default_digest_;
    e.state = registry::OracleState::kReady;
    e.num_vertices = oracle_->num_vertices();
    e.num_edges = oracle_->num_edges();
    e.sources = oracle_->sources();
    e.queries_answered = svc_.queries_served();
    e.footprint_bytes = oracle_->footprint_bytes();
    reply.oracles.push_back(std::move(e));
  }
  std::vector<std::uint8_t> bytes;
  append_oracle_list(bytes, reply);
  send_bytes(conn, std::move(bytes));
}

void Server::handle_unregister(const std::shared_ptr<Conn>& conn, const UnregisterFrame& un) {
  if (un.request_id == 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, "request id 0 is reserved (request ids must be nonzero)");
    return;
  }
  if (registry_ == nullptr) {
    send_batch_error(conn, un.request_id,
                     "registry is disabled on this server (start with --registry)");
    return;
  }
  const std::optional<registry::OracleState> result = registry_->unregister(un.digest);
  if (!result) {
    send_batch_error(conn, un.request_id, "unknown oracle digest " + hex_digest(un.digest));
    return;
  }
  if (*result != registry::OracleState::kUnregistered &&
      *result != registry::OracleState::kExpiring) {
    send_batch_error(conn, un.request_id,
                     "oracle " + hex_digest(un.digest) + " is still " +
                         registry::to_string(*result) + "; cannot unregister");
    return;
  }
  // ACK with the resulting state (kUnregistered = gone now, kExpiring =
  // draining its in-flight batches) reusing the REGISTER_ACK shape.
  RegisterAckFrame ack;
  ack.request_id = un.request_id;
  ack.digest = un.digest;
  ack.state = *result;
  std::vector<std::uint8_t> reply;
  append_register_ack(reply, ack);
  send_bytes(conn, std::move(reply));
}

void Server::send_bytes(const std::shared_ptr<Conn>& conn, std::vector<std::uint8_t> bytes) {
  // Closing means a connection-level ERROR is the last frame this peer
  // gets; anything queued after it would contradict the protocol.
  if (conn->closed || conn->closing || bytes.empty()) return;
  // A fresh backlog starts its stall clock now, not at the last write of
  // some long-idle exchange.
  if (conn->outq.empty()) conn->last_write_progress = std::chrono::steady_clock::now();
  conn->out_bytes += bytes.size();
  conn->outq.push_back(std::move(bytes));
  flush(conn);
}

void Server::flush(const std::shared_ptr<Conn>& conn) {
  // error action: pretend the socket took nothing this round (a stuck
  // write); the stall-eviction timer is what recovers the connection.
  if (MSRP_FAILPOINT("server.flush")) return;
  while (!conn->outq.empty()) {
    const std::vector<std::uint8_t>& front = conn->outq.front();
    const ::ssize_t n = ::send(conn->fd, front.data() + conn->out_off,
                               front.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    conn->out_bytes -= static_cast<std::size_t>(n);
    if (n > 0) conn->last_write_progress = std::chrono::steady_clock::now();
    if (conn->out_off == front.size()) {
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
  const bool want_write = !conn->outq.empty();
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    update_epoll(conn);
  }
  if (conn->outq.empty() && conn->closing) {
    close_conn(conn);
    return;
  }
  update_read_interest(conn);
  // A draining connection whose last queued reply just left via EPOLLOUT
  // must close now, not at the drain deadline.
  maybe_finish_conn(conn);
}

void Server::on_writable(const std::shared_ptr<Conn>& conn) {
  flush(conn);
  if (!conn->closed) pump(conn);  // drained output may have freed capacity
}

void Server::update_read_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->closing) return;
  const bool want = has_capacity(*conn);
  if (want != conn->reading) {
    conn->reading = want;
    update_epoll(conn);
  }
}

void Server::update_epoll(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  std::uint32_t events = 0;
  if (conn->reading) events |= EPOLLIN;
  if (conn->want_write) events |= EPOLLOUT;
  conn->home->loop.modify_fd(conn->fd, events);
}

void Server::fail_conn(const std::shared_ptr<Conn>& conn, const std::string& message) {
  if (conn->closed || conn->closing) return;
  std::vector<std::uint8_t> frame;
  append_error(frame, 0, message);
  if (conn->reading) {
    conn->reading = false;
    update_epoll(conn);
  }
  // Queue the ERROR before raising closing (send_bytes refuses frames on a
  // closing connection), then close — now if already flushed, otherwise
  // when flush() empties the queue.
  send_bytes(conn, std::move(frame));
  if (conn->closed) return;
  conn->closing = true;
  if (conn->outq.empty()) close_conn(conn);
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  conn->home->loop.remove_fd(conn->fd);
  ::close(conn->fd);
  conn->home->conns.erase(conn->fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  if (draining_.load(std::memory_order_acquire)) check_drain_done(*conn->home);
}

void Server::maybe_finish_conn(const std::shared_ptr<Conn>& conn) {
  if (draining_.load(std::memory_order_acquire) && conn->home->drain_started &&
      !conn->closed && conn->inflight == 0 && conn->outq.empty()) {
    close_conn(conn);
  }
}

std::shared_ptr<obs::TraceSpan> Server::begin_span(std::uint64_t request_id,
                                                   std::uint32_t frame_type,
                                                   std::uint32_t queries,
                                                   std::uint64_t recv_ns,
                                                   std::uint64_t submit_ns) {
  if (trace_ == nullptr || !trace_->sample()) return nullptr;
  auto span = std::make_shared<obs::TraceSpan>();
  span->request_id = request_id;
  span->frame_type = frame_type;
  span->queries = queries;
  span->start_ns = recv_ns;
  span->decode_ns = submit_ns - recv_ns;
  return span;
}

void Server::handle_stats(const std::shared_ptr<Conn>& conn, std::uint64_t request_id) {
  if (request_id == 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    fail_conn(conn, "request id 0 is reserved (request ids must be nonzero)");
    return;
  }
  // snapshot() takes the registry mutex and runs every collector — fine for
  // an operator opcode, never on the batch path.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  StatsSnapshotFrame out;
  out.request_id = request_id;
  out.counters.reserve(snap.counters.size());
  for (const obs::CounterSample& c : snap.counters) out.counters.push_back({c.name, c.value});
  out.gauges.reserve(snap.gauges.size());
  for (const obs::GaugeSample& g : snap.gauges) out.gauges.push_back({g.name, g.value});
  out.histograms.reserve(snap.histograms.size());
  for (const obs::HistogramSample& h : snap.histograms) {
    StatsHistogram sh;
    sh.name = h.name;
    sh.label = h.label;
    sh.count = h.count;
    sh.sum_ns = h.sum_ns;
    for (std::uint32_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (h.buckets[i] != 0) sh.buckets.emplace_back(i, h.buckets[i]);
    }
    out.histograms.push_back(std::move(sh));
  }
  std::vector<std::uint8_t> bytes;
  append_stats_snapshot(bytes, out);
  send_bytes(conn, std::move(bytes));
}

ServerStats Server::stats() const {
  ServerStats st;
  st.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  st.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  st.batches_received = batches_received_.load(std::memory_order_relaxed);
  st.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  const auto workload_batches = [this](std::size_t index) {
    return workload_batches_[index].load(std::memory_order_relaxed);
  };
  st.vitality_batches = workload_batches(service::workload_index<service::Vitality>);
  st.vickrey_batches = workload_batches(service::workload_index<service::Vickrey>);
  st.kfail_batches = workload_batches(service::workload_index<service::KFail>);
  st.batch_errors = batch_errors_.load(std::memory_order_relaxed);
  st.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  st.replies_dropped = replies_dropped_.load(std::memory_order_relaxed);
  st.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
  st.oracles_registered = oracles_registered_.load(std::memory_order_relaxed);
  st.registrations_failed = registrations_failed_.load(std::memory_order_relaxed);
  st.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  st.connections_evicted = connections_evicted_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace msrp::net
