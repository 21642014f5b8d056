// EXP-net: loopback throughput and latency of the TCP serving layer.
//
// Rows (merged into BENCH_service.json by bench/run_benchmarks.sh so the
// remote-serving numbers sit next to the in-process ones they wrap):
//
//   * BM_NetRoundTrip/B — synchronous round trip of a B-query batch over
//     loopback: one frame out, one frame back. items/sec is queries/sec;
//     at B=1 real_time is the full request latency floor (frame encode,
//     syscalls, epoll dispatch, pool hop, reply).
//   * BM_NetPipelined/K — the same 512-query batches with K kept in
//     flight: measures how much the request ids + completion-order replies
//     recover the syscall/latency overhead.
//   * BM_NetPipelinedMultiLoop/L — the BM_NetPipelined/4 workload spread
//     over 4 connections against a server running L event loops (each
//     with its own SO_REUSEPORT listener). L=1 prices the loop-sharding
//     refactor itself; L>1 shows the accept/read/write fan-out on
//     multi-core hosts (a single-core container keeps the rows flat — the
//     one driver thread and the shared QueryService pool bound it; use
//     msrp_client --connections for an open-loop load test).
//   * BM_NetMultiTenant/T — 512-query pipelined batches round-robined
//     across T wire-registered oracles on one registry server: prices the
//     digest lookup + fair-dispatch hop against the single-tenant rows.
//   * BM_NetVitality/B — synchronous VITALITY_BATCH round trips of B
//     top-k-most-vital queries: each answer walks the canonical path and
//     sorts its edges, so the row prices the heaviest per-query assembly
//     the v3 opcodes added, plus the variable-length reply encode.
//   * BM_NetKFail/B — synchronous KFAIL_BATCH round trips with |F|
//     cycling 0/1/2 per query: one third base reads, one third oracle
//     rows, one third bounded BFS of G - F on the server pool — the
//     worst-case mix a resilience audit sends.
//
// The deltas against BM_QueryBatch (same service, no socket) price the
// network layer itself.
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "service/workloads.hpp"

namespace msrp {
namespace {

constexpr Vertex kN = 1000;
constexpr std::uint32_t kSigma = 8;

service::QueryService& net_service() {
  static service::QueryService svc({.threads = 2});
  return svc;
}

const std::shared_ptr<const service::Snapshot>& net_oracle() {
  static const std::shared_ptr<const service::Snapshot> snap = [] {
    const Graph g = benchutil::er_graph(kN, 8.0);
    return net_service().build(g, benchutil::spread_sources(g, kSigma));
  }();
  return snap;
}

template <class W = service::Point>
std::vector<typename W::Query> make_batch(std::size_t count, std::uint64_t seed) {
  const service::Snapshot& oracle = *net_oracle();
  Rng rng(seed);
  return service::random_query_batch<W>(oracle.sources(), oracle.num_vertices(),
                                        oracle.num_edges(), count, rng);
}

/// |F| cycles 0/1/2 so each batch carries the full k-fail answer mix:
/// base reads, single-failure oracle rows, and two-failure bounded BFS.
std::vector<service::KFailQuery> make_kfail_batch(std::size_t count, std::uint64_t seed) {
  const service::Snapshot& oracle = *net_oracle();
  Rng rng(seed);
  std::vector<service::KFailQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::KFailQuery q{oracle.sources()[rng.next_below(oracle.num_sources())],
                          static_cast<Vertex>(rng.next_below(oracle.num_vertices())),
                          {}};
    while (q.fails.size() < i % 3) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(oracle.num_edges()));
      if (q.fails.empty() || q.fails.front() != e) q.fails.push_back(e);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Loopback server shared by all rows; spawned on first use, reaped at
/// process exit by the static destructor ordering (server after service).
struct LoopbackServer {
  net::Server server;
  std::thread thread;

  LoopbackServer() : server(net_service(), net_oracle()) {
    thread = std::thread([this] { server.run(); });
  }
  ~LoopbackServer() {
    server.shutdown();
    thread.join();
  }
};

net::ClientOptions loopback_options() {
  static LoopbackServer loopback;
  net::ClientOptions copts;
  copts.port = loopback.server.port();
  copts.connect_retries = 10;
  return copts;
}

void BM_NetRoundTrip(benchmark::State& state) {
  net::Client client(loopback_options());
  const auto batch = make_batch(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    auto answers = client.call(batch);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_NetRoundTrip)->Arg(1)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

void BM_NetPipelined(benchmark::State& state) {
  const std::size_t inflight = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatchSize = 512;
  net::Client client(loopback_options());
  const auto batch = make_batch(kBatchSize, 8);
  for (auto _ : state) {
    while (client.inflight() < inflight) client.send(batch);
    auto got = client.wait_any();  // one completion per iteration
    benchmark::DoNotOptimize(got.answers.data());
  }
  while (client.inflight() > 0) client.wait_any();  // drain outside the timer
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSize));
}
BENCHMARK(BM_NetPipelined)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_NetPipelinedMultiLoop(benchmark::State& state) {
  const unsigned loops = static_cast<unsigned>(state.range(0));
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kInflightPerConn = 4;
  constexpr std::size_t kBatchSize = 512;

  // Dedicated server per row (the shared LoopbackServer is single-loop).
  net::ServerOptions sopts;
  sopts.loops = loops;
  net::Server server(net_service(), net_oracle(), sopts);
  std::thread thread([&server] { server.run(); });

  net::ClientOptions copts;
  copts.port = server.port();
  copts.connect_retries = 10;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<net::Client>(copts));
  }
  const auto batch = make_batch(kBatchSize, 9);

  std::size_t next = 0;
  for (auto _ : state) {
    for (auto& c : clients) {
      while (c->inflight() < kInflightPerConn) c->send(batch);
    }
    auto got = clients[next++ % kConns]->wait_any();  // one completion/iter
    benchmark::DoNotOptimize(got.answers.data());
  }
  for (auto& c : clients) {
    while (c->inflight() > 0) c->wait_any();  // drain outside the timer
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSize));
  clients.clear();
  server.shutdown();
  thread.join();
}
BENCHMARK(BM_NetPipelinedMultiLoop)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Registry-enabled loopback server for the multi-tenant row; separate
/// from LoopbackServer so the single-tenant rows keep pricing the bare
/// server (no dispatcher in their path).
struct RegistryLoopbackServer {
  registry::OracleRegistry registry;
  net::Server server;
  std::thread thread;

  RegistryLoopbackServer()
      : registry(net_service()), server(net_service(), net_oracle(), &registry, {}) {
    thread = std::thread([this] { server.run(); });
  }
  ~RegistryLoopbackServer() {
    server.shutdown();
    thread.join();
  }
};

void BM_NetMultiTenant(benchmark::State& state) {
  static RegistryLoopbackServer loopback;
  net::ClientOptions copts;
  copts.port = loopback.server.port();
  copts.connect_retries = 10;
  net::Client client(copts);

  const std::size_t tenants = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatchSize = 512;
  constexpr std::size_t kInflight = 4;
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<service::Query>> batches;
  for (std::size_t i = 0; i < tenants; ++i) {
    const Graph g = benchutil::er_graph(400 + 16 * static_cast<Vertex>(i), 6.0);
    const auto sources = benchutil::spread_sources(g, 4);
    std::vector<std::pair<Vertex, Vertex>> edges;
    edges.reserve(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) edges.push_back(g.endpoints(e));
    const auto ack = client.register_graph(g.num_vertices(), edges, sources);
    Rng rng(90 + i);
    digests.push_back(ack.digest);
    batches.push_back(service::random_query_batch(ack.sources, ack.num_vertices,
                                                  ack.num_edges, kBatchSize, rng));
  }

  std::size_t next = 0;
  for (auto _ : state) {
    while (client.inflight() < kInflight) {
      client.send(batches[next % tenants], digests[next % tenants]);
      ++next;
    }
    auto got = client.wait_any();
    benchmark::DoNotOptimize(got.answers.data());
  }
  while (client.inflight() > 0) client.wait_any();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSize));
}
BENCHMARK(BM_NetMultiTenant)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_NetVitality(benchmark::State& state) {
  net::Client client(loopback_options());
  const auto batch =
      make_batch<service::Vitality>(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    auto results = client.call<service::Vitality>(batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_NetVitality)->Arg(64)->Arg(1024)->UseRealTime();

void BM_NetKFail(benchmark::State& state) {
  net::Client client(loopback_options());
  const auto batch = make_kfail_batch(static_cast<std::size_t>(state.range(0)), 18);
  for (auto _ : state) {
    auto answers = client.call<service::KFail>(batch);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_NetKFail)->Arg(64)->Arg(1024)->UseRealTime();

}  // namespace
}  // namespace msrp
