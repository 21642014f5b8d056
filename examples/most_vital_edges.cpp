// Most vital edges (Malik–Mittal–Gupta, the paper's reference [21]): which
// road closures hurt a route the most? One replacement-path run ranks all
// of them.
//
// The ranking is served through the TOP_K_VITAL workload entry point —
// QueryService::run<service::Vitality>() locally, or the VITALITY_BATCH wire
// opcode against a running msrp_serve --registry server:
//
//   $ ./examples/most_vital_edges
//   $ msrp_serve --registry --listen 7171 &
//   $ ./examples/most_vital_edges --connect 127.0.0.1:7171
//
// Both paths print identical rankings; in local mode the result is also
// cross-checked against the direct rp::most_vital_edges() computation the
// service reproduces.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "rp/vitality.hpp"
#include "service/query_service.hpp"
#include "service/workloads.hpp"

using namespace msrp;

int main(int argc, char** argv) {
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else {
      std::fprintf(stderr, "usage: most_vital_edges [--connect host:port]\n");
      return 2;
    }
  }

  Rng rng(7);
  const Graph g = gen::path_with_chords(40, 8, rng);
  const Vertex s = 0, t = 39;
  const std::vector<service::VitalityQuery> queries{{s, t, 5}};

  std::vector<service::VitalityResult> results;
  if (connect.empty()) {
    service::QueryService svc({.threads = 2});
    const auto oracle = svc.build(g, {s}, Config{});
    results = svc.run<service::Vitality>(*oracle, queries);

    // The service answer is the rp::most_vital_edges ordering, served from
    // the oracle instead of a fresh solve — pin that here.
    const auto direct = most_vital_edges(g, s, t, 5);
    if (direct.size() != results[0].edges.size()) {
      std::fprintf(stderr, "error: service and direct rankings disagree\n");
      return 1;
    }
    for (std::size_t i = 0; i < direct.size(); ++i) {
      if (direct[i].edge != results[0].edges[i].edge ||
          direct[i].replacement != results[0].edges[i].replacement) {
        std::fprintf(stderr, "error: service and direct rankings disagree at %zu\n", i);
        return 1;
      }
    }
  } else {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "error: --connect needs host:port\n");
      return 2;
    }
    net::ClientOptions copts;
    copts.host = connect.substr(0, colon);
    copts.port = static_cast<std::uint16_t>(std::stoul(connect.substr(colon + 1)));
    copts.connect_retries = 10;
    net::Client client(copts);
    const net::RegisterAckFrame ack =
        client.register_graph(g.num_vertices(), g.edges(), std::vector<Vertex>{s});
    results = client.call<service::Vitality>(queries, ack.digest);
  }

  const service::VitalityResult& top = results[0];
  std::printf("route %u -> %u on a chorded path (n=%u, m=%u)%s\n", s, t, g.num_vertices(),
              g.num_edges(), connect.empty() ? "" : " [served over TCP]");
  std::printf("top-%zu most vital segments:\n", top.edges.size());
  for (const service::VitalityEntry& ve : top.edges) {
    const auto [u, v] = g.endpoints(ve.edge);
    if (ve.replacement == kInfDist) {
      std::printf("  #%u (%u,%u): closing it DISCONNECTS the route\n", ve.position, u, v);
    } else {
      std::printf("  #%u (%u,%u): detour +%u (replacement length %u)\n", ve.position, u, v,
                  ve.replacement - top.base, ve.replacement);
    }
  }
  std::printf(
      "\nvitality(e) = d(s,t,e) - d(s,t); the k-most-vital-arcs problem is\n"
      "where the replacement-path literature began.\n");
  return 0;
}
