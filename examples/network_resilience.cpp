// Network resilience audit with multiple depots — the multi-source scenario
// the MSRP problem models directly.
//
// A logistics operator runs sigma depots on a road grid. For every customer
// and every road segment on its delivery route, the operator wants the
// detour cost if that segment closes: exactly d(s, t, e) - d(s, t), which
// is the Vickrey price of the segment. The audit is one VICKREY_PRICES
// batch per the service's workload entry points — no hand-rolled
// skip-an-edge loops — and the "what if BOTH bridges close?" scenario at
// the end is a two-edge K_FAIL batch, beyond what any single-failure
// oracle row can answer.
//
// Runs in-process by default, or against a live msrp_serve --registry
// server with identical output:
//
//   $ ./examples/network_resilience
//   $ msrp_serve --registry --listen 7171 &
//   $ ./examples/network_resilience --connect 127.0.0.1:7171
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "net/client.hpp"
#include "service/query_service.hpp"
#include "service/workloads.hpp"

using namespace msrp;

int main(int argc, char** argv) {
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else {
      std::fprintf(stderr, "usage: network_resilience [--connect host:port]\n");
      return 2;
    }
  }

  // A 12x12 city grid with a river: a row where only two bridges cross.
  const Vertex rows = 12, cols = 12;
  GraphBuilder gb(rows * cols);
  const auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      if (c + 1 < cols) gb.add_edge(id(r, c), id(r, c + 1));
      const bool river = (r == 5);  // crossings between row 5 and 6
      if (r + 1 < rows) {
        if (!river || c == 2 || c == 9) gb.add_edge(id(r, c), id(r + 1, c));
      }
    }
  }
  const Graph g = gb.build();
  const std::vector<Vertex> depots{id(0, 0), id(11, 11), id(0, 11)};

  // One Vickrey query per (depot, customer): every route segment's detour
  // premium comes back as its price, monopolies (no detour) as kInfDist.
  std::vector<service::VickreyQuery> audit;
  audit.reserve(depots.size() * g.num_vertices());
  for (const Vertex s : depots) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) audit.push_back({s, t});
  }
  // The bridge stress test: both crossings closed at once. A single-failure
  // row d(s, t, e) cannot express this — it is a two-edge K_FAIL query.
  const EdgeId bridge_w = g.find_edge(id(5, 2), id(6, 2));
  const EdgeId bridge_e = g.find_edge(id(5, 9), id(6, 9));
  std::vector<service::KFailQuery> stress;
  for (const Vertex s : depots) {
    stress.push_back({s, id(8, 5), {bridge_w, bridge_e}});
  }

  std::vector<service::VickreyResult> prices;
  std::vector<Dist> stressed;
  if (connect.empty()) {
    service::QueryService svc({.threads = 2});
    const auto oracle = svc.build(g, depots, Config{});
    prices = svc.run<service::Vickrey>(*oracle, audit);
    stressed = svc.run<service::KFail>(*oracle, stress);
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
    const net::RegisterAckFrame ack = client.register_graph(g.num_vertices(), g.edges(), depots);
    prices = client.call<service::Vickrey>(audit, ack.digest);
    stressed = client.call<service::KFail>(stress, ack.digest);
  }

  std::printf("city: %ux%u grid with a 2-bridge river, n=%u m=%u, depots: 3%s\n\n", rows,
              cols, g.num_vertices(), g.num_edges(),
              connect.empty() ? "" : " [served over TCP]");

  // Fragility: for each edge, the worst detour premium over all (s, t).
  struct Fragile {
    EdgeId e;
    Dist premium;
  };
  std::vector<Dist> worst_premium(g.num_edges(), 0);
  std::uint64_t pairs = 0, monopolies = 0;
  for (const service::VickreyResult& res : prices) {
    for (const service::VickreyCharge& c : res.prices) {
      ++pairs;
      if (c.price == kInfDist) {
        ++monopolies;
        worst_premium[c.edge] = kInfDist;
      } else if (worst_premium[c.edge] != kInfDist) {
        worst_premium[c.edge] = std::max(worst_premium[c.edge], c.price);
      }
    }
  }

  std::vector<Fragile> ranked;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (worst_premium[e] > 0) ranked.push_back({e, worst_premium[e]});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Fragile& a, const Fragile& b) { return a.premium > b.premium; });

  std::printf("audited %llu (route, segment) pairs; %llu with NO detour\n\n",
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(monopolies));
  std::printf("top fragile segments (worst detour premium over all routes):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranked.size()); ++i) {
    const auto [u, v] = g.endpoints(ranked[i].e);
    if (ranked[i].premium == kInfDist) {
      std::printf("  (%2u,%2u) <-> (%2u,%2u)  premium: UNBOUNDED\n", u / cols, u % cols,
                  v / cols, v % cols);
    } else {
      std::printf("  (%2u,%2u) <-> (%2u,%2u)  premium: +%u\n", u / cols, u % cols, v / cols,
                  v % cols, ranked[i].premium);
    }
  }

  std::printf("\nper-depot resilience (mean detour premium on its routes):\n");
  for (std::size_t d = 0; d < depots.size(); ++d) {
    const Vertex s = depots[d];
    std::uint64_t total = 0, cnt = 0, inf = 0;
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      const service::VickreyResult& res = prices[d * g.num_vertices() + t];
      for (const service::VickreyCharge& c : res.prices) {
        if (c.price == kInfDist) {
          ++inf;
        } else {
          total += c.price;
          ++cnt;
        }
      }
    }
    std::printf("  depot (%2u,%2u): mean premium %.2f over %llu segments"
                " (%llu unbridgeable)\n",
                s / cols, s % cols, cnt ? static_cast<double>(total) / cnt : 0.0,
                static_cast<unsigned long long>(cnt), static_cast<unsigned long long>(inf));
  }

  std::printf("\nif BOTH bridges close (two-edge failure, customer at (8,5)):\n");
  for (std::size_t d = 0; d < depots.size(); ++d) {
    const Vertex s = depots[d];
    if (stressed[d] == kInfDist) {
      std::printf("  depot (%2u,%2u): CUT OFF from the south bank\n", s / cols, s % cols);
    } else {
      std::printf("  depot (%2u,%2u): still reachable, %u hops\n", s / cols, s % cols,
                  stressed[d]);
    }
  }
  std::printf("\nthe two bridge rows dominate the fragility ranking, as expected.\n");
  return 0;
}
