// EXP-10 — sensitivity-oracle build/query costs (related work [4, 6, 19]):
// O(1) queries after an MSRP-time build, with Theta(output) space. Query
// latency must stay flat in n and sigma — the contract Bernstein–Karger /
// Gupta–Singh oracles promise and this library's MsrpResult layout delivers.
#include "bench_common.hpp"

#include "core/msrp.hpp"

namespace {

using namespace msrp;
using namespace msrp::benchutil;

void BM_OracleBuild(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), 8.0);
  const auto sources = spread_sources(g, 4);
  for (auto _ : state) {
    const MsrpResult oracle = solve_msrp(g, sources);
    benchmark::DoNotOptimize(oracle.raw_rows(0).data());
  }
  state.counters["n"] = g.num_vertices();
}
BENCHMARK(BM_OracleBuild)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_OracleQuery(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), 8.0);
  const auto sources = spread_sources(g, 4);
  const MsrpResult oracle = solve_msrp(g, sources);
  Rng rng(5);
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  for (auto _ : state) {
    const Vertex s = sources[rng.next_below(sources.size())];
    const auto t = static_cast<Vertex>(rng.next_below(n));
    const auto e = static_cast<EdgeId>(rng.next_below(m));
    benchmark::DoNotOptimize(oracle.avoiding(s, t, e));
  }
  state.counters["n"] = g.num_vertices();
  std::size_t cells = 0;
  for (std::uint32_t si = 0; si < sources.size(); ++si) cells += oracle.raw_rows(si).size();
  state.counters["cells"] = static_cast<double>(cells);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OracleQuery)->Arg(256)->Arg(1024)->Arg(4096)->Complexity(benchmark::o1);

}  // namespace
