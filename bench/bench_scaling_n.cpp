// EXP-1 — Theorem 26's total-time shape versus n at fixed sigma.
//
// The paper claims O~(m sqrt(n sigma) + sigma n^2). With m = Theta(n)
// (constant average degree) the bound is O~(sigma n^2); the brute-force
// baseline costs Theta(sigma n m) = Theta(sigma n^2) too but with a far
// larger constant, and per-pair MMG costs O~(sigma n (m + n) log n). The
// series below reproduce the claimed ordering and growth on both a
// low-diameter (ER) and a high-diameter (grid) workload.
//
// The subtree series is the exact per-column recompute the query service
// builds with: sigma * sum_t deg(t) depth(t) arc visits, which is about
// sigma m log n on ER and O(sigma n^2) on the grid, the paper's own output
// bound. Finding (4-core Xeon VM, one thread): solve_msrp never overtakes
// it. At n = 4096 subtree took 9.0 ms against 563 ms on ER and 19.4 ms
// against 724 ms on the grid; its fitted growth (N lg N on ER, N^2 on the
// grid) matches msrp's, with constants 60x (ER) and 36x (grid) smaller.
#include "bench_common.hpp"

#include "baseline/baselines.hpp"

namespace {

using namespace msrp;
using namespace msrp::benchutil;

constexpr std::uint32_t kSigma = 4;
constexpr double kAvgDeg = 8.0;

void counters(benchmark::State& state, const Graph& g) {
  state.counters["n"] = g.num_vertices();
  state.counters["m"] = g.num_edges();
  state.counters["sigma"] = kSigma;
}

void BM_Msrp_ER(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), kAvgDeg);
  const auto sources = spread_sources(g, kSigma);
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const MsrpResult res = solve_msrp(g, sources);
    cells = output_cells(res, g);
    benchmark::DoNotOptimize(cells);
  }
  counters(state, g);
  state.counters["out_cells"] = static_cast<double>(cells);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Msrp_ER)->RangeMultiplier(2)->Range(256, 4096)->Complexity()->Unit(benchmark::kMillisecond);

void BM_Msrp_Grid(benchmark::State& state) {
  const Graph g = grid_graph(static_cast<Vertex>(state.range(0)));
  const auto sources = spread_sources(g, kSigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp(g, sources), g));
  }
  counters(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Msrp_Grid)->RangeMultiplier(2)->Range(256, 4096)->Complexity()->Unit(benchmark::kMillisecond);

void BM_Subtree_ER(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), kAvgDeg);
  const auto sources = spread_sources(g, kSigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp_subtree(g, sources), g));
  }
  counters(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Subtree_ER)->RangeMultiplier(2)->Range(256, 4096)->Complexity()->Unit(benchmark::kMillisecond);

void BM_Subtree_Grid(benchmark::State& state) {
  const Graph g = grid_graph(static_cast<Vertex>(state.range(0)));
  const auto sources = spread_sources(g, kSigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp_subtree(g, sources), g));
  }
  counters(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Subtree_Grid)->RangeMultiplier(2)->Range(256, 4096)->Complexity()->Unit(benchmark::kMillisecond);

void BM_PerPair_ER(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), kAvgDeg);
  const auto sources = spread_sources(g, kSigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp_per_pair(g, sources), g));
  }
  counters(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PerPair_ER)->RangeMultiplier(2)->Range(256, 2048)->Complexity()->Unit(benchmark::kMillisecond);

void BM_BruteForce_ER(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), kAvgDeg);
  const auto sources = spread_sources(g, kSigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp_brute_force(g, sources), g));
  }
  counters(state, g);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BruteForce_ER)->RangeMultiplier(2)->Range(256, 2048)->Complexity()->Unit(benchmark::kMillisecond);

}  // namespace
