// EXP-8 — ablating the paper's design choices.
//
//   a) Landmark-table method: MMG-per-pair (Section 3's building block)
//      versus the Bernstein–Karger auxiliary graphs (Section 8). Each row
//      times one full build on an ER graph (average degree 8, sigma = 4) at
//      n = 128, 256 and 512 with one method. The BK route wins
//      asymptotically; no crossover is recorded yet (no BENCH_*.json holds
//      these rows), so they do not yet justify MMG-per-pair as the
//      library's default.
//   b) The scaling trick: bucketed landmark hierarchy L_k versus forcing a
//      single dense level (emulated with near_scale large enough that every
//      edge is near — the O~(n sqrt(n)) per-target regime the paper's
//      Section 3 narrative warns about).
//   c) Oversampling: time vs exactness rate as the sampling constant decays
//      (Monte Carlo misses appear as overshoot against the brute oracle).
#include "bench_common.hpp"

#include "baseline/baselines.hpp"

namespace {

using namespace msrp;
using namespace msrp::benchutil;

constexpr std::uint32_t kSigma = 4;

// ---- (a) landmark-table method -------------------------------------------

void BM_LandmarkMethod(benchmark::State& state) {
  const Graph g = er_graph(static_cast<Vertex>(state.range(0)), 8.0);
  const auto sources = spread_sources(g, kSigma);
  Config cfg;
  cfg.landmark_rp = state.range(1) == 0 ? LandmarkRpMethod::kMmgPerPair
                                        : LandmarkRpMethod::kBkAuxGraphs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp(g, sources, cfg), g));
  }
  state.counters["n"] = g.num_vertices();
  state.SetLabel(state.range(1) == 0 ? "mmg_per_pair" : "bk_aux_graphs");
}
BENCHMARK(BM_LandmarkMethod)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Unit(benchmark::kMillisecond);

// ---- (b) scaling trick ----------------------------------------------------

void BM_ScalingTrick(benchmark::State& state) {
  const Graph g = chorded_path(static_cast<Vertex>(state.range(0)));
  const auto sources = spread_sources(g, kSigma);
  Config cfg;
  if (state.range(1) == 1) {
    // Bucketless emulation: near threshold so large every edge is near,
    // i.e. no L_k hierarchy is ever consulted.
    cfg.exact = true;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(output_cells(solve_msrp(g, sources, cfg), g));
  }
  state.counters["n"] = g.num_vertices();
  state.SetLabel(state.range(1) == 0 ? "bucketed_Lk" : "all_near");
}
BENCHMARK(BM_ScalingTrick)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// ---- (c) oversampling vs exactness ---------------------------------------

void BM_Oversample(benchmark::State& state) {
  const Graph g = chorded_path(512);
  const auto sources = spread_sources(g, kSigma);
  Config cfg;
  cfg.oversample = static_cast<double>(state.range(0)) / 4.0;
  cfg.near_scale = 1.0;
  MsrpResult res = solve_msrp(g, sources, cfg);
  for (auto _ : state) {
    res = solve_msrp(g, sources, cfg);
    benchmark::DoNotOptimize(output_cells(res, g));
  }
  // Exactness: fraction of cells equal to the brute-force oracle.
  const MsrpResult want = solve_msrp_brute_force(g, sources);
  std::uint64_t cells = 0, exact = 0;
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      const auto wrow = want.row(s, t);
      const auto grow = res.row(s, t);
      for (std::size_t i = 0; i < wrow.size(); ++i) {
        ++cells;
        exact += (grow[i] == wrow[i]);
      }
    }
  }
  state.counters["oversample"] = cfg.oversample;
  state.counters["exact_pct"] =
      cells ? 100.0 * static_cast<double>(exact) / static_cast<double>(cells) : 100.0;
}
BENCHMARK(BM_Oversample)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
