// Extension modules: the Parter–Peleg fault-tolerant BFS subgraph, and the
// solver's MsrpResult read as a multi-source distance sensitivity oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/baselines.hpp"
#include "ftsub/ft_subgraph.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "core/msrp.hpp"

namespace msrp {
namespace {

/// d(s, ., e) in `h` must equal the same in `g` for every edge e of g.
/// Edge ids differ between the graphs, so failures are matched by endpoints.
void expect_preserves_replacements(const Graph& g, const Graph& h,
                                   const std::vector<Vertex>& sources) {
  for (const Vertex s : sources) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      const EdgeId he = h.find_edge(u, v);  // kNoEdge: e absent from h
      const BfsTree want(g, s, e);
      const BfsTree got(h, s, he);
      for (Vertex t = 0; t < g.num_vertices(); ++t) {
        ASSERT_EQ(got.dist(t), want.dist(t))
            << "s=" << s << " t=" << t << " e=(" << u << "," << v << ")";
      }
    }
  }
}

class FtSubgraphParamTest : public testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(FtSubgraphParamTest, PreservesAllReplacementDistances) {
  const auto [n, p, seed] = GetParam();
  Rng rng(seed);
  const Graph g = gen::connected_gnp(static_cast<Vertex>(n), p, rng);
  const std::vector<Vertex> sources{0, static_cast<Vertex>(n / 2)};
  const FtSubgraph ft = build_ft_subgraph(g, sources);
  expect_preserves_replacements(g, ft.subgraph, sources);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtSubgraphParamTest,
                         testing::Values(std::make_tuple(24, 0.3, 1),
                                         std::make_tuple(40, 0.15, 2),
                                         std::make_tuple(60, 0.1, 3),
                                         std::make_tuple(60, 0.25, 4)));

TEST(FtSubgraph, StructuredFamilies) {
  Rng rng(9);
  std::vector<Graph> graphs;
  graphs.push_back(gen::grid(5, 6));
  graphs.push_back(gen::cycle(20));
  graphs.push_back(gen::barbell(5, 3));
  graphs.push_back(gen::path_with_chords(40, 10, rng));
  for (const Graph& g : graphs) {
    const std::vector<Vertex> sources{0};
    const FtSubgraph ft = build_ft_subgraph(g, sources);
    expect_preserves_replacements(g, ft.subgraph, sources);
  }
}

TEST(FtSubgraph, SparsifiesDenseGraphs) {
  // On K_n with one source the PP structure keeps O(n^{3/2}) of the
  // Theta(n^2) edges; verify real sparsification happens.
  const Graph g = gen::complete(40);
  const FtSubgraph ft = build_ft_subgraph(g, {0});
  EXPECT_LT(ft.kept_edges.size(), g.num_edges() / 2);
  const double bound = 4.0 * std::pow(40.0, 1.5);
  EXPECT_LE(static_cast<double>(ft.kept_edges.size()), bound);
  expect_preserves_replacements(g, ft.subgraph, {0});
}

TEST(FtSubgraph, SizeBoundOnRandomGraphs) {
  // |H| <= c sqrt(sigma) n^{3/2} (Parter–Peleg [26] as cited by the paper).
  Rng rng(11);
  for (const std::uint32_t sigma : {1u, 2u, 4u}) {
    const Graph g = gen::connected_gnp(100, 0.2, rng);
    std::vector<Vertex> sources;
    for (std::uint32_t i = 0; i < sigma; ++i) sources.push_back(i * 7);
    const FtSubgraph ft = build_ft_subgraph(g, sources);
    const double bound = 4.0 * std::sqrt(sigma) * std::pow(100.0, 1.5);
    EXPECT_LE(static_cast<double>(ft.kept_edges.size()), bound) << "sigma=" << sigma;
    EXPECT_LE(ft.kept_edges.size(), g.num_edges());
  }
}

TEST(FtSubgraph, TreeStaysWhole) {
  Rng rng(13);
  const Graph g = gen::random_tree(30, rng);
  const FtSubgraph ft = build_ft_subgraph(g, {0});
  // A tree has no redundancy: H must be the tree itself.
  EXPECT_EQ(ft.kept_edges.size(), g.num_edges());
}

TEST(FtSubgraph, RequiresSources) {
  Graph g(3, {{0, 1}});
  EXPECT_THROW(build_ft_subgraph(g, {}), std::invalid_argument);
}

// ------------------------------------------------------- sensitivity oracle

TEST(SensitivityOracle, MatchesBruteForceEverywhere) {
  Rng rng(17);
  const Graph g = gen::connected_gnp(48, 0.12, rng);
  const std::vector<Vertex> sources{1, 9, 33};
  Config cfg;
  cfg.oversample = 3.0;
  const MsrpResult oracle = solve_msrp(g, sources, cfg);
  const MsrpResult want = solve_msrp_brute_force(g, sources);
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(oracle.shortest(s, t), want.shortest(s, t));
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        EXPECT_EQ(oracle.avoiding(s, t, e), want.avoiding(s, t, e))
            << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
}

TEST(SensitivityOracle, RejectsNonSourceQueries) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const MsrpResult oracle = solve_msrp(g, {0});
  EXPECT_THROW(oracle.avoiding(3, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace msrp
