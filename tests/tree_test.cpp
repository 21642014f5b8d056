#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "tree/ancestry.hpp"
#include "tree/bfs_tree.hpp"
#include "tree/lca.hpp"

namespace msrp {
namespace {

// ---------------------------------------------------------------- bfs tree

TEST(BfsTree, DistancesOnPathGraph) {
  const Graph g = gen::path(6);
  const BfsTree t(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(t.dist(v), v);
  EXPECT_EQ(t.parent(0), kNoVertex);
  EXPECT_EQ(t.parent(3), 2u);
}

TEST(BfsTree, DistancesOnGrid) {
  const Graph g = gen::grid(4, 4);
  const BfsTree t(g, 0);
  for (Vertex r = 0; r < 4; ++r) {
    for (Vertex c = 0; c < 4; ++c) EXPECT_EQ(t.dist(r * 4 + c), r + c);
  }
}

TEST(BfsTree, UnreachableVertices) {
  Graph g(5, {{0, 1}, {3, 4}});
  const BfsTree t(g, 0);
  EXPECT_TRUE(t.reachable(1));
  EXPECT_FALSE(t.reachable(3));
  EXPECT_EQ(t.dist(3), kInfDist);
  EXPECT_EQ(t.parent(3), kNoVertex);
  EXPECT_TRUE(t.path_to(3).empty());
  EXPECT_EQ(t.order().size(), 2u);
}

TEST(BfsTree, PathExtraction) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const auto p = t.path_to(8);
  ASSERT_EQ(p.size(), 5u);  // dist 4
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 8u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
    EXPECT_EQ(t.dist(p[i + 1]), t.dist(p[i]) + 1);
  }
}

TEST(BfsTree, PathEdgesMatchPath) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const auto p = t.path_to(8);
  const auto e = t.path_edges(8);
  ASSERT_EQ(e.size(), p.size() - 1);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(g.find_edge(p[i], p[i + 1]), e[i]);
  }
}

TEST(BfsTree, CanonicalDeterminism) {
  Rng rng(23);
  const Graph g = gen::connected_gnp(60, 0.1, rng);
  const BfsTree a(g, 5), b(g, 5);
  for (Vertex v = 0; v < 60; ++v) {
    EXPECT_EQ(a.parent(v), b.parent(v));
    EXPECT_EQ(a.parent_edge(v), b.parent_edge(v));
  }
}

TEST(BfsTree, SkipEdgeActsAsDeletion) {
  const Graph g = gen::cycle(6);
  const EdgeId e01 = g.find_edge(0, 1);
  const BfsTree t(g, 0, e01);
  // Without (0,1), vertex 1 is reached the long way round.
  EXPECT_EQ(t.dist(1), 5u);
  EXPECT_EQ(t.dist(3), 3u);
}

TEST(BfsTree, SkipBridgeDisconnects) {
  const Graph g = gen::path(4);
  const BfsTree t(g, 0, g.find_edge(1, 2));
  EXPECT_TRUE(t.reachable(1));
  EXPECT_FALSE(t.reachable(2));
  EXPECT_FALSE(t.reachable(3));
}

TEST(BfsTree, TreeEdgeChild) {
  const Graph g = gen::path(4);
  const BfsTree t(g, 0);
  const EdgeId e = g.find_edge(1, 2);
  ASSERT_TRUE(t.is_tree_edge(g, e));
  EXPECT_EQ(t.tree_edge_child(g, e).value(), 2u);
}

TEST(BfsTree, NonTreeEdgeHasNoChild) {
  const Graph g = gen::cycle(4);
  const BfsTree t(g, 0);
  // Exactly one cycle edge is a non-tree edge.
  int non_tree = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) non_tree += !t.is_tree_edge(g, e);
  EXPECT_EQ(non_tree, 1);
}

TEST(BfsTree, OrderIsBfsOrder) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 4);  // center
  const auto& ord = t.order();
  ASSERT_EQ(ord.size(), 9u);
  EXPECT_EQ(ord[0], 4u);
  for (std::size_t i = 1; i < ord.size(); ++i) {
    EXPECT_GE(t.dist(ord[i]), t.dist(ord[i - 1]));
  }
}

// -------------------------------------------------------------- ancestry

/// DFS entry/exit stamps from an explicit-stack DFS over child lists in
/// BFS discovery order, one counter for entries and exits.
void reference_stamps(const BfsTree& t, std::vector<std::uint32_t>& tin,
                      std::vector<std::uint32_t>& tout) {
  const Vertex n = t.num_vertices();
  tin.assign(n, AncestorIndex::kNoStamp);
  tout.assign(n, AncestorIndex::kNoStamp);
  std::vector<std::vector<Vertex>> children(n);
  for (const Vertex v : t.order()) {
    if (t.parent(v) != kNoVertex) children[t.parent(v)].push_back(v);
  }
  std::uint32_t stamp = 0;
  std::vector<std::pair<Vertex, std::size_t>> stack{{t.root(), 0}};
  tin[t.root()] = stamp++;
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    if (next < children[v].size()) {
      const Vertex c = children[v][next++];
      tin[c] = stamp++;
      stack.push_back({c, 0});
    } else {
      tout[v] = stamp++;
      stack.pop_back();
    }
  }
}

TEST(AncestorIndex, StampsMatchReferenceDfs) {
  Rng rng(0x57A3B5ULL);
  std::vector<Graph> graphs;
  graphs.push_back(gen::grid(1, 1));
  graphs.push_back(gen::grid(7, 9));
  graphs.push_back(gen::grid(16, 16));
  graphs.push_back(gen::path(40));
  graphs.push_back(gen::random_tree(120, rng));
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(gen::connected_gnp(static_cast<Vertex>(20 + 30 * i), 0.08, rng));
  }
  graphs.push_back(gen::erdos_renyi(150, 0.01, rng));  // several components
  graphs.push_back(Graph(9, {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {5, 6}, {6, 7}, {7, 5}}));

  std::size_t trees = 0;
  std::vector<std::uint32_t> tin, tout;
  for (const Graph& g : graphs) {
    for (Vertex root = 0; root < g.num_vertices(); root += 1 + g.num_vertices() / 8) {
      const BfsTree t(g, root);
      const AncestorIndex anc(t);
      reference_stamps(t, tin, tout);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(anc.tin(v), tin[v]) << "n=" << g.num_vertices() << " root=" << root
                                      << " v=" << v;
        ASSERT_EQ(anc.tout(v), tout[v]) << "n=" << g.num_vertices() << " root=" << root
                                        << " v=" << v;
      }
      ++trees;
    }
  }
  EXPECT_GE(trees, 90u);
}

// --------------------------------------------------------------------- lca

/// Naive LCA by climbing parents.
Vertex naive_lca(const BfsTree& t, Vertex x, Vertex y) {
  if (!t.reachable(x) || !t.reachable(y)) return kNoVertex;
  while (x != y) {
    if (t.dist(x) < t.dist(y)) std::swap(x, y);
    x = t.parent(x);
  }
  return x;
}

class LcaParamTest : public testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(LcaParamTest, MatchesNaiveOnRandomGraphs) {
  const auto [n, p, seed] = GetParam();
  Rng rng(seed);
  const Graph g = gen::connected_gnp(static_cast<Vertex>(n), p, rng);
  const BfsTree t(g, 0);
  const Lca lca(t);
  for (int q = 0; q < 2000; ++q) {
    const auto x = static_cast<Vertex>(rng.next_below(n));
    const auto y = static_cast<Vertex>(rng.next_below(n));
    EXPECT_EQ(lca.lca(x, y), naive_lca(t, x, y)) << "x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcaParamTest,
                         testing::Values(std::make_tuple(2, 0.5, 1),
                                         std::make_tuple(17, 0.2, 2),
                                         std::make_tuple(64, 0.08, 3),
                                         std::make_tuple(200, 0.02, 4),
                                         std::make_tuple(333, 0.01, 5)));

TEST(Lca, SelfAndRoot) {
  const Graph g = gen::grid(3, 3);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(5, 5), 5u);
  EXPECT_EQ(lca.lca(0, 7), 0u);
  EXPECT_TRUE(lca.is_ancestor(0, 8));
  EXPECT_TRUE(lca.is_ancestor(8, 8));
}

TEST(Lca, AncestryOnPath) {
  const Graph g = gen::path(8);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_TRUE(lca.is_ancestor(3, 6));
  EXPECT_FALSE(lca.is_ancestor(6, 3));
  EXPECT_EQ(lca.lca(3, 6), 3u);
  EXPECT_TRUE(lca.edge_on_path(3, 7));   // edge (2,3) on 0->7 path
  EXPECT_FALSE(lca.edge_on_path(5, 4));  // edge (4,5) not on 0->4 path
}

TEST(Lca, DisconnectedQueries) {
  Graph g(5, {{0, 1}, {1, 2}, {3, 4}});
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(1, 3), kNoVertex);
  EXPECT_FALSE(lca.is_ancestor(0, 3));
  EXPECT_FALSE(lca.is_ancestor(3, 3));  // unreachable: no Euler interval
  EXPECT_EQ(lca.tree_distance(1, 3), kInfDist);
}

TEST(Lca, TreeDistanceMatchesBfsOnTrees) {
  Rng rng(31);
  const Graph g = gen::random_tree(120, rng);
  const BfsTree t(g, 0);
  const Lca lca(t);
  // On a tree, tree_distance equals true graph distance.
  for (int q = 0; q < 500; ++q) {
    const auto x = static_cast<Vertex>(rng.next_below(120));
    const BfsTree tx(g, x);
    const auto y = static_cast<Vertex>(rng.next_below(120));
    EXPECT_EQ(lca.tree_distance(x, y), tx.dist(y));
  }
}

TEST(Lca, SingleVertexGraph) {
  Graph g(1);
  const BfsTree t(g, 0);
  const Lca lca(t);
  EXPECT_EQ(lca.lca(0, 0), 0u);
  EXPECT_EQ(lca.tree_distance(0, 0), 0u);
}

}  // namespace
}  // namespace msrp
