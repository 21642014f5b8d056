// End-to-end correctness of the MSRP solver against the brute-force oracle.
//
// The algorithm is Monte Carlo (exact whp): at the scales and oversampling
// used here, the fixed seeds below give exact equality for every (s, t, e)
// triple. Two deterministic cross-checks are also exercised: the exact mode
// (every edge near, Section 7.1 alone answers everything) and the per-pair
// MMG baseline.
#include <gtest/gtest.h>

#include <set>

#include "baseline/baselines.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace msrp {
namespace {

std::vector<Vertex> pick_sources(const Graph& g, std::uint32_t sigma, Rng& rng) {
  auto picks = rng.sample_without_replacement(g.num_vertices(), sigma);
  return {picks.begin(), picks.end()};
}

/// Verifies `got` row-for-row against the brute-force oracle.
void expect_exact(const Graph& g, const std::vector<Vertex>& sources,
                  const MsrpResult& got, const std::string& tag) {
  const MsrpResult want = solve_msrp_brute_force(g, sources);
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      const auto wrow = want.row(s, t);
      const auto grow = got.row(s, t);
      ASSERT_EQ(grow.size(), wrow.size()) << tag << " s=" << s << " t=" << t;
      for (std::size_t i = 0; i < wrow.size(); ++i) {
        EXPECT_EQ(grow[i], wrow[i])
            << tag << " s=" << s << " t=" << t << " pos=" << i
            << " (n=" << g.num_vertices() << " m=" << g.num_edges() << ")";
      }
    }
  }
}

/// Upper-bound sanity that must hold for ANY seed: results are lengths of
/// genuine replacement paths, so they can never undershoot the truth.
void expect_sound(const Graph& g, const std::vector<Vertex>& sources, const MsrpResult& got) {
  const MsrpResult want = solve_msrp_brute_force(g, sources);
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      const auto wrow = want.row(s, t);
      const auto grow = got.row(s, t);
      ASSERT_EQ(grow.size(), wrow.size());
      for (std::size_t i = 0; i < wrow.size(); ++i) {
        EXPECT_GE(grow[i], wrow[i]) << "undershoot! s=" << s << " t=" << t << " pos=" << i;
      }
    }
  }
}

Config tuned(std::uint64_t seed, LandmarkRpMethod method = LandmarkRpMethod::kMmgPerPair) {
  Config cfg;
  cfg.seed = seed;
  cfg.oversample = 3.0;  // small-n insurance for the whp guarantees
  cfg.landmark_rp = method;
  return cfg;
}

// ---------------------------------------------------------------- families

struct FamilyCase {
  std::string name;
  Graph graph;
  std::uint32_t sigma;
};

std::vector<FamilyCase> make_families(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FamilyCase> out;
  out.push_back({"gnp48", gen::connected_gnp(48, 0.12, rng), 3});
  out.push_back({"gnp80", gen::connected_gnp(80, 0.06, rng), 4});
  out.push_back({"grid6x7", gen::grid(6, 7), 3});
  out.push_back({"cycle30", gen::cycle(30), 2});
  out.push_back({"chords", gen::path_with_chords(60, 15, rng), 3});
  out.push_back({"barbell", gen::barbell(6, 4), 2});
  out.push_back({"star", gen::star_of_paths(4, 6), 3});
  out.push_back({"tree", gen::random_tree(40, rng), 3});
  out.push_back({"dense", gen::connected_gnp(32, 0.4, rng), 5});
  return out;
}

class MsrpFamilyTest : public testing::TestWithParam<int> {};

TEST_P(MsrpFamilyTest, MmgModeExactOnFamilies) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(1000 + seed);
  for (auto& fc : make_families(seed)) {
    const auto sources = pick_sources(fc.graph, fc.sigma, rng);
    const MsrpResult res = solve_msrp(fc.graph, sources, tuned(seed * 17 + 1));
    expect_exact(fc.graph, sources, res, fc.name + "/mmg");
  }
}

TEST_P(MsrpFamilyTest, BkModeExactOnFamilies) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(2000 + seed);
  for (auto& fc : make_families(seed)) {
    const auto sources = pick_sources(fc.graph, fc.sigma, rng);
    const MsrpResult res =
        solve_msrp(fc.graph, sources, tuned(seed * 31 + 7, LandmarkRpMethod::kBkAuxGraphs));
    expect_exact(fc.graph, sources, res, fc.name + "/bk");
  }
}

TEST_P(MsrpFamilyTest, ExactModeIsSeedIndependent) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(3000 + seed);
  for (auto& fc : make_families(seed)) {
    const auto sources = pick_sources(fc.graph, fc.sigma, rng);
    Config cfg;
    cfg.seed = 0xDEAD0000 + seed;  // arbitrary: exact mode must not care
    cfg.exact = true;
    const MsrpResult res = solve_msrp(fc.graph, sources, cfg);
    expect_exact(fc.graph, sources, res, fc.name + "/exact");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsrpFamilyTest, testing::Range(0, 4));

// ------------------------------------------------------ sigma interpolation

class MsrpSigmaTest : public testing::TestWithParam<std::uint32_t> {};

TEST_P(MsrpSigmaTest, ExactAcrossSigma) {
  const std::uint32_t sigma = GetParam();
  Rng rng(500 + sigma);
  const Graph g = gen::connected_gnp(64, 0.08, rng);
  const auto sources = pick_sources(g, sigma, rng);
  expect_exact(g, sources, solve_msrp(g, sources, tuned(sigma)), "sigma/mmg");
  expect_exact(g, sources,
               solve_msrp(g, sources, tuned(sigma, LandmarkRpMethod::kBkAuxGraphs)),
               "sigma/bk");
}

INSTANTIATE_TEST_SUITE_P(Sweep, MsrpSigmaTest, testing::Values(1u, 2u, 4u, 8u, 16u, 64u));

// ----------------------------------------------------------- soundness sweep

TEST(MsrpSoundness, NeverUndershootsAcrossManySeeds) {
  // Soundness (no undercount) is a deterministic guarantee — check it across
  // seeds with NO oversampling, where misses (overshoot) are actually likely.
  Rng graph_rng(99);
  const Graph g = gen::path_with_chords(80, 20, graph_rng);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Config cfg;
    cfg.seed = seed;
    cfg.oversample = 0.5;
    cfg.near_scale = 1.0;
    const std::vector<Vertex> sources{0, 40};
    expect_sound(g, sources, solve_msrp(g, sources, cfg));
    cfg.landmark_rp = LandmarkRpMethod::kBkAuxGraphs;
    expect_sound(g, sources, solve_msrp(g, sources, cfg));
  }
}

/// A cycle on n vertices plus `chords` random non-adjacent chords.
Graph cycle_with_chords(Vertex n, std::uint32_t chords, Rng& rng) {
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  std::set<std::pair<Vertex, Vertex>> present;
  while (present.size() < chords) {
    Vertex u = static_cast<Vertex>(rng.next_below(n));
    Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (u > v) std::swap(u, v);
    if (v - u < 2 || v - u == n - 1) continue;  // self-loop or cycle edge
    if (present.emplace(u, v).second) b.add_edge(u, v);
  }
  return b.build();
}

TEST(MsrpSoundness, NearGuardNeverAdmitsCrossingCandidate) {
  // Algorithm 4 may only use a landmark r whose canonical rt path avoids
  // e. Assembly checks that guard lazily, only for a candidate that would
  // lower the cell. With lean sampling (few landmarks, small T) many cells
  // stay above the truth, so a crossing candidate that slipped past the
  // guard would show up as a cell below BFS(G - e).
  Rng graph_rng(0x6A4D);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"grid20x20", gen::grid(20, 20)},
      {"cycle_chords", cycle_with_chords(160, 10, graph_rng)},
  };
  for (const auto& [name, g] : graphs) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      Rng rng(seed);
      const auto sources = pick_sources(g, 3, rng);
      Config cfg;
      cfg.seed = 0x5000 + seed;
      cfg.oversample = 0.5;
      cfg.near_scale = 0.5;
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      expect_sound(g, sources, solve_msrp(g, sources, cfg));
    }
  }
}

// ----------------------------------------------------------------- edge cases

TEST(Msrp, SingleVertexGraph) {
  Graph g(1);
  const MsrpResult res = solve_msrp(g, {0});
  EXPECT_TRUE(res.row(0, 0).empty());
  EXPECT_EQ(res.shortest(0, 0), 0u);
}

TEST(Msrp, TwoVertices) {
  Graph g(2, {{0, 1}});
  const MsrpResult res = solve_msrp(g, {0});
  ASSERT_EQ(res.row(0, 1).size(), 1u);
  EXPECT_EQ(res.row(0, 1)[0], kInfDist);  // bridge: no replacement
}

TEST(Msrp, DisconnectedGraph) {
  Graph g(6, {{0, 1}, {1, 2}, {0, 2}, {4, 5}});
  const MsrpResult res = solve_msrp(g, {0, 4});
  EXPECT_TRUE(res.row(0, 4).empty());      // unreachable target
  EXPECT_EQ(res.shortest(0, 4), kInfDist);
  ASSERT_EQ(res.row(0, 2).size(), 1u);
  EXPECT_EQ(res.row(0, 2)[0], 2u);         // around the triangle
  ASSERT_EQ(res.row(4, 5).size(), 1u);
  EXPECT_EQ(res.row(4, 5)[0], kInfDist);
}

TEST(Msrp, AllVerticesAsSources) {
  Rng rng(7);
  const Graph g = gen::connected_gnp(24, 0.2, rng);
  std::vector<Vertex> all;
  for (Vertex v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  expect_exact(g, all, solve_msrp(g, all, tuned(3)), "all-sources");
}

TEST(Msrp, DuplicateSourcesRejected) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(solve_msrp(g, {0, 0}), std::invalid_argument);
}

TEST(Msrp, NoSourcesRejected) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(solve_msrp(g, {}), std::invalid_argument);
}

TEST(Msrp, SourceOutOfRangeRejected) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(solve_msrp(g, {5}), std::invalid_argument);
}

TEST(Msrp, SsrpConvenienceMatchesMsrp) {
  Rng rng(11);
  const Graph g = gen::connected_gnp(40, 0.1, rng);
  const MsrpResult a = solve_ssrp(g, 3, tuned(5));
  const MsrpResult b = solve_msrp(g, {3}, tuned(5));
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    const auto ra = a.row(3, t), rb = b.row(3, t);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
  }
}

TEST(Msrp, DeterministicForFixedSeed) {
  Rng rng(13);
  const Graph g = gen::connected_gnp(60, 0.08, rng);
  const std::vector<Vertex> sources{1, 2, 3};
  const MsrpResult a = solve_msrp(g, sources, tuned(42));
  const MsrpResult b = solve_msrp(g, sources, tuned(42));
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      const auto ra = a.row(s, t), rb = b.row(s, t);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
    }
  }
}

// ----------------------------------------------------------- result queries

TEST(MsrpResult, AvoidingResolvesArbitraryEdges) {
  Rng rng(17);
  const Graph g = gen::connected_gnp(40, 0.12, rng);
  const std::vector<Vertex> sources{0};
  const MsrpResult res = solve_msrp(g, sources, tuned(9));
  const MsrpResult want = solve_msrp_brute_force(g, sources);
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      // Off-path edges leave the canonical distance unchanged; on-path edges
      // must match the brute row.
      EXPECT_EQ(res.avoiding(0, t, e), want.avoiding(0, t, e)) << "t=" << t << " e=" << e;
    }
  }
}

TEST(MsrpResult, QueryValidation) {
  Graph g(3, {{0, 1}, {1, 2}});
  const MsrpResult res = solve_msrp(g, {0});
  EXPECT_THROW(res.row(2, 0), std::invalid_argument);       // not a source
  EXPECT_THROW(res.avoiding(0, 0, 99), std::invalid_argument);  // bad edge
  EXPECT_THROW(res.source_index(1), std::invalid_argument);
}

TEST(MsrpResult, StatsPopulated) {
  Rng rng(19);
  const Graph g = gen::connected_gnp(50, 0.1, rng);
  const MsrpResult res = solve_msrp(g, {0, 1}, tuned(21, LandmarkRpMethod::kBkAuxGraphs));
  const MsrpStats& st = res.stats();
  EXPECT_GE(st.num_landmarks, 2u);  // at least the sources
  EXPECT_GE(st.num_centers, st.num_landmarks);
  EXPECT_FALSE(st.phase_seconds.empty());
  EXPECT_GT(st.bk_center_landmark_aux_arcs, 0u);
}

TEST(MsrpResult, TreePoolKeepsOnlyWhatTheMethodReads) {
  // MMG keeps dist + the Algorithm 4 guard (16 B per vertex) for level-0
  // landmarks and dist alone (4 B) for the rest; BK keeps full trees (24 B).
  // Default sampling (no oversampling), so level 0 is a proper subset.
  Rng rng(29);
  const Graph g = gen::connected_gnp(250, 0.03, rng);
  const std::size_t n = g.num_vertices();
  const std::vector<Vertex> sources{0, 7, 42};
  Config cfg;
  cfg.seed = 31;

  const MsrpStats mmg = solve_msrp(g, sources, cfg).stats();
  const std::size_t level0 = mmg.landmarks_per_level.at(0);
  ASSERT_LT(level0, mmg.num_landmarks);  // some trees are dist-only
  EXPECT_EQ(mmg.num_trees, mmg.num_landmarks + sources.size());
  EXPECT_GE(mmg.tree_pool_bytes, 4 * n * mmg.num_landmarks);
  EXPECT_LE(mmg.tree_pool_bytes, 16 * n * level0 + 4 * n * (mmg.num_landmarks - level0));

  cfg.landmark_rp = LandmarkRpMethod::kBkAuxGraphs;
  const MsrpStats bk = solve_msrp(g, sources, cfg).stats();
  const std::size_t bk_pool = bk.num_trees - sources.size();
  EXPECT_GE(bk.tree_pool_bytes, 4 * n * bk_pool);
  EXPECT_LE(bk.tree_pool_bytes, 24 * n * bk_pool);
}

// ------------------------------------------------------------- baselines

TEST(Baselines, PerPairMatchesBruteForce) {
  Rng rng(23);
  const Graph g = gen::connected_gnp(50, 0.1, rng);
  const std::vector<Vertex> sources{0, 7, 13};
  const MsrpResult pp = solve_msrp_per_pair(g, sources);
  expect_exact(g, sources, pp, "per-pair");
}

}  // namespace
}  // namespace msrp
