// Unit tests for the MSRP core internals: Params, LevelSets, TreePool,
// NearSmall (Section 7.1), interval decomposition / MTC (Section 8.3), and
// the LandmarkRpTable: accessor semantics, and its MMG rows against the
// single-pair algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "core/assembly.hpp"
#include "core/bk.hpp"
#include "core/bottleneck.hpp"
#include "core/center_landmark.hpp"
#include "core/intervals.hpp"
#include "core/landmark_rp.hpp"
#include "core/landmarks.hpp"
#include "core/near_small.hpp"
#include "core/scratch.hpp"
#include "core/source_center.hpp"
#include "graph/generators.hpp"
#include "rp/oracle.hpp"
#include "rp/single_pair.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

// ------------------------------------------------------------------ params

TEST(Params, NearThresholdScaling) {
  Config cfg;
  cfg.near_scale = 2.0;
  const Params p(400, 4, cfg);
  EXPECT_EQ(p.near_threshold(), 20u);  // 2 * sqrt(400 / 4)
}

TEST(Params, PaperConstantsUseLogN) {
  Config cfg;
  cfg.paper_constants = true;
  const Params p(1024, 1, cfg);
  EXPECT_EQ(p.near_threshold(), 320u);  // log2(1024) * sqrt(1024)
}

TEST(Params, ExactModeCoversWholeGraph) {
  Config cfg;
  cfg.exact = true;
  const Params p(100, 2, cfg);
  EXPECT_GE(p.near_threshold(), 100u);
}

TEST(Params, SampleProbHalvesPerLevel) {
  Config cfg;
  const Params p(10000, 1, cfg);
  for (std::uint32_t k = 0; k + 1 <= p.num_levels(); ++k) {
    if (p.sample_prob(k) < 1.0) {
      EXPECT_NEAR(p.sample_prob(k + 1), p.sample_prob(k) / 2, 1e-12);
    }
  }
  EXPECT_NEAR(p.sample_prob(0), 4.0 / 100.0, 1e-12);  // 4 sqrt(1/10000)
}

TEST(Params, FarBucketBoundaries) {
  Config cfg;
  cfg.near_scale = 1.0;
  const Params p(256, 1, cfg);  // T = 16
  EXPECT_EQ(p.near_threshold(), 16u);
  EXPECT_EQ(p.far_bucket(32), 0u);   // [2T, 4T)
  EXPECT_EQ(p.far_bucket(63), 0u);
  EXPECT_EQ(p.far_bucket(64), 1u);   // [4T, 8T)
  EXPECT_EQ(p.far_bucket(128), 2u);
}

TEST(Params, WindowGrowsWithPriorityAndCaps) {
  Config cfg;
  cfg.near_scale = 1.0;
  cfg.window_scale = 4.0;
  const Params p(256, 1, cfg);
  EXPECT_EQ(p.window(0), 64u);   // 4 * 16
  EXPECT_EQ(p.window(1), 128u);  // doubles per level
  EXPECT_EQ(p.window(10), 256u);  // capped at n
}

TEST(Params, Validation) {
  Config bad;
  bad.window_scale = 1.0;
  EXPECT_THROW(Params(10, 1, bad), std::invalid_argument);
  EXPECT_THROW(Params(10, 0, Config{}), std::invalid_argument);
  EXPECT_THROW(Params(10, 11, Config{}), std::invalid_argument);
}

// --------------------------------------------------------------- level sets

TEST(LevelSets, ForcedMembersAlwaysPresent) {
  Config cfg;
  const Params p(200, 2, cfg);
  Rng rng(1);
  const LevelSets ls(p, {5, 7}, rng);
  EXPECT_TRUE(ls.contains(5));
  EXPECT_TRUE(ls.contains(7));
  EXPECT_GE(ls.priority(5), 0);
  // Forced members land in level 0.
  const auto& l0 = ls.level(0);
  EXPECT_NE(std::find(l0.begin(), l0.end(), 5), l0.end());
}

TEST(LevelSets, SizeConcentration) {
  // Lemma 4: |L_k| concentrates around 4 sqrt(n sigma) / 2^k.
  Config cfg;
  const Params p(20000, 5, cfg);
  Rng rng(2);
  const LevelSets ls(p, {}, rng);
  const double expected0 = 4.0 * std::sqrt(20000.0 * 5);  // = 1264.9
  EXPECT_NEAR(ls.level(0).size(), expected0, 0.25 * expected0);
  EXPECT_NEAR(ls.level(2).size(), expected0 / 4, 0.4 * expected0 / 4);
}

TEST(LevelSets, PriorityIsHighestLevel) {
  Config cfg;
  cfg.oversample = 100.0;  // force high membership at several levels
  const Params p(64, 1, cfg);
  Rng rng(3);
  const LevelSets ls(p, {}, rng);
  for (const Vertex v : ls.members()) {
    const auto prio = static_cast<std::uint32_t>(ls.priority(v));
    const auto& lvl = ls.level(prio);
    EXPECT_NE(std::find(lvl.begin(), lvl.end(), v), lvl.end());
    for (std::uint32_t k = prio + 1; k < ls.num_levels(); ++k) {
      const auto& higher = ls.level(k);
      EXPECT_EQ(std::find(higher.begin(), higher.end(), v), higher.end());
    }
  }
}

TEST(LevelSets, MembersSortedUnique) {
  Config cfg;
  const Params p(500, 3, cfg);
  Rng rng(4);
  const LevelSets ls(p, {0, 499}, rng);
  const auto& m = ls.members();
  EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
  EXPECT_EQ(std::set<Vertex>(m.begin(), m.end()).size(), m.size());
}

// ----------------------------------------------------------------- tree pool

TEST(TreePool, BuildsOnceAndReuses) {
  const Graph g = gen::grid(4, 4);
  TreePool pool(g);
  pool.ensure({3});
  const RootedTree& a = pool.existing(3);
  EXPECT_EQ(pool.size(), 1u);
  pool.ensure({3, 5, 7});
  EXPECT_EQ(&pool.existing(3), &a);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.existing(5).root(), 5u);
  EXPECT_THROW(pool.existing(9), std::invalid_argument);
}

TEST(TreePool, SlimTreesAnswerLikeFullOnes) {
  Rng rng(31);
  struct Case {
    std::string name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"er", gen::erdos_renyi(48, 0.06, rng)});  // some vertices unreachable
  cases.push_back({"grid", gen::grid(6, 7)});
  cases.push_back({"chords", gen::path_with_chords(50, 6, rng)});
  ThreadPool exec(3);
  for (const Case& c : cases) {
    const Graph& g = c.g;
    std::vector<Vertex> roots(g.num_vertices());
    std::iota(roots.begin(), roots.end(), Vertex{0});
    TreePool guard(g), dist(g);
    guard.ensure(roots, &exec, TreeParts::kGuard);
    dist.ensure(roots, nullptr, TreeParts::kDist);
    for (const Vertex r : roots) {
      const RootedTree full(g, r);
      const RootedTree& gt = guard.existing(r);
      const RootedTree& dt = dist.existing(r);
      EXPECT_EQ(gt.parts, TreeParts::kGuard);
      EXPECT_EQ(dt.parts, TreeParts::kDist);
      EXPECT_EQ(gt.root(), r);
      EXPECT_EQ(dt.root(), r);
      ASSERT_EQ(gt.tree.dists(), full.tree.dists()) << c.name << " r=" << r;
      ASSERT_EQ(dt.tree.dists(), full.tree.dists()) << c.name << " r=" << r;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(gt.tree.parent_edge(v), full.tree.parent_edge(v)) << c.name << " r=" << r;
        const EdgeId e = full.tree.parent_edge(v);
        if (e == kNoEdge) continue;
        const auto [eu, ev] = g.endpoints(e);
        for (Vertex t = 0; t < g.num_vertices(); ++t) {
          ASSERT_EQ(gt.edge_on_path_to(e, eu, ev, t), full.edge_on_path_to(e, eu, ev, t))
              << c.name << " r=" << r << " e=" << e << " t=" << t;
        }
      }
      // Kept arrays are exact-size; dropped ones hold nothing.
      const std::size_t n = g.num_vertices();
      EXPECT_EQ(gt.bytes(), 16 * n);
      EXPECT_EQ(dt.bytes(), 4 * n);
#ifndef NDEBUG
      EXPECT_THROW(dt.tree.parent_edge(r), std::logic_error);
      EXPECT_THROW(dt.anc.is_ancestor(r, r), std::logic_error);
      EXPECT_THROW(gt.tree.parent(r), std::logic_error);
      EXPECT_THROW(gt.tree.order(), std::logic_error);
      EXPECT_THROW(gt.tree.path_to(r), std::logic_error);
#endif
    }
    // An entry never gains parts: asking for more throws and changes nothing.
    EXPECT_THROW(dist.ensure({0}, nullptr, TreeParts::kGuard), std::invalid_argument);
    EXPECT_THROW(guard.ensure({0}, nullptr, TreeParts::kFull), std::invalid_argument);
    EXPECT_EQ(dist.existing(0).parts, TreeParts::kDist);
    TreePool partial(g);
    partial.ensure({0}, nullptr, TreeParts::kDist);
    EXPECT_THROW(partial.ensure({1, 0}, nullptr, TreeParts::kGuard), std::invalid_argument);
    EXPECT_EQ(partial.size(), 1u);
    EXPECT_THROW(partial.existing(1), std::invalid_argument);
    guard.ensure(roots, &exec, TreeParts::kDist);  // fewer parts: a no-op
    EXPECT_EQ(guard.size(), roots.size());
    EXPECT_EQ(guard.bytes(), 16 * roots.size() * g.num_vertices());
  }
}

// ---------------------------------------------------------------- near small

TEST(NearSmall, ValuesMatchOracleForSmallPaths) {
  // In exact mode (T >= n) near-small covers every replacement path.
  Rng rng(5);
  const Graph g = gen::connected_gnp(40, 0.12, rng);
  Config cfg;
  cfg.exact = true;
  const Params params(g.num_vertices(), 1, cfg);
  const RootedTree rs(g, 0);
  const NearSmall ns(g, rs, params);
  const RpOracle oracle(g, 0);
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    if (!rs.tree.reachable(t) || t == 0) continue;
    const auto expect = oracle.replacement_row(t);
    for (std::uint32_t pos = 0; pos < expect.size(); ++pos) {
      EXPECT_EQ(ns.value(t, pos), expect[pos]) << "t=" << t << " pos=" << pos;
    }
  }
}

TEST(NearSmall, UpperBoundForAnyThreshold) {
  Rng rng(6);
  const Graph g = gen::path_with_chords(50, 10, rng);
  Config cfg;
  cfg.near_scale = 1.0;
  const Params params(g.num_vertices(), 1, cfg);
  const RootedTree rs(g, 0);
  const NearSmall ns(g, rs, params);
  const RpOracle oracle(g, 0);
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    if (!rs.tree.reachable(t) || t == 0) continue;
    const auto expect = oracle.replacement_row(t);
    for (std::uint32_t pos = ns.first_near_pos(t); pos < expect.size(); ++pos) {
      EXPECT_GE(ns.value(t, pos), expect[pos]);
    }
  }
}

TEST(NearSmall, NearRangeRespectsThreshold) {
  const Graph g = gen::path(30);
  Config cfg;
  cfg.near_scale = 1.0;  // T = sqrt(30) ~ 5 -> 2T = 11 near edges
  const Params params(g.num_vertices(), 1, cfg);
  const RootedTree rs(g, 0);
  const NearSmall ns(g, rs, params);
  const Dist t2 = 2 * params.near_threshold();
  for (Vertex t = 1; t < 30; ++t) {
    const Dist depth = rs.dist(t);
    EXPECT_EQ(ns.first_near_pos(t), depth > t2 ? depth - t2 : 0);
    EXPECT_FALSE(ns.is_near(t, depth));  // one past the end
  }
}

TEST(NearSmall, ReconstructedPathsAreValidAndAvoiding) {
  Rng rng(8);
  const Graph g = gen::connected_gnp(36, 0.15, rng);
  Config cfg;
  cfg.exact = true;
  const Params params(g.num_vertices(), 1, cfg);
  const RootedTree rs(g, 0);
  const NearSmall ns(g, rs, params);
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    if (!rs.tree.reachable(t) || t == 0) continue;
    for (std::uint32_t pos = 0; pos < rs.dist(t); ++pos) {
      const Dist v = ns.value(t, pos);
      if (v == kInfDist) continue;
      const auto path = ns.reconstruct_path(t, pos);
      ASSERT_EQ(path.size(), static_cast<std::size_t>(v) + 1);
      EXPECT_EQ(path.front(), 0u);
      EXPECT_EQ(path.back(), t);
      const EdgeId avoid = ns.near_edge(t, pos).first;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const EdgeId step = g.find_edge(path[i], path[i + 1]);
        ASSERT_NE(step, kNoEdge) << "non-edge step in reconstructed path";
        EXPECT_NE(step, avoid) << "reconstructed path uses the avoided edge";
      }
    }
  }
}

TEST(NearSmall, UnreachableAndTrivialTargets) {
  Graph g(4, {{0, 1}, {2, 3}});
  Config cfg;
  const Params params(4, 1, cfg);
  const RootedTree rs(g, 0);
  const NearSmall ns(g, rs, params);
  EXPECT_FALSE(ns.is_near(2, 0));           // unreachable
  EXPECT_EQ(ns.value(2, 0), kInfDist);
  EXPECT_FALSE(ns.is_near(0, 0));           // the source itself
  EXPECT_EQ(ns.value(1, 0), kInfDist);      // bridge edge: no replacement
}

// ------------------------------------------------- intervals / MTC / BK bits

struct BkFixture {
  Graph g;
  Config cfg;
  Params params;
  MsrpResult result;
  TreePool pool;
  LevelSets landmarks;
  LevelSets centers;
  std::vector<const RootedTree*> source_trees;
  std::vector<std::unique_ptr<NearSmall>> ns_owned;
  std::vector<const NearSmall*> ns;
  std::optional<BkContext> ctx;

  static Config make_cfg() {
    Config c;
    c.seed = 77;
    c.oversample = 3.0;
    return c;
  }

  static std::vector<Vertex> forced_centers(const std::vector<Vertex>& sources,
                                            const LevelSets& lm) {
    std::vector<Vertex> f = sources;
    f.insert(f.end(), lm.members().begin(), lm.members().end());
    return f;
  }

  BkFixture(Graph graph, std::vector<Vertex> sources, Rng& rng)
      : g(std::move(graph)),
        cfg(make_cfg()),
        params(g.num_vertices(), static_cast<std::uint32_t>(sources.size()), cfg),
        result(g, sources),
        pool(g),
        landmarks(params, sources, rng),
        centers(params, forced_centers(sources, landmarks), rng) {
    pool.ensure(landmarks.members());
    pool.ensure(centers.members());
    for (const Vertex s : sources) source_trees.push_back(&result.rooted(s));
    for (const RootedTree* rt : source_trees) {
      ns_owned.push_back(std::make_unique<NearSmall>(g, *rt, params));
      ns.push_back(ns_owned.back().get());
    }
    ctx.emplace(g, params, pool, landmarks, centers, source_trees, ns);
  }
};

TEST(Intervals, BoundariesBracketPathAndCoverEdges) {
  Rng rng(9);
  Graph g = gen::path_with_chords(70, 12, rng);
  BkFixture fx(std::move(g), {0, 35}, rng);
  SourceCenterTable dsc(*fx.ctx);
  BuildScratch scratch;
  dsc.build_source(0, scratch);
  LandmarkRpTable dsr(fx.g, fx.source_trees, fx.landmarks.members());
  CenterLandmarkTable dcr(*fx.ctx, dsr);

  const RootedTree& rs = *fx.source_trees[0];
  for (const Vertex r : fx.landmarks.members()) {
    if (!rs.tree.reachable(r) || r == rs.root()) continue;
    const auto path = rs.tree.path_to(r);
    const auto dec = decompose_sr_path(*fx.ctx, 0, path, dsc, dcr);
    const auto depth = static_cast<std::uint32_t>(path.size() - 1);
    ASSERT_GE(dec.boundary_pos.size(), 2u);
    EXPECT_EQ(dec.boundary_pos.front(), 0u);
    EXPECT_EQ(dec.boundary_pos.back(), depth);
    EXPECT_TRUE(std::is_sorted(dec.boundary_pos.begin(), dec.boundary_pos.end()));
    // Every boundary is a center sitting on the path at its position.
    for (std::size_t b = 0; b < dec.boundary_pos.size(); ++b) {
      EXPECT_EQ(path[dec.boundary_pos[b]], dec.boundary_center[b]);
      EXPECT_GE(fx.ctx->center_index[dec.boundary_center[b]], 0);
    }
    // Edge -> interval mapping is consistent with the boundaries.
    ASSERT_EQ(dec.interval_of.size(), depth);
    for (std::uint32_t pos = 0; pos < depth; ++pos) {
      const std::uint32_t iv = dec.interval_of[pos];
      ASSERT_LT(iv + 1, dec.boundary_pos.size());
      EXPECT_GE(pos, dec.boundary_pos[iv]);
      EXPECT_LT(pos, dec.boundary_pos[iv + 1]);
    }
    // Bottleneck edges maximize MTC within their interval.
    for (std::uint32_t iv = 0; iv < dec.num_intervals(); ++iv) {
      const std::uint32_t bpos = dec.bottleneck_pos[iv];
      EXPECT_EQ(dec.interval_of[bpos], iv);
      for (std::uint32_t pos = dec.boundary_pos[iv]; pos < dec.boundary_pos[iv + 1]; ++pos) {
        EXPECT_LE(dec.mtc[pos], dec.mtc[bpos]);
      }
    }
  }
}

TEST(Intervals, StaircasePrioritiesRiseThenFall) {
  Rng rng(10);
  Graph g = gen::path_with_chords(90, 15, rng);
  BkFixture fx(std::move(g), {0}, rng);
  SourceCenterTable dsc(*fx.ctx);
  BuildScratch scratch;
  dsc.build_source(0, scratch);
  LandmarkRpTable dsr(fx.g, fx.source_trees, fx.landmarks.members());
  CenterLandmarkTable dcr(*fx.ctx, dsr);

  const RootedTree& rs = *fx.source_trees[0];
  for (const Vertex r : fx.landmarks.members()) {
    if (!rs.tree.reachable(r) || r == rs.root()) continue;
    const auto dec = decompose_sr_path(*fx.ctx, 0, rs.tree.path_to(r), dsc, dcr);
    // Priorities along the selected boundaries are unimodal (rise then fall).
    std::vector<std::uint32_t> prio;
    for (const Vertex c : dec.boundary_center) prio.push_back(fx.ctx->priority(c));
    const auto peak = std::max_element(prio.begin(), prio.end());
    EXPECT_TRUE(std::is_sorted(prio.begin(), peak + 1));
    EXPECT_TRUE(std::is_sorted(prio.rbegin(), std::reverse_iterator(peak)));
  }
}

TEST(SourceCenter, MatchesOracleWithinWindows) {
  Rng rng(11);
  Graph g = gen::connected_gnp(48, 0.1, rng);
  BkFixture fx(std::move(g), {0, 5}, rng);
  SourceCenterTable dsc(*fx.ctx);
  BuildScratch scratch;
  dsc.build_source(0, scratch);
  dsc.build_source(1, scratch);

  for (std::uint32_t si = 0; si < 2; ++si) {
    const RootedTree& rs = *fx.source_trees[si];
    const RpOracle oracle(fx.g, rs.root());
    for (const Vertex c : fx.ctx->center_list) {
      if (!rs.tree.reachable(c) || c == rs.root()) continue;
      const auto path = rs.tree.path_to(c);
      const Dist depth = rs.dist(c);
      const Dist wlen =
          std::min<Dist>(depth, fx.params.window(fx.ctx->priority(c)));
      for (std::uint32_t j = 0; j < wlen; ++j) {
        // Edge at pos_from_c = j has deeper endpoint path[depth - j].
        const Vertex child = path[depth - j];
        const EdgeId eid = rs.tree.parent_edge(child);
        EXPECT_EQ(dsc.avoiding(si, c, child), oracle.distance_avoiding(c, eid))
            << "si=" << si << " c=" << c << " j=" << j;
      }
    }
  }
}

TEST(CenterLandmark, MatchesOracleWithinWindows) {
  Rng rng(12);
  Graph g = gen::connected_gnp(40, 0.12, rng);
  BkFixture fx(std::move(g), {0}, rng);
  SourceCenterTable dsc(*fx.ctx);
  BuildScratch scratch;
  dsc.build_source(0, scratch);
  LandmarkRpTable dsr(fx.g, fx.source_trees, fx.landmarks.members());
  CenterLandmarkTable dcr(*fx.ctx, dsr);
  dcr.accumulate_small_via(0);
  for (std::uint32_t ci = 0; ci < fx.ctx->num_centers(); ++ci) dcr.build_center(ci, scratch);

  for (const Vertex c : fx.ctx->center_list) {
    const RootedTree& rc = fx.pool.existing(c);
    const RpOracle oracle(fx.g, c);
    for (const Vertex r : fx.landmarks.members()) {
      if (!rc.tree.reachable(r) || r == c) continue;
      const auto path = rc.tree.path_to(r);
      const Dist wlen = std::min<Dist>(rc.dist(r),
                                       fx.params.window(fx.ctx->priority(c)));
      for (std::uint32_t j = 0; j < wlen; ++j) {
        const Vertex child = path[j + 1];
        const EdgeId eid = rc.tree.parent_edge(child);
        const auto [eu, ev] = fx.g.endpoints(eid);
        EXPECT_EQ(dcr.avoiding(c, r, eid, eu, ev), oracle.distance_avoiding(r, eid))
            << "c=" << c << " r=" << r << " j=" << j;
      }
    }
  }
}

// --------------------------------------------------------- landmark table

TEST(LandmarkRpTable, AccessorSemantics) {
  Rng rng(13);
  const Graph g = gen::connected_gnp(30, 0.15, rng);
  MsrpResult result(g, {0});
  std::vector<const RootedTree*> trees{&result.rooted(0)};
  const std::vector<Vertex> lm{1, 5, 9};
  LandmarkRpTable table(g, trees, lm);
  TreePool pool(g);
  ScratchPool scratches(1);
  table.fill_mmg(g, pool, scratches);

  const RpOracle oracle(g, 0);
  const RootedTree& rs = *trees[0];
  for (std::uint32_t li = 0; li < 3; ++li) {
    const Vertex r = lm[li];
    EXPECT_EQ(table.landmark_index(r), static_cast<std::int32_t>(li));
    // Every tree edge of T_s resolves correctly: on-path -> row, off -> |sr|.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      Vertex child = kNoVertex;
      if (rs.tree.parent_edge(u) == e) child = u;
      if (rs.tree.parent_edge(v) == e) child = v;
      if (child == kNoVertex) continue;  // non-tree edge: accessor unused
      const std::uint32_t pos = rs.dist(child) - 1;
      EXPECT_EQ(table.avoiding(0, li, child, pos), oracle.distance_avoiding(r, e))
          << "r=" << r << " e=" << e;
    }
  }
  EXPECT_EQ(table.landmark_index(2), -1);
}

/// What the rows of one table exercised, summed over cases.
struct RowCoverage {
  std::size_t rows = 0;
  std::size_t unreachable = 0;   // r not reachable from s: empty row
  std::size_t source = 0;        // r == s: empty row
  std::size_t single_edge = 0;   // L = 1
  std::size_t longest = 0;       // max L
};

/// Fills the MMG table with every vertex as a landmark, at 1 and 4 threads,
/// and compares each row with replacement_paths, the independent referee.
void expect_rows_match_single_pair(const Graph& g, const std::vector<Vertex>& sources,
                                   const std::string& label, RowCoverage& cov) {
  const MsrpResult result(g, sources);
  std::vector<const RootedTree*> source_trees;
  for (const Vertex s : sources) source_trees.push_back(&result.rooted(s));
  std::vector<Vertex> lm(g.num_vertices());
  std::iota(lm.begin(), lm.end(), Vertex{0});

  std::vector<std::vector<Dist>> expected;
  for (const RootedTree* rs : source_trees) {
    for (const Vertex r : lm) {
      expected.push_back(replacement_paths(g, rs->tree, r).avoiding);
      cov.rows++;
      const Dist d = rs->dist(r);
      cov.unreachable += d == kInfDist;
      cov.source += d == 0;
      cov.single_edge += d == 1;
      if (d != kInfDist) cov.longest = std::max<std::size_t>(cov.longest, d);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    std::unique_ptr<ThreadPool> exec;
    if (threads > 1) exec = std::make_unique<ThreadPool>(threads);
    ScratchPool scratches(exec ? exec->max_parallelism() : 1);
    TreePool pool(g);
    LandmarkRpTable table(g, source_trees, lm);
    table.fill_mmg(g, pool, scratches, exec.get());
    for (std::uint32_t si = 0; si < sources.size(); ++si) {
      for (std::uint32_t li = 0; li < lm.size(); ++li) {
        ASSERT_EQ(table.row(si, li), expected[si * lm.size() + li])
            << label << " threads=" << threads << " s=" << sources[si] << " r=" << lm[li];
      }
    }
  }
}

TEST(LandmarkRpTable, RowsMatchSinglePairMmg) {
  Rng rng(0x3A3C0DEULL);
  RowCoverage cov;
  for (int i = 0; i < 12; ++i) {
    const auto n = static_cast<Vertex>(10 + rng.next_below(70));
    Graph g = (i % 3 == 0)   ? gen::connected_avg_degree(n, 3 + rng.next_below(5), rng)
              : (i % 3 == 1) ? gen::connected_gnp(n, 0.05 + 0.3 * rng.next_double(), rng)
                             : gen::grid(2 + static_cast<Vertex>(rng.next_below(6)),
                                         2 + static_cast<Vertex>(rng.next_below(9)));
    const auto picks = rng.sample_without_replacement(
        g.num_vertices(), 1 + rng.next_below(std::min<Vertex>(4, g.num_vertices())));
    expect_rows_match_single_pair(g, std::vector<Vertex>(picks.begin(), picks.end()),
                                  "random i=" + std::to_string(i), cov);
  }
  // Two components: landmarks in the other one are unreachable.
  expect_rows_match_single_pair(
      Graph(11, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}, {5, 2}, {0, 5},
                 {6, 7}, {7, 8}, {8, 9}, {9, 6}, {6, 10}}),
      {0, 7}, "two components", cov);
  // A tree: every edge is a bridge, so no cell has a replacement path.
  expect_rows_match_single_pair(gen::random_tree(40, rng), {3}, "tree", cov);
  // Long rows. On a chorded path they run into the hundreds. On a cycle the
  // one non-tree edge crosses every cut of a row, so a row of length L
  // uses every level of the range-min table, up to floor(log2 L) = 8 here.
  expect_rows_match_single_pair(gen::path_with_chords(700, 6, rng), {0, 350}, "chords", cov);
  expect_rows_match_single_pair(gen::cycle(700), {0}, "cycle", cov);

  EXPECT_GT(cov.unreachable, 0u);
  EXPECT_GT(cov.source, 0u);
  EXPECT_GT(cov.single_edge, 0u);
  EXPECT_GE(cov.longest, 256u);
}

}  // namespace
}  // namespace msrp
