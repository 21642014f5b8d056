// The parallel build contract: solve_msrp with threads = 2/4/8 is
// BIT-IDENTICAL to the sequential build — same canonical trees (dists,
// parents, parent edges), same replacement rows, same snapshot bytes. The
// solver's parallel loops only ever write item-private state, so the
// dynamic work distribution cannot leak into the output; this suite is the
// executable form of that argument (and the TSan target for the build's
// concurrency). Sharing one external pool across solves must not change
// results either. The exact subtree solver that QueryService builds with
// holds to the same contract at every pool size, and reproduces the
// paper's build.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baselines.hpp"
#include "core/landmark_rp.hpp"
#include "core/landmarks.hpp"
#include "core/msrp.hpp"
#include "core/scratch.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"
#include "util/fnv.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

Graph random_instance(Rng& rng) {
  const Vertex n = static_cast<Vertex>(8 + rng.next_below(40));
  const double p = 0.05 + 0.4 * rng.next_double();
  switch (rng.next_below(4)) {
    case 0: return gen::connected_gnp(n, p, rng);
    case 1: return gen::random_tree(n, rng);
    case 2: return gen::path_with_chords(n, 1 + static_cast<std::uint32_t>(n / 4), rng);
    default: return gen::grid(3 + static_cast<Vertex>(rng.next_below(4)),
                              3 + static_cast<Vertex>(rng.next_below(8)));
  }
}

std::string snapshot_bytes(const MsrpResult& res) {
  std::stringstream ss;
  service::Snapshot::capture(res).write(ss);
  return ss.str();
}

/// Trees + rows, field by field, with the failing coordinate in the message.
void expect_identical(const MsrpResult& a, const MsrpResult& b, const Graph& g,
                      const std::string& label) {
  ASSERT_EQ(a.sources(), b.sources()) << label;
  for (const Vertex s : a.sources()) {
    const BfsTree& ta = a.tree(s);
    const BfsTree& tb = b.tree(s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ta.dist(v), tb.dist(v)) << label << " s=" << s << " v=" << v;
      ASSERT_EQ(ta.parent(v), tb.parent(v)) << label << " s=" << s << " v=" << v;
      ASSERT_EQ(ta.parent_edge(v), tb.parent_edge(v)) << label << " s=" << s << " v=" << v;
    }
  }
  for (std::uint32_t si = 0; si < a.num_sources(); ++si) {
    const auto ra = a.raw_rows(si);
    const auto rb = b.raw_rows(si);
    ASSERT_EQ(ra.size(), rb.size()) << label << " si=" << si;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], rb[i]) << label << " si=" << si << " cell=" << i;
    }
    const auto oa = a.row_offsets(si);
    const auto ob = b.row_offsets(si);
    ASSERT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()))
        << label << " si=" << si;
  }
  // End to end: the serving-layer byte image must match too.
  ASSERT_EQ(snapshot_bytes(a), snapshot_bytes(b)) << label;
}

TEST(Determinism, ParallelBuildBitIdenticalToSequential) {
  const std::uint64_t base_seed = 0xDE7E2517ULL;
  const int num_graphs = 25;
  for (int iter = 0; iter < num_graphs; ++iter) {
    Rng rng(base_seed + static_cast<std::uint64_t>(iter));
    const Graph g = random_instance(rng);
    const std::uint32_t sigma =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min<Vertex>(4, g.num_vertices())));
    const auto picks = rng.sample_without_replacement(g.num_vertices(), sigma);
    const std::vector<Vertex> sources(picks.begin(), picks.end());

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.exact = rng.next_bernoulli(0.25);
    // Alternate the landmark-table method so both pipelines are covered.
    cfg.landmark_rp =
        (iter % 2 == 0) ? LandmarkRpMethod::kMmgPerPair : LandmarkRpMethod::kBkAuxGraphs;

    cfg.build_threads = 1;
    const MsrpResult sequential = solve_msrp(g, sources, cfg);

    for (const unsigned threads : {2u, 4u, 8u}) {
      cfg.build_threads = threads;
      const MsrpResult parallel = solve_msrp(g, sources, cfg);
      expect_identical(sequential, parallel, g,
                       "iter=" + std::to_string(iter) +
                           " threads=" + std::to_string(threads) + " method=" +
                           (cfg.landmark_rp == LandmarkRpMethod::kMmgPerPair ? "mmg" : "bk"));
    }
  }
}

/// FNV-1a over every source's row offsets and cells, in source order.
std::uint64_t rows_digest(const MsrpResult& res) {
  std::uint64_t h = fnv::kOffset;
  for (std::uint32_t si = 0; si < res.num_sources(); ++si) {
    for (const std::uint64_t off : res.row_offsets(si)) h = fnv::mix_u64(h, off);
    for (const Dist c : res.raw_rows(si)) h = fnv::mix_u64(h, c);
  }
  return h;
}

struct PinnedCase {
  std::string name;
  Graph g;
  std::uint64_t digest;
};

/// The assembly pins' instances; each case's 4 sources are drawn from `rng`
/// afterwards, in case order.
std::vector<PinnedCase> assembly_pinned_cases(Rng& rng) {
  std::vector<PinnedCase> cases;
  cases.push_back({"grid24x24", gen::grid(24, 24), 0x843dded0b61ef6efULL});
  cases.push_back(
      {"avgdeg600", gen::connected_avg_degree(600, 6, rng), 0xaecca3f5cba1121fULL});
  cases.push_back({"chords500", gen::path_with_chords(500, 25, rng), 0xf6997d7d5d7b9eabULL});
  return cases;
}

Config assembly_pinned_config() {
  Config cfg;
  cfg.seed = 0x9E3779B9ULL;
  cfg.near_scale = 1.0;
  cfg.build_threads = 4;
  return cfg;
}

TEST(Determinism, AssemblyRowsMatchPinnedDigests) {
  // The tests above compare builds of one binary with each other, so a
  // change that altered cells identically at every thread count would pass
  // them. These digests were recorded from the target-major assembly that
  // preceded the landmark-major sweep; any later rewrite of the assembly
  // (or of the phases feeding it) must reproduce them bit for bit.
  // sigma = 4 and near_scale = 1 give T = round(sqrt(n / 4)): the chord
  // path is deep enough for far buckets k >= 1, and every instance runs
  // Algorithm 4 on its near edges.
  Rng rng(0xA55E3B1EULL);
  const std::vector<PinnedCase> cases = assembly_pinned_cases(rng);
  const Config cfg = assembly_pinned_config();
  for (const PinnedCase& c : cases) {
    const auto picks = rng.sample_without_replacement(c.g.num_vertices(), 4);
    const std::vector<Vertex> sources(picks.begin(), picks.end());
    const MsrpResult res = solve_msrp(c.g, sources, cfg);
    if (c.name == "chords500") {
      Dist depth = 0;
      for (const Vertex s : sources) {
        for (const Dist d : res.tree(s).dists()) depth = std::max(depth, d);
      }
      const Params params(c.g.num_vertices(), 4, cfg);
      ASSERT_GE(depth, 4 * params.near_threshold()) << "no far bucket k >= 1 is exercised";
    }
    const std::uint64_t digest = rows_digest(res);
    EXPECT_EQ(digest, c.digest) << c.name << std::hex << " digest=0x" << digest;
  }
}

TEST(Determinism, SubtreeSolverReproducesPinnedRowsAndPaperDigest) {
  // The exact table is unique: where the paper's build on the assembly pins'
  // instances is exact, the subtree solver the service builds with must
  // give the pin bit for bit and the same snapshot content digest. The
  // chords500 pin is not exact: near_scale = 1 thins the whp sample, and
  // 224 of its cells sit above the true distance (none below). There the
  // subtree solver must match brute force instead.
  Rng rng(0xA55E3B1EULL);
  const std::vector<PinnedCase> cases = assembly_pinned_cases(rng);
  for (const PinnedCase& c : cases) {
    const auto picks = rng.sample_without_replacement(c.g.num_vertices(), 4);
    const std::vector<Vertex> sources(picks.begin(), picks.end());
    const MsrpResult exact = solve_msrp_subtree(c.g, sources);
    const MsrpResult paper = solve_msrp(c.g, sources, assembly_pinned_config());
    const MsrpResult truth = solve_msrp_brute_force(c.g, sources);
    std::size_t above = 0;
    for (std::uint32_t si = 0; si < exact.num_sources(); ++si) {
      const auto cells = exact.raw_rows(si);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_EQ(cells[i], truth.raw_rows(si)[i]) << c.name << " si=" << si << " cell=" << i;
        ASSERT_GE(paper.raw_rows(si)[i], cells[i]) << c.name << " si=" << si << " cell=" << i;
        above += paper.raw_rows(si)[i] != cells[i];
      }
    }
    EXPECT_EQ(above, c.name == "chords500" ? 224u : 0u) << c.name;
    if (above != 0) continue;
    const std::uint64_t digest = rows_digest(exact);
    EXPECT_EQ(digest, c.digest) << c.name << std::hex << " digest=0x" << digest;
    EXPECT_EQ(service::Snapshot::capture(exact).content_digest(),
              service::Snapshot::capture(paper).content_digest())
        << c.name;
  }
}

TEST(Determinism, SubtreeSolverBitIdenticalAtAnyPoolSize) {
  // Every column writes only its own cells, so how the pool splits the
  // work items cannot reach the output. On the parallel-build instances it
  // also matches the paper's build, digest for digest.
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (int iter = 0; iter < 25; ++iter) {
    Rng rng(0xDE7E2517ULL + static_cast<std::uint64_t>(iter));
    const Graph g = random_instance(rng);
    const std::uint32_t sigma =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min<Vertex>(4, g.num_vertices())));
    const auto picks = rng.sample_without_replacement(g.num_vertices(), sigma);
    const std::vector<Vertex> sources(picks.begin(), picks.end());
    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.exact = rng.next_bernoulli(0.25);

    const MsrpResult sequential = solve_msrp_subtree(g, sources);
    for (ThreadPool* pool : {&pool2, &pool4}) {
      expect_identical(
          sequential, solve_msrp_subtree(g, sources, pool), g,
          "iter=" + std::to_string(iter) + " pool=" + std::to_string(pool->size()));
    }
    EXPECT_EQ(service::Snapshot::capture(sequential).content_digest(),
              service::Snapshot::capture(solve_msrp(g, sources, cfg)).content_digest())
        << "iter=" << iter;
  }
}

TEST(Determinism, LandmarkRpRowsMatchPinnedDigests) {
  // The MMG landmark table d(s, r, e) on the same three instances, with the
  // landmark set the engine would sample. The digests were recorded from the
  // per-pair replacement_paths fill that preceded the source-shared kernel;
  // any rewrite of fill_mmg must reproduce every row bit for bit.
  struct Case {
    std::string name;
    Graph g;
    std::uint64_t digest;
  };
  Rng rng(0xA55E3B1EULL);
  std::vector<Case> cases;
  cases.push_back({"grid24x24", gen::grid(24, 24), 0xa2c04fbc0ba0aa9dULL});
  cases.push_back({"avgdeg600", gen::connected_avg_degree(600, 6, rng), 0x0d47a01d0e643ee5ULL});
  cases.push_back({"chords500", gen::path_with_chords(500, 25, rng), 0xffbc9ac1b47c632cULL});

  Config cfg;
  cfg.seed = 0x9E3779B9ULL;
  cfg.near_scale = 1.0;
  ThreadPool exec(4);
  ScratchPool scratches(exec.max_parallelism());
  for (const Case& c : cases) {
    const auto picks = rng.sample_without_replacement(c.g.num_vertices(), 4);
    const std::vector<Vertex> sources(picks.begin(), picks.end());
    const Params params(c.g.num_vertices(), 4, cfg);
    Rng build_rng(cfg.seed);
    Rng landmark_rng = build_rng.split();
    const LevelSets landmarks(params, sources, landmark_rng);
    const MsrpResult trees(c.g, sources);
    std::vector<const RootedTree*> source_trees;
    for (const Vertex s : sources) source_trees.push_back(&trees.rooted(s));
    TreePool pool(c.g);
    LandmarkRpTable table(c.g, source_trees, landmarks.members());
    table.fill_mmg(c.g, pool, scratches, &exec);

    std::uint64_t h = fnv::kOffset;
    for (std::uint32_t si = 0; si < sources.size(); ++si) {
      for (std::uint32_t li = 0; li < table.num_landmarks(); ++li) {
        const auto& row = table.row(si, li);
        h = fnv::mix_u64(h, row.size());
        for (const Dist d : row) h = fnv::mix_u64(h, d);
      }
    }
    EXPECT_EQ(h, c.digest) << c.name << std::hex << " digest=0x" << h;
  }
}

TEST(Determinism, SharedExternalPoolMatchesSequential) {
  // One pool reused across several solves (the QueryService pattern):
  // scratch arenas inside the solver are per-solve, so state cannot leak
  // from one solve into the next through the pool.
  ThreadPool pool(4);
  Rng rng(0xCAFEBABEULL);
  for (int iter = 0; iter < 6; ++iter) {
    const Graph g = random_instance(rng);
    const std::vector<Vertex> sources{0};

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.landmark_rp =
        (iter % 2 == 0) ? LandmarkRpMethod::kMmgPerPair : LandmarkRpMethod::kBkAuxGraphs;
    const MsrpResult sequential = solve_msrp(g, sources, cfg);

    cfg.build_pool = &pool;
    const MsrpResult pooled = solve_msrp(g, sources, cfg);
    expect_identical(sequential, pooled, g, "pooled iter=" + std::to_string(iter));
  }
}

}  // namespace
}  // namespace msrp
