// Configuration-matrix sweep: the solver must stay exact (vs the brute
// oracle) across the cross product of graph family x sigma x landmark
// method x constant regime. This is the widest single correctness net in
// the suite; each combination runs on its own fixed seed. The exact subtree
// solver that serving builds with is held to the same oracle on every
// combination's instance.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baseline/baselines.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"

namespace msrp {
namespace {

enum class Family : int { kGnp = 0, kGrid, kChords, kBarbell, kTree, kDense };
enum class Regime : int { kDefault = 0, kPaperConstants, kExact, kTightNear };

const char* family_name(Family f) {
  switch (f) {
    case Family::kGnp: return "gnp";
    case Family::kGrid: return "grid";
    case Family::kChords: return "chords";
    case Family::kBarbell: return "barbell";
    case Family::kTree: return "tree";
    default: return "dense";
  }
}

Graph make_family(Family f, Rng& rng) {
  switch (f) {
    case Family::kGnp: return gen::connected_gnp(56, 0.09, rng);
    case Family::kGrid: return gen::grid(7, 8);
    case Family::kChords: return gen::path_with_chords(56, 14, rng);
    case Family::kBarbell: return gen::barbell(7, 5);
    case Family::kTree: return gen::random_tree(48, rng);
    default: return gen::connected_gnp(36, 0.35, rng);
  }
}

Config make_config(Regime r, LandmarkRpMethod method, std::uint64_t seed) {
  Config cfg;
  cfg.seed = seed;
  cfg.landmark_rp = method;
  switch (r) {
    case Regime::kDefault:
      cfg.oversample = 3.0;
      break;
    case Regime::kPaperConstants:
      cfg.paper_constants = true;
      cfg.oversample = 2.0;
      break;
    case Regime::kExact:
      cfg.exact = true;
      break;
    case Regime::kTightNear:
      cfg.near_scale = 1.0;
      cfg.oversample = 4.0;
      break;
  }
  return cfg;
}

using Combo = std::tuple<int /*Family*/, int /*sigma*/, int /*method*/, int /*Regime*/>;

/// The combination's graph and sources, drawn from its own fixed seed.
struct Instance {
  std::uint64_t seed;
  Graph g;
  std::vector<Vertex> sources;
};

Instance make_instance(const Combo& combo) {
  const auto [fam_i, sigma, method_i, regime_i] = combo;
  const std::uint64_t seed =
      1000 * static_cast<std::uint64_t>(fam_i) + 100 * sigma + 10 * method_i + regime_i;
  Rng rng(seed);
  Graph g = make_family(static_cast<Family>(fam_i), rng);
  const auto picks =
      rng.sample_without_replacement(g.num_vertices(), static_cast<std::uint32_t>(sigma));
  return {seed, std::move(g), {picks.begin(), picks.end()}};
}

/// Every row of `got` equals brute force's.
void expect_exact(const Instance& in, const MsrpResult& got, const std::string& label) {
  const MsrpResult want = solve_msrp_brute_force(in.g, in.sources);
  for (const Vertex s : in.sources) {
    for (Vertex t = 0; t < in.g.num_vertices(); ++t) {
      const auto wrow = want.row(s, t);
      const auto grow = got.row(s, t);
      ASSERT_EQ(grow.size(), wrow.size());
      for (std::size_t i = 0; i < wrow.size(); ++i) {
        ASSERT_EQ(grow[i], wrow[i]) << label << " s=" << s << " t=" << t << " pos=" << i;
      }
    }
  }
}

class ConfigMatrixTest : public testing::TestWithParam<Combo> {};

TEST_P(ConfigMatrixTest, ExactAgainstOracle) {
  const auto [fam_i, sigma, method_i, regime_i] = GetParam();
  const auto method =
      method_i == 0 ? LandmarkRpMethod::kMmgPerPair : LandmarkRpMethod::kBkAuxGraphs;
  const auto regime = static_cast<Regime>(regime_i);
  const Instance in = make_instance(GetParam());
  expect_exact(in, solve_msrp(in.g, in.sources, make_config(regime, method, in.seed)),
               std::string(family_name(static_cast<Family>(fam_i))) +
                   " sigma=" + std::to_string(sigma) + " method=" + std::to_string(method_i) +
                   " regime=" + std::to_string(regime_i));
}

// The exact solver the query service builds with, on the same instances.
// The solver knobs do not reach it; the combination only picks the graph.
TEST_P(ConfigMatrixTest, SubtreeSolverAgainstOracle) {
  const Instance in = make_instance(GetParam());
  expect_exact(in, solve_msrp_subtree(in.g, in.sources), "seed=" + std::to_string(in.seed));
}

INSTANTIATE_TEST_SUITE_P(Matrix, ConfigMatrixTest,
                         testing::Combine(testing::Range(0, 6),        // family
                                          testing::Values(1, 3, 6),    // sigma
                                          testing::Values(0, 1),       // method
                                          testing::Range(0, 4)));      // regime

}  // namespace
}  // namespace msrp
