#include "core/msrp.hpp"

#include <memory>

#include "core/assembly.hpp"
#include "core/bk.hpp"
#include "core/landmark_rp.hpp"
#include "core/near_small.hpp"
#include "core/scratch.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

/// Targets per assembly chunk. Assembly sweeps each landmark tree T_r
/// across a whole chunk, and 128 targets already keep T_r hot; a
/// 4096-vertex graph still splits into 32 chunks per source, enough to keep
/// every worker busy. Fixed, not derived from the thread count: a row is a
/// min over the same candidates whatever chunk its target lands in, so any
/// chunking gives the same bytes, and a fixed one keeps the execution shape
/// easy to reason about.
constexpr Vertex kAssemblyChunk = 128;

class MsrpEngine {
 public:
  MsrpEngine(const Graph& g, const std::vector<Vertex>& sources, const Config& cfg)
      : g_(g),
        cfg_(cfg),
        params_(g.num_vertices(), static_cast<std::uint32_t>(sources.size()), cfg),
        pool_(g),
        result_(g, sources) {}

  MsrpResult run() {
    PhaseTimers timers;

    // ---- execution resources ---------------------------------------------
    // The parallel build is bit-identical to the sequential one: every
    // parallel item writes item-private rows/tables/slots, and the only
    // shared accumulations are commutative sums merged in a fixed order.
    std::unique_ptr<ThreadPool> owned_pool;
    if (cfg_.build_threads != 1) owned_pool = std::make_unique<ThreadPool>(cfg_.build_threads);
    ThreadPool* exec = owned_pool && owned_pool->size() > 1 ? owned_pool.get() : nullptr;
    ScratchPool scratches(exec != nullptr ? exec->max_parallelism() : 1);

    // ---- sampling (Definition 3) + preprocessing BFS trees ---------------
    Rng rng(cfg_.seed);
    {
      auto t = timers.scope("sample+bfs");
      Rng landmark_rng = rng.split();
      Rng center_rng = rng.split();
      landmarks_.emplace(params_, result_.sources(), landmark_rng);
      // C_0 additionally holds all landmarks: it closes the first/last
      // interval recursions of Section 8.3 (see bk.hpp).
      std::vector<Vertex> forced_centers = result_.sources();
      forced_centers.insert(forced_centers.end(), landmarks_->members().begin(),
                            landmarks_->members().end());
      centers_.emplace(params_, forced_centers, center_rng);

      // Each tree keeps only what its method reads (TreeParts). BK walks
      // the parents of every landmark and center tree. MMG reads dist from
      // every landmark tree, and Algorithm 4's guard (edge_on_path_to)
      // from the level-0 ones only: assembly evaluates it at k = 0.
      if (cfg_.landmark_rp == LandmarkRpMethod::kBkAuxGraphs) {
        pool_.ensure(landmarks_->members(), exec);
        pool_.ensure(centers_->members(), exec);
      } else {
        pool_.ensure(landmarks_->level(0), exec, TreeParts::kGuard);
        pool_.ensure(landmarks_->members(), exec, TreeParts::kDist);
      }
    }

    std::vector<const RootedTree*> source_trees;
    for (const Vertex s : result_.sources()) source_trees.push_back(&result_.rooted(s));

    // ---- d(s, r, e) for landmarks (Section 3 or Section 8) ---------------
    LandmarkRpTable dsr(g_, source_trees, landmarks_->members());
    std::vector<std::unique_ptr<NearSmall>> near_small(result_.num_sources());
    if (cfg_.landmark_rp == LandmarkRpMethod::kMmgPerPair) {
      auto t = timers.scope("landmark_rp_mmg");
      dsr.fill_mmg(g_, pool_, scratches, exec);
    } else {
      {
        auto t = timers.scope("near_small_dijkstra");
        build_near_small(source_trees, near_small, exec);
      }
      std::vector<const NearSmall*> ns_view;
      for (const auto& p : near_small) ns_view.push_back(p.get());
      BkContext ctx(g_, params_, pool_, *landmarks_, *centers_, source_trees, ns_view);
      fill_landmark_rp_bk(ctx, dsr, result_.stats(), timers, exec, scratches);
    }

    // ---- Sections 6 + 7: per-target assembly ------------------------------
    // Sources stay sequential (the mmg path frees each NearSmall as soon as
    // its source is assembled, bounding peak memory); the per-target rows
    // within a source are chunked across the pool.
    const Vertex n = g_.num_vertices();
    const std::size_t chunks_per_source = (n + kAssemblyChunk - 1) / kAssemblyChunk;
    for (std::uint32_t si = 0; si < result_.num_sources(); ++si) {
      if (!near_small[si]) {
        auto t = timers.scope("near_small_dijkstra");
        near_small[si] = std::make_unique<NearSmall>(g_, *source_trees[si], params_);
        result_.stats().near_small_aux_nodes += near_small[si]->aux_nodes();
        result_.stats().near_small_aux_arcs += near_small[si]->aux_arcs();
      }
      auto t = timers.scope("assembly");
      maybe_parallel_for(exec, chunks_per_source, [&](std::size_t c, std::size_t) {
        const auto t_begin = static_cast<Vertex>(c * kAssemblyChunk);
        const Vertex t_end = std::min<Vertex>(n, t_begin + kAssemblyChunk);
        assemble_source_rows(g_, si, *source_trees[si], *landmarks_, pool_, dsr,
                             *near_small[si], params_, result_, t_begin, t_end);
      });
      near_small[si].reset();  // free the per-source auxiliary graph early
    }

    // ---- stats ------------------------------------------------------------
    auto& st = result_.stats();
    st.num_landmarks = landmarks_->members().size();
    st.num_centers =
        cfg_.landmark_rp == LandmarkRpMethod::kBkAuxGraphs ? centers_->members().size() : 0;
    st.num_trees = pool_.size() + result_.num_sources();
    st.tree_pool_bytes = pool_.bytes();
    for (std::uint32_t k = 0; k < landmarks_->num_levels(); ++k) {
      st.landmarks_per_level.push_back(landmarks_->level(k).size());
    }
    st.phase_seconds = timers.totals();
    return std::move(result_);
  }

 private:
  void build_near_small(const std::vector<const RootedTree*>& source_trees,
                        std::vector<std::unique_ptr<NearSmall>>& out, ThreadPool* exec) {
    // Each NearSmall is one independent auxiliary-graph build + Dijkstra;
    // the counters are summed in source order afterwards.
    maybe_parallel_for(exec, out.size(), [&](std::size_t si, std::size_t) {
      out[si] = std::make_unique<NearSmall>(g_, *source_trees[si], params_);
    });
    for (std::uint32_t si = 0; si < out.size(); ++si) {
      result_.stats().near_small_aux_nodes += out[si]->aux_nodes();
      result_.stats().near_small_aux_arcs += out[si]->aux_arcs();
    }
  }

  const Graph& g_;
  Config cfg_;
  Params params_;
  TreePool pool_;
  MsrpResult result_;
  std::optional<LevelSets> landmarks_;
  std::optional<LevelSets> centers_;
};

}  // namespace

MsrpResult solve_msrp(const Graph& g, const std::vector<Vertex>& sources, const Config& cfg) {
  MSRP_REQUIRE(g.num_vertices() >= 1, "graph must be non-empty");
  return MsrpEngine(g, sources, cfg).run();
}

MsrpResult solve_ssrp(const Graph& g, Vertex source, const Config& cfg) {
  return solve_msrp(g, {source}, cfg);
}

}  // namespace msrp
