// Per-thread scratch arena for oracle construction.
//
// One BuildScratch serves one worker thread for the whole build: the
// Section 8.1 / 8.2.2 / 8.3 phases construct one auxiliary graph and run
// one Dijkstra per item (source, center, or landmark respectively), and the
// MMG landmark table fills one row per (source, landmark). All of that
// temporary state — the aux graph's arc/CSR storage, the Dijkstra distance
// arrays (epoch-stamped, cleared in O(1)), the flattened window
// bookkeeping, the MMG layer labels and range-min table — lives here and is
// reused across items, so the steady-state build performs no allocation in
// its hot loops.
//
// Each scratch also carries a private MsrpStats: parallel phase items
// accumulate counters locally and the engine merges the scratches after the
// build. All merged counters are sums, so the result is independent of how
// items were distributed over threads — part of the build's bit-identical
// determinism guarantee.
#pragma once

#include <algorithm>
#include <vector>

#include "core/result.hpp"
#include "spath/aux_graph.hpp"
#include "spath/dijkstra.hpp"

namespace msrp {

/// One window entry of a Section 8.1 / 8.2.2 auxiliary graph: a tree edge
/// near the top of a canonical path, with its deeper endpoint.
struct WindowEdge {
  EdgeId id;
  Vertex child;
};

struct BuildScratch {
  AuxGraph aux;          // reset() per item, capacity kept
  DijkstraScratch dij;   // epoch-stamped dist/parent arrays + bucket queue

  // Flattened window lists: owner k's entries are
  // window[window_base[k] .. window_base[k+1]). Because the aux [owner, e]
  // nodes are allocated in the same flat order, the aux handle of entry i is
  // first_window_node + i.
  std::vector<WindowEdge> window;
  std::vector<std::uint32_t> window_base;
  std::vector<std::uint32_t> window_owner;  // entry -> owning landmark/center index

  // Window-entry indices sorted by edge id: entries sharing a failing edge
  // form contiguous runs, replacing the per-item unordered_map<EdgeId, ...>
  // the same-edge chain arcs used to be grouped with.
  std::vector<std::uint32_t> group_order;

  std::vector<Vertex> path;  // reusable canonical-path buffer

  // MMG landmark table (landmark_rp.cpp): path layer by preorder rank, all
  // zero between pairs, and the interleaved range-min sparse table.
  std::vector<std::uint32_t> mmg_layer;
  std::vector<Dist> mmg_table;

  /// Detour candidates surviving the prune-radius filter for one target
  /// (landmark or center): the Section 8 builders hoist the per-candidate
  /// tree lookup + distance + prune test out of their window-entry loops,
  /// which are a factor |window| hotter.
  struct DetourCand {
    std::uint32_t idx;       // dense landmark/center index
    Vertex v;                // the candidate vertex r' / c'
    Dist dist;               // d(r', r) resp. d(c', c)
    const RootedTree* tree;  // T_{r'} / T_{c'}
  };
  std::vector<DetourCand> eligible;

  /// Per-thread counters, merged into the engine's stats after each phase.
  MsrpStats stats;

  /// Folds this scratch's counters into `total` and resets them.
  void merge_stats_into(MsrpStats& total) {
    total.near_small_aux_nodes += stats.near_small_aux_nodes;
    total.near_small_aux_arcs += stats.near_small_aux_arcs;
    total.bk_source_center_aux_arcs += stats.bk_source_center_aux_arcs;
    total.bk_center_landmark_aux_arcs += stats.bk_center_landmark_aux_arcs;
    total.bk_bottleneck_aux_arcs += stats.bk_bottleneck_aux_arcs;
    stats = MsrpStats{};
  }
};

/// Groups the scratch's window entries by failing edge (sorting
/// group_order) and invokes fn(source_entry, target_entry) for every
/// ordered pair of distinct entries sharing an edge — the same-edge chain
/// arcs of the Section 8.1 / 8.2.2 auxiliary graphs. Owner lookups and the
/// detour guards stay with the caller; this replaces the per-item
/// unordered_map<EdgeId, ...> grouping both builders used to duplicate.
template <typename PairFn>
void for_each_same_edge_pair(BuildScratch& s, PairFn&& fn) {
  const auto num_window = static_cast<std::uint32_t>(s.window.size());
  s.group_order.resize(num_window);
  for (std::uint32_t i = 0; i < num_window; ++i) s.group_order[i] = i;
  std::sort(s.group_order.begin(), s.group_order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return s.window[a].id < s.window[b].id;
  });
  for (std::uint32_t lo = 0; lo < num_window;) {
    std::uint32_t hi = lo + 1;
    while (hi < num_window &&
           s.window[s.group_order[hi]].id == s.window[s.group_order[lo]].id) {
      ++hi;
    }
    for (std::uint32_t a = lo; a < hi; ++a) {
      for (std::uint32_t b = lo; b < hi; ++b) {
        if (b != a) fn(s.group_order[b], s.group_order[a]);
      }
    }
    lo = hi;
  }
}

/// The per-thread scratch set for one build: slot 0 belongs to the
/// orchestrating thread, slots 1..k to the pool helpers (ThreadPool's
/// parallel_for hands every participant a stable slot index).
class ScratchPool {
 public:
  explicit ScratchPool(std::size_t slots) : scratches_(slots) {}

  BuildScratch& slot(std::size_t i) { return scratches_[i]; }
  std::size_t size() const { return scratches_.size(); }

  void merge_stats_into(MsrpStats& total) {
    for (BuildScratch& s : scratches_) s.merge_stats_into(total);
  }

 private:
  std::vector<BuildScratch> scratches_;
};

}  // namespace msrp
