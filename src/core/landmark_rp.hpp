// Storage for the preprocessing table d(s, r, e): replacement distances from
// every source to every landmark, for every edge on the canonical sr path.
//
// Both construction methods fill this table:
//   * LandmarkRpMethod::kMmgPerPair — the MMG single-pair replacement paths
//     of every (s, r) (Section 3's use of [21, 20, 22]), computed by a
//     kernel that indexes each source's tree once and reuses the index for
//     all of its landmarks (fill_mmg);
//   * LandmarkRpMethod::kBkAuxGraphs — the Bernstein–Karger adaptation of
//     Section 8 (source_center.cpp, center_landmark.cpp, intervals.cpp,
//     bottleneck.cpp).
// The far/near assembly phases (Sections 6 and 7) only read it through
// avoiding(), which resolves an arbitrary on-tree edge in O(1).
#pragma once

#include <vector>

#include "core/landmarks.hpp"

namespace msrp {

class ThreadPool;   // util/thread_pool.hpp
class ScratchPool;  // core/scratch.hpp

class LandmarkRpTable {
 public:
  /// `source_trees[si]` must outlive the table.
  LandmarkRpTable(const Graph& g, std::vector<const RootedTree*> source_trees,
                  const std::vector<Vertex>& landmark_list);

  std::uint32_t num_landmarks() const { return static_cast<std::uint32_t>(landmarks_.size()); }
  const std::vector<Vertex>& landmarks() const { return landmarks_; }

  /// Dense index of landmark r; -1 if r is not a landmark.
  std::int32_t landmark_index(Vertex r) const { return lidx_[r]; }

  /// Row for (source index si, landmark index li): d(s, r, e_pos) indexed by
  /// the position of e on the canonical sr path.
  std::vector<Dist>& mutable_row(std::uint32_t si, std::uint32_t li) {
    return rows_[si * num_landmarks() + li];
  }
  const std::vector<Dist>& row(std::uint32_t si, std::uint32_t li) const {
    return rows_[si * num_landmarks() + li];
  }

  /// d(s, r, e) where e is the tree edge of T_s with deeper endpoint
  /// `e_child` at path position `pos` (= dist_s(e_child) - 1). Returns
  /// dist(s, r) when e is not on the canonical sr path.
  Dist avoiding(std::uint32_t si, std::uint32_t li, Vertex e_child, std::uint32_t pos) const {
    const RootedTree& rs = *source_trees_[si];
    const Vertex r = landmarks_[li];
    if (!rs.anc.is_ancestor(e_child, r)) return rs.dist(r);
    const auto& row = rows_[si * landmarks_.size() + li];
    MSRP_DCHECK(pos < row.size(), "path position out of range");
    return row[pos];
  }

  /// Fills every row with the MMG single-pair replacement paths, the same
  /// values replacement_paths (rp/single_pair.hpp) returns for each pair.
  /// Landmark trees come from `trees` (built here if missing). Sources run
  /// one at a time: one index of T_s (preorder ranks, and T_s's non-tree
  /// edges grouped by root child) serves all of the source's landmarks,
  /// which run on `exec` when given. Each pair then walks its path, labels
  /// subtree(p_1) by path layer, and range-mins the crossing edges of p_1's
  /// list into its row. `scratches` needs one slot per participant. The
  /// table is bit-identical for any thread count.
  void fill_mmg(const Graph& g, TreePool& trees, ScratchPool& scratches,
                ThreadPool* exec = nullptr);

 private:
  std::vector<const RootedTree*> source_trees_;
  std::vector<Vertex> landmarks_;
  std::vector<std::int32_t> lidx_;
  std::vector<std::vector<Dist>> rows_;  // (si * |L| + li) -> per-position distances
};

}  // namespace msrp
