// Query object returned by the MSRP solver.
//
// Holds, for each source s and each vertex t reachable from s, the array of
// replacement distances d(s, t, e_i) indexed by the position i of the failing
// edge e_i on the canonical s->t path (the paper's output: "length of all
// replacement paths from s to t where s in S and t in V").
//
// Rows are stored flat per source (offset table indexed by t), which is the
// Theta(sigma * n^2)-word output representation the second term of
// Theorem 26's running time pays for. avoiding(s, t, e) answers for
// arbitrary edge ids in O(1) via the source tree's ancestor index.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/landmarks.hpp"
#include "util/timer.hpp"

namespace msrp {

namespace service {
class Snapshot;
}

/// Sizes and counters recorded during a run (EXP-4 / EXP-8 use these).
struct MsrpStats {
  std::size_t num_landmarks = 0;
  std::size_t num_centers = 0;
  std::size_t num_trees = 0;
  std::size_t tree_pool_bytes = 0;  // landmark/center trees' arrays (TreePool::bytes)
  std::vector<std::size_t> landmarks_per_level;
  std::size_t near_small_aux_nodes = 0;
  std::size_t near_small_aux_arcs = 0;
  std::size_t bk_source_center_aux_arcs = 0;
  std::size_t bk_center_landmark_aux_arcs = 0;
  std::size_t bk_bottleneck_aux_arcs = 0;
  std::map<std::string, double> phase_seconds;
};

class MsrpResult {
 public:
  MsrpResult(const Graph& g, std::vector<Vertex> sources);

  const std::vector<Vertex>& sources() const { return sources_; }
  std::uint32_t num_sources() const { return static_cast<std::uint32_t>(sources_.size()); }

  /// The graph the result was solved on (outlives the result by contract).
  const Graph& graph() const { return *g_; }

  /// Index of source vertex s; throws if s is not a source.
  std::uint32_t source_index(Vertex s) const;

  /// Canonical shortest-path distance d(s, t).
  Dist shortest(Vertex s, Vertex t) const { return tree(s).dist(t); }

  /// Replacement distances for every edge on the canonical s->t path, in
  /// path order. Empty if t is unreachable from s or t == s.
  std::span<const Dist> row(Vertex s, Vertex t) const;

  /// d(s, t, e) for an arbitrary edge id: the stored row value when e lies on
  /// the canonical s->t path, d(s, t) otherwise (deleting an off-path edge
  /// leaves the canonical path intact). kInfDist if t is unreachable.
  Dist avoiding(Vertex s, Vertex t, EdgeId e) const;

  /// The canonical tree of s (also exposes the st paths the rows refer to).
  const BfsTree& tree(Vertex s) const { return rooted(s).tree; }
  const RootedTree& rooted(Vertex s) const { return trees_[source_index(s)]; }

  MsrpStats& stats() { return stats_; }
  const MsrpStats& stats() const { return stats_; }

  // ----- bulk read access (service snapshots copy rows wholesale) ---------

  /// All rows of source index si as one flat array; row_offsets(si) indexes
  /// it: row (si, t) occupies [offsets[t], offsets[t+1]).
  std::span<const Dist> raw_rows(std::uint32_t si) const {
    return {rows_[si].data(), rows_[si].size()};
  }

  /// n+1 prefix sums into raw_rows(si), indexed by target vertex.
  std::span<const std::uint64_t> row_offsets(std::uint32_t si) const {
    return {row_offset_[si].data(), row_offset_[si].size()};
  }

  // ----- engine-facing mutation (rows are written once, then read-only) ----

  /// Mutable access to the row of (source index si, target t).
  std::span<Dist> mutable_row(std::uint32_t si, Vertex t);

  /// Lowers row[pos] of (si, t) to `value` if smaller.
  void relax(std::uint32_t si, Vertex t, std::uint32_t pos, Dist value) {
    Dist& cell = rows_[si][row_offset_[si][t] + pos];
    if (value < cell) cell = value;
  }

 private:
  const Graph* g_;
  std::vector<Vertex> sources_;
  std::vector<std::int32_t> source_index_;  // vertex -> source index or -1
  std::vector<RootedTree> trees_;           // by source index
  std::vector<std::vector<std::uint64_t>> row_offset_;
  std::vector<std::vector<Dist>> rows_;
  MsrpStats stats_;

  friend class service::Snapshot;  // capture() adopts rows_ and row_offset_
};

}  // namespace msrp
