// Query object returned by the MSRP solver.
//
// Holds, for each source s and each vertex t reachable from s, the array of
// replacement distances d(s, t, e_i) indexed by the position i of the failing
// edge e_i on the canonical s->t path (the paper's output: "length of all
// replacement paths from s to t where s in S and t in V").
//
// The rows live in the same per-source table a service::Snapshot serves:
// flat per source (offset table indexed by t), the Theta(sigma * n^2)-word
// output representation the second term of Theorem 26's running time pays
// for. The solvers write its cells in place, every read below forwards to
// it, and Snapshot::capture takes it over. avoiding(s, t, e) answers for
// arbitrary edge ids in O(1) via the table's ancestor index.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/landmarks.hpp"
#include "service/snapshot.hpp"
#include "util/timer.hpp"

namespace msrp {

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

  const std::vector<Vertex>& sources() const { return table_.sources(); }
  std::uint32_t num_sources() const { return table_.num_sources(); }

  /// Index of source vertex s; throws if s is not a source.
  std::uint32_t source_index(Vertex s) const { return table_.source_index(s); }

  /// Canonical shortest-path distance d(s, t).
  Dist shortest(Vertex s, Vertex t) const { return table_.shortest(s, t); }

  /// Replacement distances for every edge on the canonical s->t path, in
  /// path order. Empty if t is unreachable from s or t == s.
  std::span<const Dist> row(Vertex s, Vertex t) const { return table_.row(s, t); }

  /// d(s, t, e) for an arbitrary edge id (Snapshot::avoiding's contract).
  Dist avoiding(Vertex s, Vertex t, EdgeId e) const { return table_.avoiding(s, t, e); }

  /// The canonical tree of s (also exposes the st paths the rows refer to).
  const BfsTree& tree(Vertex s) const { return rooted(s).tree; }
  const RootedTree& rooted(Vertex s) const { return trees_[source_index(s)]; }

  MsrpStats& stats() { return stats_; }
  const MsrpStats& stats() const { return stats_; }

  /// All rows of source index si as one flat array; row_offsets(si) indexes
  /// it: row (si, t) occupies [offsets[t], offsets[t+1]).
  std::span<const Dist> raw_rows(std::uint32_t si) const { return table_.raw_rows(si); }

  /// n+1 prefix sums into raw_rows(si), indexed by target vertex.
  std::span<const std::uint64_t> row_offsets(std::uint32_t si) const {
    return table_.row_offsets(si);
  }

  /// Mutable access to the row of (source index si, target t); the solvers
  /// write each row once, then it is read-only.
  std::span<Dist> mutable_row(std::uint32_t si, Vertex t) { return table_.mutable_row(si, t); }

 private:
  std::vector<RootedTree> trees_;  // by source index; what the solvers walk
  service::Snapshot table_;        // the rows, and every read of them
  MsrpStats stats_;

  friend class service::Snapshot;  // capture() takes table_
};

}  // namespace msrp
