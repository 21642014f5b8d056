// Canonical BFS shortest-path tree.
//
// The paper fixes a shortest-path tree T_s per source (Section 4) and defines
// every replacement-path instance relative to *that* tree's st paths. We make
// the tree canonical by scanning CSR adjacency (sorted by neighbour id) in
// order and assigning the first-discovered parent, so every component of the
// system — the MSRP pipeline, the MMG single-pair algorithm, the brute-force
// oracle — agrees on which edges lie on the st path.
//
// The tree also answers, in O(1) after an LCA build (see lca.hpp):
//   * dist(v), parent(v), parent_edge(v)
//   * "is edge e on the canonical s->t path?"   (tree-edge + ancestry test)
//   * position of an on-path edge (distance of its far endpoint from s)
//
// A tree kept in a TreePool may hold dist alone, or dist and parent_edge
// (see TreeParts in ancestry.hpp). Reading an array it dropped fails an
// MSRP_DCHECK in Debug builds.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "util/distance.hpp"

namespace msrp {

class BfsTree {
 public:
  /// Runs BFS from `root` over `g`. If `skip_edge` is given that edge is
  /// treated as deleted (used by the brute-force replacement oracle).
  BfsTree(const Graph& g, Vertex root, EdgeId skip_edge = kNoEdge);

  /// Empty tree; rebuild() before use.
  BfsTree() = default;

  /// Re-runs BFS in place, reusing the vectors' capacity. Only the vertices
  /// the *previous* run discovered are re-initialized (they are exactly the
  /// entries of order()), so a rebuild on the same graph costs O(touched)
  /// setup instead of four fresh n-sized allocations — the skip-edge loops
  /// of the brute-force oracle and the FT-subgraph builder rebuild m times
  /// per source.
  void rebuild(const Graph& g, Vertex root, EdgeId skip_edge = kNoEdge);

  Vertex root() const { return root_; }
  Vertex num_vertices() const { return static_cast<Vertex>(dist_.size()); }

  Dist dist(Vertex v) const { return dist_[v]; }
  const std::vector<Dist>& dists() const { return dist_; }

  bool reachable(Vertex v) const { return dist_[v] != kInfDist; }

  /// Parent in the tree; kNoVertex for the root and unreachable vertices.
  Vertex parent(Vertex v) const {
    MSRP_DCHECK(has_parents(), "tree dropped its parents");
    return parent_[v];
  }

  /// Edge id to the parent; kNoEdge for the root and unreachable vertices.
  EdgeId parent_edge(Vertex v) const {
    MSRP_DCHECK(has_parent_edges(), "tree dropped its parent edges");
    return parent_edge_[v];
  }

  /// Vertices in BFS discovery order (root first); unreachable ones absent.
  const std::vector<Vertex>& order() const {
    MSRP_DCHECK(has_parents(), "tree dropped its BFS order");
    return order_;
  }

  /// The canonical root->t path as a vertex sequence (root first, t last).
  /// Empty if t is unreachable.
  std::vector<Vertex> path_to(Vertex t) const;

  /// Edge ids along the canonical root->t path, in order from the root.
  /// path_edges(t)[i] joins path_to(t)[i] and path_to(t)[i+1].
  std::vector<EdgeId> path_edges(Vertex t) const;

  /// True iff e is a tree edge (parent edge of its deeper endpoint).
  bool is_tree_edge(const Graph& g, EdgeId e) const;

  /// For a tree edge e = (u, v) with dist(u) + 1 == dist(v), returns the
  /// child (deeper) endpoint v; nullopt if e is not a tree edge.
  std::optional<Vertex> tree_edge_child(const Graph& g, EdgeId e) const;

  /// Heap bytes held by the tree's arrays.
  std::size_t bytes() const {
    return dist_.capacity() * sizeof(Dist) + parent_.capacity() * sizeof(Vertex) +
           parent_edge_.capacity() * sizeof(EdgeId) + order_.capacity() * sizeof(Vertex);
  }

 private:
  friend struct RootedTree;  // copies out the arrays it keeps

  // A kept array has one entry per vertex (order_ goes with parent_); a
  // dropped one is empty.
  bool has_parents() const { return parent_.size() == dist_.size(); }
  bool has_parent_edges() const { return parent_edge_.size() == dist_.size(); }

  Vertex root_ = kNoVertex;
  std::vector<Dist> dist_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<Vertex> order_;
};

}  // namespace msrp
