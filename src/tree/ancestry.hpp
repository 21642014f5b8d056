// Lightweight O(1) ancestor test over a BfsTree.
//
// The MSRP pipeline issues huge numbers of "is edge e on the canonical
// root->v path?" queries against the trees of every landmark and center
// (Algorithms 3/4, the auxiliary-graph edge guards of Sections 7.1, 8.1,
// 8.2.2, 8.3). All of them reduce to subtree membership, which DFS entry/exit
// stamps answer in O(1) with 8 bytes per vertex — an order of magnitude
// lighter than the full Euler/RMQ Lca, which matters because the build keeps
// one tree per landmark, O~(sqrt(n*sigma)) of them, alive at once. For the
// same reason a pooled tree keeps only the arrays its build method reads
// (TreeParts): the MMG method stamps only the level-0 landmark trees, whose
// Algorithm 4 guard asks is_ancestor, and keeps dist alone for the rest.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/bfs_tree.hpp"

namespace msrp {

class AncestorIndex {
 public:
  explicit AncestorIndex(const BfsTree& tree);

  /// No stamps: the index of a tree that dropped them. Every query fails an
  /// MSRP_DCHECK in Debug builds.
  AncestorIndex() = default;

  /// True iff a lies on the canonical root->v path (a == v counts).
  /// False if either vertex is unreachable from the root.
  bool is_ancestor(Vertex a, Vertex v) const {
    MSRP_DCHECK(!tin_.empty(), "tree dropped its DFS stamps");
    if (tin_[a] == kNoStamp || tin_[v] == kNoStamp) return false;
    return tin_[a] <= tin_[v] && tout_[v] <= tout_[a];
  }

  /// For a tree edge whose deeper endpoint is `child`: true iff the edge lies
  /// on the canonical root->t path.
  bool edge_on_path(Vertex child, Vertex t) const { return is_ancestor(child, t); }

  /// Raw DFS stamps, for callers that hoist one side of is_ancestor out of
  /// a hot loop (assembly caches each landmark's stamps once per source).
  /// kNoStamp marks unreachable vertices; the root's tin is 0.
  std::uint32_t tin(Vertex v) const {
    MSRP_DCHECK(!tin_.empty(), "tree dropped its DFS stamps");
    return tin_[v];
  }
  std::uint32_t tout(Vertex v) const {
    MSRP_DCHECK(!tout_.empty(), "tree dropped its DFS stamps");
    return tout_[v];
  }

  /// Heap bytes held by the stamps.
  std::size_t bytes() const {
    return (tin_.capacity() + tout_.capacity()) * sizeof(std::uint32_t);
  }

  static constexpr std::uint32_t kNoStamp = static_cast<std::uint32_t>(-1);

 private:
  std::vector<std::uint32_t> tin_, tout_;
};

/// What a RootedTree keeps; each holds the one before it. Per vertex:
///   kDist   dist                                                  4 B
///   kGuard  + parent_edge, tin, tout (edge_on_path_to)           16 B
///   kFull   + parent, BFS order (path walks, stamp building)     24 B
enum class TreeParts : std::uint8_t { kDist, kGuard, kFull };

/// A BFS tree bundled with its ancestor index: the per-root unit the engine
/// keeps for every source, landmark, and center.
struct RootedTree {
  explicit RootedTree(const Graph& g, Vertex root) : tree(g, root), anc(tree) {}

  /// Keeps `parts` of `built`, each kept array copied at exact size; the
  /// stamps are computed only if kept.
  RootedTree(const BfsTree& built, TreeParts parts);

  BfsTree tree;
  AncestorIndex anc;
  TreeParts parts = TreeParts::kFull;

  /// Heap bytes held by the kept arrays.
  std::size_t bytes() const { return tree.bytes() + anc.bytes(); }

  Vertex root() const { return tree.root(); }
  Dist dist(Vertex v) const { return tree.dist(v); }

  /// True iff edge e (endpoints u, v) lies on the canonical root->t path.
  /// O(1): e must be a tree edge and its deeper endpoint an ancestor of t.
  bool edge_on_path_to(EdgeId e, Vertex u, Vertex v, Vertex t) const {
    if (tree.parent_edge(u) == e) return anc.is_ancestor(u, t);
    if (tree.parent_edge(v) == e) return anc.is_ancestor(v, t);
    return false;
  }
};

}  // namespace msrp
