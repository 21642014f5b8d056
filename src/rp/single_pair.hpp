// Single-pair replacement paths in O((m + n) log n) — the classical
// algorithm of Malik–Mittal–Gupta (OR Letters 1989) / Hershberger–Suri
// (FOCS 2001) that the paper invokes as a black box ([21, 20, 22]) to find
// all replacement paths from a source to each landmark vertex.
//
// Given undirected unweighted G and the canonical shortest path
// P = p_0 .. p_L (s = p_0, t = p_L), it returns |st <> e_i| for every path
// edge e_i = (p_i, p_{i+1}).
//
// Method. Build BFS trees T_s and T_t whose tree paths contain P (our
// canonical BfsTree already guarantees a consistent choice; we additionally
// re-root parents along P — see .cpp). For a vertex v let f(v) = the largest
// index i such that p_i is an ancestor of v in T_s (ancestors of v on P form
// a prefix p_0..p_f(v)), and g(v) = the smallest index j such that p_j is an
// ancestor of v in T_t. Deleting e_i splits T_s into the component of s
// (= vertices with f(v) <= i) and the rest. Any replacement path for e_i
// must use a non-tree "crossing" edge (u, w); MMG show
//
//   |st <> e_i| = min over edges (u,w), f(u) <= i < g(w)
//                 of  d_s(u) + 1 + d_t(w)        (and symmetrically (w,u)).
//
// So each edge contributes a candidate value on an index interval
// [f(u), g(w) - 1]; the answer per index is an interval-minimum stabbing
// query. Solved offline in O(n + m + V) (V = the largest candidate value,
// itself < 2n): counting-sort the candidates by value, then paint each
// interval onto the still-unanswered positions with a union-find
// next-unpainted pointer — every position is painted exactly once, by the
// smallest value covering it. No heap and no comparison sort.
//
// The MSRP engine does not call this per pair: LandmarkRpTable::fill_mmg
// (core/landmark_rp.cpp) computes the same values with a kernel that shares
// each source's work across its landmarks, and tests compare the two.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "tree/bfs_tree.hpp"
#include "util/distance.hpp"

namespace msrp {

struct SinglePairRp {
  std::vector<Vertex> path;    // canonical s..t path (empty if unreachable)
  std::vector<EdgeId> edges;   // path edges, edges[i] = (path[i], path[i+1])
  std::vector<Dist> avoiding;  // avoiding[i] = |st <> edges[i]|
};

/// Computes all replacement paths for the canonical s->t path.
/// `ts` must be the BfsTree of s over g (callers usually have it already).
SinglePairRp replacement_paths(const Graph& g, const BfsTree& ts, Vertex t);

/// Convenience overload building the BFS tree internally.
SinglePairRp replacement_paths(const Graph& g, Vertex s, Vertex t);

}  // namespace msrp
