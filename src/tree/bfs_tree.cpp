#include "tree/bfs_tree.hpp"

#include <algorithm>

namespace msrp {

BfsTree::BfsTree(const Graph& g, Vertex root, EdgeId skip_edge) {
  rebuild(g, root, skip_edge);
}

void BfsTree::rebuild(const Graph& g, Vertex root, EdgeId skip_edge) {
  const Vertex n = g.num_vertices();
  MSRP_REQUIRE(root < n, "BFS root out of range");
  root_ = root;
  if (dist_.size() != n) {
    // First build (or a different graph size): full initialization.
    dist_.assign(n, kInfDist);
    parent_.assign(n, kNoVertex);
    parent_edge_.assign(n, kNoEdge);
    order_.reserve(n);
  } else {
    // Same-size rebuild: the previous order_ lists exactly the vertices with
    // non-default entries, so resetting those is O(touched), not O(n).
    for (const Vertex v : order_) {
      dist_[v] = kInfDist;
      parent_[v] = kNoVertex;
      parent_edge_[v] = kNoEdge;
    }
  }
  order_.clear();

  dist_[root] = 0;
  order_.push_back(root);
  // order_ doubles as the BFS queue: vertices are appended exactly once.
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const Vertex u = order_[head];
    for (const Arc& a : g.neighbors(u)) {
      if (a.edge == skip_edge) continue;
      if (dist_[a.to] == kInfDist) {
        dist_[a.to] = dist_[u] + 1;
        parent_[a.to] = u;
        parent_edge_[a.to] = a.edge;
        order_.push_back(a.to);
      }
    }
  }
}

std::vector<Vertex> BfsTree::path_to(Vertex t) const {
  MSRP_REQUIRE(t < num_vertices(), "vertex out of range");
  MSRP_DCHECK(has_parents(), "tree dropped its parents");
  if (!reachable(t)) return {};
  std::vector<Vertex> path;
  path.reserve(dist_[t] + 1);
  for (Vertex v = t; v != kNoVertex; v = parent_[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> BfsTree::path_edges(Vertex t) const {
  MSRP_REQUIRE(t < num_vertices(), "vertex out of range");
  MSRP_DCHECK(has_parents() && has_parent_edges(), "tree dropped its parents");
  if (!reachable(t)) return {};
  std::vector<EdgeId> edges;
  edges.reserve(dist_[t]);
  for (Vertex v = t; parent_[v] != kNoVertex; v = parent_[v]) {
    edges.push_back(parent_edge_[v]);
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

bool BfsTree::is_tree_edge(const Graph& g, EdgeId e) const {
  return tree_edge_child(g, e).has_value();
}

std::optional<Vertex> BfsTree::tree_edge_child(const Graph& g, EdgeId e) const {
  MSRP_REQUIRE(e < g.num_edges(), "edge out of range");
  const auto [u, v] = g.endpoints(e);
  if (parent_edge(u) == e) return u;
  if (parent_edge(v) == e) return v;
  return std::nullopt;
}

}  // namespace msrp
