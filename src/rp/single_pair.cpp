#include "rp/single_pair.hpp"

#include <algorithm>

namespace msrp {
namespace {

// f(v): index of the deepest ancestor of v (in T_s) that lies on the
// canonical s->t path, where path vertices p_j have f = j. Because the path
// is a tree path from the root, the on-path ancestors of any vertex form a
// prefix p_0..p_{f(v)}; deleting path edge e_i = (p_i, p_{i+1}) leaves v in
// the source component iff f(v) <= i.
void divergence_index(const BfsTree& ts, const std::vector<Vertex>& path,
                      std::vector<std::uint32_t>& f) {
  const Vertex n = ts.num_vertices();
  constexpr auto kUnset = static_cast<std::uint32_t>(-1);
  f.assign(n, kUnset);
  for (std::uint32_t j = 0; j < path.size(); ++j) f[path[j]] = j;
  // BFS discovery order guarantees parents are resolved before children.
  for (const Vertex v : ts.order()) {
    if (f[v] != kUnset) continue;  // on-path vertex (or root)
    const Vertex p = ts.parent(v);
    f[v] = (p == kNoVertex) ? 0 : f[p];
  }
}

}  // namespace

SinglePairRp replacement_paths(const Graph& g, const BfsTree& ts, Vertex t) {
  MSRP_REQUIRE(t < g.num_vertices(), "target out of range");
  MSRP_REQUIRE(ts.num_vertices() == g.num_vertices(), "tree does not match graph");

  SinglePairRp out;
  out.path = ts.path_to(t);
  if (out.path.size() <= 1) return out;  // unreachable or s == t: no path edges
  const BfsTree tt(g, t);
  out.edges = ts.path_edges(t);
  const auto num_fail = static_cast<std::uint32_t>(out.edges.size());
  out.avoiding.assign(num_fail, kInfDist);

  std::vector<std::uint32_t> f;
  divergence_index(ts, out.path, f);

  // Each edge (x, y) with fmin = min(f(x), f(y)) < fmax = max(f(x), f(y))
  // crosses the cut of every failed index i in [fmin, fmax - 1] and offers
  // the candidate d_s(outside endpoint) + 1 + d_t(inside endpoint). The MMG
  // theorem (see header) says the minimum candidate per index is exact.
  struct Candidate {
    std::uint32_t start, end;  // inclusive index interval
    Dist value;
  };
  std::vector<Candidate> cand;
  Dist max_value = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [x, y] = g.endpoints(e);
    if (!ts.reachable(x) || !ts.reachable(y)) continue;
    std::uint32_t fx = f[x], fy = f[y];
    Vertex u = x, w = y;  // u outside (smaller f), w inside (larger f)
    if (fx > fy) {
      std::swap(fx, fy);
      std::swap(u, w);
    }
    if (fx == fy) continue;  // never crosses any cut (includes non-path tree edges)
    // Path edge e_j has interval [j, j] and is exactly the failed edge: skip.
    if (fy == fx + 1 && u == out.path[fx] && w == out.path[fy]) continue;
    const Dist value = sat_add(ts.dist(u), sat_add(1, tt.dist(w)));
    if (value == kInfDist) continue;
    cand.push_back({fx, fy - 1, value});
    max_value = std::max(max_value, value);
  }

  // Counting-sort the candidates by value (values are path lengths < 2n),
  // then paint intervals in ascending value order onto the still-unanswered
  // indices: next[i] is the union-find "next unpainted index >= i" pointer,
  // so every index is written exactly once — by its minimum covering value.
  std::vector<std::uint32_t> histo(static_cast<std::size_t>(max_value) + 2, 0);
  for (const auto& c : cand) ++histo[c.value + 1];
  for (std::size_t v = 1; v < histo.size(); ++v) histo[v] += histo[v - 1];
  std::vector<std::uint32_t> order(cand.size());
  for (std::uint32_t i = 0; i < cand.size(); ++i) order[histo[cand[i].value]++] = i;

  std::vector<std::uint32_t> next(num_fail + 1);
  for (std::uint32_t i = 0; i <= num_fail; ++i) next[i] = i;
  auto find = [&](std::uint32_t i) {
    std::uint32_t root = i;
    while (next[root] != root) root = next[root];
    while (next[i] != root) {  // path compression
      const std::uint32_t up = next[i];
      next[i] = root;
      i = up;
    }
    return root;
  };
  for (const std::uint32_t ci : order) {
    const auto& c = cand[ci];
    for (std::uint32_t i = find(c.start); i <= c.end; i = find(i + 1)) {
      out.avoiding[i] = c.value;
      next[i] = i + 1;
    }
  }
  return out;
}

SinglePairRp replacement_paths(const Graph& g, Vertex s, Vertex t) {
  const BfsTree ts(g, s);
  return replacement_paths(g, ts, t);
}

}  // namespace msrp
