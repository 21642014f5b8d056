#include "core/result.hpp"

#include <algorithm>

namespace msrp {

MsrpResult::MsrpResult(const Graph& g, std::vector<Vertex> sources)
    : g_(&g), sources_(std::move(sources)) {
  MSRP_REQUIRE(!sources_.empty(), "need at least one source");
  const Vertex n = g.num_vertices();
  source_index_.assign(n, -1);
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    const Vertex s = sources_[i];
    MSRP_REQUIRE(s < n, "source out of range");
    MSRP_REQUIRE(source_index_[s] < 0, "duplicate source");
    source_index_[s] = static_cast<std::int32_t>(i);
  }

  trees_.reserve(sources_.size());
  row_offset_.resize(sources_.size());
  rows_.resize(sources_.size());
  for (std::uint32_t si = 0; si < sources_.size(); ++si) {
    const BfsTree& t = trees_.emplace_back(g, sources_[si]).tree;
    auto& off = row_offset_[si];
    off.assign(static_cast<std::size_t>(n) + 1, 0);
    for (Vertex v = 0; v < n; ++v) {
      const Dist d = t.dist(v);
      off[v + 1] = off[v] + (d == kInfDist ? 0 : d);
    }
    rows_[si].assign(off[n], kInfDist);
  }
}

std::uint32_t MsrpResult::source_index(Vertex s) const {
  MSRP_REQUIRE(s < source_index_.size() && source_index_[s] >= 0, "not a source");
  return static_cast<std::uint32_t>(source_index_[s]);
}

std::span<const Dist> MsrpResult::row(Vertex s, Vertex t) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < g_->num_vertices(), "target out of range");
  const auto& off = row_offset_[si];
  return {rows_[si].data() + off[t], rows_[si].data() + off[t + 1]};
}

std::span<Dist> MsrpResult::mutable_row(std::uint32_t si, Vertex t) {
  const auto& off = row_offset_[si];
  return {rows_[si].data() + off[t], rows_[si].data() + off[t + 1]};
}

Dist MsrpResult::avoiding(Vertex s, Vertex t, EdgeId e) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < g_->num_vertices(), "target out of range");
  MSRP_REQUIRE(e < g_->num_edges(), "edge out of range");
  const RootedTree& rt = trees_[si];
  if (!rt.tree.reachable(t)) return kInfDist;
  const auto [u, v] = g_->endpoints(e);
  // e lies on the canonical s->t path iff it is a tree edge whose deeper
  // endpoint is an ancestor of t; its row position is dist(child) - 1.
  Vertex child = kNoVertex;
  if (rt.tree.parent_edge(u) == e) child = u;
  if (rt.tree.parent_edge(v) == e) child = v;
  if (child == kNoVertex || !rt.anc.is_ancestor(child, t)) return rt.tree.dist(t);
  const std::uint32_t pos = rt.tree.dist(child) - 1;
  const auto& off = row_offset_[si];
  return rows_[si][off[t] + pos];
}

}  // namespace msrp
