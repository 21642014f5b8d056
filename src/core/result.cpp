#include "core/result.hpp"

namespace msrp {

MsrpResult::MsrpResult(const Graph& g, std::vector<Vertex> sources) {
  trees_.reserve(sources.size());
  for (const Vertex s : sources) {
    MSRP_REQUIRE(s < g.num_vertices(), "source out of range");
    trees_.emplace_back(g, s);
  }
  table_ = service::Snapshot(g, std::move(sources), trees_);
}

}  // namespace msrp
