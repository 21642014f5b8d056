#include "core/landmarks.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace msrp {

LevelSets::LevelSets(const Params& params, const std::vector<Vertex>& forced, Rng& rng) {
  const Vertex n = params.n();
  priority_.assign(n, -1);
  levels_.resize(params.num_levels() + 1);

  for (std::uint32_t k = 0; k <= params.num_levels(); ++k) {
    const double p = params.sample_prob(k);
    for (Vertex v = 0; v < n; ++v) {
      if (rng.next_bernoulli(p)) {
        levels_[k].push_back(v);
        priority_[v] = std::max(priority_[v], static_cast<std::int32_t>(k));
      }
    }
  }
  for (const Vertex v : forced) {
    MSRP_REQUIRE(v < n, "forced member out of range");
    if (priority_[v] < 0 ||
        std::find(levels_[0].begin(), levels_[0].end(), v) == levels_[0].end()) {
      levels_[0].push_back(v);
    }
    priority_[v] = std::max(priority_[v], 0);
  }
  std::sort(levels_[0].begin(), levels_[0].end());
  levels_[0].erase(std::unique(levels_[0].begin(), levels_[0].end()), levels_[0].end());

  for (Vertex v = 0; v < n; ++v) {
    if (priority_[v] >= 0) members_.push_back(v);
  }
}

const RootedTree& TreePool::existing(Vertex v) const {
  MSRP_REQUIRE(v < slot_.size() && slot_[v] != kNoSlot, "tree was never built");
  return *trees_[slot_[v]];
}

void TreePool::ensure(const std::vector<Vertex>& roots, ThreadPool* exec, TreeParts parts) {
  // Check every root before claiming any slot, so a rejected call leaves the
  // pool as it was.
  for (const Vertex v : roots) {
    MSRP_REQUIRE(v < slot_.size(), "root out of range");
    MSRP_REQUIRE(slot_[v] == kNoSlot || trees_[slot_[v]]->parts >= parts,
                 "tree was built with fewer parts");
  }
  // Claim slots sequentially (deterministic pool layout), then build the
  // missing trees — each an independent BFS, plus the DFS-stamp pass if kept
  // — in parallel.
  std::vector<std::pair<Vertex, std::uint32_t>> missing;
  for (const Vertex v : roots) {
    if (slot_[v] != kNoSlot) continue;
    slot_[v] = static_cast<std::uint32_t>(trees_.size());
    trees_.emplace_back();  // filled below
    missing.emplace_back(v, slot_[v]);
  }
  std::vector<BfsTree> scratch(exec != nullptr ? exec->max_parallelism() : 1);
  maybe_parallel_for(exec, missing.size(), [&](std::size_t i, std::size_t participant) {
    const auto [v, slot] = missing[i];
    BfsTree& bfs = scratch[participant];
    bfs.rebuild(*g_, v);
    trees_[slot] = std::make_unique<RootedTree>(bfs, parts);
  });
}

std::size_t TreePool::bytes() const {
  std::size_t total = 0;
  for (const auto& tree : trees_) total += tree->bytes();
  return total;
}

}  // namespace msrp
