#include "service/shard_plan.hpp"

#include <algorithm>

namespace msrp::service {

ShardPlan ShardPlan::build(const Snapshot& oracle, unsigned shards) {
  const std::uint32_t sigma = oracle.num_sources();
  MSRP_REQUIRE(shards >= 1, "shard plan: need at least one shard");
  const unsigned k_total = std::min<unsigned>(shards, sigma);

  std::uint64_t remaining = 0;
  std::vector<std::uint64_t> weight(sigma);
  for (std::uint32_t si = 0; si < sigma; ++si) {
    // +n so that sources with tiny tables (near the root of a star, say)
    // still carry the fixed per-source cost of their tree arrays.
    weight[si] = oracle.raw_rows(si).size() + oracle.num_vertices();
    remaining += weight[si];
  }

  // Greedy contiguous split: each shard takes sources until it reaches the
  // average of what is left, but always leaves enough behind for the later
  // shards to be non-empty. Not optimal, but within one source's weight of
  // the balanced partition — good enough for a routing plan.
  ShardPlan plan;
  plan.begin_.reserve(k_total + 1);
  plan.cells_.reserve(k_total);
  plan.owner_.assign(sigma, 0);
  std::uint32_t idx = 0;
  for (unsigned k = 0; k < k_total; ++k) {
    plan.begin_.push_back(idx);
    const unsigned shards_left = k_total - k;
    const std::uint32_t max_end = sigma - (shards_left - 1);
    const std::uint64_t target = (remaining + shards_left - 1) / shards_left;
    std::uint64_t taken = 0;
    while (idx < max_end && (taken == 0 || taken + weight[idx] <= target)) {
      taken += weight[idx];
      plan.owner_[idx] = k;
      ++idx;
    }
    remaining -= taken;
    plan.cells_.push_back(taken);
  }
  plan.begin_.push_back(sigma);
  MSRP_CHECK(idx == sigma, "shard plan: partition must cover every source");
  return plan;
}

}  // namespace msrp::service
