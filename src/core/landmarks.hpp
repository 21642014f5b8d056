// Landmark and center hierarchies (Definition 3, Section 8) and the pool of
// rooted BFS trees shared between them.
//
// L_k and C_k are independent samples of V with probability p_k (Params).
// L additionally contains every source; C_0 additionally contains every
// source. A vertex sampled at several levels has *priority* = its highest
// level (Section 8's "a center is said to have priority k if it lies in C_k").
//
// Every distinct landmark or center root needs one BFS tree; a vertex
// frequently plays several roles, so the trees live in a TreePool keyed by
// root vertex and are built exactly once. There are O~(sqrt(n*sigma)) of
// them, n vertices each: the build's largest memory term. So each tree keeps
// only the arrays its build method reads (TreePool::ensure, TreeParts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "tree/ancestry.hpp"
#include "util/rng.hpp"

namespace msrp {

class ThreadPool;  // util/thread_pool.hpp

/// One sampled hierarchy (used for both landmarks and centers).
class LevelSets {
 public:
  /// Samples each level with Params::sample_prob; `forced` vertices (the
  /// sources) are added to level 0 and always present.
  LevelSets(const Params& params, const std::vector<Vertex>& forced, Rng& rng);

  /// All members, deduplicated, sorted by vertex id.
  const std::vector<Vertex>& members() const { return members_; }

  /// Members of level k (a vertex can appear in several levels).
  const std::vector<Vertex>& level(std::uint32_t k) const { return levels_[k]; }

  std::uint32_t num_levels() const { return static_cast<std::uint32_t>(levels_.size()); }

  bool contains(Vertex v) const { return priority_[v] >= 0; }

  /// Highest level containing v; -1 if v is not a member.
  std::int32_t priority(Vertex v) const { return priority_[v]; }

 private:
  std::vector<std::vector<Vertex>> levels_;
  std::vector<Vertex> members_;
  std::vector<std::int32_t> priority_;
};

/// RootedTree per distinct root, each keeping the TreeParts it was built
/// with. The MMG build keeps kGuard for level-0 landmarks and kDist for the
/// rest (16 and 4 B per vertex); BK keeps kFull (24 B), the default.
class TreePool {
 public:
  explicit TreePool(const Graph& g) : g_(&g), slot_(g.num_vertices(), kNoSlot) {}

  /// Returns the tree rooted at v, which must already exist.
  const RootedTree& existing(Vertex v) const;

  /// Builds a tree keeping `parts` for every vertex in `roots` that has none;
  /// one that has a tree must already hold at least `parts` (MSRP_REQUIRE:
  /// a tree is never rebuilt). Each BFS runs in a scratch tree reused per
  /// participant, and only the kept arrays are copied out, at exact size.
  /// With a pool, the (fully independent) builds run in parallel; slot
  /// indices are assigned sequentially first, so the pool's layout — and
  /// every tree — is identical to the sequential build.
  void ensure(const std::vector<Vertex>& roots, ThreadPool* exec = nullptr,
              TreeParts parts = TreeParts::kFull);

  std::size_t size() const { return trees_.size(); }

  /// Heap bytes held by the trees' arrays.
  std::size_t bytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  const Graph* g_;
  std::vector<std::uint32_t> slot_;
  // deque-like stability: RootedTree is large, store by unique_ptr
  std::vector<std::unique_ptr<RootedTree>> trees_;
};

}  // namespace msrp
