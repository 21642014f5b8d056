#include <algorithm>

#include "baseline/baselines.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

/// Cells per work item: a chunk of consecutive preorder column roots is
/// closed once its subtrees hold this many targets. Fixed, not derived from
/// the pool size: every column writes only its own cells, so any chunking
/// gives the same bytes.
constexpr std::uint64_t kChunkCells = std::uint64_t{1} << 15;

/// T_s in preorder. Subtree(v) is the preorder interval
/// [pre[v], pre[v] + size[pre[v]]).
struct PreorderTree {
  std::vector<std::uint32_t> pre;   // vertex -> preorder rank (reachable only)
  std::vector<Vertex> by_pre;       // rank -> vertex
  std::vector<std::uint32_t> size;  // rank -> subtree size
};

/// The DFS stamps count entries and exits on one clock, so a vertex at
/// depth d entered before `rank` others has tin = 2 * rank - d, and its
/// subtree of z vertices spans 2z stamps.
PreorderTree preorder(const RootedTree& rt) {
  const auto& order = rt.tree.order();
  PreorderTree pt;
  pt.pre.assign(rt.tree.num_vertices(), 0);
  pt.by_pre.resize(order.size());
  pt.size.resize(order.size());
  for (const Vertex v : order) {
    const std::uint32_t tin = rt.anc.tin(v);
    const std::uint32_t rank = (tin + rt.tree.dist(v)) / 2;
    pt.pre[v] = rank;
    pt.by_pre[rank] = v;
    pt.size[rank] = (rt.anc.tout(v) - tin + 1) / 2;
  }
  return pt;
}

/// One participant's buffers, indexed by a target's offset in the column's
/// preorder interval.
struct ColumnScratch {
  std::vector<Dist> d;               // best known d(s, t, e)
  std::vector<std::uint64_t> seeds;  // (seed << 32 | offset), sorted
  std::vector<std::uint32_t> count;  // counting-sort buckets
  std::vector<std::uint32_t> fifo;   // BFS queue of offsets
};

/// Writes column e = (parent(c), c) of source si: d(s, t, e) for every t in
/// subtree(c), at row position dist(c) - 1. Only those targets' paths use
/// e. A target t first gets the best way out of the subtree, min dist(u) + 1
/// over its arcs (t, u) other than e with u outside: T_s's path to u avoids
/// e. One BFS inside the subtree, merging the sorted seeds with its FIFO,
/// then settles the rest. A target that no seed reaches is cut off by e and
/// keeps kInfDist.
void solve_column(const Graph& g, const BfsTree& tree, const PreorderTree& pt,
                  std::uint32_t root_rank, std::uint32_t si, ColumnScratch& sc,
                  MsrpResult& result) {
  const std::uint32_t r = root_rank;
  const std::uint32_t z = pt.size[r];
  const Vertex c = pt.by_pre[r];
  const EdgeId e = tree.parent_edge(c);
  const Dist base = tree.dist(c);
  const auto inside = [&](Vertex u) { return pt.pre[u] - r < z; };

  Dist top = base;
  for (std::uint32_t i = 0; i < z; ++i) {
    Dist best = kInfDist;
    for (const Arc& a : g.neighbors(pt.by_pre[r + i])) {
      if (a.edge == e || inside(a.to)) continue;
      best = std::min(best, tree.dist(a.to) + 1);
    }
    sc.d[i] = best;
    if (best != kInfDist) top = std::max(top, best);
  }

  // Counting sort by seed. A seed lies in [dist(t), dist(t) + 2], so the
  // buckets span no more than the subtree's height plus three.
  std::fill(sc.count.begin(), sc.count.begin() + (top - base + 2), 0);
  for (std::uint32_t i = 0; i < z; ++i) {
    if (sc.d[i] != kInfDist) ++sc.count[sc.d[i] - base + 1];
  }
  for (Dist b = 1; b <= top - base + 1; ++b) sc.count[b] += sc.count[b - 1];
  const std::uint32_t num_seeds = sc.count[top - base + 1];
  for (std::uint32_t i = 0; i < z; ++i) {
    if (sc.d[i] == kInfDist) continue;
    sc.seeds[sc.count[sc.d[i] - base]++] = std::uint64_t{sc.d[i]} << 32 | i;
  }

  // Each pop takes the smaller of the next seed and the FIFO front, so
  // targets settle in nondecreasing order. The FIFO only takes strict
  // improvements; a seed whose target was improved since is stale.
  std::uint32_t head = 0, tail = 0, next = 0;
  while (next < num_seeds || head < tail) {
    std::uint32_t i;
    const bool from_fifo =
        head < tail && (next == num_seeds || sc.d[sc.fifo[head]] <= sc.seeds[next] >> 32);
    if (from_fifo) {
      i = sc.fifo[head++];
    } else {
      i = static_cast<std::uint32_t>(sc.seeds[next]);
      if (sc.d[i] < sc.seeds[next++] >> 32) continue;
    }
    const Dist via = sc.d[i] + 1;
    for (const Arc& a : g.neighbors(pt.by_pre[r + i])) {
      const std::uint32_t j = pt.pre[a.to] - r;
      if (j < z && via < sc.d[j]) {
        sc.d[j] = via;
        sc.fifo[tail++] = j;
      }
    }
  }

  for (std::uint32_t i = 0; i < z; ++i) {
    result.mutable_row(si, pt.by_pre[r + i])[base - 1] = sc.d[i];
  }
}

}  // namespace

MsrpResult solve_msrp_subtree(const Graph& g, const std::vector<Vertex>& sources,
                              ThreadPool* pool) {
  MsrpResult result(g, sources);
  std::vector<PreorderTree> trees;
  trees.reserve(sources.size());
  for (const Vertex s : sources) trees.push_back(preorder(result.rooted(s)));

  // Work items: (source, run of consecutive preorder column roots). Rank 0
  // is the source itself, which has no parent edge.
  struct Item {
    std::uint32_t si, begin, end;
  };
  std::vector<Item> items;
  for (std::uint32_t si = 0; si < trees.size(); ++si) {
    const PreorderTree& pt = trees[si];
    const auto reached = static_cast<std::uint32_t>(pt.by_pre.size());
    std::uint64_t cells = 0;
    std::uint32_t begin = 1;
    for (std::uint32_t r = 1; r < reached; ++r) {
      cells += pt.size[r];
      if (cells >= kChunkCells || r + 1 == reached) {
        items.push_back({si, begin, r + 1});
        begin = r + 1;
        cells = 0;
      }
    }
  }

  const Vertex n = g.num_vertices();
  std::vector<ColumnScratch> scratch(pool != nullptr ? pool->max_parallelism() : 1);
  maybe_parallel_for(pool, items.size(), [&](std::size_t k, std::size_t slot) {
    ColumnScratch& sc = scratch[slot];
    if (sc.d.empty()) {
      sc.d.resize(n);
      sc.seeds.resize(n);
      sc.count.resize(std::size_t{n} + 2);
      sc.fifo.resize(n);
    }
    const Item& it = items[k];
    const BfsTree& tree = result.tree(sources[it.si]);
    for (std::uint32_t r = it.begin; r < it.end; ++r) {
      solve_column(g, tree, trees[it.si], r, it.si, sc, result);
    }
  });
  return result;
}

}  // namespace msrp
