#include "core/landmark_rp.hpp"

#include <algorithm>
#include <bit>

#include "core/scratch.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

/// Interleaved copies of the range-min table. Consecutive candidates write
/// different copies, so a run of candidates hitting one hot cell does not
/// serialize on its store -> load chain.
constexpr std::uint32_t kCopies = 4;
static_assert(kCopies == 4, "cell_min reads four copies");

/// A non-tree edge (x, y) of T_s, as the per-pair pass reads it.
struct CrossEdge {
  std::uint32_t rank_x, rank_y;  // DFS preorder ranks in T_s
  Dist ds_x, ds_y;
  Vertex x, y;
};

/// v's DFS preorder rank in T_s. tin(v) counts the entries and exits made
/// before v is entered; the exits are all of the entries except those of
/// v's depth(v) ancestors, so tin(v) = 2 * rank - depth(v).
std::uint32_t preorder_rank(const RootedTree& rs, Vertex v) {
  return (rs.anc.tin(v) + rs.dist(v)) / 2;
}

/// What one source's landmarks share. Only a non-tree edge can cross a cut
/// of the canonical s->r path (an off-path tree edge has both ends on one
/// side, and the path edge is the failed edge itself), and every crossing
/// edge has an endpoint below p_1, the root child on that path. So each
/// root child c keeps the non-tree edges with an endpoint in subtree(c),
/// and a pair reads only its p_1's list.
struct SourceIndex {
  std::vector<std::uint32_t> top;    // v -> slot of the root child above v
  std::vector<std::uint32_t> begin;  // slot -> first entry of its list
  std::vector<CrossEdge> edges;      // all lists, back to back
  std::vector<std::uint32_t> cursor;  // slot -> next free entry, during build()

  void build(const Graph& g, const RootedTree& rs) {
    const BfsTree& ts = rs.tree;
    const Vertex root = ts.root();
    top.resize(g.num_vertices());
    begin.assign(1, 0);
    for (const Vertex v : ts.order()) {
      const Vertex p = ts.parent(v);
      if (p == root) {
        top[v] = static_cast<std::uint32_t>(begin.size() - 1);
        begin.push_back(0);
      } else if (p != kNoVertex) {
        top[v] = top[p];
      }
    }
    // Counting sort by root child. Every neighbour of the root is its tree
    // child, so a non-tree edge never touches the root.
    auto for_each_non_tree = [&](auto&& fn) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto [x, y] = g.endpoints(e);
        if (!ts.reachable(x) || ts.parent_edge(x) == e || ts.parent_edge(y) == e) continue;
        fn(x, y);
      }
    };
    for_each_non_tree([&](Vertex x, Vertex y) {
      ++begin[top[x] + 1];
      if (top[y] != top[x]) ++begin[top[y] + 1];
    });
    for (std::size_t c = 1; c < begin.size(); ++c) begin[c] += begin[c - 1];
    edges.resize(begin.back());
    cursor.assign(begin.begin(), begin.end() - 1);
    for_each_non_tree([&](Vertex x, Vertex y) {
      const CrossEdge ce{preorder_rank(rs, x), preorder_rank(rs, y), ts.dist(x), ts.dist(y),
                         x, y};
      edges[cursor[top[x]]++] = ce;
      if (top[y] != top[x]) edges[cursor[top[y]]++] = ce;
    });
  }
};

/// Writes d(s, r, e_i) for every edge e_i = (p_i, p_{i+1}) of the canonical
/// s->r path p_0 .. p_L into `row` (pre-sized to L). By the MMG theorem the
/// answer at i is the least d_s(u) + 1 + d_r(w) over edges (u, w) with
/// f(u) <= i < f(w), where f(v) is the index of v's deepest ancestor on the
/// path: an offline range-min over the candidates' intervals [f(u), f(w)).
void fill_row(const SourceIndex& idx, const RootedTree& rs, const BfsTree& tr,
              BuildScratch& s, std::vector<Dist>& row) {
  const BfsTree& ts = rs.tree;
  const auto num_pos = static_cast<std::uint32_t>(row.size());  // L
  s.path.resize(num_pos + 1);
  Vertex v = tr.root();
  for (std::uint32_t j = num_pos; j >= 1; --j, v = ts.parent(v)) s.path[j] = v;

  // f by rank over subtree(p_1); zero elsewhere. subtree(p_{j+1}) nests in
  // subtree(p_j), so layer j is the two rank ranges between them.
  auto rank_begin = [&](Vertex u) { return preorder_rank(rs, u); };
  auto rank_end = [&](Vertex u) {
    return rank_begin(u) + (rs.anc.tout(u) - rs.anc.tin(u) + 1) / 2;  // + subtree size
  };
  std::uint32_t* f = s.mmg_layer.data();
  for (std::uint32_t j = 1; j < num_pos; ++j) {
    const Vertex pj = s.path[j], pk = s.path[j + 1];
    std::fill(f + rank_begin(pj), f + rank_begin(pk), j);
    std::fill(f + rank_end(pk), f + rank_end(pj), j);
  }
  std::fill(f + rank_begin(s.path[num_pos]), f + rank_end(s.path[num_pos]), num_pos);

  // Sparse table: level k holds blocks [i, i + 2^k) for i in [0, L - 2^k];
  // cell `dump` absorbs the edges that cross no cut.
  const auto levels = static_cast<std::uint32_t>(std::bit_width(num_pos));
  std::uint32_t base[33];
  base[0] = 0;
  for (std::uint32_t k = 0; k < levels; ++k) base[k + 1] = base[k] + num_pos - (1u << k) + 1;
  const std::uint32_t dump = base[levels];
  s.mmg_table.assign(static_cast<std::size_t>(dump + 1) * kCopies, kInfDist);
  Dist* tab = s.mmg_table.data();

  // Each candidate interval [lo, hi) is the union of two overlapping blocks
  // of length 2^k, k = floor(log2(hi - lo)).
  const Dist* dr = tr.dists().data();
  const std::uint32_t slot = idx.top[s.path[1]];
  const CrossEdge* e = idx.edges.data() + idx.begin[slot];
  const CrossEdge* e_end = idx.edges.data() + idx.begin[slot + 1];
  for (std::uint32_t copy = 0; e != e_end; ++e, copy = (copy + 1) % kCopies) {
    const std::uint32_t fx = f[e->rank_x], fy = f[e->rank_y];
    const bool x_low = fx < fy;
    const std::uint32_t lo = x_low ? fx : fy, hi = x_low ? fy : fx;
    const Dist value = (x_low ? e->ds_x : e->ds_y) + 1 + dr[x_low ? e->y : e->x];
    const std::uint32_t len = hi - lo;
    const std::uint32_t k = static_cast<std::uint32_t>(std::bit_width(len | 1)) - 1;
    const std::uint32_t c1 = len != 0 ? base[k] + lo : dump;
    const std::uint32_t c2 = len != 0 ? base[k] + hi - (1u << k) : dump;
    Dist& a = tab[c1 * kCopies + copy];
    a = std::min(a, value);
    Dist& b = tab[c2 * kCopies + copy];
    b = std::min(b, value);
  }
  std::fill(f + rank_begin(s.path[1]), f + rank_end(s.path[1]), 0u);

  // Push each block down into its two halves, then read level 0.
  auto cell_min = [&](std::uint32_t c) {
    const Dist* p = tab + static_cast<std::size_t>(c) * kCopies;
    return std::min(std::min(p[0], p[1]), std::min(p[2], p[3]));
  };
  for (std::uint32_t k = levels - 1; k >= 1; --k) {
    const std::uint32_t half = 1u << (k - 1);
    for (std::uint32_t i = 0; i + (1u << k) <= num_pos; ++i) {
      const Dist m = cell_min(base[k] + i);
      Dist& left = tab[(base[k - 1] + i) * kCopies];
      left = std::min(left, m);
      Dist& right = tab[(base[k - 1] + i + half) * kCopies];
      right = std::min(right, m);
    }
  }
  for (std::uint32_t i = 0; i < num_pos; ++i) row[i] = cell_min(i);
}

}  // namespace

LandmarkRpTable::LandmarkRpTable(const Graph& g, std::vector<const RootedTree*> source_trees,
                                 const std::vector<Vertex>& landmark_list)
    : source_trees_(std::move(source_trees)), landmarks_(landmark_list) {
  lidx_.assign(g.num_vertices(), -1);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    lidx_[landmarks_[i]] = static_cast<std::int32_t>(i);
  }
  rows_.resize(source_trees_.size() * landmarks_.size());
  // Pre-size rows so mutable_row callers can write by position directly.
  for (std::uint32_t si = 0; si < source_trees_.size(); ++si) {
    const BfsTree& t = source_trees_[si]->tree;
    for (std::uint32_t li = 0; li < landmarks_.size(); ++li) {
      const Dist d = t.dist(landmarks_[li]);
      rows_[si * landmarks_.size() + li].assign(d == kInfDist ? 0 : d, kInfDist);
    }
  }
}

void LandmarkRpTable::fill_mmg(const Graph& g, TreePool& trees, ScratchPool& scratches,
                               ThreadPool* exec) {
  MSRP_REQUIRE(scratches.size() >= (exec != nullptr ? exec->max_parallelism() : 1),
               "fill_mmg needs one scratch per participant");
  // Build any missing landmark trees up front (in parallel if possible):
  // the pair loop below must only ever read the tree pool, and reads only
  // each landmark tree's root and dists.
  trees.ensure(landmarks_, exec, TreeParts::kDist);
  for (std::size_t i = 0; i < scratches.size(); ++i) {
    auto& layer = scratches.slot(i).mmg_layer;
    if (layer.size() < g.num_vertices()) layer.resize(g.num_vertices(), 0);
  }

  // Sources one at a time, each source's landmarks across the pool. Each
  // pair writes only its own row, and a row is a min over a fixed set of
  // candidates, so the table is bit-identical for any thread count.
  SourceIndex idx;
  const auto num_l = static_cast<std::uint32_t>(landmarks_.size());
  for (std::uint32_t si = 0; si < source_trees_.size(); ++si) {
    const RootedTree& rs = *source_trees_[si];
    idx.build(g, rs);
    maybe_parallel_for(exec, num_l, [&](std::size_t li, std::size_t slot) {
      std::vector<Dist>& row = mutable_row(si, static_cast<std::uint32_t>(li));
      if (row.empty()) return;  // r == s or r unreachable: no path edges
      fill_row(idx, rs, trees.existing(landmarks_[li]).tree, scratches.slot(slot), row);
    });
  }
}

}  // namespace msrp
