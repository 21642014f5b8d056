#include "tree/ancestry.hpp"

namespace msrp {

// The stamps are those of a DFS that visits each vertex's children in BFS
// discovery order, with one counter shared by entries and exits. They are
// computed without the DFS: a subtree of size z spans 2z consecutive
// stamps, so a vertex's children take consecutive blocks after its own tin.
AncestorIndex::AncestorIndex(const BfsTree& tree) {
  const Vertex n = tree.num_vertices();
  const auto& order = tree.order();
  tin_.assign(n, kNoStamp);
  tout_.assign(n, kNoStamp);

  // Reverse BFS order sees every child before its parent: tout_ holds
  // subtree sizes after this pass.
  for (const Vertex v : order) tout_[v] = 1;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Vertex p = tree.parent(*it);
    if (p != kNoVertex) tout_[p] += tout_[*it];
  }

  // Forward pass: once v has its tin, tout_[v] becomes the cursor where v's
  // next child starts. Each child advances it by 2 * size(child), so after
  // the last child it rests on tin(v) + 2 * size(v) - 1, which is tout(v).
  tin_[tree.root()] = 0;
  tout_[tree.root()] = 1;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Vertex v = order[i];
    std::uint32_t& cursor = tout_[tree.parent(v)];
    const std::uint32_t size = tout_[v];
    tin_[v] = cursor;
    cursor += 2 * size;
    tout_[v] = tin_[v] + 1;
  }
}

RootedTree::RootedTree(const BfsTree& built, TreeParts keep) : parts(keep) {
  tree.root_ = built.root_;
  tree.dist_ = built.dist_;
  if (keep >= TreeParts::kGuard) {
    tree.parent_edge_ = built.parent_edge_;
    anc = AncestorIndex(built);
  }
  if (keep == TreeParts::kFull) {
    tree.parent_ = built.parent_;
    tree.order_ = built.order_;
  }
}

}  // namespace msrp
