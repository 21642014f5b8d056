#include "core/assembly.hpp"

#include <algorithm>

namespace msrp {
namespace {

/// One reachable target of the chunk. Its canonical path occupies
/// [base, base + depth) of the chunk-local path arrays.
struct Target {
  Vertex t;
  std::uint32_t depth;
  std::uint32_t first_near;
  std::size_t base;
  Dist* row;
};

}  // namespace

void assemble_source_rows(const Graph& g, std::uint32_t si, const RootedTree& rs,
                          const LevelSets& landmarks, const TreePool& pool,
                          const LandmarkRpTable& dsr, const NearSmall& near_small,
                          const Params& params, MsrpResult& result, Vertex t_begin,
                          Vertex t_end) {
  const BfsTree& ts = rs.tree;
  const std::uint32_t levels = params.num_levels();

  // ---- per target: flatten the path, fold in the near-small values -------
  // Position pos holds the path edge whose child (deeper endpoint) has
  // dist_s == pos + 1; the child's T_s stamps answer "is this edge on the
  // canonical sr path?" as an ancestor test against r's stamps.
  std::vector<Target> targets;
  std::vector<EdgeId> path_edge;
  std::vector<std::uint32_t> path_tin, path_tout;
  for (Vertex t = t_begin; t < t_end; ++t) {
    const Dist depth = ts.dist(t);
    if (depth == kInfDist || depth == 0) continue;
    const std::size_t base = path_edge.size();
    path_edge.resize(base + depth);
    path_tin.resize(base + depth);
    path_tout.resize(base + depth);
    Vertex v = t;
    for (std::uint32_t pos = depth; pos-- > 0;) {
      path_edge[base + pos] = ts.parent_edge(v);
      path_tin[base + pos] = rs.anc.tin(v);
      path_tout[base + pos] = rs.anc.tout(v);
      v = ts.parent(v);
    }
    const std::uint32_t first_near = near_small.first_near_pos(t);
    Dist* row = result.mutable_row(si, t).data();
    for (std::uint32_t pos = first_near; pos < depth; ++pos) {
      row[pos] = std::min(row[pos], near_small.value(t, pos));
    }
    targets.push_back({t, depth, first_near, base, row});
  }
  const std::size_t nt = targets.size();

  // ---- far buckets ---------------------------------------------------------
  // The edge at position pos has |et| = depth - pos - 1; far means >= 2T.
  // Bucket k covers |et| in [2^{k+1} T, 2^{k+2} T), and the top bucket
  // absorbs everything beyond the sampled levels. In positions, bucket k of
  // target i is [cut[(k + 1) * nt + i], cut[k * nt + i]), with
  // cut[i] = first_near.
  std::vector<std::uint32_t> cut((levels + 2) * nt);
  std::vector<bool> level_has_far(levels + 1, false);
  for (std::size_t i = 0; i < nt; ++i) cut[i] = targets[i].first_near;
  for (std::uint32_t k = 0; k <= levels; ++k) {
    const std::uint64_t upper_et =
        (k == levels) ? std::uint64_t{kInfDist} : std::uint64_t{4} * params.far_radius(k);
    for (std::size_t i = 0; i < nt; ++i) {
      // |et| < upper_et  <=>  pos >= depth - upper_et.
      const std::uint64_t depth = targets[i].depth;
      const std::uint32_t hi = cut[k * nt + i];
      const auto lo = static_cast<std::uint32_t>(
          depth > upper_et ? std::min<std::uint64_t>(hi, depth - upper_et) : 0);
      cut[(k + 1) * nt + i] = lo;
      if (lo < hi) level_has_far[k] = true;
    }
  }

  // ---- landmark-major sweep: level k, landmark r, target t -----------------
  // Level 0 also serves the near edges (Algorithm 4): its radius 2^0 T = T
  // is Lemma 12's bound on d(r, t) for a near-edge witness.
  for (std::uint32_t k = 0; k <= levels; ++k) {
    if (k > 0 && !level_has_far[k]) continue;
    const Dist radius = params.far_radius(k);
    const std::uint32_t* far_hi = cut.data() + k * nt;
    const std::uint32_t* far_lo = cut.data() + (k + 1) * nt;
    for (const Vertex r : landmarks.level(k)) {
      const RootedTree& tr = pool.existing(r);
      const Dist* dist_r = tr.tree.dists().data();
      // An r unreachable from s is unreachable from every target, so the
      // radius test below drops it before its (empty) row is touched.
      const Dist dist_sr = ts.dist(r);
      const std::uint32_t tin_r = rs.anc.tin(r);
      const std::uint32_t tout_r = rs.anc.tout(r);
      const auto li = static_cast<std::uint32_t>(dsr.landmark_index(r));
      const Dist* rrow = dsr.row(si, li).data();

      for (std::size_t i = 0; i < nt; ++i) {
        const Target& tg = targets[i];
        const Dist drt = dist_r[tg.t];
        if (drt > radius) continue;
        const std::uint32_t lo = far_lo[i];
        const std::uint32_t hi = (k == 0) ? tg.depth : far_hi[i];  // + near at k = 0
        if (lo == hi) continue;  // far bucket k of t is empty
        Dist* row = tg.row;
        const std::uint32_t* tin_c = path_tin.data() + tg.base;
        const std::uint32_t* tout_c = path_tout.data() + tg.base;

        // Shared prefix: the path edges on the canonical sr path are those
        // whose child is an ancestor of r in T_s. The children are nested,
        // so they form a prefix [0, lca); binary-search its end in [lo, hi].
        std::uint32_t lca = lo;
        for (std::uint32_t end = hi; lca < end;) {
          const std::uint32_t mid = lca + (end - lca) / 2;
          if (tin_c[mid] <= tin_r && tout_r <= tout_c[mid]) {
            lca = mid + 1;
          } else {
            end = mid;
          }
        }
        // Candidate d(s, r, e) + d(r, t): the stored row cell below lca,
        // |sr| + d(r, t) from lca on.
        const Dist beyond = sat_add(dist_sr, drt);

        // Far edges (Algorithm 3). No on-path check is needed: d(r, t) <=
        // 2^k T < 2^{k+1} T <= |et|, so no shortest rt path can cross e.
        // drt is finite, so a 64-bit sum at or past kInfDist never wins the
        // min: the saturation of sat_add is implicit.
        const std::uint32_t far_end = far_hi[i];
        const std::uint32_t split = std::min(lca, far_end);
        for (std::uint32_t p = lo; p < split; ++p) {
          const std::uint64_t cand = std::uint64_t{rrow[p]} + drt;
          row[p] = static_cast<Dist>(std::min<std::uint64_t>(row[p], cand));
        }
        for (std::uint32_t p = split; p < far_end; ++p) row[p] = std::min(row[p], beyond);

        // Near edges (Algorithm 4): e must avoid the canonical rt path.
        // The guard is evaluated only for a candidate that would lower the
        // cell; one that cannot lower it cannot change the min either way.
        if (k != 0) continue;
        const auto relax_near = [&](std::uint32_t p, Dist cand) {
          if (cand >= row[p]) return;
          const EdgeId e = path_edge[tg.base + p];
          const auto [eu, ev] = g.endpoints(e);
          if (!tr.edge_on_path_to(e, eu, ev, tg.t)) row[p] = cand;
        };
        const std::uint32_t near_split = std::max(lca, tg.first_near);
        for (std::uint32_t p = tg.first_near; p < near_split; ++p) {
          relax_near(p, sat_add(rrow[p], drt));
        }
        for (std::uint32_t p = near_split; p < tg.depth; ++p) relax_near(p, beyond);
      }
    }
  }
}

}  // namespace msrp
