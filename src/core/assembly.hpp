// Sections 6 and 7: assembling the final replacement rows for one source.
//
// Given the preprocessing products — the landmark hierarchy with its BFS
// trees, the d(s, r, e) table, and the Section 7.1 near-small values — this
// walks every target's canonical path and fills d(s, t, e) for every edge:
//
//   * far edges (Algorithm 3): e in bucket k, scan L_k members r with
//     d(r, t) <= 2^k T; candidate d(s, r, e) + d(r, t). Lemma 9 guarantees a
//     witness whp; the distance filter guarantees r's canonical path to t
//     cannot cross e, so every candidate is realizable.
//   * near edges, small paths: the Section 7.1 Dijkstra value (exact for
//     small paths by Lemma 10, an upper bound otherwise).
//   * near edges, large paths (Algorithm 4): scan L_0 members r with
//     d(r, t) <= T and e not on the canonical rt path (O(1) ancestor check
//     in T_r); candidate d(s, r, e) + d(r, t) (Lemmas 11–13).
//
// Every candidate is the length of a genuine e-avoiding path, so the
// assembled row is always an upper bound on the truth and equals it whp.
//
// Loop order. The targets of a chunk are swept landmark-major: per level
// k, per landmark r, per target t, so the d(r, t) reads are contiguous and
// T_r stays in cache across the chunk. Per (r, t) pair, the path edges
// that lie on the canonical sr path form a prefix; one binary search over
// the T_s stamps of the path's children finds its end, and the candidates
// are the d(s, r, *) cells below it and |sr| + d(r, t) from it on. The
// Algorithm 4 guard is evaluated only for a candidate below the current
// cell. Each cell is the min over a fixed candidate set, and a candidate
// that cannot lower the cell cannot change the min, so neither the order
// nor the lazy guard nor the chunking changes a single cell.
#pragma once

#include "core/config.hpp"
#include "core/landmark_rp.hpp"
#include "core/landmarks.hpp"
#include "core/near_small.hpp"
#include "core/result.hpp"

namespace msrp {

/// Fills result rows for source index `si`, targets [t_begin, t_end), from
/// all three candidate classes. Each target's row is independent, so the
/// engine splits a source's targets into chunks and assembles them in
/// parallel — any chunking produces the same rows.
void assemble_source_rows(const Graph& g, std::uint32_t si, const RootedTree& rs,
                          const LevelSets& landmarks, const TreePool& pool,
                          const LandmarkRpTable& dsr, const NearSmall& near_small,
                          const Params& params, MsrpResult& result, Vertex t_begin,
                          Vertex t_end);

}  // namespace msrp
