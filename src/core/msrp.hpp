/// \file
/// Public entry point: the Multiple Source Replacement Path solver
/// (Theorem 26 — the O~(m sqrt(n sigma) + sigma n^2) whp-exact algorithm).
///
/// Usage:
/// \code
///   msrp::Graph g = msrp::gen::connected_gnp(1000, 0.01, rng);
///   msrp::MsrpResult res = msrp::solve_msrp(g, {3, 77, 512});
///   for (msrp::EdgeId e : res.tree(3).path_edges(t))
///     use(res.avoiding(3, t, e));
/// \endcode
///
/// The solver is Monte Carlo: with the default configuration every returned
/// value is the length of a genuine replacement path (never too small) and
/// is exactly optimal with high probability. Config::exact = true switches
/// to a deterministic exact mode (slower; used as a cross-check).
///
/// Builds parallelize over Config::build_threads and are bit-identical to
/// sequential runs; see docs/ARCHITECTURE.md for the phase structure and
/// the determinism argument.
#pragma once

#include "core/config.hpp"
#include "core/result.hpp"

namespace msrp {

/// Solves MSRP: for every source s, target t, and edge e on the canonical
/// s->t path, the length of the shortest s->t path avoiding e.
/// \param g        undirected unweighted graph (CSR; not stored in the result)
/// \param sources  distinct source vertices (the result's sigma)
/// \param cfg      solver knobs; the default is the paper's whp-exact mode
/// \return the solved oracle: trees, replacement rows, stats
MsrpResult solve_msrp(const Graph& g, const std::vector<Vertex>& sources,
                      const Config& cfg = {});

/// Single Source Replacement Paths (Theorem 14): the sigma = 1 special case.
MsrpResult solve_ssrp(const Graph& g, Vertex source, const Config& cfg = {});

}  // namespace msrp
