// Exact MSRP algorithms beside the paper's solve_msrp (core/msrp.hpp), which
// stays the library's implementation of the paper: msrp_cli and the benches
// run it, and the Determinism tests pin its rows.
//
//  * solve_msrp_brute_force — one BFS per (source, tree edge): O(sigma n m).
//    Exact and deterministic; the correctness oracle for every test and the
//    "naive" series in EXP-1/EXP-3.
//  * solve_msrp_per_pair — the "inefficient algorithm" of Section 3: run the
//    classical single-pair replacement-path algorithm [21, 20, 22] for every
//    (s, t) pair: O~(sigma n (m + n)). Exact and deterministic; the
//    crossover baseline in EXP-3.
//  * solve_msrp_subtree — the exact table the query service serves. When
//    tree edge e = (p, c) of T_s fails, only targets in subtree(c) change
//    (the single-pair observation of Malik–Mittal–Gupta and
//    Hershberger–Suri), so each column is one BFS inside subtree(c),
//    seeded from the arcs that leave it. Per source that is
//    sum_t deg(t) * depth(t) arc visits, so O(sigma n^2) in all for
//    m = O(n), and O(sigma m depth) at worst, where the paper's
//    m sqrt(n sigma) term wins asymptotically. Deterministic, with O(n)
//    scratch per pool participant besides the output; bit-identical at
//    any pool size.
//
// All three return the same MsrpResult shape as solve_msrp. An exact table
// is unique, so their rows equal solve_msrp's whenever that build is exact
// (always for Config::exact, with high probability otherwise).
#pragma once

#include "core/result.hpp"

namespace msrp {

class ThreadPool;

MsrpResult solve_msrp_brute_force(const Graph& g, const std::vector<Vertex>& sources);

MsrpResult solve_msrp_per_pair(const Graph& g, const std::vector<Vertex>& sources);

/// Runs its (source, column chunk) work items on `pool` beside the calling
/// thread (maybe_parallel_for); null runs them on the caller alone.
MsrpResult solve_msrp_subtree(const Graph& g, const std::vector<Vertex>& sources,
                              ThreadPool* pool = nullptr);

}  // namespace msrp
