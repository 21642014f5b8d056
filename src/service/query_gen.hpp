/// \file
/// Uniform random query generation against an oracle's dimensions.
///
/// Every surface that load-tests the serving stack — msrp_serve
/// --random-queries, the msrp_client load generator (which only knows the
/// server HELLO, not the oracle), bench rows, test fixtures — wants the
/// the same thing: `count` queries with a uniform source and target plus the
/// workload's own uniform extra (an edge, a k, a failure set).
/// One definition here keeps their sampling identical, so a change to the
/// distribution changes every consumer at once.
#pragma once

#include <span>
#include <vector>

#include "service/workloads.hpp"
#include "util/rng.hpp"

namespace msrp::service {

/// `count` uniform queries of workload W over (sources, n vertices, m
/// edges), drawn by the trait's random(). Callers own the Rng so repeat
/// batches can continue one stream (or reseed for reproducibility).
template <class W = Point>
std::vector<typename W::Query> random_query_batch(std::span<const Vertex> sources, Vertex n,
                                                  EdgeId m, std::size_t count, Rng& rng) {
  std::vector<typename W::Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(W::random(sources, n, m, rng));
  return out;
}

}  // namespace msrp::service
