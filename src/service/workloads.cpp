#include "service/workloads.hpp"

#include <algorithm>
#include <memory>
#include <ostream>

#include "ftsub/kfail.hpp"
#include "service/query_service.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace msrp::service {

namespace {

void print_dist(std::ostream& os, Dist d) {
  if (d == kInfDist) {
    os << "inf";
  } else {
    os << d;
  }
}

Vertex random_source(std::span<const Vertex> sources, Rng& rng) {
  return sources[rng.next_below(sources.size())];
}

void require_endpoints(const Snapshot& oracle, Vertex s, Vertex t) {
  MSRP_REQUIRE(oracle.is_source(s), "workload query source is not an oracle source");
  MSRP_REQUIRE(t < oracle.num_vertices(), "workload query target out of range");
}

}  // namespace

// ------------------------------------------------------------------- Point ---

bool Point::parse(std::span<const std::uint32_t> fields, Query& q) {
  if (fields.size() != 3) return false;
  q = {fields[0], fields[1], fields[2]};
  return true;
}

void Point::print(std::ostream& os, const Query& q, Result d) {
  os << q.s << ' ' << q.t << ' ' << q.e << ' ';
  print_dist(os, d);
  os << '\n';
}

Point::Query Point::random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng) {
  Query q;
  q.s = random_source(sources, rng);
  q.t = static_cast<Vertex>(rng.next_below(n));
  q.e = static_cast<EdgeId>(rng.next_below(m));
  return q;
}

std::vector<Dist> Point::answer(QueryService& svc, const Snapshot& oracle,
                                std::span<const Query> queries, Deadline) {
  const Vertex n = oracle.num_vertices();
  const EdgeId m = oracle.num_edges();
  std::vector<Dist> out(queries.size());
  // Each chunk validates as it answers. parallel_for rethrows the failure
  // of the lowest chunk, and a chunk stops at its first invalid query, so
  // the error names the batch's first invalid query on any thread count.
  const std::size_t chunks = (queries.size() + kPointChunk - 1) / kPointChunk;
  maybe_parallel_for(&svc.pool(), chunks, [&](std::size_t c, std::size_t) {
    const std::size_t end = std::min(queries.size(), (c + 1) * kPointChunk);
    for (std::size_t i = c * kPointChunk; i < end; ++i) {
      const Query& q = queries[i];
      MSRP_REQUIRE(oracle.is_source(q.s), "query source is not an oracle source");
      MSRP_REQUIRE(q.t < n, "query target out of range");
      MSRP_REQUIRE(q.e < m, "query edge out of range");
      out[i] = oracle.avoiding_at(oracle.source_index(q.s), q.t, q.e);
    }
  });
  return out;
}

// ---------------------------------------------------------------- Vitality ---

bool Vitality::parse(std::span<const std::uint32_t> fields, Query& q) {
  if (fields.size() != 3) return false;
  q = {fields[0], fields[1], fields[2]};
  return true;
}

void Vitality::print(std::ostream& os, const Query& q, const Result& r) {
  os << q.s << ' ' << q.t << ' ' << q.k << ' ';
  print_dist(os, r.base);
  for (const VitalityEntry& e : r.edges) {
    os << ' ' << e.edge << ':' << e.position << ':';
    print_dist(os, e.replacement);
  }
  os << '\n';
}

Vitality::Query Vitality::random(std::span<const Vertex> sources, Vertex n, EdgeId,
                                 Rng& rng) {
  Query q;
  q.s = random_source(sources, rng);
  q.t = static_cast<Vertex>(rng.next_below(n));
  q.k = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  return q;
}

std::vector<VitalityResult> Vitality::answer(QueryService&, const Snapshot& oracle,
                                             std::span<const Query> queries, Deadline) {
  for (const Query& q : queries) {
    MSRP_REQUIRE(q.k >= 1 && q.k <= kMaxTopKVital, "vitality k out of range");
    require_endpoints(oracle, q.s, q.t);
  }
  // base is constant per query, so (vitality desc) == (replacement desc),
  // and kInfDist — a bridge — is already the largest Dist. Positions are
  // unique, so this is a strict total order: the same top k, in the same
  // order, as rp::most_vital_edges.
  const auto more_vital = [](const VitalityEntry& a, const VitalityEntry& b) {
    if (a.replacement != b.replacement) return a.replacement > b.replacement;
    return a.position < b.position;
  };
  std::vector<VitalityResult> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    VitalityResult& r = out[i];
    r.base = oracle.shortest(q.s, q.t);
    const std::span<const Dist> row = oracle.row(q.s, q.t);
    const std::vector<EdgeId> path = oracle.canonical_path(q.s, q.t);
    r.edges.resize(path.size());
    for (std::size_t j = 0; j < path.size(); ++j) {
      r.edges[j] = VitalityEntry{path[j], static_cast<std::uint32_t>(j), row[j]};
    }
    const auto top = r.edges.begin() + std::min<std::size_t>(q.k, r.edges.size());
    std::partial_sort(r.edges.begin(), top, r.edges.end(), more_vital);
    r.edges.erase(top, r.edges.end());
  }
  return out;
}

// ----------------------------------------------------------------- Vickrey ---

bool Vickrey::parse(std::span<const std::uint32_t> fields, Query& q) {
  if (fields.size() != 2) return false;
  q = {fields[0], fields[1]};
  return true;
}

void Vickrey::print(std::ostream& os, const Query& q, const Result& r) {
  os << q.s << ' ' << q.t << ' ';
  print_dist(os, r.base);
  for (const VickreyCharge& c : r.prices) {
    os << ' ' << c.edge << ':';
    print_dist(os, c.price);
  }
  os << '\n';
}

Vickrey::Query Vickrey::random(std::span<const Vertex> sources, Vertex n, EdgeId, Rng& rng) {
  Query q;
  q.s = random_source(sources, rng);
  q.t = static_cast<Vertex>(rng.next_below(n));
  return q;
}

std::vector<VickreyResult> Vickrey::answer(QueryService&, const Snapshot& oracle,
                                           std::span<const Query> queries, Deadline) {
  for (const Query& q : queries) require_endpoints(oracle, q.s, q.t);
  std::vector<VickreyResult> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    VickreyResult& r = out[i];
    r.base = oracle.shortest(q.s, q.t);
    const std::span<const Dist> row = oracle.row(q.s, q.t);
    const std::vector<EdgeId> path = oracle.canonical_path(q.s, q.t);
    r.prices.resize(path.size());
    for (std::size_t j = 0; j < path.size(); ++j) {
      r.prices[j] = VickreyCharge{path[j], row[j] == kInfDist ? kInfDist : row[j] - r.base};
    }
  }
  return out;
}

// ------------------------------------------------------------------- KFail ---

bool KFail::parse(std::span<const std::uint32_t> fields, Query& q) {
  if (fields.size() < 2 || fields.size() > 2 + kMaxKFailEdges) return false;
  q = {fields[0], fields[1], {fields.begin() + 2, fields.end()}};
  return true;
}

void KFail::print(std::ostream& os, const Query& q, Result d) {
  os << q.s << ' ' << q.t << ' ';
  if (q.fails.empty()) {
    os << '-';
  } else {
    for (std::size_t j = 0; j < q.fails.size(); ++j) {
      if (j != 0) os << ',';
      os << q.fails[j];
    }
  }
  os << ' ';
  print_dist(os, d);
  os << '\n';
}

KFail::Query KFail::random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng) {
  Query q;
  q.s = random_source(sources, rng);
  q.t = static_cast<Vertex>(rng.next_below(n));
  const std::size_t k = m == 0 ? 0 : rng.next_below(kMaxKFailEdges + 1);
  while (q.fails.size() < k) {
    const EdgeId e = static_cast<EdgeId>(rng.next_below(m));
    if (std::find(q.fails.begin(), q.fails.end(), e) == q.fails.end()) q.fails.push_back(e);
  }
  return q;
}

std::vector<Dist> KFail::answer(QueryService& svc, const Snapshot& oracle,
                                std::span<const Query> queries, Deadline deadline) {
  bool needs_graph = false;
  for (const Query& q : queries) {
    MSRP_REQUIRE(oracle.is_source(q.s), "k-fail query source is not an oracle source");
    MSRP_REQUIRE(q.t < oracle.num_vertices(), "k-fail query target out of range");
    MSRP_REQUIRE(q.fails.size() <= kMaxKFailEdges, "k-fail failure set too large");
    for (std::size_t a = 0; a < q.fails.size(); ++a) {
      MSRP_REQUIRE(q.fails[a] < oracle.num_edges(), "k-fail edge out of range");
      for (std::size_t b = a + 1; b < q.fails.size(); ++b) {
        MSRP_REQUIRE(q.fails[a] != q.fails[b], "k-fail duplicate edge in failure set");
      }
    }
    needs_graph = needs_graph || q.fails.size() == 2;
  }
  std::shared_ptr<const Graph> graph;
  if (needs_graph) {
    graph = svc.graph_for(oracle.content_digest());
    MSRP_REQUIRE(graph != nullptr,
                 "k-fail |F| == 2 needs the graph behind the oracle — attach_graph() it");
  }
  std::vector<Dist> out(queries.size());
  KFailScratch scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.fails.size()) {
      case 0:
        out[i] = oracle.shortest(q.s, q.t);
        break;
      case 1:
        out[i] = oracle.avoiding(q.s, q.t, q.fails[0]);
        break;
      default:
        if (deadline_expired(deadline)) {
          throw DeadlineExceeded("batch expired before answering");
        }
        out[i] = kfail_distance(*graph, q.s, q.t, q.fails, scratch);
        break;
    }
  }
  return out;
}

}  // namespace msrp::service
