#include "service/workloads.hpp"

#include <algorithm>
#include <memory>
#include <ostream>

#include "ftsub/kfail.hpp"
#include "service/query_service.hpp"
#include "util/assert.hpp"

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

template <class WorkloadQuery>
PathPlan expand_paths(const Snapshot& oracle, std::span<const WorkloadQuery> queries) {
  PathPlan plan;
  plan.offset.reserve(queries.size() + 1);
  plan.offset.push_back(0);
  plan.base.reserve(queries.size());
  plan.paths.reserve(queries.size());
  for (const WorkloadQuery& q : queries) {
    MSRP_REQUIRE(oracle.is_source(q.s), "workload query source is not an oracle source");
    MSRP_REQUIRE(q.t < oracle.num_vertices(), "workload query target out of range");
    plan.base.push_back(oracle.shortest(q.s, q.t));
    plan.paths.push_back(oracle.canonical_path(q.s, q.t));
    for (EdgeId e : plan.paths.back()) plan.points.push_back(Query{q.s, q.t, e});
    plan.offset.push_back(plan.points.size());
  }
  return plan;
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

PathPlan Vitality::expand(QueryService&, const Snapshot& oracle,
                          std::span<const Query> queries, Deadline) {
  for (const Query& q : queries) {
    MSRP_REQUIRE(q.k >= 1 && q.k <= kMaxTopKVital, "vitality k out of range");
  }
  return expand_paths(oracle, queries);
}

std::vector<VitalityResult> Vitality::assemble(std::span<const Query> queries, Plan& plan,
                                               std::span<const Dist> answers) {
  std::vector<VitalityResult> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    VitalityResult& r = out[i];
    r.base = plan.base[i];
    const std::vector<EdgeId>& path = plan.paths[i];
    r.edges.resize(path.size());
    for (std::size_t j = 0; j < path.size(); ++j) {
      r.edges[j] = VitalityEntry{path[j], static_cast<std::uint32_t>(j),
                                 answers[plan.offset[i] + j]};
    }
    // base is constant per query, so (vitality desc) == (replacement desc),
    // and kInfDist — a bridge — is already the largest Dist. Same order as
    // rp::most_vital_edges.
    std::sort(r.edges.begin(), r.edges.end(),
              [](const VitalityEntry& a, const VitalityEntry& b) {
                if (a.replacement != b.replacement) return a.replacement > b.replacement;
                return a.position < b.position;
              });
    if (r.edges.size() > queries[i].k) r.edges.resize(queries[i].k);
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

PathPlan Vickrey::expand(QueryService&, const Snapshot& oracle,
                         std::span<const Query> queries, Deadline) {
  return expand_paths(oracle, queries);
}

std::vector<VickreyResult> Vickrey::assemble(std::span<const Query> queries, Plan& plan,
                                             std::span<const Dist> answers) {
  std::vector<VickreyResult> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    VickreyResult& r = out[i];
    r.base = plan.base[i];
    const std::vector<EdgeId>& path = plan.paths[i];
    r.prices.resize(path.size());
    for (std::size_t j = 0; j < path.size(); ++j) {
      const Dist repl = answers[plan.offset[i] + j];
      r.prices[j] = VickreyCharge{path[j], repl == kInfDist ? kInfDist : repl - r.base};
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

KFailPlan KFail::expand(QueryService& svc, const Snapshot& oracle,
                        std::span<const Query> queries, Deadline deadline) {
  KFailPlan plan;
  plan.out.assign(queries.size(), kInfDist);
  std::shared_ptr<const Graph> graph;
  KFailScratch scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    MSRP_REQUIRE(oracle.is_source(q.s), "k-fail query source is not an oracle source");
    MSRP_REQUIRE(q.t < oracle.num_vertices(), "k-fail query target out of range");
    MSRP_REQUIRE(q.fails.size() <= kMaxKFailEdges, "k-fail failure set too large");
    for (std::size_t a = 0; a < q.fails.size(); ++a) {
      MSRP_REQUIRE(q.fails[a] < oracle.num_edges(), "k-fail edge out of range");
      for (std::size_t b = a + 1; b < q.fails.size(); ++b) {
        MSRP_REQUIRE(q.fails[a] != q.fails[b], "k-fail duplicate edge in failure set");
      }
    }
    switch (q.fails.size()) {
      case 0:
        plan.out[i] = oracle.shortest(q.s, q.t);
        break;
      case 1:
        plan.points.push_back(Point::Query{q.s, q.t, q.fails[0]});
        plan.point_slot.push_back(i);
        break;
      default: {
        if (!graph) {
          graph = svc.graph_for(oracle.content_digest());
          MSRP_REQUIRE(graph != nullptr,
                       "k-fail |F| == 2 needs the graph behind the oracle — attach_graph() it");
        }
        if (deadline_expired(deadline)) {
          throw DeadlineExceeded("batch expired before answering");
        }
        plan.out[i] = kfail_distance(*graph, q.s, q.t, q.fails, scratch);
        break;
      }
    }
  }
  plan.answered_inline = queries.size() - plan.points.size();
  return plan;
}

std::vector<Dist> KFail::assemble(std::span<const Query>, Plan& plan,
                                  std::span<const Dist> answers) {
  for (std::size_t j = 0; j < answers.size(); ++j) plan.out[plan.point_slot[j]] = answers[j];
  return std::move(plan.out);
}

}  // namespace msrp::service
