/// \file
/// The served workloads, one trait each: plain d(s, t, e) point queries,
/// top-k most-vital edges, Vickrey edge pricing, and k-edge-failure
/// distances. A trait is everything one opcode needs on every layer — its
/// query and result records, its wire frames and record codec (with the
/// decode-time validation), its batch-file line format, its stats counter,
/// and how the service executes it — so the codec, server, client, service
/// and CLI each have one generic path instead of a copy per opcode.
///
/// Semantics (all relative to the oracle's canonical BFS trees, so every
/// serving path — in-process, mmap, sharded, wire — answers identically):
///
///   * Point (s, t, e): d(s, t, e), the primitive every other workload is
///     assembled from. QueryService::query_batch executes it.
///   * Vitality (s, t, k): the k edges of the canonical s->t path whose
///     removal hurts most. Each entry carries the edge id, its position on
///     the path (0 = incident to s), and the replacement distance
///     d(s, t, e); vitality is replacement - base (kInfDist for bridges)
///     and entries are ordered by (vitality desc, position asc), exactly
///     like rp::most_vital_edges.
///   * Vickrey (s, t): per-edge Vickrey payments along the canonical path.
///     An edge's price is d(s, t, e) - d(s, t) — the detour premium its
///     owner could extract in a second-price auction — kInfDist when the
///     edge is a bridge (monopoly). Prices are in path order.
///   * KFail (s, t, F): d(s, t) in G - F for a failure set of at most
///     kMaxKFailEdges edges. |F| == 1 is answered by the O(1) oracle;
///     |F| == 2 needs the graph (a bounded BFS via the ftsub machinery);
///     |F| == 0 degenerates to the base distance.
///
/// Vitality and Vickrey expand each query into one point query per
/// canonical-path edge; KFail sends its |F| == 1 queries through the point
/// path. Either way the point batch runs wherever point batches run, so
/// every serving path returns the same bytes.
///
/// Record codecs are templates over the codec's writer (`u32(v)`) and
/// reader (`u32()`, `expect_records(count, bytes)`, `fail(message)`), which
/// live in net/protocol.hpp; this header stays free of the wire layer.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "net/frame_type.hpp"
#include "service/query.hpp"
#include "util/deadline.hpp"
#include "util/distance.hpp"
#include "util/rng.hpp"

namespace msrp::service {

class QueryService;
class Snapshot;

/// Most failure sets the serving stack accepts per K_FAIL query. Enforced
/// at wire decode (ProtocolError) and at the service boundary
/// (std::invalid_argument), so no layer below ever sees a larger set.
inline constexpr std::size_t kMaxKFailEdges = 2;

/// Cap on TOP_K_VITAL's k. A path has fewer than n edges, so any larger
/// request is either a typo or an attack on the reply allocator.
inline constexpr std::uint32_t kMaxTopKVital = 1u << 16;

struct VitalityQuery {
  Vertex s = 0;
  Vertex t = 0;
  std::uint32_t k = 0;
  friend bool operator==(const VitalityQuery&, const VitalityQuery&) = default;
};

/// One edge of a vitality answer. `replacement` is d(s, t, edge); the
/// vitality itself (replacement - base, kInfDist for bridges) is derived,
/// not carried — see VitalityResult::vitality_of.
struct VitalityEntry {
  EdgeId edge = kNoEdge;
  std::uint32_t position = 0;  ///< index on the canonical s->t path, 0 at s
  Dist replacement = kInfDist;
  friend bool operator==(const VitalityEntry&, const VitalityEntry&) = default;
};

struct VitalityResult {
  Dist base = kInfDist;  ///< d(s, t); kInfDist when t is unreachable
  /// Top-k entries, (vitality desc, position asc), truncated to k. Empty
  /// when t is unreachable or s == t.
  std::vector<VitalityEntry> edges;

  Dist vitality_of(const VitalityEntry& e) const {
    return e.replacement == kInfDist ? kInfDist : e.replacement - base;
  }
  friend bool operator==(const VitalityResult&, const VitalityResult&) = default;
};

struct VickreyQuery {
  Vertex s = 0;
  Vertex t = 0;
  friend bool operator==(const VickreyQuery&, const VickreyQuery&) = default;
};

/// One priced edge of a Vickrey answer, in canonical path order.
struct VickreyCharge {
  EdgeId edge = kNoEdge;
  Dist price = 0;  ///< d(s,t,edge) - d(s,t); kInfDist = bridge monopoly
  friend bool operator==(const VickreyCharge&, const VickreyCharge&) = default;
};

struct VickreyResult {
  Dist base = kInfDist;  ///< d(s, t); kInfDist when t is unreachable
  std::vector<VickreyCharge> prices;  ///< one per canonical path edge
  friend bool operator==(const VickreyResult&, const VickreyResult&) = default;
};

struct KFailQuery {
  Vertex s = 0;
  Vertex t = 0;
  /// Failed edge ids, |fails| <= kMaxKFailEdges, no duplicates.
  std::vector<EdgeId> fails;
  friend bool operator==(const KFailQuery&, const KFailQuery&) = default;
};

/// A vitality or Vickrey batch flattened into point queries: one Query per
/// canonical-path edge, per input query. Assembly reads the point answers
/// back out by offset.
struct PathPlan {
  std::vector<Query> points;
  std::size_t answered_inline = 0;         ///< always 0: every answer is a point
  std::vector<std::size_t> offset;         ///< queries.size()+1 bounds into points
  std::vector<Dist> base;                  ///< d(s, t) per input query
  std::vector<std::vector<EdgeId>> paths;  ///< canonical path per input query
};

/// A K_FAIL batch after expansion: |F| == 0 and |F| == 2 answers already in
/// `out`, the |F| == 1 queries left as `points` for `point_slot` slots.
struct KFailPlan {
  std::vector<Query> points;
  std::size_t answered_inline = 0;  ///< queries answered without a point query
  std::vector<Dist> out;
  std::vector<std::size_t> point_slot;
};

/// Field-by-field layout of the trait members; see the \file comment.
///   Query, Result            in-process records
///   kBatchFrame, kAnswerFrame  request and reply frame types
///   kMinVersion              lowest HELLO version whose server decodes it
///   kFrameName               request frame name, for diagnostics
///   kName                    msrp_serve/msrp_client --workload value
///   kStatsCounter            per-opcode batch counter (nullptr = none)
///   kLineFormat              batch-file fields, for diagnostics
///   kQueryBytes, kResultBytes  minimum wire bytes per record
///   put_query/get_query, put_result/get_result  record codec
///   parse, print             batch-file query line and answer line
///   random                   one uniform query (msrp_serve --random-queries)
///   Plan, expand, assemble   execution in terms of point batches
struct Point {
  using Query = service::Query;
  using Result = Dist;
  static constexpr net::FrameType kBatchFrame = net::FrameType::kQueryBatch;
  static constexpr net::FrameType kAnswerFrame = net::FrameType::kAnswerBatch;
  static constexpr std::uint32_t kMinVersion = 1;
  static constexpr const char* kFrameName = "QUERY_BATCH";
  static constexpr const char* kName = "";  ///< the default: no --workload
  static constexpr const char* kStatsCounter = nullptr;
  static constexpr const char* kLineFormat = "s t e";
  static constexpr std::size_t kQueryBytes = 12;
  static constexpr std::size_t kResultBytes = 4;

  template <class Out>
  static void put_query(Out& out, const Query& q) {
    out.u32(q.s);
    out.u32(q.t);
    out.u32(q.e);
  }
  template <class In>
  static Query get_query(In& in) {
    Query q;
    q.s = in.u32();
    q.t = in.u32();
    q.e = in.u32();
    return q;
  }
  template <class Out>
  static void put_result(Out& out, Result d) {
    out.u32(d);
  }
  template <class In>
  static Result get_result(In& in) {
    return in.u32();
  }

  static bool parse(std::span<const std::uint32_t> fields, Query& q);
  static void print(std::ostream& os, const Query& q, Result d);
  static Query random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng);
};

struct Vitality {
  using Query = VitalityQuery;
  using Result = VitalityResult;
  static constexpr net::FrameType kBatchFrame = net::FrameType::kVitalityBatch;
  static constexpr net::FrameType kAnswerFrame = net::FrameType::kVitalityAnswer;
  static constexpr std::uint32_t kMinVersion = 3;
  static constexpr const char* kFrameName = "VITALITY_BATCH";
  static constexpr const char* kName = "vitality";
  static constexpr const char* kStatsCounter = "server.vitality_batches";
  static constexpr const char* kLineFormat = "s t k";
  static constexpr std::size_t kQueryBytes = 12;
  static constexpr std::size_t kResultBytes = 8;  ///< entries excluded

  template <class Out>
  static void put_query(Out& out, const Query& q) {
    out.u32(q.s);
    out.u32(q.t);
    out.u32(q.k);
  }
  template <class In>
  static Query get_query(In& in) {
    Query q;
    q.s = in.u32();
    q.t = in.u32();
    q.k = in.u32();
    if (q.k == 0) in.fail("VITALITY_BATCH k must be positive");
    if (q.k > kMaxTopKVital) {
      in.fail("VITALITY_BATCH k " + std::to_string(q.k) + " exceeds cap " +
              std::to_string(kMaxTopKVital));
    }
    return q;
  }
  template <class Out>
  static void put_result(Out& out, const Result& r) {
    out.u32(r.base);
    out.u32(static_cast<std::uint32_t>(r.edges.size()));
    for (const VitalityEntry& e : r.edges) {
      out.u32(e.edge);
      out.u32(e.position);
      out.u32(e.replacement);
    }
  }
  template <class In>
  static Result get_result(In& in) {
    Result r;
    r.base = in.u32();
    const std::uint32_t entries = in.u32();
    in.expect_records(entries, 12);
    r.edges.reserve(entries);
    for (std::uint32_t j = 0; j < entries; ++j) {
      VitalityEntry e;
      e.edge = in.u32();
      e.position = in.u32();
      e.replacement = in.u32();
      r.edges.push_back(e);
    }
    return r;
  }

  static bool parse(std::span<const std::uint32_t> fields, Query& q);
  static void print(std::ostream& os, const Query& q, const Result& r);
  static Query random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng);

  using Plan = PathPlan;
  /// Validates 1 <= k <= kMaxTopKVital and the endpoints, then expands.
  static Plan expand(QueryService& svc, const Snapshot& oracle,
                     std::span<const Query> queries, Deadline deadline);
  /// Ranks each path (vitality desc, position asc) and truncates to k.
  static std::vector<Result> assemble(std::span<const Query> queries, Plan& plan,
                                      std::span<const Dist> answers);
};

struct Vickrey {
  using Query = VickreyQuery;
  using Result = VickreyResult;
  static constexpr net::FrameType kBatchFrame = net::FrameType::kVickreyBatch;
  static constexpr net::FrameType kAnswerFrame = net::FrameType::kVickreyAnswer;
  static constexpr std::uint32_t kMinVersion = 3;
  static constexpr const char* kFrameName = "VICKREY_BATCH";
  static constexpr const char* kName = "vickrey";
  static constexpr const char* kStatsCounter = "server.vickrey_batches";
  static constexpr const char* kLineFormat = "s t";
  static constexpr std::size_t kQueryBytes = 8;
  static constexpr std::size_t kResultBytes = 8;  ///< charges excluded

  template <class Out>
  static void put_query(Out& out, const Query& q) {
    out.u32(q.s);
    out.u32(q.t);
  }
  template <class In>
  static Query get_query(In& in) {
    Query q;
    q.s = in.u32();
    q.t = in.u32();
    return q;
  }
  template <class Out>
  static void put_result(Out& out, const Result& r) {
    out.u32(r.base);
    out.u32(static_cast<std::uint32_t>(r.prices.size()));
    for (const VickreyCharge& c : r.prices) {
      out.u32(c.edge);
      out.u32(c.price);
    }
  }
  template <class In>
  static Result get_result(In& in) {
    Result r;
    r.base = in.u32();
    const std::uint32_t charges = in.u32();
    in.expect_records(charges, 8);
    r.prices.reserve(charges);
    for (std::uint32_t j = 0; j < charges; ++j) {
      VickreyCharge c;
      c.edge = in.u32();
      c.price = in.u32();
      r.prices.push_back(c);
    }
    return r;
  }

  static bool parse(std::span<const std::uint32_t> fields, Query& q);
  static void print(std::ostream& os, const Query& q, const Result& r);
  static Query random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng);

  using Plan = PathPlan;
  static Plan expand(QueryService& svc, const Snapshot& oracle,
                     std::span<const Query> queries, Deadline deadline);
  /// price(e) = d(s,t,e) - d(s,t) in path order, kInfDist for bridges.
  static std::vector<Result> assemble(std::span<const Query> queries, Plan& plan,
                                      std::span<const Dist> answers);
};

struct KFail {
  using Query = KFailQuery;
  using Result = Dist;
  static constexpr net::FrameType kBatchFrame = net::FrameType::kKFailBatch;
  static constexpr net::FrameType kAnswerFrame = net::FrameType::kKFailAnswer;
  static constexpr std::uint32_t kMinVersion = 3;
  static constexpr const char* kFrameName = "KFAIL_BATCH";
  static constexpr const char* kName = "kfail";
  static constexpr const char* kStatsCounter = "server.kfail_batches";
  static constexpr const char* kLineFormat = "s t [e...]";
  static constexpr std::size_t kQueryBytes = 12;  ///< an empty failure set
  static constexpr std::size_t kResultBytes = 4;

  template <class Out>
  static void put_query(Out& out, const Query& q) {
    out.u32(q.s);
    out.u32(q.t);
    out.u32(static_cast<std::uint32_t>(q.fails.size()));
    for (const EdgeId e : q.fails) out.u32(e);
  }
  template <class In>
  static Query get_query(In& in) {
    Query q;
    q.s = in.u32();
    q.t = in.u32();
    const std::uint32_t fails = in.u32();
    if (fails > kMaxKFailEdges) {
      in.fail("KFAIL_BATCH failure set of " + std::to_string(fails) + " edges exceeds cap " +
              std::to_string(kMaxKFailEdges));
    }
    q.fails.reserve(fails);
    for (std::uint32_t j = 0; j < fails; ++j) {
      const EdgeId e = in.u32();
      for (const EdgeId seen : q.fails) {
        if (seen == e) in.fail("KFAIL_BATCH duplicate edge in failure set");
      }
      q.fails.push_back(e);
    }
    return q;
  }
  template <class Out>
  static void put_result(Out& out, Result d) {
    out.u32(d);
  }
  template <class In>
  static Result get_result(In& in) {
    return in.u32();
  }

  static bool parse(std::span<const std::uint32_t> fields, Query& q);
  static void print(std::ostream& os, const Query& q, Result d);
  static Query random(std::span<const Vertex> sources, Vertex n, EdgeId m, Rng& rng);

  using Plan = KFailPlan;
  /// Validates every query and answers |F| != 1 on the spot: the base
  /// distance for |F| == 0, one bounded BFS of G - F for |F| == 2 (the
  /// graph must be attached to `svc` for the oracle's digest).
  static Plan expand(QueryService& svc, const Snapshot& oracle,
                     std::span<const Query> queries, Deadline deadline);
  static std::vector<Result> assemble(std::span<const Query> queries, Plan& plan,
                                      std::span<const Dist> answers);
};

/// Every served workload. The generic layers walk this list (frame
/// dispatch, reply routing, per-opcode counters), so a new opcode is one
/// trait appended here plus its frame type pair.
using Workloads = std::tuple<Point, Vitality, Vickrey, KFail>;

/// Calls f(std::type_identity<W>{}) for each W in Workloads, in order.
template <class F>
void for_each_workload(F&& f) {
  [&]<class... W>(std::tuple<W...>*) { (f(std::type_identity<W>{}), ...); }(
      static_cast<Workloads*>(nullptr));
}

namespace detail {
template <class W, class... Ws>
constexpr std::size_t workload_index(std::tuple<Ws...>*) {
  constexpr bool match[] = {std::is_same_v<W, Ws>...};
  std::size_t i = 0;
  while (!match[i]) ++i;
  return i;
}
}  // namespace detail

/// Position of W in Workloads (indexes per-opcode arrays).
template <class W>
inline constexpr std::size_t workload_index =
    detail::workload_index<W>(static_cast<Workloads*>(nullptr));

}  // namespace msrp::service
