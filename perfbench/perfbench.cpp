// perfbench — the end-to-end benchmark of the msrp build and serving stack.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --serve-bin <msrp_serve> --work-dir <dir>
//
// (run.py builds this binary and passes the last two flags.) The paper's
// users pay two costs: a one-time oracle build, then O(1) queries. The
// three workloads split them:
//
//   build_er     connected sparse random graph, n = 4096, avg degree 8,
//                sigma = 8, QueryService::build on 4 threads. Low diameter:
//                sample+bfs and the landmark table carry the build.
//   build_grid   64 x 64 grid, sigma = 8, 4 threads. High diameter: rows are
//                ~sqrt(n) long and assembly carries the build.
//   serve_point  msrp_serve --load-snapshot <grid v2 snapshot> --mmap
//                --listen 0 --threads 2, fed 512-query point batches: closed
//                loop with 4 in flight, then a fixed-rate open loop.
//
// Every workload reports the same end-to-end metrics (README.md gives each
// one's meaning per workload). --trace 1 instead times calls into each
// layer from outside and reports the per-layer metrics, including a mix of
// POINT(512), VITALITY(64, k = 8), VICKREY(64) and KFAIL(64, |F| cycling
// 0/1/2) batches and registrations of a second (n = 256) tenant against an
// in-process server. The graphs and the solver seed are fixed; the query
// streams and checked samples derive from --seed. All inputs are generated
// before any timer starts. Answers are checked against an independent BFS
// of G - e (G - F for k-fail); any mismatch is a failed operation and
// makes the exit code 1.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "child.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"
#include "service/snapshot.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace msrp;
using service::Snapshot;
using std::chrono::milliseconds;

// ---------------------------------------------------------------- inputs ---

constexpr Vertex kErVertices = 4096;
constexpr double kErAvgDegree = 8.0;
constexpr Vertex kGridSide = 64;
constexpr std::uint32_t kSigma = 8;
constexpr unsigned kBuildThreads = 4;
constexpr Vertex kChurnVertices = 256;
constexpr std::uint32_t kChurnSigma = 4;

constexpr std::size_t kPointBatch = 512;
constexpr std::size_t kTypedBatch = 64;
constexpr std::uint32_t kVitalityK = 8;
constexpr std::size_t kPoolBatches = 16;  // distinct batches cycled per kind
constexpr unsigned kPointInflight = 4;
// The mix's opcodes differ 10x in cost; two in flight keep the server busy
// without measuring the cheap ones queued behind the expensive ones.
constexpr unsigned kMixedInflight = 2;
constexpr int kRegistrations = 3;  // churn-tenant registrations per traced run
// Open-loop cap on outstanding batches. The client blocks on send and on
// wait, so a generator that only sent while behind schedule would fill the
// server's per-connection window (64) and both socket buffers and stall;
// past the cap it collects a reply first and the late sends show in
// gen.ol_late_p99_ms.
constexpr std::size_t kOpenMaxInflight = 32;
constexpr double kWarmupSeconds = 0.3;

// Set-up samples per run. serve_point measures one slice of the run on
// each spawned server.
constexpr int kColdBuildSamples = 3;   // build_*: this process + 2 fresh ones
constexpr int kPointSetupSamples = 5;  // serve_point: spawn -> HELLO
constexpr int kCellChecks = 64;

// Open-loop batch rate, fixed from the closed-loop rate measured at seed 1
// on a 4-CPU Intel Xeon VM (25k 512-query batches/s): about 40% of it.
// At half, load that other tenants put on the host slowed the serving chain
// 2-4x for seconds at a time, saturated the server, and the open-loop
// latency grew without bound.
constexpr double kOpenRate = 10000.0;
// build_*: seconds of serving the built oracle after the builds, in slices.
constexpr double kBuildServeSeconds = 6.0;
constexpr int kBuildServeSlices = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool cold_build = false;  // internal: time one cold build, print it, exit
  std::string serve_bin;
  std::string work_dir = ".";
};

struct Instance {
  Graph g;
  std::vector<Vertex> sources;
  Config cfg;
};

// The graphs, their sources and the solver's sampling seed (Config::seed)
// are fixed; --seed drives every query stream and every checked sample. A
// graph or source set redrawn per seed moves build and query costs by more
// than the bounds allow, and so does the solver's sample: two solver seeds
// on the grid gave builds 24% apart and peak RSS 7% apart, run after run.
// With all three fixed, a build is the same computation in every run.
constexpr std::uint64_t kGraphSeed = 20200803;
constexpr std::uint64_t kSolverSeed = 1;

Instance make_instance(bool grid) {
  Rng rng(kGraphSeed);
  Instance in;
  in.g = grid ? gen::grid(kGridSide, kGridSide)
              : gen::connected_avg_degree(kErVertices, kErAvgDegree, rng);
  for (auto v : rng.sample_without_replacement(in.g.num_vertices(), kSigma)) {
    in.sources.push_back(v);
  }
  in.cfg.seed = Rng(kSolverSeed).next_u64();
  return in;
}

Instance make_churn_instance(std::uint64_t seed) {
  Rng rng(kGraphSeed + 1);
  Instance in;
  in.g = gen::connected_avg_degree(kChurnVertices, 6.0, rng);
  for (auto v : rng.sample_without_replacement(kChurnVertices, kChurnSigma)) {
    in.sources.push_back(v);
  }
  in.cfg.seed = Rng(seed + 1).next_u64();
  return in;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
double secs_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }
double ms_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) * 1e-6 : 0.0;
}

// ---------------------------------------------------------------- report ---

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  /// One operation: a batch, a build, a checked cell, a server teardown.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      op(false, "metric " + name + " has no samples");
      value = -1;
    }
    metrics.push_back({name, {value, unit}});
  }

  void print() const {
    for (const auto& [name, vu] : metrics) {
      std::printf("%-30s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.12g", metrics[i].second.first);
      json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
  }
};

// ----------------------------------------------------------------- spans ---

/// In-memory span log for --trace 1. Spans are recorded from this file
/// around calls into each layer; off (the end-to-end run) it records
/// nothing. Bounded: spans past the cap are counted, not kept. Pipelined
/// batches are sampled, one in kBatchEvery over the whole of every traced
/// loop, and may fill only kCap - kReserved slots, so the spans around
/// builds and probes that follow the serving phase are always kept. At 25k
/// batches/s a 25 s serve_point run fills about 60% of the batch share.
class Tracer {
 public:
  static constexpr std::size_t kCap = 200'000;
  static constexpr std::size_t kReserved = 10'000;
  static constexpr std::uint64_t kBatchEvery = 8;
  /// Returned for a span not recorded; its children are not recorded either.
  static constexpr std::uint32_t kDropped = 0xfffffffeu;
  bool on = false;

  std::uint32_t begin(const char* name, std::uint32_t parent = Span::kNoParent,
                      std::uint64_t trace = 0, std::uint64_t start = 0) {
    if (!on || parent == kDropped) return kDropped;
    if (spans_.size() >= kCap) {
      ++dropped_;
      return kDropped;
    }
    // Allocated once, so no span pays for the log growing.
    if (spans_.empty()) spans_.reserve(kCap);
    Span s;
    s.name = name;
    s.parent = parent;
    s.trace = trace;
    s.start_ns = start ? start : now_ns();
    spans_.push_back(std::move(s));
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Root span of pipelined batch `n`, due at `due`, if it is sampled.
  std::uint32_t begin_batch(const char* name, std::uint64_t n, std::uint64_t due) {
    if (!on || n % kBatchEvery != 0) return kDropped;
    if (spans_.size() >= kCap - kReserved) {
      ++dropped_;
      return kDropped;
    }
    return begin(name, Span::kNoParent, n, due);
  }
  void end(std::uint32_t id, std::uint64_t at = 0) {
    if (id < spans_.size()) spans_[id].end_ns = at ? at : now_ns();
  }
  /// Records an interval that already finished.
  void add(const char* name, std::uint32_t parent, std::uint64_t trace, std::uint64_t a,
           std::uint64_t b) {
    end(begin(name, parent, trace, a), b);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    const auto self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"trace\": " << s.trace
          << ", \"parent\": "
          << (s.parent == Span::kNoParent ? std::string("null") : std::to_string(s.parent))
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"self_ns\": " << self[i] << "}\n";
    }
    if (dropped_ != 0) {
      out << "{\"dropped\": " << dropped_ << "}\n";
      std::fprintf(stderr, "perfbench: span log full, %llu spans dropped\n",
                   static_cast<unsigned long long>(dropped_));
    }
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

Tracer g_trace;

/// RAII span for code that is not a batch in flight.
class Scoped {
 public:
  explicit Scoped(const char* name, std::uint32_t parent = Span::kNoParent)
      : id_(g_trace.begin(name, parent)) {}
  ~Scoped() { g_trace.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

// ----------------------------------------------------------- correctness ---

/// d(s, t) in G - fails by plain BFS: the referee every checked answer is
/// compared against. Deliberately shares no code with the solver or the
/// library's own k-fail BFS.
Dist bfs_avoiding(const Graph& g, Vertex s, Vertex t, std::span<const EdgeId> fails) {
  std::vector<Dist> dist(g.num_vertices(), kInfDist);
  std::vector<Vertex> queue{s};
  dist[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    if (u == t) break;
    for (const Arc& a : g.neighbors(u)) {
      if (dist[a.to] != kInfDist) continue;
      if (std::find(fails.begin(), fails.end(), a.edge) != fails.end()) continue;
      dist[a.to] = dist[u] + 1;
      queue.push_back(a.to);
    }
  }
  return dist[t];
}

/// Checks kCellChecks sampled cells of `snap`: three of four on the
/// canonical path (a stored replacement distance), one of four a random
/// edge (usually off the path, where the answer is d(s, t)).
void check_cells(const Snapshot& snap, const Graph& g, std::uint64_t seed, Report& rep) {
  Rng rng(seed ^ 0xC0FFEEull);
  for (int i = 0; i < kCellChecks; ++i) {
    const Vertex s = snap.sources()[rng.next_below(snap.num_sources())];
    const auto t = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    const auto path = snap.canonical_path(s, t);
    EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (!path.empty() && i % 4 != 3) e = path[rng.next_below(path.size())];
    const Dist want = bfs_avoiding(g, s, t, {&e, 1});
    const Dist got = snap.avoiding(s, t, e);
    rep.op(got == want, "cell d(" + std::to_string(s) + ", " + std::to_string(t) + ", e" +
                            std::to_string(e) + ") = " + std::to_string(got) + ", BFS says " +
                            std::to_string(want));
  }
}

// ----------------------------------------------------------------- pools ---

struct PointPool {
  std::vector<std::vector<service::Query>> batches;
  std::vector<std::vector<Dist>> expected;
};

std::vector<std::vector<service::Query>> point_batches(const Instance& in, std::uint64_t seed) {
  Rng rng(seed ^ 0x9017ull);
  std::vector<std::vector<service::Query>> out;
  for (std::size_t i = 0; i < kPoolBatches; ++i) {
    out.push_back(service::random_query_batch(in.sources, in.g.num_vertices(),
                                              in.g.num_edges(), kPointBatch, rng));
  }
  return out;
}

PointPool point_pool(const Instance& in, const Snapshot& snap, std::uint64_t seed) {
  PointPool p;
  p.batches = point_batches(in, seed);
  for (const auto& b : p.batches) {
    std::vector<Dist> want;
    for (const auto& q : b) want.push_back(snap.avoiding(q.s, q.t, q.e));
    p.expected.push_back(std::move(want));
  }
  return p;
}

enum Kind { kPoint = 0, kVitality = 1, kVickrey = 2, kKFail = 3 };
constexpr const char* kKindName[] = {"point", "vitality", "vickrey", "kfail"};

struct MixedPool {
  PointPool point;
  std::vector<std::vector<service::VitalityQuery>> vit;
  std::vector<std::vector<service::VitalityResult>> vit_want;
  std::vector<std::vector<service::VickreyQuery>> vick;
  std::vector<std::vector<service::VickreyResult>> vick_want;
  std::vector<std::vector<service::KFailQuery>> kfail;
  std::vector<std::vector<Dist>> kfail_want;
};

/// The four-opcode request pools. K-fail sets draw their failed edges
/// uniformly, as the repo's own k-fail generators do, so the share of
/// |F| = 2 queries that miss the canonical path is the traffic's, not the
/// benchmark's. Expected answers come from the in-process QueryService on
/// the same oracle (`svc` must have the graph attached); a sample of them
/// is then checked independently.
MixedPool mixed_pool(const Instance& in, service::QueryService& svc, const Snapshot& snap,
                     std::uint64_t seed, Report& rep) {
  MixedPool p;
  p.point = point_pool(in, snap, seed);
  Rng rng(seed ^ 0x3177ull);
  const auto pick_source = [&] { return in.sources[rng.next_below(in.sources.size())]; };
  const auto pick_vertex = [&] { return static_cast<Vertex>(rng.next_below(in.g.num_vertices())); };
  const auto add_fail = [](service::KFailQuery& f, EdgeId e) {
    if (std::find(f.fails.begin(), f.fails.end(), e) == f.fails.end()) f.fails.push_back(e);
  };
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<service::VitalityQuery> vq;
    std::vector<service::VickreyQuery> kq;
    std::vector<service::KFailQuery> fq;
    for (std::size_t i = 0; i < kTypedBatch; ++i) {
      vq.push_back({pick_source(), pick_vertex(), kVitalityK});
      kq.push_back({pick_source(), pick_vertex()});
      service::KFailQuery f{pick_source(), pick_vertex(), {}};
      while (f.fails.size() < i % 3) add_fail(f, static_cast<EdgeId>(rng.next_below(in.g.num_edges())));
      fq.push_back(std::move(f));
    }
    p.vit_want.push_back(svc.vitality_batch(snap, vq));
    p.vick_want.push_back(svc.vickrey_batch(snap, kq));
    p.kfail_want.push_back(svc.kfail_batch(snap, fq));
    p.vit.push_back(std::move(vq));
    p.vick.push_back(std::move(kq));
    p.kfail.push_back(std::move(fq));
  }
  // Independent checks of the expected answers: k-fail against BFS of
  // G - F, on the first timed batch and on an untimed sample whose failed
  // edges all lie on the canonical path, so every check there takes a
  // detour; vitality and Vickrey through the point answers they expand to.
  std::vector<service::KFailQuery> on_path;
  for (std::size_t i = 0; i < kTypedBatch; ++i) {
    service::KFailQuery f{pick_source(), pick_vertex(), {}};
    const auto path = snap.canonical_path(f.s, f.t);
    while (f.fails.size() < std::min(i % 3, path.size())) {
      add_fail(f, path[rng.next_below(path.size())]);
    }
    on_path.push_back(std::move(f));
  }
  const auto on_path_want = svc.kfail_batch(snap, on_path);
  for (std::size_t i = 0; i < kTypedBatch; ++i) {
    const auto& f = p.kfail[0][i];
    rep.op(p.kfail_want[0][i] == bfs_avoiding(in.g, f.s, f.t, f.fails),
           "kfail expected answer vs BFS of G - F");
    const auto& g = on_path[i];
    rep.op(on_path_want[i] == bfs_avoiding(in.g, g.s, g.t, g.fails),
           "on-path kfail answer vs BFS of G - F");
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const auto& q = p.vit[0][i];
    const auto& r = p.vit_want[0][i];
    const auto path = snap.canonical_path(q.s, q.t);
    bool ok = r.base == snap.shortest(q.s, q.t) &&
              r.edges.size() == std::min<std::size_t>(q.k, path.size());
    for (const auto& e : r.edges) {
      ok = ok && e.position < path.size() && path[e.position] == e.edge &&
           e.replacement == snap.avoiding(q.s, q.t, e.edge);
    }
    if (!r.edges.empty()) {
      ok = ok && r.edges[0].replacement == bfs_avoiding(in.g, q.s, q.t, {&r.edges[0].edge, 1});
    }
    rep.op(ok, "vitality expected answer vs point answers");
    const auto& vq = p.vick[0][i];
    const auto& vr = p.vick_want[0][i];
    const auto vpath = snap.canonical_path(vq.s, vq.t);
    ok = vr.base == snap.shortest(vq.s, vq.t) && vr.prices.size() == vpath.size();
    for (std::size_t j = 0; ok && j < vpath.size(); ++j) {
      const Dist d = snap.avoiding(vq.s, vq.t, vpath[j]);
      ok = vr.prices[j].edge == vpath[j] &&
           vr.prices[j].price == (d == kInfDist ? kInfDist : d - vr.base);
    }
    rep.op(ok, "vickrey expected answer vs point answers");
  }
  return p;
}

// ------------------------------------------------------------ wire loops ---

struct LoopStats {
  std::vector<double> lat_ms;          // per batch, from send (closed) or due time (open)
  std::vector<double> late_ms;         // open loop: actual send - due time
  std::vector<double> kind_lat_ms[4];  // lat_ms split by opcode
  std::uint64_t answered = 0;          // queries in correctly answered batches
  double seconds = 0;

  /// Queries answered per second over the whole phase, stalls included.
  double qps() const { return static_cast<double>(answered) / seconds; }
};

/// Registers the churn tenant over `ctl` and unregisters it again, `n`
/// times; returns the REGISTER -> READY times. Each registration uses a
/// fresh solver seed, so it is a real build, never a cache hit.
std::vector<double> register_cycles(net::Client& ctl, const Instance& in, int n, Report& rep) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    try {
      Scoped span("registry.register");
      const std::uint64_t t0 = now_ns();
      const auto ack = ctl.register_graph(in.g.num_vertices(), in.g.edges(), in.sources,
                                          in.cfg.seed + static_cast<std::uint64_t>(i));
      out.push_back(secs_since(t0));
      rep.op(ack.state == registry::OracleState::kReady, "churn tenant registration");
      const auto gone = ctl.unregister(ack.digest);
      rep.op(gone.state == registry::OracleState::kUnregistered ||
                 gone.state == registry::OracleState::kExpiring,
             "churn tenant unregistration");
    } catch (const std::exception& ex) {
      rep.op(false, std::string("churn: ") + ex.what());
    }
  }
  return out;
}

/// Batches pipelined on one connection. Closed loop when rate == 0:
/// `inflight` batches always outstanding, latency from the send. Otherwise
/// open loop: batch i is sent when due at `rate` per second and its latency
/// runs from the due time. `mixed` cycles the four opcodes round-robin;
/// otherwise every batch is a point batch. Replies are collected in send
/// order (a typed wait needs the id), which is the order the server
/// completes same-cost batches in, up to a few microseconds.
LoopStats wire_loop(net::Client& c, const MixedPool& pool, bool mixed, double seconds,
                    unsigned inflight, double rate, Report& rep) {
  struct Out {
    std::uint64_t id, due_ns, trace;
    Kind kind;
    std::size_t idx;
    std::uint32_t span;
  };
  constexpr const char* kSpan[] = {"wire.point", "wire.vitality", "wire.vickrey", "wire.kfail"};
  LoopStats st;
  std::deque<Out> fl;
  std::uint64_t sent = 0;
  const std::uint64_t t0 = now_ns();
  const auto end_ns = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  const OpenLoopSchedule sched(rate > 0 ? rate : 1.0, t0);
  const auto send_one = [&](std::uint64_t due) {
    const Kind kind = mixed ? static_cast<Kind>(sent % 4) : kPoint;
    const std::size_t idx = (mixed ? sent / 4 : sent) % pool.point.batches.size();
    const std::uint64_t t = now_ns();
    const std::uint32_t root = g_trace.begin_batch(kSpan[kind], sent, due);
    std::uint64_t id = 0;
    switch (kind) {
      case kPoint: id = c.send(pool.point.batches[idx]); break;
      case kVitality: id = c.send_vitality(pool.vit[idx]); break;
      case kVickrey: id = c.send_vickrey(pool.vick[idx]); break;
      case kKFail: id = c.send_kfail(pool.kfail[idx]); break;
    }
    g_trace.add("client.send", root, sent, t, now_ns());
    if (rate > 0) st.late_ms.push_back(ms_between(due, t));
    fl.push_back({id, due, sent, kind, idx, root});
    ++sent;
  };
  for (;;) {
    const std::uint64_t t = now_ns();
    if (rate == 0) {
      while (t < end_ns && fl.size() < inflight) send_one(now_ns());
    } else if (t < end_ns && sched.due_ns(sent) <= t && fl.size() < kOpenMaxInflight) {
      send_one(sched.due_ns(sent));
      continue;
    }
    if (fl.empty()) {
      if (t >= end_ns) break;
      const std::uint64_t due = sched.due_ns(sent);
      if (due > t + 100'000) std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - 50'000));
      continue;
    }
    const Out o = fl.front();
    fl.pop_front();
    const std::uint64_t w0 = now_ns();
    bool ok = false;
    try {
      switch (o.kind) {
        case kPoint: ok = c.wait(o.id) == pool.point.expected[o.idx]; break;
        case kVitality: ok = c.wait_vitality(o.id) == pool.vit_want[o.idx]; break;
        case kVickrey: ok = c.wait_vickrey(o.id) == pool.vick_want[o.idx]; break;
        case kKFail: ok = c.wait_kfail(o.id) == pool.kfail_want[o.idx]; break;
      }
    } catch (const std::exception& ex) {
      // BUSY, DEADLINE_EXCEEDED, or a server-side batch error.
      rep.op(false, std::string(kKindName[o.kind]) + " batch: " + ex.what());
      continue;
    }
    const std::uint64_t w1 = now_ns();
    g_trace.add("client.wait", o.span, o.trace, w0, w1);
    g_trace.end(o.span, w1);
    rep.op(ok, std::string(kKindName[o.kind]) + " batch answers vs local oracle");
    st.lat_ms.push_back(ms_between(o.due_ns, w1));
    st.kind_lat_ms[o.kind].push_back(st.lat_ms.back());
    if (ok) st.answered += o.kind == kPoint ? kPointBatch : kTypedBatch;
  }
  st.seconds = secs_since(t0);
  return st;
}

/// A workload's point-serving phases: closed loop, then open loop (none
/// when open_s is 0). In a traced run the closed phase is split in two,
/// tracing off then on, and the qps ratio of the halves is the tracing
/// overhead.
struct ServePhases {
  LoopStats closed, open;
  double trace_overhead = 0;
};

ServePhases serve_phases(net::Client& c, const MixedPool& pool, double closed_s, double open_s,
                         bool traced, Report& rep) {
  const auto loop = [&](double s, double r) {
    return wire_loop(c, pool, false, s, kPointInflight, r, rep);
  };
  ServePhases ph;
  // Warm-up, untimed: first-touch faults of a mapped snapshot and lazy
  // connection set-up are set-up cost, not serving cost.
  const bool tracing = g_trace.on;
  g_trace.on = false;
  loop(kWarmupSeconds, 0);
  g_trace.on = tracing;
  if (traced) {
    g_trace.on = false;
    const double off = loop(closed_s / 2, 0).qps();
    g_trace.on = true;
    ph.closed = loop(closed_s / 2, 0);
    ph.trace_overhead = 1.0 - ph.closed.qps() / off;
  } else {
    ph.closed = loop(closed_s, 0);
  }
  if (open_s > 0) ph.open = loop(open_s, kOpenRate);
  return ph;
}

// --------------------------------------------------------------- servers ---

/// A net::Server in this process (with a registry, so registrations work),
/// serving `oracle` on `threads` pool threads with its graph attached for
/// |F| = 2 k-fail batches.
class InProcServer {
 public:
  InProcServer(std::shared_ptr<const Snapshot> oracle, const Graph& g, unsigned threads)
      : svc_(options(threads)), reg_(svc_), server_(svc_, oracle, &reg_, {}) {
    svc_.attach_graph(oracle->content_digest(), std::make_shared<const Graph>(g));
    thread_ = std::thread([this] { server_.run(); });
  }
  ~InProcServer() {
    server_.shutdown();
    thread_.join();
  }
  InProcServer(const InProcServer&) = delete;
  InProcServer& operator=(const InProcServer&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  static service::QueryService::Options options(unsigned threads) {
    service::QueryService::Options o;
    o.threads = threads;
    return o;
  }
  service::QueryService svc_;
  registry::OracleRegistry reg_;
  net::Server server_;
  std::thread thread_;
};

net::ClientOptions client_options(std::uint16_t port) {
  net::ClientOptions o;
  o.port = port;
  return o;
}

/// SIGTERM teardown of an msrp_serve child: a non-zero exit or a
/// /dev/shm/msrp.* segment left behind fails the run.
void teardown(std::unique_ptr<Child>& proc, const std::set<std::string>& shm_before,
              Report& rep) {
  const int status = proc->terminate(milliseconds(20000));
  proc.reset();
  rep.op(status == 0, "msrp_serve exit status " + std::to_string(status));
  std::string leaked;
  for (const auto& name : msrp_shm_segments()) {
    if (!shm_before.count(name)) leaked += " " + name;
  }
  rep.op(leaked.empty(), "shared-memory segments left behind:" + leaked);
}

// ------------------------------------------------------------ per-layer ---

/// Runs `body` repeatedly for about `seconds`; returns calls per second.
double rate_of(double seconds, const std::function<void()>& body) {
  std::uint64_t calls = 0;
  const std::uint64_t t0 = now_ns();
  do {
    body();
    ++calls;
  } while (secs_since(t0) < seconds);
  return static_cast<double>(calls) / secs_since(t0);
}

/// Stage latencies and failure counters the server exports through STATS.
void add_net_stats(const net::StatsSnapshotFrame& st, Report& rep) {
  for (const char* stage : {"decode", "queue", "execute", "flush"}) {
    std::vector<std::uint64_t> dense(obs::kHistogramBuckets, 0);
    for (const auto& h : st.histograms) {
      if (h.name != "query_latency" || h.label != stage) continue;
      for (const auto& [idx, n] : h.buckets) {
        if (idx < dense.size()) dense[idx] += n;
      }
    }
    const std::string base = std::string("net.") + stage;
    rep.add(base + "_p50_us", obs::quantile_ns(dense.data(), dense.size(), 0.50) / 1e3, "us");
    rep.add(base + "_p99_us", obs::quantile_ns(dense.data(), dense.size(), 0.99) / 1e3, "us");
  }
  const auto counter = [&](const char* name) {
    double sum = 0;
    for (const auto& c : st.counters) {
      if (c.name == name) sum += static_cast<double>(c.value);
    }
    return sum;
  };
  rep.add("net.busy", counter("server.busy_rejected"), "count");
  rep.add("net.errors", counter("server.batch_errors") + counter("server.protocol_errors"),
          "count");
  rep.add("net.deadline_exceeded", counter("server.deadline_exceeded"), "count");
}

/// Builds the oracle through the solver directly (QueryService::build hides
/// MsrpStats), timing the solve and the snapshot capture separately.
struct TracedBuild {
  std::shared_ptr<const Snapshot> snap;
  MsrpStats stats;
  std::uint64_t cells = 0;
  double capture_s = 0;
};

TracedBuild traced_build(const Instance& in) {
  Scoped root("build");
  Config cfg = in.cfg;
  cfg.build_threads = kBuildThreads;
  TracedBuild b;
  std::optional<MsrpResult> res;
  {
    Scoped s("core.solve_msrp", root.id());
    res.emplace(solve_msrp(in.g, in.sources, cfg));
  }
  const std::uint64_t t0 = now_ns();
  {
    Scoped s("snapshot.capture", root.id());
    b.snap = std::make_shared<const Snapshot>(Snapshot::capture(*res));
  }
  b.capture_s = secs_since(t0);
  b.stats = res->stats();
  for (std::uint32_t si = 0; si < res->num_sources(); ++si) b.cells += res->raw_rows(si).size();
  return b;
}

void add_core(const std::vector<TracedBuild>& builds, Report& rep) {
  const auto med = [&](const std::function<double(const TracedBuild&)>& f) {
    std::vector<double> v;
    for (const auto& b : builds) v.push_back(f(b));
    return median(v);
  };
  const auto phase = [&](const char* name) {
    return med([name](const TracedBuild& b) {
      const auto it = b.stats.phase_seconds.find(name);
      return it == b.stats.phase_seconds.end() ? 0.0 : it->second;
    });
  };
  rep.add("core.sample_bfs_s", phase("sample+bfs"), "s");
  rep.add("core.landmark_rp_s", phase("landmark_rp_mmg"), "s");
  rep.add("core.near_small_s", phase("near_small_dijkstra"), "s");
  const double assembly = phase("assembly");
  rep.add("core.assembly_s", assembly, "s");
  const TracedBuild& b = builds.back();
  rep.add("core.landmarks", static_cast<double>(b.stats.num_landmarks), "count");
  rep.add("core.trees", static_cast<double>(b.stats.num_trees), "count");
  rep.add("core.near_small_aux_arcs", static_cast<double>(b.stats.near_small_aux_arcs), "count");
  rep.add("core.cells", static_cast<double>(b.cells), "count");
  rep.add("core.assembly_cells_per_s", static_cast<double>(b.cells) / assembly, "1/s");
  rep.add("snapshot.capture_s", med([](const TracedBuild& b) { return b.capture_s; }), "s");
  rep.add("snapshot.bytes", static_cast<double>(b.snap->v2_encoded_size()), "bytes");
}

/// The probes every traced run makes on its own oracle: the serving
/// waterfall for one fixed 512-query point batch (Snapshot::avoiding ->
/// QueryService -> ShardRouter with 2 shards -> net::Client against an
/// in-process net::Server), the mmap restart path, the typed workloads in
/// process, the four-opcode mix and tenant registration over TCP, and the
/// obs record cost.
void layer_probes(const Instance& in, const Instance& churn_in,
                  const std::shared_ptr<const Snapshot>& shared, const std::string& snap_path,
                  const MixedPool& pool, const Args& args, Report& rep) {
  const Snapshot& snap = *shared;
  Scoped root("probes");
  const auto& batch = pool.point.batches[0];
  const auto& want = pool.point.expected[0];
  {
    Scoped s("probe.snapshot.load_mmap", root.id());
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t t0 = now_ns();
      const Snapshot s2 = Snapshot::load(snap_path, {.use_mmap = true, .verify_cells = false});
      const bool ok = s2.avoiding(batch[0].s, batch[0].t, batch[0].e) == want[0];
      v.push_back(secs_since(t0));
      rep.op(ok, "mmap-loaded snapshot answer");
    }
    rep.add("snapshot.load_mmap_s", median(v), "s");
  }
  {
    Scoped s("probe.snapshot.avoiding", root.id());
    bool ok = true;
    const double r = rate_of(0.25, [&] {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ok &= snap.avoiding(batch[i].s, batch[i].t, batch[i].e) == want[i];
      }
    });
    rep.op(ok, "Snapshot::avoiding answers");
    rep.add("snapshot.avoiding_qps", r * kPointBatch, "1/s");
  }
  {
    Scoped s("probe.query_service", root.id());
    service::QueryService::Options o;
    o.threads = 2;
    service::QueryService svc(o);
    bool ok = true;
    const double r = rate_of(0.25, [&] { ok &= svc.query_batch(snap, batch) == want; });
    rep.op(ok, "QueryService::query_batch answers");
    rep.add("query_service.point_qps", r * kPointBatch, "1/s");
  }
  {
    Scoped s("probe.shard_router", root.id());
    service::ShardRouterOptions o;
    o.shards = 2;
    o.worker_argv = {args.serve_bin};
    const auto shm_before = msrp_shm_segments();
    {
      service::ShardRouter router(snap, o);
      bool ok = true;
      const double r = rate_of(0.25, [&] { ok &= router.query_batch(batch) == want; });
      rep.op(ok, "ShardRouter::query_batch answers");
      rep.add("shard_router.point_qps", r * kPointBatch, "1/s");
      rep.add("shard_router.ready_wait_us", static_cast<double>(router.stats().ready_wait_us),
              "us");
    }
    rep.op(msrp_shm_segments() == shm_before, "ShardRouter segments unlinked");
  }
  {
    Scoped s("probe.net", root.id());
    InProcServer server(shared, in.g, 2);
    net::Client c(client_options(server.port()));
    MixedPool one;
    one.point.batches = {batch};
    one.point.expected = {want};
    rep.add("net.point_qps", wire_loop(c, one, false, 0.5, kPointInflight, 0, rep).qps(), "1/s");
    const LoopStats m = wire_loop(c, pool, true, 1.0, kMixedInflight, 0, rep);
    for (int k = 0; k < 4; ++k) {
      rep.add(std::string("mixed.") + kKindName[k] + "_p50_ms", median(m.kind_lat_ms[k]), "ms");
    }
    // Writes beside reads: the registrations run while the mix's
    // connection stays open.
    net::Client ctl(client_options(server.port()));
    rep.add("registry.register_s", median(register_cycles(ctl, churn_in, kRegistrations, rep)),
            "s");
  }
  {
    Scoped s("probe.workloads", root.id());
    service::QueryService::Options o;
    o.threads = 1;
    service::QueryService svc(o);
    svc.attach_graph(snap.content_digest(), std::make_shared<const Graph>(in.g));
    std::vector<service::KFailQuery> f2;
    std::uint64_t off = 0, total = 0;
    for (const auto& b : pool.kfail) {
      for (const auto& q : b) {
        if (q.fails.size() != 2) continue;
        const auto path = snap.canonical_path(q.s, q.t);
        const auto on = [&](EdgeId e) { return std::find(path.begin(), path.end(), e) != path.end(); };
        off += !on(q.fails[0]) && !on(q.fails[1]);
        ++total;
        if (f2.size() < kTypedBatch) f2.push_back(q);
      }
    }
    rep.add("kfail.f2_offpath_share", static_cast<double>(off) / static_cast<double>(total),
            "ratio");
    rep.add("kfail.f2_qps", rate_of(0.25, [&] { svc.kfail_batch(snap, f2); }) * f2.size(), "1/s");
    const auto& vq = pool.vit[0];
    rep.add("vitality.qps", rate_of(0.25, [&] { svc.vitality_batch(snap, vq); }) * vq.size(),
            "1/s");
    const auto& kq = pool.vick[0];
    rep.add("vickrey.qps", rate_of(0.25, [&] { svc.vickrey_batch(snap, kq); }) * kq.size(),
            "1/s");
    std::uint64_t points = 0;
    for (const auto& q : vq) points += snap.canonical_path(q.s, q.t).size();
    rep.add("vitality.points_per_query", static_cast<double>(points) / vq.size(), "count");
  }
  {
    Scoped s("probe.obs", root.id());
    obs::MetricsRegistry reg;
    obs::Histogram* h = reg.histogram("perfbench_probe");
    constexpr std::uint64_t kRecords = 4'000'000;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kRecords; ++i) h->record((i * 2654435761u) & 0xFFFFF);
    rep.add("obs.histogram_record_ns", static_cast<double>(now_ns() - t0) / kRecords, "ns");
  }
  std::vector<std::uint8_t> req, reply;
  net::append_query_batch(req, 1, batch);
  net::append_answer_batch(reply, 1, want);
  rep.add("net.bytes_per_query", static_cast<double>(req.size() + reply.size()) / kPointBatch,
          "bytes");
}

// ------------------------------------------------------------- workloads ---

/// Child mode for build_* set-up: one cold QueryService::build in a fresh
/// process. Prints "cold_build <seconds> <digest> <peak RSS MiB>".
int cold_build_main(const Args& a) {
  const Instance in = make_instance(a.workload == "build_grid");
  service::QueryService::Options o;
  o.threads = kBuildThreads;
  service::QueryService svc(o);
  const std::uint64_t t0 = now_ns();
  const auto snap = svc.build(in.g, in.sources, in.cfg);
  std::printf("cold_build %.9f %llu %.6f\n", secs_since(t0),
              static_cast<unsigned long long>(snap->content_digest()), peak_rss_mb(0));
  return 0;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// One workload run. build_*: cold builds (set-up) and warm builds, then
/// the built oracle served over loopback by an in-process server.
/// serve_*: one build for the reference answers, then an msrp_serve child
/// spawned (set-up) and driven over TCP.
void run_workload(const Args& a, Report& rep) {
  const bool build = a.workload.rfind("build_", 0) == 0;
  const Instance in = make_instance(a.workload == "build_grid" || a.workload == "serve_point");
  const Instance churn_in = make_churn_instance(a.seed);
  service::QueryService::Options o;
  o.threads = kBuildThreads;
  service::QueryService ref(o);  // reference answers for every check

  std::shared_ptr<const Snapshot> snap;
  std::vector<TracedBuild> traced;
  // peak_rss_mb on build_*: VmHWM of a process right after its one cold
  // build (warm builds in the same process only add allocator noise).
  std::vector<double> setup_s, build_s, rss;
  if (a.trace) {
    traced.push_back(traced_build(in));
    const std::uint64_t t0 = now_ns();
    while (build && (traced.size() < 2 || secs_since(t0) < a.seconds)) {
      traced.push_back(traced_build(in));
      rep.op(traced.back().snap->content_digest() == traced[0].snap->content_digest(),
             "warm build digest");
    }
    if (build) traced.erase(traced.begin());  // per-layer numbers from warm builds
    snap = traced.back().snap;
  } else if (build) {
    // Set-up: the cold first build, in this process and in fresh ones.
    {
      service::QueryService svc(o);
      const std::uint64_t t0 = now_ns();
      snap = svc.build(in.g, in.sources, in.cfg);
      setup_s.push_back(secs_since(t0));
      rss.push_back(peak_rss_mb(0));
    }
    const std::string exe = self_exe();
    for (int i = 1; i < kColdBuildSamples; ++i) {
      Child child({exe, "--cold-build", "--workload", a.workload},
                  a.work_dir + "/cold-build.log");
      const std::string line = child.wait_for_line("cold_build ", milliseconds(120000));
      rep.op(child.wait(milliseconds(10000)) == 0, "cold-build child exit");
      double s = 0, mb = 0;
      unsigned long long digest = 0;
      std::sscanf(line.c_str(), "cold_build %lf %llu %lf", &s, &digest, &mb);
      rep.op(digest == snap->content_digest(), "cold build digest in a fresh process");
      setup_s.push_back(s);
      rss.push_back(mb);
    }
    // Warm builds, each on a fresh service so none is a cache hit.
    const std::uint64_t t0 = now_ns();
    while (build_s.size() < 2 || secs_since(t0) < a.seconds) {
      service::QueryService svc(o);
      const std::uint64_t b0 = now_ns();
      const auto s = svc.build(in.g, in.sources, in.cfg);
      build_s.push_back(secs_since(b0));
      rep.op(s->content_digest() == snap->content_digest(), "warm build digest");
    }
    std::fprintf(stderr, "perfbench: cold builds (s):");
    for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "; warm builds (s):");
    for (const double s : build_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
  } else {
    snap = ref.build(in.g, in.sources, in.cfg);
  }
  ref.attach_graph(snap->content_digest(), std::make_shared<const Graph>(in.g));
  const std::string snap_path = a.work_dir + "/" + a.workload + ".snap";
  snap->save(snap_path);
  check_cells(*snap, in.g, a.seed, rep);
  const MixedPool pool = mixed_pool(in, ref, *snap, a.seed, rep);

  // Serving, in slices: build_* serve their oracle from in-process servers;
  // serve_point spawns msrp_serve for each slice, and each spawn is one
  // set-up sample. The run reports medians over the slices, so one unlucky
  // process placement or a burst of load elsewhere on the machine cannot
  // decide it.
  const auto shm_before = msrp_shm_segments();
  const int slices_n = a.trace ? 1 : build ? kBuildServeSlices : kPointSetupSamples;
  const double span = (build ? kBuildServeSeconds : a.seconds) / slices_n;
  std::vector<ServePhases> slices;
  std::optional<net::StatsSnapshotFrame> stats;
  for (int i = 0; i < slices_n; ++i) {
    std::unique_ptr<InProcServer> inproc;
    std::unique_ptr<Child> server;
    std::unique_ptr<net::Client> client;
    if (build) {
      inproc = std::make_unique<InProcServer>(snap, in.g, 2);
      client = std::make_unique<net::Client>(client_options(inproc->port()));
    } else {
      const std::uint64_t t0 = now_ns();
      server = std::make_unique<Child>(
          std::vector<std::string>{a.serve_bin, "--load-snapshot", snap_path, "--mmap",
                                   "--listen", "0", "--threads", "2"},
          a.work_dir + "/serve_point-server.log");
      const std::string listening = server->wait_for_line("listening on ", milliseconds(60000));
      client = std::make_unique<net::Client>(client_options(
          static_cast<std::uint16_t>(std::stoul(listening.substr(listening.rfind(':') + 1)))));
      setup_s.push_back(secs_since(t0));
      rep.op(client->hello().oracle_digest == snap->content_digest(), "HELLO oracle digest");
      // build_s on serve_point: the server's own snapshot-load time.
      for (const auto& line : server->lines()) {
        double ms = 0;
        if (line.rfind("loaded snapshot", 0) == 0 &&
            std::sscanf(line.c_str() + line.find(" in ") + 4, "%lf", &ms) == 1) {
          build_s.push_back(ms / 1e3);
        }
      }
    }
    // The open loop only feeds the traced run's diagnostics: its median
    // moved 20-30% between runs of the same code on the VM, with the
    // server idle 60% of the time and each batch waiting on a wake-up.
    const double open_s = a.trace ? span / 2 : 0.0;
    slices.push_back(serve_phases(*client, pool, span - open_s, open_s, a.trace, rep));
    if (a.trace) stats = client->stats();
    if (server) rss.push_back(server->peak_rss_mb());
    client.reset();
    if (server) teardown(server, shm_before, rep);
  }

  if (!a.trace) {
    const auto over = [&](const std::function<double(const ServePhases&)>& f) {
      std::vector<double> v;
      for (const auto& ph : slices) v.push_back(f(ph));
      return median(v);
    };
    std::fprintf(stderr, "perfbench: slices (qps, batch_p50_ms):");
    for (const auto& ph : slices) {
      std::fprintf(stderr, " (%.0f, %.4f)", ph.closed.qps(), median(ph.closed.lat_ms));
    }
    std::fprintf(stderr, "\n");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("build_s", median(build_s), "s");
    rep.add("peak_rss_mb", median(rss), "MB");
    rep.add("qps", over([](const ServePhases& ph) { return ph.closed.qps(); }), "1/s");
    rep.add("batch_p50_ms", over([](const ServePhases& ph) { return median(ph.closed.lat_ms); }),
            "ms");
    return;
  }
  const ServePhases& ph = slices.back();
  add_core(traced, rep);
  add_net_stats(*stats, rep);
  rep.add("tail.batch_p99_ms", percentile(ph.closed.lat_ms, 99), "ms");
  rep.add("tail.batch_samples", static_cast<double>(ph.closed.lat_ms.size()), "count");
  rep.add("tail.ol_p50_ms", median(ph.open.lat_ms), "ms");
  rep.add("tail.ol_p99_ms", percentile(ph.open.lat_ms, 99), "ms");
  rep.add("tail.ol_samples", static_cast<double>(ph.open.lat_ms.size()), "count");
  rep.add("gen.ol_late_p99_ms", percentile(ph.open.late_ms, 99), "ms");
  rep.add("trace.overhead_frac", ph.trace_overhead, "ratio");
  layer_probes(in, churn_in, snap, snap_path, pool, a, rep);
}

// ------------------------------------------------------------------ main ---

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build_er|build_grid|serve_point "
               "--seed N --seconds S --trace 0|1 --serve-bin <msrp_serve> --work-dir <dir>\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      a.trace = next() == "1";
    } else if (arg == "--serve-bin") {
      a.serve_bin = next();
    } else if (arg == "--work-dir") {
      a.work_dir = next();
    } else if (arg == "--cold-build") {
      a.cold_build = true;
    } else {
      usage();
    }
  }
  const bool known =
      a.workload == "build_er" || a.workload == "build_grid" || a.workload == "serve_point";
  if (!known || a.seconds <= 0 || (!a.cold_build && a.serve_bin.empty())) usage();
  return a;
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.cold_build) return cold_build_main(a);
  g_trace.on = a.trace;
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu_model\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str());
  std::fflush(stdout);
  Report rep;
  run_workload(a, rep);
  if (a.trace) {
    rep.add("ops_failed_frac", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
            "ratio");
    g_trace.write(a.work_dir + "/spans-" + a.workload + ".jsonl");
  }
  rep.print();
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: error: %s\n", ex.what());
    return 1;
  }
}
