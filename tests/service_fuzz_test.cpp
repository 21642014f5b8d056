// Differential fuzz harness for the serving stack.
//
// Every iteration draws a random instance (graph family, size, density,
// source count, solver seed), solves it, and then answers the same query
// batch through every serving path the service layer offers:
//
//   1. sync  — QueryService::query_batch against the built oracle
//   2. async — QueryService::submit<Point> against the same oracle: the
//              batch as drawn, and tiled past kPointChunk so both a
//              one-chunk batch (answered inline) and a multi-chunk one
//              (spread over the pool) answer it
//   3. load  — snapshot saved to disk, bulk-read back into an owned buffer
//              with the cells checksum verified
//   4. mmap  — the same file, reloaded zero-copy through a memory mapping
//   5. shm   — (MSRP_FUZZ_SHARDS=K > 0 only) a ShardRouter built over each
//              oracle, routing the batch through K forked worker processes
//              over shared-memory snapshot segments; off by default because
//              the sanitizer jobs run this suite and fork under TSan is
//              unsupported
//
// All paths must agree bit-for-bit with the O(sigma n m) brute-force
// oracle. On any mismatch the failure message carries the iteration seed;
// rerun with MSRP_FUZZ_SEED=<seed> MSRP_FUZZ_GRAPHS=1 to reproduce exactly
// that instance. MSRP_FUZZ_GRAPHS raises the default 200-instance budget
// for soak runs.
//
// A second harness fuzzes the protocol v3 typed workloads (TOP_K_VITAL,
// VICKREY_PRICES, K_FAIL) the same way: independent referees derived from
// the brute-force oracle — and, for k-fail, a from-scratch BFS of G - F —
// checked against the sync, async, and mmap-reload serving paths.
// MSRP_FUZZ_WORKLOADS sets its instance budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "baseline/baselines.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"
#include "service/workloads.hpp"

namespace msrp {
namespace {

using service::KFail;
using service::Query;
using service::Snapshot;
using service::Vickrey;
using service::Vitality;
using service::WorkloadResult;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? std::strtoull(raw, nullptr, 10) : fallback;
}

Graph random_instance(Rng& rng) {
  const Vertex n = static_cast<Vertex>(6 + rng.next_below(30));
  const double p = 0.05 + 0.4 * rng.next_double();
  switch (rng.next_below(5)) {
    case 0: return gen::erdos_renyi(n, p, rng);  // may be disconnected
    case 1: return gen::connected_gnp(n, p, rng);
    case 2: return gen::random_tree(n, rng);  // every tree edge is a cut edge
    case 3: return gen::path_with_chords(n, 1 + static_cast<std::uint32_t>(n / 4), rng);
    default: return gen::barbell(3 + static_cast<Vertex>(rng.next_below(4)),
                                 2 + static_cast<Vertex>(rng.next_below(4)));
  }
}

TEST(ServiceFuzz, AllServingPathsMatchBruteForce) {
  const std::uint64_t base_seed = env_u64("MSRP_FUZZ_SEED", 0xF0225EEDULL);
  const std::uint64_t num_graphs = env_u64("MSRP_FUZZ_GRAPHS", 200);
  const std::uint64_t shards = env_u64("MSRP_FUZZ_SHARDS", 0);
  const std::string dir = testing::TempDir();

  service::QueryService svc({.threads = 4});
  service::QueryService async_svc({.threads = 4});
  const auto submit_and_wait = [&async_svc](std::shared_ptr<const Snapshot> oracle,
                                            std::vector<Query> queries) {
    std::promise<service::BatchResult> delivered;
    async_svc.submit<service::Point>(std::move(oracle), std::move(queries),
                                     [&delivered](service::BatchResult r) {
                                       delivered.set_value(std::move(r));
                                     });
    return delivered.get_future().get();
  };

  for (std::uint64_t iter = 0; iter < num_graphs; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (rerun: MSRP_FUZZ_SEED=" + std::to_string(seed) +
                 " MSRP_FUZZ_GRAPHS=1)");
    Rng rng(seed);

    const Graph g = random_instance(rng);
    const Vertex n = g.num_vertices();
    const EdgeId m = g.num_edges();
    if (m == 0) continue;  // no edges -> no valid (s, t, e) queries

    const std::uint32_t sigma =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min<Vertex>(4, n)));
    const auto picks = rng.sample_without_replacement(n, sigma);
    const std::vector<Vertex> sources(picks.begin(), picks.end());

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.exact = rng.next_bernoulli(0.25);
    // Randomize the build thread count. The service itself always builds on
    // its own pool (ignoring build_threads), so the direct solve below
    // cross-checks bit-identity between a build at this thread count and
    // the pool build — content digests cover trees and every row cell.
    cfg.build_threads = 1 + static_cast<unsigned>(rng.next_below(4));

    const MsrpResult truth = solve_msrp_brute_force(g, sources);
    const auto oracle = svc.build(g, sources, cfg);
    ASSERT_EQ(Snapshot::capture(solve_msrp(g, sources, cfg)).content_digest(),
              oracle->content_digest())
        << "threads=" << cfg.build_threads << " diverged from pool build, seed=" << seed;

    // Exhaustive queries when the instance is small, random sample otherwise.
    std::vector<Query> queries;
    const std::uint64_t universe = std::uint64_t{sigma} * n * m;
    if (universe <= 4096) {
      for (const Vertex s : sources) {
        for (Vertex t = 0; t < n; ++t) {
          for (EdgeId e = 0; e < m; ++e) queries.push_back({s, t, e});
        }
      }
    } else {
      for (int i = 0; i < 1500; ++i) {
        queries.push_back({sources[rng.next_below(sigma)],
                           static_cast<Vertex>(rng.next_below(n)),
                           static_cast<EdgeId>(rng.next_below(m))});
      }
    }
    std::vector<Dist> want(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      want[i] = truth.avoiding(queries[i].s, queries[i].t, queries[i].e);
    }

    // Path 1: sync batch.
    const std::vector<Dist> sync_got = svc.query_batch(*oracle, queries);
    ASSERT_EQ(sync_got, want) << "sync path diverged, seed=" << seed;

    // Path 2: async against the same oracle handle, as drawn and tiled.
    const service::BatchResult async_res = submit_and_wait(oracle, queries);
    ASSERT_EQ(async_res.error, nullptr) << "async path failed, seed=" << seed;
    ASSERT_EQ(async_res.answers, want) << "async path diverged, seed=" << seed;
    std::vector<Query> tiled;
    std::vector<Dist> tiled_want;
    while (tiled.size() <= service::kPointChunk) {
      tiled.insert(tiled.end(), queries.begin(), queries.end());
      tiled_want.insert(tiled_want.end(), want.begin(), want.end());
    }
    const service::BatchResult tiled_res = submit_and_wait(oracle, tiled);
    ASSERT_EQ(tiled_res.error, nullptr) << "async fan-out failed, seed=" << seed;
    ASSERT_EQ(tiled_res.answers, tiled_want) << "async fan-out diverged, seed=" << seed;

    // Path 5 (opt-in): route the same batch through forked shard workers
    // over shared-memory segments.
    if (shards > 0) {
      service::ShardRouterOptions opts;
      opts.shards = static_cast<unsigned>(shards);
      service::ShardRouter router(*oracle, opts);
      ASSERT_EQ(router.query_batch(queries), want) << "sharded path diverged, seed=" << seed;
    }

    // Paths 3 + 4: one saved file, served from an owned buffer and from
    // the mmap fast path.
    const std::string v2_path = dir + "/msrp_fuzz_" + std::to_string(seed) + ".v2.snap";
    oracle->save(v2_path);
    {
      const Snapshot buffered = Snapshot::load(v2_path);
      ASSERT_FALSE(buffered.is_mapped());
      ASSERT_EQ(buffered.content_digest(), oracle->content_digest()) << "seed=" << seed;
      ASSERT_EQ(svc.query_batch(buffered, queries), want)
          << "buffered load path diverged, seed=" << seed;

      const Snapshot mapped =
          Snapshot::load(v2_path, {.use_mmap = true, .verify_cells = true});
      ASSERT_EQ(mapped.content_digest(), oracle->content_digest()) << "seed=" << seed;
      ASSERT_EQ(svc.query_batch(mapped, queries), want)
          << "v2 mmap path diverged, seed=" << seed;
    }
    std::remove(v2_path.c_str());
  }
}

// ----- typed workload referees (protocol v3 opcodes) -----------------------
//
// Each referee is derived from the brute-force oracle (or, for k-fail, a
// plain BFS written here from scratch), never from the service's own
// assembly code — the point is that two independent derivations of "top-k
// vital", "Vickrey prices", and "d(s,t) in G - F" agree bit for bit.

service::VitalityResult referee_vitality(const MsrpResult& truth, Vertex s, Vertex t,
                                         std::uint32_t k) {
  service::VitalityResult out;
  out.base = truth.shortest(s, t);
  if (s == t || out.base == kInfDist) return out;
  const std::vector<EdgeId> path = truth.tree(s).path_edges(t);
  for (std::uint32_t i = 0; i < path.size(); ++i) {
    out.edges.push_back({path[i], i, truth.avoiding(s, t, path[i])});
  }
  // (vitality desc, position asc); base is constant over the path, so
  // ordering by the replacement distance is the same order (kInfDist — a
  // bridge — sorts largest).
  std::stable_sort(out.edges.begin(), out.edges.end(),
                   [](const service::VitalityEntry& a, const service::VitalityEntry& b) {
                     if (a.replacement != b.replacement) return a.replacement > b.replacement;
                     return a.position < b.position;
                   });
  if (out.edges.size() > k) out.edges.resize(k);
  return out;
}

service::VickreyResult referee_vickrey(const MsrpResult& truth, Vertex s, Vertex t) {
  service::VickreyResult out;
  out.base = truth.shortest(s, t);
  if (s == t || out.base == kInfDist) return out;
  for (const EdgeId e : truth.tree(s).path_edges(t)) {
    const Dist repl = truth.avoiding(s, t, e);
    out.prices.push_back({e, repl == kInfDist ? kInfDist : repl - out.base});
  }
  return out;
}

/// d(s, t) in G - fails by textbook BFS — independent of the ftsub
/// machinery, the oracle rows, and the canonical-tree code alike.
Dist referee_kfail(const Graph& g, Vertex s, Vertex t, std::span<const EdgeId> fails) {
  if (s == t) return 0;
  std::vector<Dist> dist(g.num_vertices(), kInfDist);
  std::vector<Vertex> queue{s};
  dist[s] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (const Arc& a : g.neighbors(u)) {
      if (std::find(fails.begin(), fails.end(), a.edge) != fails.end()) continue;
      if (dist[a.to] != kInfDist) continue;
      dist[a.to] = dist[u] + 1;
      if (a.to == t) return dist[a.to];
      queue.push_back(a.to);
    }
  }
  return dist[t];
}

// Differential fuzz for the three v3 workloads: every iteration answers the
// same typed batches through the in-process path, the async submit path,
// and the v2 mmap reload in a *fresh* service (where |F| == 2 must demand
// an explicit attach_graph), all against the referees above. Rerun one
// instance with MSRP_FUZZ_SEED=<seed> MSRP_FUZZ_WORKLOADS=1.
TEST(ServiceFuzz, WorkloadOpcodesMatchBruteForce) {
  const std::uint64_t base_seed = env_u64("MSRP_FUZZ_SEED", 0x3B17A11DULL);
  const std::uint64_t num_graphs = env_u64("MSRP_FUZZ_WORKLOADS", 120);
  const std::string dir = testing::TempDir();

  service::QueryService svc({.threads = 4});
  // A second service that never built anything: oracles arrive here only as
  // mmap-loaded snapshots, so it exercises the attach_graph contract.
  service::QueryService reload_svc({.threads = 2});

  for (std::uint64_t iter = 0; iter < num_graphs; ++iter) {
    const std::uint64_t seed = base_seed + iter;
    SCOPED_TRACE("workload fuzz seed " + std::to_string(seed) +
                 " (rerun: MSRP_FUZZ_SEED=" + std::to_string(seed) +
                 " MSRP_FUZZ_WORKLOADS=1)");
    Rng rng(seed);

    const Graph g = random_instance(rng);
    const Vertex n = g.num_vertices();
    const EdgeId m = g.num_edges();
    if (m == 0) continue;

    const std::uint32_t sigma =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min<Vertex>(4, n)));
    const auto picks = rng.sample_without_replacement(n, sigma);
    const std::vector<Vertex> sources(picks.begin(), picks.end());

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.exact = rng.next_bernoulli(0.25);

    const MsrpResult truth = solve_msrp_brute_force(g, sources);
    const auto oracle = svc.build(g, sources, cfg);

    // One query of each kind per (source, target) pair — exhaustive over
    // the pair universe (sigma <= 4, n <= 35), randomized in k and F.
    std::vector<service::VitalityQuery> vq;
    std::vector<service::VitalityResult> vwant;
    std::vector<service::VickreyQuery> pq;
    std::vector<service::VickreyResult> pwant;
    std::vector<service::KFailQuery> fq;
    std::vector<Dist> fwant;
    bool has_two_fail = false;
    for (const Vertex s : sources) {
      for (Vertex t = 0; t < n; ++t) {
        const std::uint32_t k = 1 + static_cast<std::uint32_t>(rng.next_below(8));
        vq.push_back({s, t, k});
        vwant.push_back(referee_vitality(truth, s, t, k));
        pq.push_back({s, t});
        pwant.push_back(referee_vickrey(truth, s, t));

        service::KFailQuery f{s, t, {}};
        const std::size_t fk =
            std::min<std::size_t>(rng.next_below(service::kMaxKFailEdges + 1), m);
        while (f.fails.size() < fk) {
          const EdgeId e = static_cast<EdgeId>(rng.next_below(m));
          if (std::find(f.fails.begin(), f.fails.end(), e) == f.fails.end()) {
            f.fails.push_back(e);
          }
        }
        has_two_fail |= f.fails.size() == 2;
        fwant.push_back(referee_kfail(g, s, t, f.fails));
        fq.push_back(std::move(f));
      }
    }

    // |F| <= 1 answers must also equal the oracle row the point path would
    // serve — the two referees (BFS vs brute-force rows) cross-check here.
    for (std::size_t i = 0; i < fq.size(); ++i) {
      if (fq[i].fails.size() == 1) {
        ASSERT_EQ(fwant[i], truth.avoiding(fq[i].s, fq[i].t, fq[i].fails[0]))
            << "referees disagree, seed=" << seed;
      }
    }

    // Path 1: the sync typed entry points.
    ASSERT_EQ(svc.run<Vitality>(*oracle, vq), vwant) << "vitality diverged, seed=" << seed;
    ASSERT_EQ(svc.run<Vickrey>(*oracle, pq), pwant) << "vickrey diverged, seed=" << seed;
    ASSERT_EQ(svc.run<KFail>(*oracle, fq), fwant) << "kfail diverged, seed=" << seed;

    // Path 2: the async submit flavours (what the wire server drives).
    {
      std::promise<WorkloadResult<Vitality>> vp;
      svc.submit<Vitality>(oracle, vq, [&vp](WorkloadResult<Vitality> r) {
        vp.set_value(std::move(r));
      });
      const WorkloadResult<Vitality> vr = vp.get_future().get();
      ASSERT_EQ(vr.error, nullptr) << "async vitality failed, seed=" << seed;
      ASSERT_EQ(vr.answers, vwant) << "async vitality diverged, seed=" << seed;

      std::promise<WorkloadResult<Vickrey>> pp;
      svc.submit<Vickrey>(oracle, pq, [&pp](WorkloadResult<Vickrey> r) {
        pp.set_value(std::move(r));
      });
      const WorkloadResult<Vickrey> pr = pp.get_future().get();
      ASSERT_EQ(pr.error, nullptr) << "async vickrey failed, seed=" << seed;
      ASSERT_EQ(pr.answers, pwant) << "async vickrey diverged, seed=" << seed;

      std::promise<WorkloadResult<KFail>> fp;
      svc.submit<KFail>(oracle, fq, [&fp](WorkloadResult<KFail> r) {
        fp.set_value(std::move(r));
      });
      const WorkloadResult<KFail> fr = fp.get_future().get();
      ASSERT_EQ(fr.error, nullptr) << "async kfail failed, seed=" << seed;
      ASSERT_EQ(fr.answers, fwant) << "async kfail diverged, seed=" << seed;
    }

    // Path 3: v2 snapshot reloaded zero-copy into a service that never saw
    // the build. Vitality and Vickrey work from the mapping alone; a
    // two-edge failure set must first refuse (no graph behind the digest),
    // then answer identically once the graph is attached.
    const std::string v2_path =
        dir + "/msrp_wfuzz_" + std::to_string(seed) + ".v2.snap";
    oracle->save(v2_path);
    {
      const Snapshot v2 = Snapshot::load(v2_path, {.use_mmap = true, .verify_cells = false});
      ASSERT_EQ(v2.content_digest(), oracle->content_digest()) << "seed=" << seed;
      ASSERT_EQ(reload_svc.run<Vitality>(v2, vq), vwant)
          << "mmap vitality diverged, seed=" << seed;
      ASSERT_EQ(reload_svc.run<Vickrey>(v2, pq), pwant)
          << "mmap vickrey diverged, seed=" << seed;
      if (has_two_fail) {
        EXPECT_THROW(reload_svc.run<KFail>(v2, fq), std::invalid_argument)
            << "unattached |F|==2 must refuse, seed=" << seed;
      }
      reload_svc.attach_graph(v2.content_digest(), std::make_shared<const Graph>(g));
      ASSERT_EQ(reload_svc.run<KFail>(v2, fq), fwant)
          << "mmap kfail diverged, seed=" << seed;
    }
    std::remove(v2_path.c_str());
  }
}

}  // namespace
}  // namespace msrp
