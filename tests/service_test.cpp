// Tests for the batched query service layer: snapshot round trips (the
// buffered and the mmap load path), sync and async batches
// against the brute-force oracle, single-flighted builds racing entry
// expiry, and the thread pool underneath it all. The concurrency tests
// double as the TSan workload in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>
#include <type_traits>

#include "baseline/baselines.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "rp/oracle.hpp"
#include "service/query_service.hpp"

namespace msrp {
namespace {

using service::OracleKey;
using service::Query;
using service::Snapshot;

// ------------------------------------------------------------- snapshots ---

TEST(Snapshot, RoundTripReproducesEveryAnswer) {
  Rng rng(7);
  const Graph g = gen::connected_gnp(60, 0.08, rng);
  const std::vector<Vertex> sources{0, 17, 41};
  const MsrpResult res = solve_msrp(g, sources);

  const Snapshot snap = Snapshot::capture(res);
  std::stringstream ss;
  snap.write(ss);
  const Snapshot loaded = Snapshot::read(ss);

  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_EQ(loaded.sources(), sources);
  EXPECT_EQ(loaded.content_digest(), snap.content_digest());

  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(loaded.shortest(s, t), res.shortest(s, t)) << "s=" << s << " t=" << t;
      const auto want = res.row(s, t);
      const auto got = loaded.row(s, t);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
      // avoiding() for every edge id, on-path and off-path alike.
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(loaded.avoiding(s, t, e), res.avoiding(s, t, e))
            << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
}

TEST(Snapshot, InfinityAndUnreachableSurvive) {
  // Barbell: bridge edges are cut edges (replacement = inf). Plus an
  // isolated component for unreachable targets.
  const Graph barbell = gen::barbell(5, 4);
  const MsrpResult res = solve_msrp(barbell, {0});
  std::stringstream ss;
  Snapshot::capture(res).write(ss);
  const Snapshot snap = Snapshot::read(ss);
  for (Vertex t = 0; t < barbell.num_vertices(); ++t) {
    for (EdgeId e = 0; e < barbell.num_edges(); ++e) {
      EXPECT_EQ(snap.avoiding(0, t, e), res.avoiding(0, t, e));
    }
  }

  Graph split(6, {{0, 1}, {1, 2}, {4, 5}});
  const MsrpResult res2 = solve_msrp(split, {0});
  std::stringstream ss2;
  Snapshot::capture(res2).write(ss2);
  const Snapshot snap2 = Snapshot::read(ss2);
  EXPECT_EQ(snap2.shortest(0, 4), kInfDist);
  EXPECT_TRUE(snap2.row(0, 4).empty());
  EXPECT_EQ(snap2.avoiding(0, 4, 0), kInfDist);
}

TEST(Snapshot, FileRoundTrip) {
  Rng rng(3);
  const Graph g = gen::connected_gnp(30, 0.15, rng);
  const MsrpResult res = solve_msrp(g, {0, 15});
  const Snapshot snap = Snapshot::capture(res);

  const std::string path = testing::TempDir() + "/msrp_snapshot_test.bin";
  snap.save(path);
  const Snapshot loaded = Snapshot::load(path);
  EXPECT_EQ(loaded.content_digest(), snap.content_digest());
  EXPECT_GT(loaded.encoded_size(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptionIsDetected) {
  const Graph g = gen::cycle(8);
  const MsrpResult res = solve_msrp(g, {0});
  std::stringstream ss;
  Snapshot::capture(res).write(ss);
  std::string image = ss.str();

  {
    std::stringstream truncated(image.substr(0, image.size() / 2));
    EXPECT_THROW(Snapshot::read(truncated), std::invalid_argument);
  }
  {
    std::string flipped = image;
    flipped[flipped.size() / 2] ^= 0x40;  // body byte -> checksum mismatch
    std::stringstream in(flipped);
    EXPECT_THROW(Snapshot::read(in), std::invalid_argument);
  }
  {
    std::string bad_magic = image;
    bad_magic[0] = 'X';
    std::stringstream in(bad_magic);
    EXPECT_THROW(Snapshot::read(in), std::invalid_argument);
  }
}

TEST(Snapshot, BufferedAndMappedLoadsAgree) {
  Rng rng(13);
  const Graph g = gen::connected_gnp(50, 0.1, rng);
  const std::vector<Vertex> sources{0, 25, 49};
  const MsrpResult res = solve_msrp(g, sources);
  const Snapshot snap = Snapshot::capture(res);

  const std::string path = testing::TempDir() + "/msrp_load_test.snap";
  snap.save(path);

  const Snapshot buffered = Snapshot::load(path);
  const Snapshot mapped = Snapshot::load(path, {.use_mmap = true, .verify_cells = false});
  EXPECT_FALSE(buffered.is_mapped());
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(buffered.content_digest(), snap.content_digest());
  EXPECT_EQ(mapped.content_digest(), snap.content_digest());

  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Dist want = res.avoiding(s, t, e);
        ASSERT_EQ(buffered.avoiding(s, t, e), want) << "s=" << s << " t=" << t << " e=" << e;
        ASSERT_EQ(mapped.avoiding(s, t, e), want) << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, NonSourceAndOutOfRangeThrow) {
  const Graph g = gen::cycle(6);
  const MsrpResult res = solve_msrp(g, {0});
  const Snapshot snap = Snapshot::capture(res);
  EXPECT_THROW(snap.shortest(1, 2), std::invalid_argument);
  EXPECT_THROW(snap.avoiding(0, 99, 0), std::invalid_argument);
  EXPECT_THROW(snap.avoiding(0, 2, 99), std::invalid_argument);
}

// ------------------------------------------------------------ thread pool ---

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    // A throwing task neither kills its worker nor stops the rest.
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool runs every queued task before it joins
  EXPECT_EQ(counter.load(), 1000);
}

// ---------------------------------------------------------- query service ---

TEST(QueryService, ConcurrentBatchMatchesBruteForceOracle) {
  Rng rng(21);
  const Graph g = gen::connected_gnp(80, 0.07, rng);
  const std::vector<Vertex> sources{0, 5, 9, 17};

  service::QueryService svc({.threads = 4});
  const auto oracle = svc.build(g, sources);

  // Every (s, t, e) triple: sigma * n * m queries, answered on 4 threads.
  std::vector<Query> batch;
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) batch.push_back({s, t, e});
    }
  }
  const std::vector<Dist> got = svc.query_batch(*oracle, batch);
  ASSERT_EQ(got.size(), batch.size());

  std::size_t i = 0;
  for (const Vertex s : sources) {
    const RpOracle truth(g, s);
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      for (EdgeId e = 0; e < g.num_edges(); ++e, ++i) {
        ASSERT_EQ(got[i], truth.distance_avoiding(t, e))
            << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
  EXPECT_EQ(svc.queries_served(), batch.size());
}

TEST(QueryService, BatchAnswersMatchSerialAvoiding) {
  Rng rng(5);
  const Graph g = gen::connected_avg_degree(120, 5.0, rng);
  const std::vector<Vertex> sources{2, 60, 90};
  const MsrpResult res = solve_msrp(g, sources);

  service::QueryService svc({.threads = 4});
  const auto oracle = svc.build(g, sources);

  Rng qrng(77);
  std::vector<Query> batch;
  for (int i = 0; i < 20000; ++i) {
    batch.push_back({sources[qrng.next_below(sources.size())],
                     static_cast<Vertex>(qrng.next_below(g.num_vertices())),
                     static_cast<EdgeId>(qrng.next_below(g.num_edges()))});
  }
  const std::vector<Dist> got = svc.query_batch(*oracle, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(got[i], res.avoiding(batch[i].s, batch[i].t, batch[i].e)) << "i=" << i;
  }
}

TEST(QueryService, ConcurrentCallersShareThePool) {
  Rng rng(31);
  const Graph g = gen::connected_gnp(60, 0.1, rng);
  const std::vector<Vertex> sources{0, 30};
  const MsrpResult res = solve_msrp(g, sources);

  service::QueryService svc({.threads = 4});
  const auto oracle = svc.build(g, sources);

  Rng qrng(13);
  std::vector<Query> batch;
  for (int i = 0; i < 5000; ++i) {
    batch.push_back({sources[qrng.next_below(2)],
                     static_cast<Vertex>(qrng.next_below(g.num_vertices())),
                     static_cast<EdgeId>(qrng.next_below(g.num_edges()))});
  }
  std::vector<Dist> want(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    want[i] = res.avoiding(batch[i].s, batch[i].t, batch[i].e);
  }

  // Several caller threads hammer the same service; every batch must come
  // back complete and correct.
  constexpr int kCallers = 4, kRounds = 10;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        const std::vector<Dist> got = svc.query_batch(*oracle, batch);
        if (got != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.queries_served(), batch.size() * kCallers * kRounds);
}

/// A valid batch of at least three kPointChunk chunks whose only invalid
/// query, `bad`, is the very last one.
std::vector<Query> multi_chunk_batch_ending_in(Query bad) {
  std::vector<Query> batch(3 * service::kPointChunk, Query{0, 1, 0});
  batch.back() = bad;
  return batch;
}

TEST(QueryService, RejectsInvalidQueries) {
  const Graph g = gen::cycle(10);
  service::QueryService svc({.threads = 2});
  const auto oracle = svc.build(g, {0});
  EXPECT_THROW(svc.query_batch(*oracle, std::vector<Query>{{1, 2, 0}}),
               std::invalid_argument);  // not a source
  EXPECT_THROW(svc.query_batch(*oracle, std::vector<Query>{{0, 99, 0}}),
               std::invalid_argument);  // target out of range
  EXPECT_THROW(svc.query_batch(*oracle, std::vector<Query>{{0, 2, 99}}),
               std::invalid_argument);  // edge out of range
  // The same rejection when the bad query sits in the last chunk of a
  // batch spread over the pool: no answers, nothing counted as served.
  for (const Query bad : {Query{1, 2, 0}, Query{0, 99, 0}, Query{0, 2, 99}}) {
    EXPECT_THROW(svc.query_batch(*oracle, multi_chunk_batch_ending_in(bad)),
                 std::invalid_argument);
  }
  EXPECT_EQ(svc.queries_served(), 0u);
}

TEST(QueryService, RepeatBuildHitsCache) {
  Rng rng(9);
  const Graph g = gen::connected_gnp(40, 0.1, rng);
  service::QueryService svc({.threads = 1});
  const auto first = svc.build(g, {0, 20});
  const auto second = svc.build(g, {0, 20});
  EXPECT_EQ(first.get(), second.get());  // same oracle object, no re-solve
  EXPECT_EQ(svc.cache().hits(), 1u);

  // Different sources or config -> different oracle.
  const auto third = svc.build(g, {0, 21});
  EXPECT_NE(first.get(), third.get());
  Config exact;
  exact.exact = true;
  const auto fourth = svc.build(g, {0, 20}, exact);
  EXPECT_NE(first.get(), fourth.get());
}

// A build is the exact subtree table on the service's pool, whatever the
// config says; the config only keys the cache.
TEST(QueryService, BuildServesTheSubtreeSolversTable) {
  Rng rng(11);
  const Graph g = gen::connected_gnp(80, 0.06, rng);
  const std::vector<Vertex> sources{3, 40, 77};
  const std::uint64_t want =
      Snapshot::capture(solve_msrp_subtree(g, sources)).content_digest();
  service::QueryService svc({.threads = 4});
  EXPECT_EQ(svc.build(g, sources)->content_digest(), want);
  Config other;
  other.seed = 99;
  other.exact = true;
  const auto rebuilt = svc.build(g, sources, other);
  EXPECT_EQ(svc.cache().misses(), 2u);  // a new config is a real build
  EXPECT_EQ(rebuilt->content_digest(), want);
}

// --------------------------------------------------------------- async API ---

/// submit<W> and wait for its one delivery.
template <class W>
service::WorkloadResult<W> submit_and_wait(service::QueryService& svc,
                                           std::shared_ptr<const Snapshot> oracle,
                                           std::vector<typename W::Query> queries) {
  std::promise<service::WorkloadResult<W>> delivered;
  svc.submit<W>(std::move(oracle), std::move(queries),
                [&delivered](service::WorkloadResult<W> r) {
                  delivered.set_value(std::move(r));
                });
  return delivered.get_future().get();
}

std::vector<Query> random_batch(const Graph& g, const std::vector<Vertex>& sources,
                                std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back({sources[rng.next_below(sources.size())],
                     static_cast<Vertex>(rng.next_below(g.num_vertices())),
                     static_cast<EdgeId>(rng.next_below(g.num_edges()))});
  }
  return batch;
}

// Sync and async share Point::answer; a one-chunk batch (answered inline)
// and a multi-chunk one (spread over the pool) must both agree with the
// sync answers (which Snapshot tests pin against the solver).
TEST(QueryService, AsyncBatchMatchesSync) {
  Rng rng(61);
  const Graph g = gen::connected_avg_degree(100, 5.0, rng);
  const std::vector<Vertex> sources{0, 40, 80};
  service::QueryService svc({.threads = 4});
  const auto oracle = svc.build(g, sources);

  for (const std::size_t count : {std::size_t{100}, std::size_t{20000}}) {
    SCOPED_TRACE(count);  // one chunk and several
    const std::vector<Query> batch = random_batch(g, sources, count, 62);
    const std::vector<Dist> want = svc.query_batch(*oracle, batch);
    const service::BatchResult res = submit_and_wait<service::Point>(svc, oracle, batch);
    EXPECT_EQ(res.error, nullptr);
    EXPECT_EQ(res.oracle.get(), oracle.get());
    EXPECT_EQ(res.answers, want);
  }
}

TEST(QueryService, AsyncCallbackDeliversOnAPoolThread) {
  Rng rng(64);
  const Graph g = gen::connected_gnp(40, 0.15, rng);
  const std::vector<Vertex> sources{0, 20};
  service::QueryService svc({.threads = 2});
  const auto oracle = svc.build(g, sources);

  std::vector<Query> batch;
  for (Vertex t = 0; t < g.num_vertices(); ++t) batch.push_back({0, t, 0});
  const std::vector<Dist> want = svc.query_batch(*oracle, batch);

  std::promise<std::pair<service::BatchResult, std::thread::id>> delivered;
  svc.submit<service::Point>(oracle, batch, [&delivered](service::BatchResult r) {
    delivered.set_value({std::move(r), std::this_thread::get_id()});
  });
  auto [res, thread] = delivered.get_future().get();
  EXPECT_NE(thread, std::this_thread::get_id());
  EXPECT_EQ(res.error, nullptr);
  EXPECT_EQ(res.answers, want);
}

TEST(QueryService, AsyncValidationErrorsArriveInBatchResult) {
  const Graph g = gen::cycle(10);
  service::QueryService svc({.threads = 2});
  const auto oracle = svc.build(g, {0});

  for (const Query bad : {Query{1, 2, 0}, Query{0, 99, 0}, Query{0, 2, 99}}) {
    for (const std::vector<Query>& batch :
         {std::vector<Query>{{0, 1, 0}, bad}, multi_chunk_batch_ending_in(bad)}) {
      SCOPED_TRACE(batch.size());
      const service::BatchResult res = submit_and_wait<service::Point>(svc, oracle, batch);
      ASSERT_NE(res.error, nullptr);
      EXPECT_TRUE(res.answers.empty());
      EXPECT_EQ(res.oracle, nullptr);
      EXPECT_THROW(std::rethrow_exception(res.error), std::invalid_argument);
    }
  }
  EXPECT_EQ(svc.queries_served(), 0u);
}

// A callback that throws must still be delivered exactly once: the
// exception may not turn the finished batch into a second, failed delivery.
TEST(QueryService, ThrowingCallbackIsDeliveredOnce) {
  const Graph g = gen::cycle(10);
  std::atomic<int> deliveries{0};
  std::atomic<int> failed_deliveries{0};
  {
    service::QueryService svc({.threads = 2});
    const auto oracle = svc.build(g, {0});
    const auto throwing = [&](const auto& r) {
      if (r.error != nullptr) failed_deliveries.fetch_add(1);
      if (deliveries.fetch_add(1) == 0) throw std::runtime_error("callback failed");
    };
    // Both batches are delivered by submit's one pool task.
    svc.submit<service::KFail>(oracle, {service::KFailQuery{0, 3, {}}}, throwing);
    svc.submit<service::Point>(oracle, {Query{0, 3, 0}}, throwing);
  }  // ~QueryService drains the pool
  EXPECT_EQ(deliveries.load(), 2);
  EXPECT_EQ(failed_deliveries.load(), 0);
}

// service.queries_served counts answered queries: a vitality, Vickrey or
// k-fail query counts once on both entry points, however many edges its
// canonical path has.
TEST(QueryService, WorkloadQueriesCountOncePerQuery) {
  Rng rng(71);
  const Graph g = gen::connected_avg_degree(60, 4.0, rng);
  service::QueryService svc({.threads = 2});
  const auto oracle = svc.build(g, {0, 30});

  std::vector<service::VitalityQuery> vitality;
  std::vector<service::VickreyQuery> vickrey;
  std::vector<service::KFailQuery> kfail;
  std::size_t path_edges = 0;
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    vitality.push_back({0, t, 3});
    vickrey.push_back({30, t});
    std::vector<EdgeId> fails;
    for (EdgeId e = 0; e < t % 3; ++e) fails.push_back(e);
    kfail.push_back({0, t, fails});
    path_edges += oracle->canonical_path(0, t).size();
  }
  ASSERT_GT(path_edges, vitality.size());  // a per-edge count would differ

  std::uint64_t want = 0;
  const auto run_both = [&]<class W>(std::type_identity<W>,
                                     const std::vector<typename W::Query>& queries) {
    SCOPED_TRACE(W::kName);
    const auto sync = svc.run<W>(*oracle, queries);
    want += queries.size();
    EXPECT_EQ(svc.queries_served(), want);
    const service::WorkloadResult<W> async = submit_and_wait<W>(svc, oracle, queries);
    ASSERT_EQ(async.error, nullptr);
    EXPECT_EQ(async.answers, sync);
    want += queries.size();
    EXPECT_EQ(svc.queries_served(), want);
  };
  run_both(std::type_identity<service::Vitality>{}, vitality);
  run_both(std::type_identity<service::Vickrey>{}, vickrey);
  run_both(std::type_identity<service::KFail>{}, kfail);
}

TEST(QueryService, StressConcurrentAsyncSubmitsRacingEntryExpiry) {
  // Six caller threads build one of three distinct instances and submit a
  // batch against it, dropping the oracle once the batch is answered. Each
  // oracle lives only as long as some caller or in-flight batch holds it,
  // so entries expire and rebuild while other callers hit, park on, or
  // sweep them: every answer must still be exact, every batch must
  // complete, and (under TSan) the pool, table, and completion paths must
  // be race-free.
  constexpr int kInstances = 3, kCallers = 6, kRounds = 5;
  std::vector<Graph> graphs;
  std::vector<std::vector<Vertex>> sources;
  std::vector<MsrpResult> truths;
  // MsrpResult keeps a pointer to the graph it was solved on; reserve so
  // the push_backs below never reallocate the graphs out from under it.
  graphs.reserve(kInstances);
  truths.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(70 + i);
    graphs.push_back(gen::connected_gnp(40 + 5 * i, 0.12, rng));
    sources.push_back({0, static_cast<Vertex>(10 + i), static_cast<Vertex>(30 + i)});
    truths.push_back(solve_msrp(graphs.back(), sources.back()));
  }

  service::QueryService svc({.threads = 4});
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Rng rng(900 + c);
      for (int r = 0; r < kRounds; ++r) {
        const int i = static_cast<int>(rng.next_below(kInstances));
        const std::vector<Query> batch =
            random_batch(graphs[i], sources[i], 400, rng.next_u64());
        service::BatchResult res = submit_and_wait<service::Point>(
            svc, svc.build(graphs[i], sources[i]), batch);
        if (res.error != nullptr || res.answers.size() != batch.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t q = 0; q < batch.size(); ++q) {
          if (res.answers[q] != truths[i].avoiding(batch[q].s, batch[q].t, batch[q].e)) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.cache().pending_builds(), 0u);
}

// ------------------------------------------------------------ oracle cache ---

std::shared_ptr<const Snapshot> tiny_oracle(Vertex n) {
  const Graph g = gen::cycle(n);
  return std::make_shared<const Snapshot>(Snapshot::capture(solve_msrp(g, {0})));
}

TEST(OracleCache, GetOrBuildBuildsOnce) {
  service::OracleCache cache;
  const OracleKey key{42, {0}, 7};
  int builds = 0;
  auto builder = [&builds] {
    ++builds;
    return tiny_oracle(4);
  };
  const auto first = cache.get_or_build(key, builder);
  const auto second = cache.get_or_build(key, builder);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(OracleCache, ConcurrentGetOrBuildSingleFlights) {
  service::OracleCache cache;
  const OracleKey key{77, {0}, 1};
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Snapshot>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = cache.get_or_build(key, [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return tiny_oracle(5);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1) << "concurrent misses must share one build";
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[i].get(), got[0].get());
  EXPECT_EQ(cache.pending_builds(), 0u);
}

TEST(OracleCache, ExpiryRacingInFlightBuildKeepsPendingOracle) {
  service::OracleCache cache;
  const OracleKey slow_key{10, {0}, 0};
  std::promise<void> build_started;
  std::promise<void> release_build;
  std::shared_future<void> release = release_build.get_future().share();

  std::thread builder([&] {
    auto oracle = cache.get_or_build(slow_key, [&] {
      build_started.set_value();
      release.wait();  // hold the build in flight
      return tiny_oracle(6);
    });
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->num_vertices(), 6u);
  });
  build_started.get_future().wait();
  EXPECT_EQ(cache.pending_builds(), 1u);

  // Churn expiring entries while the build is in flight: each insert
  // sweeps the one dropped before it, and the pending entry must survive
  // every sweep.
  for (std::uint64_t k = 11; k < 14; ++k) {
    (void)cache.get_or_insert(OracleKey{k, {0}, 0}, tiny_oracle(4));  // dropped at once
  }
  EXPECT_EQ(cache.pending_builds(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // the build in flight; the churned oracles are gone

  // A second caller for the same key parks on the single-flight slot and
  // must receive the original build, not run its own.
  const std::uint64_t misses_before = cache.misses();
  std::thread waiter([&] {
    auto oracle = cache.get_or_build(slow_key, [&]() -> std::shared_ptr<const Snapshot> {
      ADD_FAILURE() << "waiter must not rebuild a key that is in flight";
      return tiny_oracle(6);
    });
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->num_vertices(), 6u);
  });
  // The waiter counts its miss in the same locked step that copies the
  // pending future, so from here on it is parked. Releasing earlier could
  // let the build land and be dropped before the waiter looks, which would
  // correctly make it rebuild.
  while (cache.misses() == misses_before) std::this_thread::yield();

  release_build.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(cache.pending_builds(), 0u);
  EXPECT_EQ(cache.size(), 0u);  // both holders returned and dropped it
}

TEST(OracleCache, FailedBuildPropagatesAndAllowsRetry) {
  service::OracleCache cache;
  const OracleKey key{55, {0}, 3};
  EXPECT_THROW(cache.get_or_build(key,
                                  []() -> std::shared_ptr<const Snapshot> {
                                    throw std::runtime_error("solve failed");
                                  }),
               std::runtime_error);
  EXPECT_EQ(cache.pending_builds(), 0u);
  // The failed slot was released: a retry builds fresh and succeeds.
  auto ok = cache.get_or_build(key, [] { return tiny_oracle(4); });
  EXPECT_NE(ok, nullptr);
}

TEST(OracleCache, HoldersAloneKeepAnOracleAlive) {
  service::OracleCache cache;
  const OracleKey a{1, {0}, 0}, b{2, {0}, 0};
  auto held = cache.get_or_insert(a, tiny_oracle(4));
  // While somebody holds it, the entry is live and serves as a hit.
  EXPECT_EQ(cache.get_or_insert(a, tiny_oracle(4)), held);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Dropping the last holder frees the oracle: the table kept no copy.
  const std::weak_ptr<const Snapshot> weak = held;
  held.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(cache.size(), 0u);

  // The expired key misses and takes the new oracle; the next insert
  // sweeps whatever has expired by then.
  auto again = cache.get_or_insert(a, tiny_oracle(5));
  EXPECT_EQ(again->num_vertices(), 5u);
  (void)cache.get_or_insert(b, tiny_oracle(6));  // dropped at once
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(again->shortest(0, 2), 2u);
}

// ------------------------------------------------------------ graph digest ---

TEST(GraphDigest, DistinguishesGraphsAndIsStable) {
  const Graph a(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph b(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph c(4, {{0, 1}, {1, 2}, {1, 3}});
  const Graph d(5, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(io::graph_digest(a), io::graph_digest(b));
  EXPECT_NE(io::graph_digest(a), io::graph_digest(c));
  EXPECT_NE(io::graph_digest(a), io::graph_digest(d));
}

}  // namespace
}  // namespace msrp
