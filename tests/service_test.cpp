// Tests for the batched query service layer: snapshot round trips (both
// binary formats, including the v2 mmap path), sync and async batches
// against the brute-force oracle, single-flighted LRU cache builds racing
// eviction, and the thread pool underneath it all. The concurrency tests
// double as the TSan workload in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>

#include "core/msrp.hpp"
#include "core/serialize.hpp"
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

TEST(Snapshot, AgreesWithTextSerialization) {
  Rng rng(11);
  const Graph g = gen::connected_gnp(40, 0.1, rng);
  const std::vector<Vertex> sources{3, 29};
  const MsrpResult res = solve_msrp(g, sources);

  std::stringstream text;
  write_result(text, res);
  const SerializedResult ser = SerializedResult::read(text);

  std::stringstream bin;
  Snapshot::capture(res).write(bin);
  const Snapshot snap = Snapshot::read(bin);

  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(snap.shortest(s, t), ser.shortest(s, t));
      const auto want = ser.row(s, t);
      const auto got = snap.row(s, t);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
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

TEST(Snapshot, FormatsAgreeAndV2ServesFromTheMapping) {
  Rng rng(13);
  const Graph g = gen::connected_gnp(50, 0.1, rng);
  const std::vector<Vertex> sources{0, 25, 49};
  const MsrpResult res = solve_msrp(g, sources);
  const Snapshot snap = Snapshot::capture(res);

  const std::string v1_path = testing::TempDir() + "/msrp_fmt_test.v1.snap";
  const std::string v2_path = testing::TempDir() + "/msrp_fmt_test.v2.snap";
  snap.save(v1_path, service::SnapshotFormat::kV1);
  snap.save(v2_path, service::SnapshotFormat::kV2);

  const Snapshot v1 = Snapshot::load(v1_path);
  const Snapshot v2 = Snapshot::load(v2_path);
  const Snapshot v2m = Snapshot::load(v2_path, {.use_mmap = true, .verify_cells = false});
  EXPECT_FALSE(v1.is_mapped());
  EXPECT_FALSE(v2.is_mapped());
  EXPECT_TRUE(v2m.is_mapped());
  EXPECT_EQ(v1.content_digest(), snap.content_digest());
  EXPECT_EQ(v2.content_digest(), snap.content_digest());
  EXPECT_EQ(v2m.content_digest(), snap.content_digest());

  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Dist want = res.avoiding(s, t, e);
        ASSERT_EQ(v1.avoiding(s, t, e), want) << "s=" << s << " t=" << t << " e=" << e;
        ASSERT_EQ(v2.avoiding(s, t, e), want) << "s=" << s << " t=" << t << " e=" << e;
        ASSERT_EQ(v2m.avoiding(s, t, e), want) << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
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
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitTaskDeliversValuesAndExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  std::future<int> value = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(value.get(), 42);

  std::future<int> error =
      pool.submit_task([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(error.get(), std::runtime_error);
  // The exception travelled through the future, not the wait_idle channel.
  EXPECT_NO_THROW(pool.wait_idle());

  // Futures compose with fire-and-forget tasks on the same pool.
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  std::future<std::string> tail = pool.submit_task([] { return std::string("done"); });
  EXPECT_EQ(tail.get(), "done");
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

// ---------------------------------------------------------- query service ---

TEST(QueryService, ConcurrentBatchMatchesBruteForceOracle) {
  Rng rng(21);
  const Graph g = gen::connected_gnp(80, 0.07, rng);
  const std::vector<Vertex> sources{0, 5, 9, 17};

  service::QueryService svc({.threads = 4, .cache_capacity = 2, .min_parallel_batch = 1});
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

  service::QueryService svc({.threads = 4, .min_parallel_batch = 1});
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

  service::QueryService svc({.threads = 4, .min_parallel_batch = 1});
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

// --------------------------------------------------------------- async API ---

TEST(QueryService, AsyncBatchMatchesSync) {
  Rng rng(61);
  const Graph g = gen::connected_avg_degree(100, 5.0, rng);
  const std::vector<Vertex> sources{0, 40, 80};
  service::QueryService svc({.threads = 4, .min_parallel_batch = 1});
  const auto oracle = svc.build(g, sources);

  Rng qrng(62);
  std::vector<Query> batch;
  for (int i = 0; i < 20000; ++i) {
    batch.push_back({sources[qrng.next_below(sources.size())],
                     static_cast<Vertex>(qrng.next_below(g.num_vertices())),
                     static_cast<EdgeId>(qrng.next_below(g.num_edges()))});
  }
  const std::vector<Dist> want = svc.query_batch(*oracle, batch);

  service::BatchResult res = svc.submit_batch(oracle, batch).get();
  EXPECT_EQ(res.error, nullptr);
  EXPECT_EQ(res.oracle.get(), oracle.get());
  EXPECT_EQ(res.answers, want);
}

TEST(QueryService, AsyncColdCacheSubmitReturnsBeforeTheBuildFinishes) {
  Rng rng(63);
  const Graph g = gen::connected_avg_degree(500, 8.0, rng);
  const std::vector<Vertex> sources{1, 100, 200, 300};
  service::QueryService svc({.threads = 2});

  std::vector<Query> queries{{1, 5, 0}, {100, 499, 3}};
  auto fut = svc.submit_batch(g, sources, Config{}, queries);
  // The solve runs on the pool; the future cannot be ready the instant the
  // submit call returns (the build takes orders of magnitude longer than
  // the enqueue).
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);

  service::BatchResult res = fut.get();
  ASSERT_EQ(res.answers.size(), queries.size());
  ASSERT_NE(res.oracle, nullptr);
  // The async build landed in the cache: a sync build of the same instance
  // is now a hit and must agree.
  const auto oracle = svc.build(g, sources);
  EXPECT_EQ(oracle.get(), res.oracle.get());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(res.answers[i], oracle->avoiding(queries[i].s, queries[i].t, queries[i].e));
  }
}

TEST(QueryService, AsyncCallbackDeliversOnAPoolThread) {
  Rng rng(64);
  const Graph g = gen::connected_gnp(40, 0.15, rng);
  const std::vector<Vertex> sources{0, 20};
  service::QueryService svc({.threads = 2, .min_parallel_batch = 1});
  const auto oracle = svc.build(g, sources);

  std::vector<Query> batch;
  for (Vertex t = 0; t < g.num_vertices(); ++t) batch.push_back({0, t, 0});
  const std::vector<Dist> want = svc.query_batch(*oracle, batch);

  std::promise<service::BatchResult> delivered;
  svc.submit_batch(oracle, batch, [&delivered](service::BatchResult r) {
    delivered.set_value(std::move(r));
  });
  service::BatchResult res = delivered.get_future().get();
  EXPECT_EQ(res.error, nullptr);
  EXPECT_EQ(res.answers, want);
}

TEST(QueryService, AsyncValidationErrorsSurfaceThroughBothChannels) {
  const Graph g = gen::cycle(10);
  service::QueryService svc({.threads = 2});
  const auto oracle = svc.build(g, {0});

  // Future flavour: get() rethrows.
  auto fut = svc.submit_batch(oracle, std::vector<Query>{{1, 2, 0}});  // not a source
  EXPECT_THROW(fut.get(), std::invalid_argument);

  // Callback flavour: error lands in BatchResult::error.
  std::promise<service::BatchResult> delivered;
  svc.submit_batch(oracle, std::vector<Query>{{0, 99, 0}},  // target out of range
                   [&delivered](service::BatchResult r) { delivered.set_value(std::move(r)); });
  service::BatchResult res = delivered.get_future().get();
  ASSERT_NE(res.error, nullptr);
  EXPECT_TRUE(res.answers.empty());
  EXPECT_THROW(std::rethrow_exception(res.error), std::invalid_argument);
}

TEST(QueryService, StressConcurrentAsyncSubmitsRacingCacheEviction) {
  // Three distinct instances thrash a capacity-1 cache while six caller
  // threads submit async builds concurrently: every answer must still be
  // exact, every future must complete, and (under TSan) the pool, cache,
  // and completion paths must be race-free.
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

  service::QueryService svc(
      {.threads = 4, .cache_capacity = 1, .min_parallel_batch = 16});
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Rng rng(900 + c);
      for (int r = 0; r < kRounds; ++r) {
        const int i = static_cast<int>(rng.next_below(kInstances));
        const Graph& g = graphs[i];
        std::vector<Query> batch;
        for (int q = 0; q < 400; ++q) {
          batch.push_back({sources[i][rng.next_below(sources[i].size())],
                           static_cast<Vertex>(rng.next_below(g.num_vertices())),
                           static_cast<EdgeId>(rng.next_below(g.num_edges()))});
        }
        service::BatchResult res = svc.submit_batch(g, sources[i], Config{}, batch).get();
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

TEST(OracleCache, EvictsLeastRecentlyUsed) {
  service::OracleCache cache(2);
  const OracleKey a{1, {0}, 0}, b{2, {0}, 0}, c{3, {0}, 0};
  cache.insert(a, tiny_oracle(4));
  cache.insert(b, tiny_oracle(5));
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_NE(cache.find(a), nullptr);  // touch a: b becomes LRU
  cache.insert(c, tiny_oracle(6));    // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
}

TEST(OracleCache, ByteBudgetEvictsSeveralSmallOraclesForOneLarge) {
  // Budget sized to hold four small oracles (4s < s + L since L > 3s) but
  // not four plus the large one: inserting the large one must evict small
  // entries in LRU order until the sum fits, even though the entry-count
  // cap alone would keep them all.
  const auto small = tiny_oracle(6);
  const auto large = tiny_oracle(200);
  ASSERT_GT(large->footprint_bytes(), 3 * small->footprint_bytes());

  service::OracleCache cache(
      /*capacity=*/16,
      /*max_bytes=*/small->footprint_bytes() + large->footprint_bytes());
  const OracleKey k1{1, {0}, 0}, k2{2, {0}, 0}, k3{3, {0}, 0}, k4{4, {0}, 0};
  cache.insert(k1, tiny_oracle(6));
  cache.insert(k2, tiny_oracle(6));
  cache.insert(k3, tiny_oracle(6));
  cache.insert(k4, tiny_oracle(6));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);  // four small ones fit together

  cache.insert(OracleKey{5, {0}, 0}, large);
  EXPECT_LE(cache.size_bytes(), cache.max_bytes());
  EXPECT_NE(cache.find(OracleKey{5, {0}, 0}), nullptr);  // newest survives
  EXPECT_GE(cache.evictions(), 3u);  // several small entries had to go
  EXPECT_EQ(cache.find(k1), nullptr);  // LRU evicted first
}

TEST(OracleCache, SingleOracleOverBudgetStillServes) {
  const auto large = tiny_oracle(64);
  service::OracleCache cache(/*capacity=*/4, /*max_bytes=*/1);  // absurdly tight
  const OracleKey key{9, {0}, 0};
  cache.insert(key, large);
  EXPECT_EQ(cache.size(), 1u);  // never evict the entry just inserted
  EXPECT_NE(cache.find(key), nullptr);
  cache.insert(OracleKey{10, {0}, 0}, tiny_oracle(32));
  EXPECT_EQ(cache.size(), 1u);  // the older one is evicted to chase the budget
  EXPECT_EQ(cache.find(key), nullptr);
}

TEST(OracleCache, TtlExpiresEntriesOnTheInjectedClock) {
  using namespace std::chrono_literals;
  service::OracleCache cache(4, 0, /*entry_ttl=*/1000ms);
  auto now = std::chrono::steady_clock::time_point{};  // fake time
  cache.set_clock_for_testing([&now] { return now; });

  const OracleKey key{1, {0}, 0};
  int builds = 0;
  auto builder = [&builds] {
    ++builds;
    return tiny_oracle(4);
  };

  const auto first = cache.get_or_build(key, builder);
  EXPECT_EQ(builds, 1);
  now += 999ms;  // just inside the TTL: still a hit
  EXPECT_EQ(cache.get_or_build(key, builder).get(), first.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.expirations(), 0u);

  now += 1ms;  // exactly at the TTL: expired, refreshed through get_or_build
  const auto refreshed = cache.get_or_build(key, builder);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(refreshed.get(), first.get());
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // The pre-refresh holder keeps serving its own copy untouched.
  EXPECT_EQ(first->num_vertices(), 4u);
}

TEST(OracleCache, TtlRefreshIsSingleFlightedAcrossThreads) {
  using namespace std::chrono_literals;
  service::OracleCache cache(4, 0, /*entry_ttl=*/10ms);
  std::atomic<std::int64_t> now_ms{0};
  cache.set_clock_for_testing([&now_ms] {
    return std::chrono::steady_clock::time_point{} +
           std::chrono::milliseconds(now_ms.load());
  });

  const OracleKey key{2, {0}, 0};
  std::atomic<int> builds{0};
  auto builder = [&builds] {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return tiny_oracle(5);
  };
  (void)cache.get_or_build(key, builder);
  ASSERT_EQ(builds.load(), 1);

  now_ms.store(1000);  // stale for everyone at once
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] { (void)cache.get_or_build(key, builder); });
  }
  for (auto& t : threads) t.join();
  // One expiration noticed, one refresh build shared by all six threads.
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.expirations(), 1u);
}

TEST(OracleCache, ZeroTtlNeverExpires) {
  service::OracleCache cache(4);  // default: no TTL
  auto now = std::chrono::steady_clock::time_point{};
  cache.set_clock_for_testing([&now] { return now; });
  const OracleKey key{3, {0}, 0};
  cache.insert(key, tiny_oracle(4));
  now += std::chrono::hours(10000);
  EXPECT_NE(cache.find(key), nullptr);
  EXPECT_EQ(cache.expirations(), 0u);
}

TEST(QueryService, CacheTtlOptionReachesTheCache) {
  using namespace std::chrono_literals;
  service::QueryService svc({.threads = 1, .cache_entry_ttl = 250ms});
  EXPECT_EQ(svc.cache().entry_ttl(), 250ms);
}

TEST(OracleCache, GetOrBuildBuildsOnce) {
  service::OracleCache cache(2);
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
  service::OracleCache cache(2);
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

TEST(OracleCache, EvictionRacingInFlightBuildKeepsPendingOracle) {
  service::OracleCache cache(1);
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

  // Churn the capacity-1 cache while the build is in flight: the pending
  // slot must survive the evictions.
  cache.insert(OracleKey{11, {0}, 0}, tiny_oracle(4));
  cache.insert(OracleKey{12, {0}, 0}, tiny_oracle(5));
  EXPECT_GE(cache.evictions(), 1u);

  // A second caller for the same key parks on the single-flight slot and
  // must receive the original build, not run its own.
  std::thread waiter([&] {
    auto oracle = cache.get_or_build(slow_key, [&]() -> std::shared_ptr<const Snapshot> {
      ADD_FAILURE() << "waiter must not rebuild a key that is in flight";
      return tiny_oracle(6);
    });
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->num_vertices(), 6u);
  });

  release_build.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(cache.pending_builds(), 0u);
}

TEST(OracleCache, FailedBuildPropagatesAndAllowsRetry) {
  service::OracleCache cache(2);
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

TEST(OracleCache, EvictedOracleStaysAliveForHolders) {
  service::OracleCache cache(1);
  const OracleKey a{1, {0}, 0}, b{2, {0}, 0};
  auto held = tiny_oracle(4);
  cache.insert(a, held);
  cache.insert(b, tiny_oracle(5));  // evicts a
  EXPECT_EQ(cache.find(a), nullptr);
  // The shared_ptr we kept still answers queries.
  EXPECT_EQ(held->shortest(0, 2), 2u);
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
