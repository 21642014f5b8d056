// Tests for the multi-tenant registry layer (src/registry/): the weighted
// round-robin dispatcher's fairness and admission verdicts under manual
// completion, the OracleRegistry lifecycle state machine (admission,
// build, unregister, drain, byte budget), and the OracleCache
// refresh-ahead path under an injected clock — including the acceptance
// property that a warmed key never pays a cold build across a TTL
// boundary. The wire-level counterparts live in net_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "registry/dispatch.hpp"
#include "registry/oracle_registry.hpp"
#include "service/oracle_cache.hpp"
#include "service/query_service.hpp"
#include "util/rng.hpp"

namespace msrp {
namespace {

using registry::DispatchOptions;
using registry::DispatchVerdict;
using registry::FairDispatcher;
using registry::OracleRegistry;
using registry::OracleState;
using registry::RegisterOutcome;
using registry::RegistryOptions;
using service::Query;
using service::Snapshot;

// --------------------------------------------------------- FairDispatcher ---

/// Captures every downstream submit so the test completes batches by hand
/// and observes the exact dispatch order. The tenant is tagged in the
/// batch's first query source (the Submit signature does not carry the
/// digest — production does not need it there).
struct ManualSubmit {
  struct Captured {
    Vertex tag = 0;
    service::BatchCallback done;
  };
  std::deque<Captured> captured;
  bool throw_on_submit = false;

  FairDispatcher::Submit fn() {
    return [this](std::shared_ptr<const Snapshot>, std::vector<Query> queries,
                  service::BatchCallback done, Deadline) {
      if (throw_on_submit) throw std::runtime_error("submit refused");
      captured.push_back({queries.empty() ? Vertex{0} : queries[0].s, std::move(done)});
    };
  }

  /// Completes the oldest dispatched batch (which may synchronously pump
  /// more batches into `captured`) and returns its tenant tag.
  Vertex complete_front() {
    Captured c = std::move(captured.front());
    captured.pop_front();
    c.done(service::BatchResult{});
    return c.tag;
  }
};

std::vector<Query> tagged_batch(Vertex tag) { return {Query{tag, 0, 0}}; }

TEST(FairDispatcher, FastPathDispatchesUnderCaps) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), DispatchOptions{});
  int completions = 0;
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1),
                        [&](service::BatchResult) { ++completions; }),
            DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.inflight_batches(), 1u);
  EXPECT_EQ(disp.tenant_inflight(1), 1u);
  ASSERT_EQ(ms.captured.size(), 1u);
  ms.complete_front();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(disp.inflight_batches(), 0u);
  EXPECT_EQ(disp.dispatched_total(), 1u);
}

TEST(FairDispatcher, PerTenantCapQueuesInFifoOrder) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), {.per_tenant_inflight = 1, .per_tenant_queue = 8,
                                .total_inflight = 8});
  auto noop = [](service::BatchResult) {};
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(10), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(11), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(12), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.queued_batches(), 2u);

  // Completions drain the tenant's own queue in submission order.
  EXPECT_EQ(ms.complete_front(), 10);
  ASSERT_EQ(ms.captured.size(), 1u);
  EXPECT_EQ(ms.complete_front(), 11);
  ASSERT_EQ(ms.captured.size(), 1u);
  EXPECT_EQ(ms.complete_front(), 12);
  EXPECT_EQ(disp.queued_batches(), 0u);
  EXPECT_EQ(disp.inflight_batches(), 0u);
}

TEST(FairDispatcher, FullQueueAnswersBusyAndNeverRunsTheCallback) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), {.per_tenant_inflight = 1, .per_tenant_queue = 1,
                                .total_inflight = 8});
  auto noop = [](service::BatchResult) {};
  bool busy_callback_ran = false;
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1),
                        [&](service::BatchResult) { busy_callback_ran = true; }),
            DispatchVerdict::kBusy);
  EXPECT_EQ(disp.busy_rejections(), 1u);

  ms.complete_front();
  ms.complete_front();
  EXPECT_EQ(disp.inflight_batches(), 0u);
  EXPECT_FALSE(busy_callback_ran);
}

// The acceptance fairness property: a tenant with a deep backlog cannot
// starve another. With every cap at 1 the dispatch order is fully
// deterministic, so the test pins it exactly: B's first batch goes out on
// the second completion even though seven A batches were queued before it.
TEST(FairDispatcher, SaturatingTenantCannotStarveAnother) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), {.per_tenant_inflight = 1, .per_tenant_queue = 64,
                                .total_inflight = 1});
  auto noop = [](service::BatchResult) {};
  // Tenant A floods: one dispatched, seven parked.
  EXPECT_EQ(disp.submit(0xA, nullptr, tagged_batch(1), noop), DispatchVerdict::kDispatched);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(disp.submit(0xA, nullptr, tagged_batch(1), noop), DispatchVerdict::kQueued);
  }
  // Tenant B arrives last with two batches.
  EXPECT_EQ(disp.submit(0xB, nullptr, tagged_batch(2), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit(0xB, nullptr, tagged_batch(2), noop), DispatchVerdict::kQueued);

  std::vector<Vertex> order;
  while (!ms.captured.empty()) order.push_back(ms.complete_front());
  EXPECT_EQ(order,
            (std::vector<Vertex>{1, 1, 2, 1, 2, 1, 1, 1, 1, 1}));  // B at 3rd and 5th
  EXPECT_EQ(disp.dispatched_total(), 10u);
  EXPECT_EQ(disp.queued_batches(), 0u);
}

TEST(FairDispatcher, WeightGrantsProportionalShare) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), {.per_tenant_inflight = 2, .per_tenant_queue = 64,
                                .total_inflight = 1});
  auto noop = [](service::BatchResult) {};
  EXPECT_EQ(disp.submit(0xA, nullptr, tagged_batch(1), noop, /*weight=*/2),
            DispatchVerdict::kDispatched);
  for (int i = 0; i < 5; ++i) disp.submit(0xA, nullptr, tagged_batch(1), noop, 2);
  for (int i = 0; i < 3; ++i) disp.submit(0xB, nullptr, tagged_batch(2), noop, 1);

  std::vector<Vertex> order;
  while (!ms.captured.empty()) order.push_back(ms.complete_front());
  // Two A grants per ring lap to B's one.
  EXPECT_EQ(order, (std::vector<Vertex>{1, 1, 1, 2, 1, 1, 2, 1, 2}));
}

TEST(FairDispatcher, SubmitExceptionDeliversFailureExactlyOnce) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), DispatchOptions{});
  ms.throw_on_submit = true;
  int failures = 0;
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1),
                        [&](service::BatchResult r) { failures += (r.error != nullptr); }),
            DispatchVerdict::kDispatched);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(disp.inflight_batches(), 0u);  // bookkeeping rolled back

  // The dispatcher stays healthy for the next submit.
  ms.throw_on_submit = false;
  int completions = 0;
  disp.submit(1, nullptr, tagged_batch(1), [&](service::BatchResult) { ++completions; });
  ms.complete_front();
  EXPECT_EQ(completions, 1);
}

TEST(FairDispatcher, TotalInflightCapBindsAcrossTenants) {
  ManualSubmit ms;
  FairDispatcher disp(ms.fn(), {.per_tenant_inflight = 4, .per_tenant_queue = 8,
                                .total_inflight = 2});
  auto noop = [](service::BatchResult) {};
  EXPECT_EQ(disp.submit(1, nullptr, tagged_batch(1), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit(2, nullptr, tagged_batch(2), noop), DispatchVerdict::kDispatched);
  // Tenant 3 is under its own cap but the pool is full.
  EXPECT_EQ(disp.submit(3, nullptr, tagged_batch(3), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(ms.complete_front(), 1);
  ASSERT_EQ(ms.captured.size(), 2u);  // tenant 3 dispatched by the completion
  EXPECT_EQ(ms.captured.back().tag, 3);
}

// ---------------------------------------------------------- OracleRegistry ---

/// Shared small instance; builds are real solves on the service pool.
struct RegistryFixture {
  Graph g{0};
  std::vector<Vertex> sources{0, 5, 9};
  service::QueryService svc{{.threads = 2, .min_parallel_batch = 64}};

  RegistryFixture() {
    Rng rng(5);
    g = gen::connected_gnp(30, 0.15, rng);
  }

  RegisterOutcome register_and_wait(OracleRegistry& reg, const Graph& graph,
                                    std::vector<Vertex> srcs) {
    std::promise<RegisterOutcome> promise;
    auto future = promise.get_future();
    const bool admitted = reg.register_graph(
        graph.num_vertices(), graph.edges(), std::move(srcs), Config{},
        [&](RegisterOutcome o) { promise.set_value(std::move(o)); });
    EXPECT_TRUE(admitted);
    return future.get();
  }
};

TEST(OracleRegistry, RegisteredOracleMatchesLocalBuild) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);
  const RegisterOutcome out = fx.register_and_wait(reg, fx.g, fx.sources);
  ASSERT_EQ(out.state, OracleState::kReady);
  ASSERT_NE(out.oracle, nullptr);

  const auto local = fx.svc.build(fx.g, fx.sources);
  EXPECT_EQ(out.digest, local->content_digest());
  EXPECT_EQ(reg.state(out.digest), OracleState::kReady);
  EXPECT_EQ(reg.resolve(out.digest), out.oracle);
  EXPECT_EQ(reg.tenant_count(), 1u);

  const auto listed = reg.list();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].digest, out.digest);
  EXPECT_EQ(listed[0].num_vertices, fx.g.num_vertices());
  EXPECT_EQ(listed[0].sources, fx.sources);
  EXPECT_GT(listed[0].footprint_bytes, 0u);
}

TEST(OracleRegistry, AdmissionRejectsBeyondMaxTenants) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc, {.max_tenants = 1});
  const RegisterOutcome first = fx.register_and_wait(reg, fx.g, fx.sources);
  ASSERT_EQ(first.state, OracleState::kReady);

  std::string reason;
  const bool admitted = reg.register_graph(
      fx.g.num_vertices(), fx.g.edges(), {0},  // different sources = new tenant
      Config{}, [](RegisterOutcome) { FAIL() << "rejected registration ran its callback"; },
      &reason);
  EXPECT_FALSE(admitted);
  EXPECT_NE(reason.find("registry full"), std::string::npos);
  EXPECT_EQ(reg.tenant_count(), 1u);
}

TEST(OracleRegistry, InvalidSourcesFailButStayListableUntilDisplaced) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc, {.max_tenants = 1});
  const RegisterOutcome bad =
      fx.register_and_wait(reg, fx.g, {fx.g.num_vertices() + 7});  // out of range
  EXPECT_EQ(bad.state, OracleState::kFailed);
  EXPECT_FALSE(bad.error.empty());

  // The failure keeps its slot for reason visibility: it is listable,
  // state kFailed, with the build error attached.
  EXPECT_EQ(reg.tenant_count(), 1u);
  const auto listed = reg.list();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].state, OracleState::kFailed);
  EXPECT_FALSE(listed[0].error.empty());

  // But it never blocks admission — a full registry displaces the oldest
  // failure to admit a live registration.
  const RegisterOutcome good = fx.register_and_wait(reg, fx.g, fx.sources);
  EXPECT_EQ(good.state, OracleState::kReady);
  EXPECT_EQ(reg.tenant_count(), 1u);
  EXPECT_EQ(reg.state(good.digest), OracleState::kReady);
}

TEST(OracleRegistry, ReRegisteringTheSameDigestIsIdempotent) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);
  const RegisterOutcome a = fx.register_and_wait(reg, fx.g, fx.sources);
  const RegisterOutcome b = fx.register_and_wait(reg, fx.g, fx.sources);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(b.state, OracleState::kReady);
  EXPECT_EQ(reg.tenant_count(), 1u);  // one entry, not two
}

TEST(OracleRegistry, UnregisterLifecycle) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);
  EXPECT_EQ(reg.unregister(0xdeadbeef), std::nullopt);  // never registered

  const RegisterOutcome out = fx.register_and_wait(reg, fx.g, fx.sources);
  ASSERT_EQ(out.state, OracleState::kReady);

  // With a batch in flight, unregister drains instead of dropping.
  reg.note_batch(out.digest);
  EXPECT_EQ(reg.unregister(out.digest), OracleState::kExpiring);
  EXPECT_EQ(reg.unregister(out.digest), OracleState::kExpiring);  // idempotent
  EXPECT_EQ(reg.resolve(out.digest), nullptr);  // invisible to new batches
  reg.note_complete(out.digest, 100);
  EXPECT_EQ(reg.state(out.digest), OracleState::kUnknown);  // drained away
  EXPECT_EQ(reg.tenant_count(), 0u);

  // Idle oracles retire immediately.
  const RegisterOutcome again = fx.register_and_wait(reg, fx.g, fx.sources);
  EXPECT_EQ(reg.unregister(again.digest), OracleState::kUnregistered);
  EXPECT_EQ(reg.tenant_count(), 0u);
}

TEST(OracleRegistry, ByteBudgetRejectsAtCompletion) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc, {.max_tenants = 8, .max_bytes = 1});
  const RegisterOutcome out = fx.register_and_wait(reg, fx.g, fx.sources);
  EXPECT_EQ(out.state, OracleState::kFailed);
  EXPECT_NE(out.error.find("byte budget"), std::string::npos);
  // The rejection is retained as a listable kFailed slot, reason attached.
  EXPECT_EQ(reg.tenant_count(), 1u);
  const auto listed = reg.list();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].state, OracleState::kFailed);
  EXPECT_NE(listed[0].error.find("byte budget"), std::string::npos);
}

TEST(OracleRegistry, RegisterSnapshotPathLoadsAndFailsCleanly) {
  RegistryFixture fx;
  const auto oracle = fx.svc.build(fx.g, fx.sources);
  const std::string path = testing::TempDir() + "/registry_test_oracle.snap";
  oracle->save(path);

  OracleRegistry reg(fx.svc);
  std::promise<RegisterOutcome> ok_promise;
  ASSERT_TRUE(reg.register_snapshot(
      path, [&](RegisterOutcome o) { ok_promise.set_value(std::move(o)); }));
  const RegisterOutcome ok = ok_promise.get_future().get();
  EXPECT_EQ(ok.state, OracleState::kReady);
  EXPECT_EQ(ok.digest, oracle->content_digest());

  std::promise<RegisterOutcome> bad_promise;
  ASSERT_TRUE(reg.register_snapshot(path + ".does-not-exist", [&](RegisterOutcome o) {
    bad_promise.set_value(std::move(o));
  }));
  const RegisterOutcome bad = bad_promise.get_future().get();
  EXPECT_EQ(bad.state, OracleState::kFailed);
  EXPECT_FALSE(bad.error.empty());
  // The good oracle serves; the failure sits beside it as a kFailed slot
  // until the failed-TTL reap (or an unregister) clears it.
  EXPECT_EQ(reg.tenant_count(), 2u);
  EXPECT_EQ(reg.state(ok.digest), OracleState::kReady);
  std::remove(path.c_str());
}

TEST(OracleRegistry, RegisterSnapshotOfADirectoryFailsCleanly) {
  // A directory opens as a stream but has no length; the load must fail
  // with a read error, not an allocation sized from tellg()'s -1.
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);
  std::promise<RegisterOutcome> promise;
  ASSERT_TRUE(reg.register_snapshot(testing::TempDir(), [&](RegisterOutcome o) {
    promise.set_value(std::move(o));
  }));
  const RegisterOutcome out = promise.get_future().get();
  EXPECT_EQ(out.state, OracleState::kFailed);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(out.error.find("bad_alloc"), std::string::npos) << out.error;
}

TEST(OracleRegistry, AdoptMakesTheDefaultOracleAFirstClassTenant) {
  RegistryFixture fx;
  const auto oracle = fx.svc.build(fx.g, fx.sources);
  OracleRegistry reg(fx.svc);
  const std::uint64_t digest = reg.adopt(oracle);
  EXPECT_EQ(digest, oracle->content_digest());
  EXPECT_EQ(reg.adopt(oracle), digest);  // idempotent
  EXPECT_EQ(reg.resolve(digest), oracle);
  EXPECT_EQ(reg.tenant_count(), 1u);
}

// ---------------------------------------------------- refresh-ahead cache ---

/// A cache with an injected clock and a manual refresh runner: the test
/// advances time and runs refresh tasks by hand, so every interleaving of
/// TTL, refresh, and eviction is deterministic.
struct RefreshFixture {
  service::QueryService svc{{.threads = 2, .min_parallel_batch = 64}};
  std::shared_ptr<const Snapshot> snap;
  service::OracleCache cache{2, 0, std::chrono::milliseconds(1000)};
  std::vector<std::function<void()>> tasks;  // parked refresh work
  std::chrono::steady_clock::time_point base{};
  std::int64_t now_ms = 0;
  int builds = 0;
  int rebuilds = 0;
  bool rebuild_throws = false;

  RefreshFixture() {
    Rng rng(9);
    const Graph g = gen::connected_gnp(20, 0.2, rng);
    snap = svc.build(g, {0, 3});
    cache.set_clock_for_testing([this] { return base + std::chrono::milliseconds(now_ms); });
    cache.enable_refresh_ahead(0.5, [this](std::function<void()> t) {
      tasks.push_back(std::move(t));
    });
  }

  service::OracleKey key(std::uint64_t graph_digest) {
    return {graph_digest, {0}, 1};
  }

  std::shared_ptr<const Snapshot> lookup(const service::OracleKey& k) {
    return cache.get_or_build(
        k, [this] { ++builds; return snap; },
        [this]() -> service::OracleCache::Builder {
          return [this]() -> std::shared_ptr<const Snapshot> {
            ++rebuilds;
            if (rebuild_throws) throw std::runtime_error("rebuild exploded");
            return snap;
          };
        });
  }

  void run_refreshes() {
    auto pending = std::move(tasks);
    tasks.clear();
    for (auto& t : pending) t();
  }
};

TEST(OracleCacheRefreshAhead, HitPastFractionSchedulesExactlyOneRefresh) {
  RefreshFixture fx;
  const auto k = fx.key(1);
  fx.lookup(k);
  EXPECT_EQ(fx.builds, 1);
  EXPECT_TRUE(fx.tasks.empty());  // fresh entry: nothing to refresh

  fx.now_ms = 600;  // past 0.5 * 1000ms
  fx.lookup(k);
  EXPECT_EQ(fx.tasks.size(), 1u);
  fx.lookup(k);  // concurrent hot lookups single-flight through one slot
  EXPECT_EQ(fx.tasks.size(), 1u);

  fx.run_refreshes();
  EXPECT_EQ(fx.rebuilds, 1);
  EXPECT_EQ(fx.cache.refreshes(), 1u);
  EXPECT_EQ(fx.builds, 1);  // the cold builder never ran again
}

// The acceptance property: after warmup, a key that stays hot never pays a
// cold build at a TTL boundary — the refresh re-stamps the entry first.
TEST(OracleCacheRefreshAhead, WarmKeyNeverColdBuildsAcrossTtlBoundary) {
  RefreshFixture fx;
  const auto k = fx.key(1);
  fx.lookup(k);  // warmup at t=0
  for (std::int64_t t = 600; t <= 6000; t += 600) {
    fx.now_ms = t;  // every step crosses the refresh fraction; t=1200 and
                    // beyond are past the ORIGINAL entry's full TTL
    ASSERT_EQ(fx.lookup(k), fx.snap) << "t=" << t;
    fx.run_refreshes();
  }
  EXPECT_EQ(fx.builds, 1);                  // exactly one cold build, ever
  EXPECT_EQ(fx.cache.expirations(), 0u);    // no entry aged out
  EXPECT_GE(fx.cache.refreshes(), 9u);      // the rebuilds kept it warm
  EXPECT_EQ(fx.cache.misses(), 1u);
}

TEST(OracleCacheRefreshAhead, FailedRefreshKeepsServingAndRetriesLater) {
  RefreshFixture fx;
  const auto k = fx.key(1);
  fx.lookup(k);
  fx.now_ms = 600;
  fx.rebuild_throws = true;
  fx.lookup(k);
  fx.run_refreshes();
  EXPECT_EQ(fx.cache.refresh_failures(), 1u);
  EXPECT_EQ(fx.lookup(k), fx.snap);  // still served from the old entry

  // The single-flight slot was released: the next stale hit schedules a
  // fresh attempt, and a successful one re-stamps the entry.
  fx.rebuild_throws = false;
  fx.lookup(k);
  ASSERT_EQ(fx.tasks.size(), 1u);
  fx.run_refreshes();
  EXPECT_EQ(fx.cache.refreshes(), 1u);
  fx.now_ms = 1400;  // past the original TTL, within the re-stamped one
  fx.lookup(k);
  EXPECT_EQ(fx.builds, 1);
}

TEST(OracleCacheRefreshAhead, IdleKeyStillExpiresAndColdBuilds) {
  RefreshFixture fx;
  const auto k = fx.key(1);
  fx.lookup(k);
  fx.now_ms = 1100;  // no hit crossed the refresh window; TTL elapsed
  fx.lookup(k);
  EXPECT_EQ(fx.builds, 2);  // cold build: refresh-ahead needs hits to help
  EXPECT_EQ(fx.cache.expirations(), 1u);
  EXPECT_TRUE(fx.tasks.empty());
}

TEST(OracleCacheRefreshAhead, EvictionRacingARefreshStaysConsistent) {
  RefreshFixture fx;  // capacity 2
  const auto k1 = fx.key(1);
  fx.lookup(k1);
  fx.now_ms = 600;
  fx.lookup(k1);  // schedules k1's refresh...
  ASSERT_EQ(fx.tasks.size(), 1u);
  fx.lookup(fx.key(2));
  fx.lookup(fx.key(3));  // ...k1 is now the LRU victim and gets evicted
  fx.run_refreshes();    // the refresh lands after the eviction
  EXPECT_LE(fx.cache.size(), fx.cache.capacity());
  EXPECT_NE(fx.lookup(fx.key(3)), nullptr);
  EXPECT_NE(fx.lookup(fx.key(2)), nullptr);
  // Whether the late refresh re-inserted k1 or was dropped, the cache is
  // budget-consistent and every lookup still answers.
  EXPECT_NE(fx.lookup(k1), nullptr);
}

// The same property end to end through QueryService: Options wire the
// refresh runner to the serving pool, so the rebuild happens on a worker
// while the hit returns immediately.
TEST(QueryServiceRefreshAhead, PoolRefreshKeepsRepeatBuildsHitting) {
  service::QueryService svc({.threads = 2,
                             .cache_entry_ttl = std::chrono::milliseconds(1000),
                             .cache_refresh_ahead = 0.5,
                             .min_parallel_batch = 64});
  std::atomic<std::int64_t> now_ms{0};
  const auto base = std::chrono::steady_clock::time_point{};
  svc.cache_for_testing().set_clock_for_testing(
      [&now_ms, base] { return base + std::chrono::milliseconds(now_ms.load()); });

  Rng rng(11);
  const Graph g = gen::connected_gnp(30, 0.15, rng);
  const std::vector<Vertex> sources{0, 5, 9};
  const auto first = svc.build(g, sources);
  EXPECT_EQ(svc.cache().misses(), 1u);

  now_ms = 600;
  const auto second = svc.build(g, sources);  // hit; refresh kicked on the pool
  EXPECT_EQ(second->content_digest(), first->content_digest());
  for (int i = 0; i < 2000 && svc.cache().refreshes() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(svc.cache().refreshes(), 1u);

  now_ms = 1200;  // past the original TTL; the refresh re-stamped the entry
  const auto third = svc.build(g, sources);
  EXPECT_EQ(third->content_digest(), first->content_digest());
  EXPECT_EQ(svc.cache().misses(), 1u);  // never went cold
  EXPECT_EQ(svc.cache().expirations(), 0u);
}

}  // namespace
}  // namespace msrp
