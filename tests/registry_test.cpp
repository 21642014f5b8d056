// Tests for the multi-tenant registry layer (src/registry/): the
// round-robin dispatcher's fairness and admission verdicts under manual
// completion, and the OracleRegistry lifecycle state machine (admission,
// build, unregister, drain, byte budget) — including that an unregistered
// oracle's memory is released. The wire-level counterparts live in
// net_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "registry/dispatch.hpp"
#include "registry/oracle_registry.hpp"
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
using service::Snapshot;

// --------------------------------------------------------- FairDispatcher ---

/// Captures every dispatched batch so the test completes batches by hand
/// and observes the exact dispatch order. Each batch's start function
/// carries its tenant tag (the dispatcher itself never looks inside).
struct ManualStart {
  struct Captured {
    int tag = 0;
    service::BatchCallback done;
  };
  std::deque<Captured> captured;
  bool throw_on_start = false;

  FairDispatcher::StartFn batch(int tag) {
    return [this, tag](service::BatchCallback done, Deadline) {
      if (throw_on_start) throw std::runtime_error("start refused");
      captured.push_back({tag, std::move(done)});
    };
  }

  /// Completes the oldest dispatched batch (which may synchronously pump
  /// more batches into `captured`) and returns its tenant tag.
  int complete_front() {
    Captured c = std::move(captured.front());
    captured.pop_front();
    c.done(service::BatchResult{});
    return c.tag;
  }
};

TEST(FairDispatcher, FastPathDispatchesUnderCaps) {
  ManualStart ms;
  FairDispatcher disp(DispatchOptions{});
  int completions = 0;
  EXPECT_EQ(disp.submit_task(1, ms.batch(1), [&](service::BatchResult) { ++completions; }),
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
  ManualStart ms;
  FairDispatcher disp({.per_tenant_inflight = 1, .per_tenant_queue = 8, .total_inflight = 8});
  auto noop = [](service::BatchResult) {};
  EXPECT_EQ(disp.submit_task(1, ms.batch(10), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit_task(1, ms.batch(11), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit_task(1, ms.batch(12), noop), DispatchVerdict::kQueued);
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
  ManualStart ms;
  FairDispatcher disp({.per_tenant_inflight = 1, .per_tenant_queue = 1, .total_inflight = 8});
  auto noop = [](service::BatchResult) {};
  bool busy_callback_ran = false;
  EXPECT_EQ(disp.submit_task(1, ms.batch(1), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit_task(1, ms.batch(1), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit_task(1, ms.batch(1),
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
  ManualStart ms;
  FairDispatcher disp(
      {.per_tenant_inflight = 1, .per_tenant_queue = 64, .total_inflight = 1});
  auto noop = [](service::BatchResult) {};
  // Tenant A floods: one dispatched, seven parked.
  EXPECT_EQ(disp.submit_task(0xA, ms.batch(1), noop), DispatchVerdict::kDispatched);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(disp.submit_task(0xA, ms.batch(1), noop), DispatchVerdict::kQueued);
  }
  // Tenant B arrives last with two batches.
  EXPECT_EQ(disp.submit_task(0xB, ms.batch(2), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(disp.submit_task(0xB, ms.batch(2), noop), DispatchVerdict::kQueued);

  std::vector<int> order;
  while (!ms.captured.empty()) order.push_back(ms.complete_front());
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 1, 2, 1, 1, 1, 1, 1}));  // B at 3rd and 5th
  EXPECT_EQ(disp.dispatched_total(), 10u);
  EXPECT_EQ(disp.queued_batches(), 0u);
}

TEST(FairDispatcher, SubmitExceptionDeliversFailureExactlyOnce) {
  ManualStart ms;
  FairDispatcher disp(DispatchOptions{});
  ms.throw_on_start = true;
  int failures = 0;
  const auto count_failure = [&](service::BatchResult r) { failures += r.error != nullptr; };
  EXPECT_EQ(disp.submit_task(1, ms.batch(1), count_failure), DispatchVerdict::kDispatched);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(disp.inflight_batches(), 0u);  // bookkeeping rolled back

  // The dispatcher stays healthy for the next submit.
  ms.throw_on_start = false;
  int completions = 0;
  disp.submit_task(1, ms.batch(1), [&](service::BatchResult) { ++completions; });
  ms.complete_front();
  EXPECT_EQ(completions, 1);
}

TEST(FairDispatcher, TotalInflightCapBindsAcrossTenants) {
  ManualStart ms;
  FairDispatcher disp({.per_tenant_inflight = 4, .per_tenant_queue = 8, .total_inflight = 2});
  auto noop = [](service::BatchResult) {};
  EXPECT_EQ(disp.submit_task(1, ms.batch(1), noop), DispatchVerdict::kDispatched);
  EXPECT_EQ(disp.submit_task(2, ms.batch(2), noop), DispatchVerdict::kDispatched);
  // Tenant 3 is under its own cap but the pool is full.
  EXPECT_EQ(disp.submit_task(3, ms.batch(3), noop), DispatchVerdict::kQueued);
  EXPECT_EQ(ms.complete_front(), 1);
  ASSERT_EQ(ms.captured.size(), 2u);  // tenant 3 dispatched by the completion
  EXPECT_EQ(ms.captured.back().tag, 3);
}

// ---------------------------------------------------------- OracleRegistry ---

/// Shared small instance; builds are real solves on the service pool.
struct RegistryFixture {
  Graph g{0};
  std::vector<Vertex> sources{0, 5, 9};
  service::QueryService svc{{.threads = 2}};

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

// The registry is the only owner of a registered oracle: once the tenant
// is unregistered and the caller drops its outcome, the oracle's memory is
// gone — the service's cache keeps no copy of its own.
TEST(RegistryTest, UnregisterReleasesTheOracle) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);
  std::weak_ptr<const Snapshot> weak;
  std::uint64_t digest = 0;
  {
    const RegisterOutcome out = fx.register_and_wait(reg, fx.g, fx.sources);
    ASSERT_EQ(out.state, OracleState::kReady);
    weak = out.oracle;
    digest = out.digest;
  }
  EXPECT_EQ(reg.unregister(digest), OracleState::kUnregistered);
  EXPECT_EQ(reg.resident_bytes(), 0u);
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(fx.svc.cache().size(), 0u);
}

// The graph build() attaches for |F| == 2 K_FAIL lives as long as its
// oracle, however many other tenants the registry builds meanwhile.
TEST(OracleRegistry, TwoFailureQueriesAnswerOnEveryBuiltTenant) {
  RegistryFixture fx;
  OracleRegistry reg(fx.svc);  // default cap: 16 tenants
  std::vector<RegisterOutcome> tenants;
  for (Vertex s = 0; s < 9; ++s) {
    tenants.push_back(fx.register_and_wait(reg, fx.g, {s}));
    ASSERT_EQ(tenants.back().state, OracleState::kReady) << "tenant " << s;
  }
  ASSERT_EQ(reg.tenant_count(), 9u);

  const std::vector<service::KFailQuery> queries{
      {0, 20, {0, 1}}, {0, 29, {2, 7}}, {0, 11, {3, 5}}};
  service::QueryService ref({.threads = 1});
  const auto want = ref.run<service::KFail>(*ref.build(fx.g, {0}), queries);
  EXPECT_EQ(fx.svc.run<service::KFail>(*tenants.front().oracle, queries), want);
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

}  // namespace
}  // namespace msrp
