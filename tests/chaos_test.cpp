// Chaos and reliability tests: the failpoint framework itself (spec
// grammar, one-shot and every-Kth arming, delay, env loading), end-to-end
// deadlines at every layer (service, dispatcher queue, TCP wire), the
// client retry policy (deterministic backoff schedule, reconnect-and-
// resend under injected receive truncation), crash-safe snapshot saves,
// registry build timeouts and failed-tenant retention, server idle /
// write-stall eviction, and shard-worker recovery (kill while futex-
// parked, corrupted attach detected and healed by respawn).
//
// The protocol-v3 workload opcodes get the same treatment: every typed
// entry point (vitality, Vickrey, k-fail) honors expired deadlines on both
// the sync and callback paths, a parked KFAIL_BATCH surfaces DEADLINE on
// the wire, admission control answers BUSY to a VITALITY_BATCH and the
// typed retry wrapper replays it byte-identically, and a service.answer
// stall turns each workload batch into an ERROR frame without hurting the
// connection.
//
// Failpoint *sites* are compiled in only under -DMSRP_FAILPOINTS=ON; the
// fail:: control functions are always linked, so the framework tests run
// in every build and the injection tests GTEST_SKIP when the sites are
// compiled out. Fork-based legs skip under TSan like shard_test does.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "registry/dispatch.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "service/shard_router.hpp"
#include "service/workloads.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

namespace msrp {
namespace {

using service::KFail;
using service::Query;
using service::Snapshot;
using service::Vickrey;
using service::Vitality;
using service::WorkloadResult;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsanBuild = true;
#else
constexpr bool kTsanBuild = false;
#endif
#else
constexpr bool kTsanBuild = false;
#endif

#define SKIP_WITHOUT_FAILPOINTS()                                            \
  do {                                                                       \
    if (!fail::kCompiledIn) GTEST_SKIP() << "-DMSRP_FAILPOINTS=ON required"; \
  } while (false)

/// No-hang watchdog: chaos tests inject stalls and crashes on purpose, so
/// a wedged test must die loudly instead of eating the CI job. SIGALRM's
/// default action terminates the process with a distinctive status.
class WatchdogEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { ::alarm(480); }
  void TearDown() override { ::alarm(0); }
};
const auto* const kWatchdog =
    ::testing::AddGlobalTestEnvironment(new WatchdogEnvironment);

// ------------------------------------------------------ failpoint framework

// The fail:: functions are compiled unconditionally (only the site macro is
// gated), so this section runs in every build. Sites are named test.* to
// stay clear of the real sites armed by the injection tests below.

TEST(Failpoint, UnarmedSiteIsFreeAndFalse) {
  fail::clear("test.unarmed");
  EXPECT_FALSE(fail::hit("test.unarmed"));
  EXPECT_EQ(fail::fire_count("test.unarmed"), 0u);
}

TEST(Failpoint, ErrorActionFiresEveryHitUntilCleared) {
  ASSERT_TRUE(fail::set("test.err", "error"));
  EXPECT_TRUE(fail::hit("test.err"));
  EXPECT_TRUE(fail::hit("test.err"));
  EXPECT_EQ(fail::fire_count("test.err"), 2u);
  fail::clear("test.err");
  EXPECT_FALSE(fail::hit("test.err"));
  EXPECT_EQ(fail::fire_count("test.err"), 2u);  // counters survive clear
}

TEST(Failpoint, OneShotFiresExactlyOnce) {
  ASSERT_TRUE(fail::set("test.oneshot", "error*1"));
  EXPECT_TRUE(fail::hit("test.oneshot"));
  EXPECT_FALSE(fail::hit("test.oneshot"));
  EXPECT_FALSE(fail::hit("test.oneshot"));
  EXPECT_EQ(fail::fire_count("test.oneshot"), 1u);
  fail::clear("test.oneshot");
}

TEST(Failpoint, EveryKthFiresOnTheKthHitOnly) {
  ASSERT_TRUE(fail::set("test.kth", "error%3"));
  EXPECT_FALSE(fail::hit("test.kth"));
  EXPECT_FALSE(fail::hit("test.kth"));
  EXPECT_TRUE(fail::hit("test.kth"));  // 3rd
  EXPECT_FALSE(fail::hit("test.kth"));
  EXPECT_FALSE(fail::hit("test.kth"));
  EXPECT_TRUE(fail::hit("test.kth"));  // 6th
  EXPECT_EQ(fail::fire_count("test.kth"), 2u);
  fail::clear("test.kth");
}

TEST(Failpoint, DelayStallsButContinuesNormally) {
  ASSERT_TRUE(fail::set("test.delay", "delay:30000"));  // 30 ms
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fail::hit("test.delay"));  // delay is not an error branch
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(20));
  EXPECT_EQ(fail::fire_count("test.delay"), 1u);
  fail::clear("test.delay");
}

TEST(Failpoint, MalformedSpecsAreRejectedWhole) {
  EXPECT_FALSE(fail::set("test.bad", ""));
  EXPECT_FALSE(fail::set("test.bad", "explode"));
  EXPECT_FALSE(fail::set("test.bad", "error*notanumber"));
  EXPECT_FALSE(fail::set("test.bad", "delay:xyz"));
  EXPECT_FALSE(fail::hit("test.bad"));  // never half-armed
}

TEST(Failpoint, OffSpecDisarms) {
  ASSERT_TRUE(fail::set("test.off", "error"));
  EXPECT_TRUE(fail::hit("test.off"));
  ASSERT_TRUE(fail::set("test.off", "off"));
  EXPECT_FALSE(fail::hit("test.off"));
}

TEST(Failpoint, EnvironmentArmsSites) {
  ::setenv("MSRP_FAILPOINTS", "test.env.a=error*1;test.env.b=error%2", 1);
  fail::load_env();
  ::unsetenv("MSRP_FAILPOINTS");
  EXPECT_TRUE(fail::hit("test.env.a"));
  EXPECT_FALSE(fail::hit("test.env.a"));  // one-shot spent
  EXPECT_FALSE(fail::hit("test.env.b"));
  EXPECT_TRUE(fail::hit("test.env.b"));  // every 2nd
  fail::clear_all();
}

// ------------------------------------------------------ deadline primitives

TEST(Deadline, AfterMsAndExpiry) {
  EXPECT_FALSE(deadline_expired(kNoDeadline));
  EXPECT_TRUE(deadline_expired(std::chrono::steady_clock::now() -
                               std::chrono::milliseconds(1)));
  const Deadline soon = deadline_after_ms(60000);
  EXPECT_FALSE(deadline_expired(soon));
}

TEST(Deadline, ExceededMessagesCarryThePrefix) {
  const DeadlineExceeded bare;
  EXPECT_TRUE(is_deadline_exceeded_message(bare.what()));
  const DeadlineExceeded detailed("parked too long");
  EXPECT_TRUE(is_deadline_exceeded_message(detailed.what()));
  EXPECT_NE(std::string(detailed.what()).find("parked too long"), std::string::npos);
  EXPECT_FALSE(is_deadline_exceeded_message("some other error"));
  EXPECT_FALSE(is_deadline_exceeded_message(""));
}

// ----------------------------------------------------------- retry policy

TEST(RetryPolicy, FirstAttemptNeverWaits) {
  net::RetryPolicy p;
  EXPECT_EQ(p.backoff_for(0).count(), 0);
}

TEST(RetryPolicy, ZeroJitterIsExactExponentialWithCap) {
  net::RetryPolicy p;
  p.initial_backoff_ms = 10;
  p.multiplier = 2.0;
  p.max_backoff_ms = 50;
  p.jitter = 0.0;
  EXPECT_EQ(p.backoff_for(1).count(), 10);
  EXPECT_EQ(p.backoff_for(2).count(), 20);
  EXPECT_EQ(p.backoff_for(3).count(), 40);
  EXPECT_EQ(p.backoff_for(4).count(), 50);  // capped
  EXPECT_EQ(p.backoff_for(9).count(), 50);
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministic) {
  net::RetryPolicy p;
  p.initial_backoff_ms = 100;
  p.multiplier = 1.0;  // nominal is flat 100 ms, so the bounds are tight
  p.max_backoff_ms = 1000;
  p.jitter = 0.2;
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    const auto ms = p.backoff_for(attempt).count();
    EXPECT_GE(ms, 80) << "attempt " << attempt;
    EXPECT_LE(ms, 120) << "attempt " << attempt;
    EXPECT_EQ(ms, p.backoff_for(attempt).count());  // pure function
  }
}

TEST(RetryPolicy, SeedsProduceDistinctSchedules) {
  net::RetryPolicy a, b;
  a.jitter = b.jitter = 0.3;
  a.seed = 1;
  b.seed = 2;
  bool any_differ = false;
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    if (a.backoff_for(attempt) != b.backoff_for(attempt)) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

// ----------------------------------------------- dispatcher queue deadlines

TEST(FairDispatcherDeadline, ExpiredQueuedBatchFailsInsteadOfDispatching) {
  struct {
    std::deque<service::BatchCallback> captured;
  } sink;
  const auto capture = [&sink](service::BatchCallback done, Deadline) {
    sink.captured.push_back(std::move(done));
  };
  registry::FairDispatcher disp(
      {.per_tenant_inflight = 1, .per_tenant_queue = 8, .total_inflight = 8});

  auto noop = [](service::BatchResult) {};
  ASSERT_EQ(disp.submit_task(1, capture, noop), registry::DispatchVerdict::kDispatched);

  bool expired_seen = false;
  const Deadline past = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ASSERT_EQ(disp.submit_task(1, capture,
                             [&](service::BatchResult r) {
                               ASSERT_NE(r.error, nullptr);
                               try {
                                 std::rethrow_exception(r.error);
                               } catch (const DeadlineExceeded& e) {
                                 expired_seen = is_deadline_exceeded_message(e.what());
                               }
                             },
                             past),
            registry::DispatchVerdict::kQueued);

  // Completing the inflight batch pumps the queue; the parked batch is past
  // its deadline, so it completes exceptionally and never reaches the sink.
  ASSERT_EQ(sink.captured.size(), 1u);
  auto done = std::move(sink.captured.front());
  sink.captured.pop_front();
  done(service::BatchResult{});
  EXPECT_TRUE(expired_seen);
  EXPECT_EQ(sink.captured.size(), 0u);  // nothing new dispatched
  EXPECT_EQ(disp.deadline_expirations(), 1u);
  EXPECT_EQ(disp.inflight_batches(), 0u);
}

// -------------------------------------------------- service-level deadlines

/// Small deterministic instance shared by the service and wire tests.
struct ChaosFixture {
  Graph g{0};
  std::vector<Vertex> sources{0, 11, 29};
  service::QueryService svc{{.threads = 2}};
  std::shared_ptr<const Snapshot> oracle;

  ChaosFixture() {
    Rng rng(77);
    g = gen::connected_gnp(60, 0.08, rng);
    oracle = svc.build(g, sources);
  }

  std::vector<Query> random_queries(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    return service::random_query_batch(sources, g.num_vertices(), g.num_edges(), count,
                                       rng);
  }
};

std::vector<service::VitalityQuery> vitality_queries(const ChaosFixture& fx,
                                                     std::size_t count,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<service::VitalityQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({fx.sources[rng.next_below(fx.sources.size())],
                   static_cast<Vertex>(rng.next_below(fx.g.num_vertices())),
                   1 + static_cast<std::uint32_t>(rng.next_below(6))});
  }
  return out;
}

std::vector<service::VickreyQuery> vickrey_queries(const ChaosFixture& fx,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<service::VickreyQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({fx.sources[rng.next_below(fx.sources.size())],
                   static_cast<Vertex>(rng.next_below(fx.g.num_vertices()))});
  }
  return out;
}

/// |F| cycles 0/1/2 so every k-fail answer path (base read, oracle row,
/// bounded BFS of G - F) sits in each batch.
std::vector<service::KFailQuery> kfail_queries(const ChaosFixture& fx, std::size_t count,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<service::KFailQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::KFailQuery q{fx.sources[rng.next_below(fx.sources.size())],
                          static_cast<Vertex>(rng.next_below(fx.g.num_vertices())),
                          {}};
    while (q.fails.size() < i % 3) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(fx.g.num_edges()));
      if (std::find(q.fails.begin(), q.fails.end(), e) == q.fails.end())
        q.fails.push_back(e);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Parks every worker of `svc` until the returned promise is fulfilled, so
/// a submitted batch deterministically waits behind the wedge.
std::promise<void> wedge_pool(service::QueryService& svc) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  for (unsigned i = 0; i < svc.num_threads(); ++i) {
    svc.pool().submit([gate] { gate.wait(); });
  }
  return release;
}

TEST(ServiceDeadline, ExpiredDeadlineFailsTheBatchWithoutAnswering) {
  ChaosFixture fx;
  const auto queries = fx.random_queries(200, 1);
  const Deadline past = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  std::promise<service::BatchResult> done;
  fx.svc.submit<service::Point>(
      fx.oracle, queries, [&](service::BatchResult r) { done.set_value(std::move(r)); },
      past);
  const service::BatchResult r = done.get_future().get();
  ASSERT_NE(r.error, nullptr);
  EXPECT_TRUE(r.answers.empty());
  try {
    std::rethrow_exception(r.error);
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(is_deadline_exceeded_message(e.what()));
  }
}

TEST(ServiceDeadline, SyncPathThrowsDeadlineExceeded) {
  ChaosFixture fx;
  const auto queries = fx.random_queries(200, 2);
  const Deadline past = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_THROW(fx.svc.query_batch(*fx.oracle, queries, past), DeadlineExceeded);
}

TEST(ServiceDeadline, GenerousDeadlineAnswersIdentically) {
  ChaosFixture fx;
  const auto queries = fx.random_queries(500, 3);
  const auto want = fx.svc.query_batch(*fx.oracle, queries);
  EXPECT_EQ(fx.svc.query_batch(*fx.oracle, queries, deadline_after_ms(60000)), want);
}

// Every typed workload entry point enforces the same deadline contract as
// query_batch: sync throws, the callback path delivers the error channel.
TEST(ServiceDeadline, WorkloadEntryPointsHonorExpiredDeadlines) {
  ChaosFixture fx;
  const auto vq = vitality_queries(fx, 120, 20);
  const auto pq = vickrey_queries(fx, 120, 21);
  const auto fq = kfail_queries(fx, 120, 22);
  const Deadline past = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  EXPECT_THROW(fx.svc.run<Vitality>(*fx.oracle, vq, past), DeadlineExceeded);
  EXPECT_THROW(fx.svc.run<Vickrey>(*fx.oracle, pq, past), DeadlineExceeded);
  EXPECT_THROW(fx.svc.run<KFail>(*fx.oracle, fq, past), DeadlineExceeded);

  std::promise<WorkloadResult<Vitality>> vp;
  fx.svc.submit<Vitality>(fx.oracle, vq,
                         [&](WorkloadResult<Vitality> r) { vp.set_value(std::move(r)); },
                         past);
  const WorkloadResult<Vitality> vr = vp.get_future().get();
  ASSERT_NE(vr.error, nullptr);
  EXPECT_TRUE(vr.answers.empty());
  EXPECT_THROW(std::rethrow_exception(vr.error), DeadlineExceeded);

  std::promise<WorkloadResult<Vickrey>> pp;
  fx.svc.submit<Vickrey>(fx.oracle, pq,
                        [&](WorkloadResult<Vickrey> r) { pp.set_value(std::move(r)); },
                        past);
  const WorkloadResult<Vickrey> pr = pp.get_future().get();
  ASSERT_NE(pr.error, nullptr);
  EXPECT_TRUE(pr.answers.empty());
  EXPECT_THROW(std::rethrow_exception(pr.error), DeadlineExceeded);

  std::promise<WorkloadResult<KFail>> fp;
  fx.svc.submit<KFail>(
      fx.oracle, fq,
      [&](WorkloadResult<KFail> r) { fp.set_value(std::move(r)); }, past);
  const WorkloadResult<KFail> fr = fp.get_future().get();
  ASSERT_NE(fr.error, nullptr);
  EXPECT_TRUE(fr.answers.empty());
  EXPECT_THROW(std::rethrow_exception(fr.error), DeadlineExceeded);
}

// Acceptance: a delay failpoint that pushes the answer path past its budget
// must surface DEADLINE_EXCEEDED within 2x the deadline, not answer late.
TEST(ServiceDeadline, DelayFailpointForcesDeadlineWithinTwiceTheBudget) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  const auto queries = fx.random_queries(200, 4);
  constexpr unsigned kDeadlineMs = 150;
  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));  // 180 ms, one-shot

  const auto t0 = std::chrono::steady_clock::now();
  std::promise<service::BatchResult> done;
  fx.svc.submit<service::Point>(
      fx.oracle, queries, [&](service::BatchResult r) { done.set_value(std::move(r)); },
      deadline_after_ms(kDeadlineMs));
  const service::BatchResult r = done.get_future().get();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  fail::clear("service.answer");

  ASSERT_NE(r.error, nullptr);
  try {
    std::rethrow_exception(r.error);
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(is_deadline_exceeded_message(e.what()));
  }
  EXPECT_LT(elapsed.count(), 2 * kDeadlineMs);
}

// The same acceptance for each typed workload path: the service.answer site
// fires on every submit<W> closure, so a one-shot stall past the budget must
// turn into the error channel, opcode by opcode, never a late answer.
TEST(ServiceDeadline, DelayFailpointFailsEachWorkloadBatchInsteadOfAnsweringLate) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  constexpr unsigned kDeadlineMs = 150;

  const auto expect_deadline_error = [&](std::exception_ptr error) {
    ASSERT_NE(error, nullptr);
    try {
      std::rethrow_exception(error);
    } catch (const DeadlineExceeded& e) {
      EXPECT_TRUE(is_deadline_exceeded_message(e.what()));
    }
  };

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  std::promise<WorkloadResult<Vitality>> vp;
  fx.svc.submit<Vitality>(fx.oracle, vitality_queries(fx, 120, 25),
                         [&](WorkloadResult<Vitality> r) { vp.set_value(std::move(r)); },
                         deadline_after_ms(kDeadlineMs));
  const WorkloadResult<Vitality> vr = vp.get_future().get();
  EXPECT_TRUE(vr.answers.empty());
  expect_deadline_error(vr.error);

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  std::promise<WorkloadResult<Vickrey>> pp;
  fx.svc.submit<Vickrey>(fx.oracle, vickrey_queries(fx, 120, 26),
                        [&](WorkloadResult<Vickrey> r) { pp.set_value(std::move(r)); },
                        deadline_after_ms(kDeadlineMs));
  const WorkloadResult<Vickrey> pr = pp.get_future().get();
  EXPECT_TRUE(pr.answers.empty());
  expect_deadline_error(pr.error);

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  std::promise<WorkloadResult<KFail>> fp;
  fx.svc.submit<KFail>(
      fx.oracle, kfail_queries(fx, 120, 27),
      [&](WorkloadResult<KFail> r) { fp.set_value(std::move(r)); },
      deadline_after_ms(kDeadlineMs));
  const WorkloadResult<KFail> fr = fp.get_future().get();
  fail::clear("service.answer");
  EXPECT_TRUE(fr.answers.empty());
  expect_deadline_error(fr.error);
}

// ------------------------------------------------------- crash-safe saves

TEST(SnapshotSave, ReplacesExistingFileAtomically) {
  ChaosFixture fx;
  Rng rng(5);
  const Graph other = gen::connected_gnp(40, 0.1, rng);
  const auto b = fx.svc.build(other, {0, 7});
  const std::string path = ::testing::TempDir() + "/chaos_save.snap";

  fx.oracle->save(path);
  EXPECT_EQ(fx.svc.load(path)->content_digest(), fx.oracle->content_digest());
  b->save(path);  // overwrite must swap whole files, never mix bytes
  EXPECT_EQ(fx.svc.load(path)->content_digest(), b->content_digest());
  std::remove(path.c_str());
}

TEST(SnapshotSave, CrashMidSaveLeavesTheOldFileIntact) {
  SKIP_WITHOUT_FAILPOINTS();
  if (kTsanBuild) GTEST_SKIP() << "fork-based; skipped under TSan";
  ChaosFixture fx;
  Rng rng(6);
  const Graph other = gen::connected_gnp(40, 0.1, rng);
  const auto b = fx.svc.build(other, {0, 7});
  const std::string path = ::testing::TempDir() + "/chaos_crash_save.snap";
  fx.oracle->save(path);

  // The failpoint sits between fsync and rename: the child dies with the
  // full new image written to the temp file but the target untouched.
  ASSERT_TRUE(fail::set("snapshot.save", "crash*1"));
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    b->save(path);       // fires the crash
    std::_Exit(0);       // not reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  fail::clear("snapshot.save");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fail::kCrashExitCode);

  // The interrupted save must not have harmed the previous image.
  EXPECT_EQ(fx.svc.load(path)->content_digest(), fx.oracle->content_digest());
  std::remove(path.c_str());
  std::remove((path + ".tmp." + std::to_string(pid)).c_str());
}

// --------------------------------------------- registry timeouts and reaps

TEST(RegistryChaos, BuildTimeoutFailsTheTenantInsteadOfWedging) {
  ChaosFixture fx;
  registry::OracleRegistry reg(fx.svc, {.build_timeout = std::chrono::milliseconds(40)});
  auto release = wedge_pool(fx.svc);  // the build task never gets a thread

  std::promise<registry::RegisterOutcome> outcome;
  ASSERT_TRUE(reg.register_graph(
      fx.g.num_vertices(), fx.g.edges(), fx.sources, Config{},
      [&](registry::RegisterOutcome o) { outcome.set_value(std::move(o)); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  reg.poke();  // in production the server tick drives this

  const registry::RegisterOutcome out = outcome.get_future().get();
  EXPECT_EQ(out.state, registry::OracleState::kFailed);
  EXPECT_NE(out.error.find("timed out"), std::string::npos);

  // The late build result (the pool task still runs) must be discarded,
  // not double-delivered; the tenant stays listable as the failure.
  release.set_value();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto listed = reg.list();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].state, registry::OracleState::kFailed);
}

TEST(RegistryChaos, FailedTenantIsReapedAfterTtl) {
  ChaosFixture fx;
  registry::OracleRegistry reg(fx.svc, {.failed_ttl = std::chrono::milliseconds(60)});
  std::promise<registry::RegisterOutcome> outcome;
  ASSERT_TRUE(reg.register_graph(
      fx.g.num_vertices(), fx.g.edges(), {fx.g.num_vertices() + 7},  // invalid
      Config{}, [&](registry::RegisterOutcome o) { outcome.set_value(std::move(o)); }));
  EXPECT_EQ(outcome.get_future().get().state, registry::OracleState::kFailed);
  EXPECT_EQ(reg.tenant_count(), 1u);  // retained for reason visibility

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  reg.poke();
  EXPECT_EQ(reg.tenant_count(), 0u);
}

TEST(RegistryChaos, InjectedBuildFailureSurfacesItsReason) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  registry::OracleRegistry reg(fx.svc);
  ASSERT_TRUE(fail::set("registry.build", "error*1"));
  std::promise<registry::RegisterOutcome> outcome;
  ASSERT_TRUE(reg.register_graph(
      fx.g.num_vertices(), fx.g.edges(), fx.sources, Config{},
      [&](registry::RegisterOutcome o) { outcome.set_value(std::move(o)); }));
  const registry::RegisterOutcome out = outcome.get_future().get();
  fail::clear("registry.build");
  EXPECT_EQ(out.state, registry::OracleState::kFailed);
  EXPECT_NE(out.error.find("injected"), std::string::npos);
}

// --------------------------------------------------------- wire-level legs

/// Server on an ephemeral loopback port with its run() thread.
struct TestServer {
  net::Server server;
  std::thread thread;

  TestServer(service::QueryService& svc, std::shared_ptr<const Snapshot> oracle,
             net::ServerOptions opts = {})
      : server(svc, std::move(oracle), opts), thread([this] { server.run(); }) {}

  ~TestServer() {
    server.shutdown();
    thread.join();
  }

  net::ClientOptions client_options() const {
    net::ClientOptions copts;
    copts.port = server.port();
    copts.connect_retries = 10;
    return copts;
  }
};

struct RegistryTestServer {
  registry::OracleRegistry registry;
  net::Server server;
  std::thread thread;

  RegistryTestServer(service::QueryService& svc, std::shared_ptr<const Snapshot> oracle,
                     registry::RegistryOptions ropts = {}, net::ServerOptions sopts = {})
      : registry(svc, ropts),
        server(svc, std::move(oracle), &registry, sopts),
        thread([this] { server.run(); }) {}

  ~RegistryTestServer() {
    server.shutdown();
    thread.join();
  }

  net::ClientOptions client_options() const {
    net::ClientOptions copts;
    copts.port = server.port();
    copts.connect_retries = 10;
    return copts;
  }
};

TEST(NetDeadline, BatchParkedPastItsDeadlineReturnsDeadlineError) {
  ChaosFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  const auto queries = fx.random_queries(300, 10);

  auto release = wedge_pool(fx.svc);
  const std::uint64_t id = client.send(queries, std::nullopt, /*deadline_ms=*/30);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  release.set_value();

  EXPECT_THROW(client.wait(id), net::DeadlineError);
  EXPECT_GE(ts.server.stats().deadline_exceeded, 1u);
}

// The typed opcodes ride the same wire-deadline machinery: a KFAIL_BATCH
// parked behind a wedged pool past its budget comes back as DEADLINE, and
// the connection then serves a clean replay of the same batch.
TEST(NetDeadline, KFailBatchParkedPastItsDeadlineReturnsDeadlineError) {
  ChaosFixture fx;
  const auto queries = kfail_queries(fx, 150, 16);
  const auto want = fx.svc.run<KFail>(*fx.oracle, queries);
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  auto release = wedge_pool(fx.svc);
  const std::uint64_t id = client.send<KFail>(queries, std::nullopt, /*deadline_ms=*/30);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  release.set_value();

  EXPECT_THROW(client.wait<KFail>(id), net::DeadlineError);
  EXPECT_GE(ts.server.stats().deadline_exceeded, 1u);
  EXPECT_EQ(client.call<KFail>(queries), want);
}

TEST(NetDeadline, GenerousWireDeadlineAnswersByteForByte) {
  ChaosFixture fx;
  const auto queries = fx.random_queries(1000, 11);
  const auto want = fx.svc.query_batch(*fx.oracle, queries);
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_EQ(client.call(queries, std::nullopt, 60000), want);
  EXPECT_EQ(ts.server.stats().deadline_exceeded, 0u);
}

TEST(NetDeadline, RetryBudgetExhaustsAsDeadlineError) {
  ChaosFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  const auto queries = fx.random_queries(100, 12);

  // Every attempt parks behind the wedge until past its (tiny) budget; the
  // client's local wait bound (deadline + net::kDeadlineGrace, 500 ms) must
  // cut each one loose and the retry loop must give up on schedule rather
  // than spin forever.
  auto release = wedge_pool(fx.svc);
  net::RetryPolicy policy;
  policy.deadline_ms = 150;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 20;
  policy.jitter = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.call_retry(queries, policy), net::DeadlineError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  release.set_value();
  EXPECT_LT(elapsed.count(), 5000);  // bounded, not wedged
}

TEST(NetEviction, IdleConnectionIsEvicted) {
  ChaosFixture fx;
  net::ServerOptions sopts;
  sopts.idle_timeout_ms = 120;
  TestServer ts(fx.svc, fx.oracle, sopts);
  net::Client client(ts.client_options());
  const auto queries = fx.random_queries(100, 13);
  EXPECT_EQ(client.call(queries), fx.svc.query_batch(*fx.oracle, queries));

  // Fall silent past the idle budget; the server reclaims the socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_GE(ts.server.stats().connections_evicted, 1u);
  EXPECT_THROW(client.call(queries), std::runtime_error);
}

TEST(NetChaos, StalledFlushIsEvictedAndRetryRecovers) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  const auto queries = fx.random_queries(800, 14);
  const auto want = fx.svc.query_batch(*fx.oracle, queries);

  net::ServerOptions sopts;
  sopts.write_stall_timeout_ms = 150;
  TestServer ts(fx.svc, fx.oracle, sopts);
  net::Client client(ts.client_options());

  // One reply flush "takes nothing" (a stuck socket); the stall timer must
  // evict the connection, and call_retry must re-dial and resend the batch
  // on a fresh one — byte-identical answers.
  ASSERT_TRUE(fail::set("server.flush", "error*1"));
  net::RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  const auto got = client.call_retry(queries, policy);
  fail::clear("server.flush");
  EXPECT_EQ(got, want);
  EXPECT_GE(ts.server.stats().connections_evicted, 1u);
  EXPECT_GE(ts.server.stats().connections_accepted, 2u);  // the retry re-dialed
}

TEST(NetChaos, TruncatedReceivesAreRetriedToIdenticalAnswers) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  const auto queries = fx.random_queries(600, 15);
  const auto want = fx.svc.query_batch(*fx.oracle, queries);
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  // Every 2nd receive loses its connection mid-frame, at most 4 times; the
  // retry loop reconnects and resends (QUERY_BATCH is idempotent). Every
  // completed answer must be byte-identical to the in-process result.
  ASSERT_TRUE(fail::set("client.recv_truncate", "error%2*4"));
  net::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_ms = 1;
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(client.call_retry(queries, policy), want) << "round " << round;
  }
  fail::clear("client.recv_truncate");
  EXPECT_GE(fail::fire_count("client.recv_truncate"), 1u);
}

TEST(NetChaos, StalledAnswerFailsEachWorkloadBatchButNotTheConnection) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  const auto vq = vitality_queries(fx, 80, 51);
  const auto pq = vickrey_queries(fx, 80, 52);
  const auto fq = kfail_queries(fx, 80, 53);

  // Opcode by opcode: a one-shot 180 ms stall against a 60 ms wire budget
  // turns exactly that batch into an ERROR frame (mapped to DeadlineError
  // client-side); the connection survives and an immediate clean resend on
  // the SAME socket matches the in-process answers.
  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  EXPECT_THROW(client.call<Vitality>(vq, std::nullopt, /*deadline_ms=*/60),
               net::DeadlineError);
  EXPECT_EQ(client.call<Vitality>(vq), fx.svc.run<Vitality>(*fx.oracle, vq));

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  EXPECT_THROW(client.call<Vickrey>(pq, std::nullopt, /*deadline_ms=*/60),
               net::DeadlineError);
  EXPECT_EQ(client.call<Vickrey>(pq), fx.svc.run<Vickrey>(*fx.oracle, pq));

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  EXPECT_THROW(client.call<KFail>(fq, std::nullopt, /*deadline_ms=*/60),
               net::DeadlineError);
  EXPECT_EQ(client.call<KFail>(fq), fx.svc.run<KFail>(*fx.oracle, fq));
  fail::clear("service.answer");

  EXPECT_GE(ts.server.stats().deadline_exceeded, 3u);
  EXPECT_EQ(ts.server.stats().protocol_errors, 0u);
}

TEST(NetChaos, InjectedFailuresAreVisibleInScrapedCounters) {
  SKIP_WITHOUT_FAILPOINTS();
  ChaosFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  const auto queries = fx.random_queries(200, 61);

  // Failpoint sites and deadline expirations are exported through the
  // metrics registry, so an operator sees injected chaos in the same STATS
  // snapshot (and /metrics scrape) as the serving counters. Server counters
  // are compared as deltas (the registry is process-global and earlier
  // tests may have bumped them); failpoint counters are compared as
  // absolutes, because fail::set() zeroes a site's hits/fires.
  const auto counter_value = [](const net::StatsSnapshotFrame& snap,
                                const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const net::StatsSnapshotFrame before = client.stats();

  ASSERT_TRUE(fail::set("service.answer", "delay:180000*1"));
  EXPECT_THROW(client.call(queries, std::nullopt, /*deadline_ms=*/60),
               net::DeadlineError);
  fail::clear("service.answer");

  const net::StatsSnapshotFrame after = client.stats();
  EXPECT_GE(counter_value(after, "failpoint.service.answer.hits"), 1u);
  EXPECT_GE(counter_value(after, "failpoint.service.answer.fires"), 1u);
  EXPECT_GE(counter_value(after, "server.deadline_exceeded"),
            counter_value(before, "server.deadline_exceeded") + 1);

  // The failed batch still went through decode: the per-stage histograms
  // carry it.
  bool saw_decode = false;
  for (const auto& h : after.histograms) {
    if (h.name == "query_latency" && h.label == "decode" && h.count > 0) saw_decode = true;
  }
  EXPECT_TRUE(saw_decode);
}

TEST(NetRegistryChaos, FailedWireRegistrationIsListableWithItsReason) {
  ChaosFixture fx;
  RegistryTestServer ts(fx.svc, nullptr);
  net::Client client(ts.client_options());
  ASSERT_TRUE(client.registry_enabled());

  // Out-of-range source: the build fails server-side; the register call
  // reports it and LIST_ORACLES carries the reason until unregistered.
  std::vector<std::pair<Vertex, Vertex>> edges(fx.g.edges().begin(), fx.g.edges().end());
  const std::vector<Vertex> bad_sources{fx.g.num_vertices() + 7};
  EXPECT_THROW(client.register_graph(fx.g.num_vertices(), edges, bad_sources),
               std::runtime_error);

  const auto listed = client.list_oracles();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].state, registry::OracleState::kFailed);
  EXPECT_FALSE(listed[0].error.empty());

  // Operators can clear the tombstone explicitly.
  const auto ack = client.unregister(listed[0].digest);
  EXPECT_EQ(ack.state, registry::OracleState::kUnregistered);
  EXPECT_TRUE(client.list_oracles().empty());
}

// Admission control treats a VITALITY_BATCH exactly like a point batch:
// overflow past the zero-length tenant queue is answered BUSY, BUSY means
// "did not run", and the typed retry wrapper replays it byte-identically.
TEST(NetRegistryChaos, VitalityBusySignalsAndTypedRetrySucceeds) {
  ChaosFixture fx;
  const auto b1 = vitality_queries(fx, 200, 61);
  const auto b2 = vitality_queries(fx, 100, 62);
  const auto want1 = fx.svc.run<Vitality>(*fx.oracle, b1);
  const auto want2 = fx.svc.run<Vitality>(*fx.oracle, b2);

  net::ServerOptions sopts;
  sopts.dispatch = {.per_tenant_inflight = 1, .per_tenant_queue = 0, .total_inflight = 4};
  RegistryTestServer ts(fx.svc, fx.oracle, {}, sopts);
  net::Client client(ts.client_options());

  // Wedge the pool so the first batch deterministically stays in flight;
  // the second then overflows the zero-length queue.
  std::promise<void> release = wedge_pool(fx.svc);
  const std::uint64_t id1 = client.send<Vitality>(b1);
  const std::uint64_t id2 = client.send<Vitality>(b2);
  try {
    client.wait<Vitality>(id2);
    FAIL() << "expected BUSY";
  } catch (const net::BusyError& ex) {
    EXPECT_NE(std::string(ex.what()).find("busy"), std::string::npos);
  }
  release.set_value();
  EXPECT_EQ(client.wait<Vitality>(id1), want1);
  EXPECT_EQ(ts.server.stats().busy_rejected, 1u);

  net::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 5;
  EXPECT_EQ(client.call_retry<Vitality>(b2, policy), want2);
}

// ------------------------------------------------------ shard-worker chaos

Snapshot demo_snapshot(Vertex n, std::uint32_t sigma, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = gen::connected_avg_degree(n, 6.0, rng);
  std::vector<Vertex> sources;
  for (std::uint32_t i = 0; i < sigma; ++i) sources.push_back(i * (n / sigma));
  return Snapshot::capture(solve_msrp(g, sources));
}

std::vector<Query> shard_queries(const Snapshot& oracle, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({oracle.sources()[rng.next_below(oracle.num_sources())],
                   static_cast<Vertex>(rng.next_below(oracle.num_vertices())),
                   static_cast<EdgeId>(rng.next_below(oracle.num_edges()))});
  }
  return out;
}

TEST(ShardChaos, KillWhileFutexParkedRespawnsAndMatches) {
  if (kTsanBuild) GTEST_SKIP() << "fork-based; skipped under TSan";
  const Snapshot oracle = demo_snapshot(150, 4, 21);
  service::ShardRouterOptions opts;
  opts.shards = 2;
  service::ShardRouter router(oracle, opts);

  const auto queries = shard_queries(oracle, 2000, 22);
  const auto want = router.query_batch(queries);

  // With no batch in flight both workers are parked on their futex
  // doorbells. SIGKILL one there — the next batch must detect the death,
  // respawn against the placed segments, and answer byte-identically.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const long victim = router.worker_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);

  EXPECT_EQ(router.query_batch(queries), want);
  EXPECT_GE(router.stats().respawns, 1u);
  EXPECT_NE(router.worker_pid(0), victim);
}

TEST(ShardChaos, CorruptedAttachIsDetectedAndHealedByRespawn) {
  if (kTsanBuild) GTEST_SKIP() << "fork-based; skipped under TSan";
  SKIP_WITHOUT_FAILPOINTS();
  const Snapshot oracle = demo_snapshot(150, 4, 23);
  const auto queries = shard_queries(oracle, 1500, 24);

  service::ShardRouterOptions opts;
  opts.shards = 1;
  service::ShardRouter router(oracle, opts);
  const auto want = router.query_batch(queries);

  // Every respawned worker XORs a byte mid-segment at attach. After the
  // kill, the first replacement corrupts the (shared) image, fails its
  // attach verify, and exits with the bad-snapshot code; the next one XORs
  // the same byte back — restoring the image — verifies clean, and serves.
  // (A corrupt FIRST spawn is a constructor failure by design: a server
  // that cannot attach its snapshot must not come up at all.)
  ASSERT_TRUE(fail::set("shard_worker.attach_corrupt", "error"));
  const long victim = router.worker_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGKILL), 0);
  const auto got = router.query_batch(queries);
  fail::clear("shard_worker.attach_corrupt");

  EXPECT_EQ(got, want);
  EXPECT_GE(router.stats().respawns, 2u);  // the corruptor, then the healer
}

TEST(ShardChaos, LostWakeStillCompletesOffTheBoundedPark) {
  if (kTsanBuild) GTEST_SKIP() << "fork-based; skipped under TSan";
  SKIP_WITHOUT_FAILPOINTS();
  const Snapshot oracle = demo_snapshot(150, 4, 25);
  const auto queries = shard_queries(oracle, 1500, 26);
  service::ShardRouterOptions opts;
  opts.shards = 2;
  std::vector<Dist> want;
  {
    service::ShardRouter router(oracle, opts);
    want = router.query_batch(queries);
  }

  // Armed before the router forks, so every worker inherits both sites: no
  // worker ever rings the completion doorbell, and a one-shot stall at
  // each worker's first pop makes sure the collector has parked before
  // any answer lands. It then sees the answers only when a bounded park
  // times out.
  ASSERT_TRUE(fail::set("shard_worker.lost_wake", "error"));
  ASSERT_TRUE(fail::set("shard_worker.pop", "delay:20000*1"));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Dist> got;
  {
    service::ShardRouter router(oracle, opts);
    got = router.query_batch(queries);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  fail::clear("shard_worker.lost_wake");
  fail::clear("shard_worker.pop");

  EXPECT_EQ(got, want);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace msrp
