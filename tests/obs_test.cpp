/// \file
/// Unit tests for the observability layer: histogram bucket geometry,
/// striped histograms, the registry (find-or-create, collectors, concurrent
/// record-vs-snapshot — the TSan target, the once-per-process failpoint
/// export), the trace ring, the Prometheus/stderr renderers, the v4 STATS
/// frame codec, and the HTTP metrics listener.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/http_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/query_service.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace msrp {
namespace {

// ----- bucket geometry ------------------------------------------------------

TEST(ObsBuckets, ExactBelowEight) {
  for (std::uint64_t ns = 0; ns < 8; ++ns) {
    EXPECT_EQ(obs::bucket_index(ns), ns);
    EXPECT_EQ(obs::bucket_upper_ns(ns), ns + 1);
  }
}

TEST(ObsBuckets, EveryValueLandsBelowItsUpperEdge) {
  // Sweep powers of two and their neighbours across the whole range.
  for (int p = 0; p < 40; ++p) {
    for (std::int64_t d : {-1, 0, 1}) {
      const std::uint64_t ns = (std::uint64_t{1} << p) + static_cast<std::uint64_t>(d);
      const std::size_t idx = obs::bucket_index(ns);
      ASSERT_LT(idx, obs::kHistogramBuckets);
      if (idx + 1 < obs::kHistogramBuckets) {
        EXPECT_LT(ns, obs::bucket_upper_ns(idx)) << "ns=" << ns;
      }
      if (idx > 0) {
        EXPECT_GE(ns, obs::bucket_upper_ns(idx - 1)) << "ns=" << ns;
      }
    }
  }
}

TEST(ObsBuckets, UpperEdgesStrictlyIncrease) {
  for (std::size_t i = 1; i < obs::kHistogramBuckets; ++i) {
    EXPECT_GT(obs::bucket_upper_ns(i), obs::bucket_upper_ns(i - 1)) << i;
  }
}

TEST(ObsBuckets, RelativeErrorBoundedAboveEight) {
  // Log-linear with 4 sub-buckets per octave: the bucket width is at most
  // a quarter of the value's octave, i.e. <= 12.5% relative error once the
  // estimate is the bucket's upper edge.
  for (std::uint64_t ns = 8; ns < (1ull << 30); ns = ns * 5 / 3 + 1) {
    const std::size_t idx = obs::bucket_index(ns);
    if (idx + 1 >= obs::kHistogramBuckets) break;
    const double upper = static_cast<double>(obs::bucket_upper_ns(idx));
    EXPECT_LE(upper / static_cast<double>(ns), 1.0 + 0.25001) << "ns=" << ns;
  }
}

TEST(ObsBuckets, HugeValuesClampIntoLastBucket) {
  EXPECT_EQ(obs::bucket_index(~std::uint64_t{0}), obs::kHistogramBuckets - 1);
}

// ----- histograms and collectors -------------------------------------------

TEST(ObsMetrics, CounterSumsAcrossThreads) {
  // More threads than stripes, so several threads share a stripe and every
  // stripe is written: the count must still be exact once summed on read.
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("test.adds");
  constexpr int kThreads = 2 * static_cast<int>(obs::detail::kStripes);
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h->record(3);
    });
  }
  for (auto& t : threads) t.join();
  std::array<std::uint64_t, obs::kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  h->read(buckets.data(), count, sum_ns);
  EXPECT_EQ(count, kThreads * kPerThread);
  EXPECT_EQ(buckets[3], kThreads * kPerThread);
  EXPECT_EQ(sum_ns, 3 * kThreads * kPerThread);
}

TEST(ObsMetrics, FindOrCreateReturnsStableHandles) {
  obs::MetricsRegistry reg;
  obs::Histogram* a = reg.histogram("a");
  EXPECT_EQ(reg.histogram("a"), a);
  EXPECT_NE(reg.histogram("b"), a);
  EXPECT_EQ(reg.histogram("h", "x"), reg.histogram("h", "x"));
  EXPECT_NE(reg.histogram("h", "x"), reg.histogram("h", "y"));
  EXPECT_NE(reg.histogram("h", "x"), reg.histogram("h"));
  // Later registrations must not move earlier handles.
  for (int i = 0; i < 64; ++i) reg.histogram("filler." + std::to_string(i));
  EXPECT_EQ(reg.histogram("a"), a);
}

TEST(ObsMetrics, HistogramQuantilesFromKnownData) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("lat");
  // 90 fast samples at 100ns, 10 slow at ~1ms: p50 must sit near 100ns,
  // p99 near 1ms (within one bucket's 12.5% rounding).
  for (int i = 0; i < 90; ++i) h->record(100);
  for (int i = 0; i < 10; ++i) h->record(1'000'000);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramSample& s = snap.histograms[0];
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum_ns, 90u * 100 + 10u * 1'000'000);
  EXPECT_GE(s.quantile(0.50), 100u);
  EXPECT_LE(s.quantile(0.50), 112u);
  EXPECT_GE(s.quantile(0.99), 1'000'000u);
  EXPECT_LE(s.quantile(0.99), 1'125'000u);
}

TEST(ObsMetrics, SnapshotSortsAndSumsDuplicates) {
  obs::MetricsRegistry reg;
  // Two collectors — two instances of one subsystem — reporting the same
  // names: summed into one series each, and the output sorted by name.
  auto first = reg.register_collector([](obs::MetricsSnapshot& out) {
    out.counters.push_back({"z", 1});
    out.counters.push_back({"a", 2});
    out.gauges.push_back({"g", 3});
  });
  auto second = reg.register_collector([](obs::MetricsSnapshot& out) {
    out.counters.push_back({"a", 40});
    out.gauges.push_back({"g", 4});
  });
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[0].value, 42u);
  EXPECT_EQ(snap.counters[1].name, "z");
  EXPECT_EQ(snap.counters[1].value, 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
}

TEST(ObsMetrics, CollectorHandleUnregistersOnDestruction) {
  obs::MetricsRegistry reg;
  {
    auto handle = reg.register_collector(
        [](obs::MetricsSnapshot& out) { out.counters.push_back({"tmp", 1}); });
    EXPECT_EQ(reg.snapshot().counters.size(), 1u);
  }
  EXPECT_EQ(reg.snapshot().counters.size(), 0u);
}

// The TSan job runs this: recording threads hammer a histogram and a
// subsystem-owned atomic (exported by a collector, as net::Server does)
// while a reader loops snapshot(). Any missing synchronization in the
// stripe or collector paths shows up as a race report.
TEST(ObsMetrics, ConcurrentRecordAndSnapshotAreClean) {
  obs::MetricsRegistry reg;
  std::atomic<std::uint64_t> c{0};
  obs::Histogram* h = reg.histogram("h", "stage");
  auto handle = reg.register_collector([&c](obs::MetricsSnapshot& out) {
    out.counters.push_back({"c", c.load(std::memory_order_relaxed)});
  });
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t ns = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        c.fetch_add(1, std::memory_order_relaxed);
        h->record(ns = (ns * 2862933555777941757ull + 3037000493ull) % 1'000'000);
      }
    });
  }
  std::uint64_t last_counter = 0;
  std::uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto& s : snap.counters) {
      if (s.name == "c") {
        EXPECT_GE(s.value, last_counter);  // monotone under concurrent adds
        last_counter = s.value;
      }
    }
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_GE(snap.histograms[0].count, last_count);  // monotone under records
    last_count = snap.histograms[0].count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

// Failpoint counters are process-global. They must be exported once per
// process by the registry itself, however many servers are alive, and
// without any server at all.
TEST(ObsMetrics, FailpointCountersExportedOncePerProcess) {
  ASSERT_TRUE(fail::set("obs_test.site", "error"));
  EXPECT_TRUE(fail::hit("obs_test.site"));
  fail::clear("obs_test.site");

  const auto site_counter = [](const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << name << " missing from the snapshot";
    return std::uint64_t{0};
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(site_counter(reg.snapshot(), "failpoint.obs_test.site.fires"), 1u);

  Rng rng(5);
  const Graph g = gen::connected_gnp(40, 0.1, rng);
  service::QueryService svc({.threads = 1});
  const auto oracle = svc.build(g, std::vector<Vertex>{0, 7});
  net::Server first(svc, oracle);
  net::Server second(svc, oracle);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(site_counter(snap, "failpoint.obs_test.site.fires"), 1u);
  EXPECT_EQ(site_counter(snap, "failpoint.obs_test.site.hits"), 1u);
}

// ----- trace ring -----------------------------------------------------------

TEST(ObsTrace, SamplesOneInN) {
  obs::TraceRing ring(4);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) sampled += ring.sample() ? 1 : 0;
  EXPECT_EQ(sampled, 25);
}

TEST(ObsTrace, ZeroDisablesSampling) {
  obs::TraceRing ring(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(ring.sample());
}

TEST(ObsTrace, RingKeepsMostRecentSpansInOrder) {
  obs::TraceRing ring(1, /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::TraceSpan span;
    span.request_id = i;
    ring.publish(span);
  }
  EXPECT_EQ(ring.published(), 10u);
  const std::vector<obs::TraceSpan> spans = ring.dump();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].request_id, 6 + i);  // oldest retained first
    EXPECT_GT(spans[i].trace_id, 0u);       // assigned at publish
  }
  EXPECT_FALSE(obs::format_trace_spans(spans).empty());
}

// ----- renderers ------------------------------------------------------------

TEST(ObsExposition, NameSanitization) {
  EXPECT_EQ(obs::exposition_name("server.batches_received"),
            "msrp_server_batches_received");
  EXPECT_EQ(obs::exposition_name("failpoint.service.answer.fires"),
            "msrp_failpoint_service_answer_fires");
}

TEST(ObsExposition, PrometheusTextShape) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"server.batches_received", 12});
  snap.gauges.push_back({"dispatch.inflight_batches", 3});
  obs::HistogramSample h;
  h.name = "query_latency";
  h.label = "decode";
  h.buckets[obs::bucket_index(100)] = 2;
  h.buckets[obs::bucket_index(1'000'000)] = 1;
  h.count = 3;
  h.sum_ns = 1'000'200;
  snap.histograms.push_back(h);

  const std::string text = obs::render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE msrp_server_batches_received_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("msrp_server_batches_received_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msrp_dispatch_inflight_batches gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("msrp_dispatch_inflight_batches 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msrp_query_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("msrp_query_latency_seconds_bucket{stage=\"decode\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("msrp_query_latency_seconds_count{stage=\"decode\"} 3\n"),
            std::string::npos);
  // Cumulative bucket counts: the 1ms bucket line carries all 3 samples.
  EXPECT_NE(text.find("\"} 3\nmsrp_query_latency_seconds_bucket{stage=\"decode\",le=\"+Inf\"}"),
            std::string::npos);
}

TEST(ObsExposition, StatsLinesGroupByPrefix) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"server.batches_received", 5});
  snap.counters.push_back({"server.queries_answered", 50});
  snap.gauges.push_back({"cache.entries", 2});
  const std::string text = obs::render_stats_lines(snap);
  EXPECT_NE(text.find("stats server: batches_received=5 queries_answered=50\n"),
            std::string::npos);
  EXPECT_NE(text.find("stats cache: entries=2\n"), std::string::npos);
}

// ----- v4 STATS frame codec -------------------------------------------------

TEST(ObsWire, StatsRequestRoundTrip) {
  std::vector<std::uint8_t> bytes;
  net::append_stats_request(bytes, 77);
  net::FrameDecoder dec;
  dec.feed(bytes);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, net::FrameType::kStatsRequest);
  EXPECT_EQ(net::decode_stats_request(frame->payload), 77u);
}

TEST(ObsWire, StatsSnapshotRoundTrip) {
  net::StatsSnapshotFrame stats;
  stats.request_id = 9;
  stats.counters.push_back({"server.batches_received", 12});
  stats.counters.push_back({"failpoint.service.answer.fires", 3});
  stats.gauges.push_back({"dispatch.inflight_batches", -1});
  net::StatsHistogram h;
  h.name = "query_latency";
  h.label = "execute";
  h.count = 4;
  h.sum_ns = 123456;
  h.buckets = {{10, 3}, {55, 1}};
  stats.histograms.push_back(h);

  std::vector<std::uint8_t> bytes;
  net::append_stats_snapshot(bytes, stats);
  net::FrameDecoder dec;
  dec.feed(bytes);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, net::FrameType::kStatsSnapshot);
  const net::StatsSnapshotFrame got = net::decode_stats_snapshot(frame->payload);
  EXPECT_EQ(got.request_id, 9u);
  ASSERT_EQ(got.counters.size(), 2u);
  EXPECT_EQ(got.counters[0].name, "server.batches_received");
  EXPECT_EQ(got.counters[0].value, 12u);
  EXPECT_EQ(got.counters[1].name, "failpoint.service.answer.fires");
  ASSERT_EQ(got.gauges.size(), 1u);
  EXPECT_EQ(got.gauges[0].value, -1);
  ASSERT_EQ(got.histograms.size(), 1u);
  EXPECT_EQ(got.histograms[0].label, "execute");
  EXPECT_EQ(got.histograms[0].count, 4u);
  ASSERT_EQ(got.histograms[0].buckets.size(), 2u);
  EXPECT_EQ(got.histograms[0].buckets[1], (std::pair<std::uint32_t, std::uint64_t>{55, 1}));
}

// ----- HTTP listener --------------------------------------------------------

std::string http_get(const std::string& host, std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(ObsHttp, ServesMetricsHealthzAndTraces) {
  obs::MetricsRegistry reg;
  auto handle = reg.register_collector([](obs::MetricsSnapshot& out) {
    out.counters.push_back({"server.batches_received", 7});
  });
  obs::TraceRing ring(1, 8);
  obs::TraceSpan span;
  span.request_id = 5;
  ring.publish(span);
  obs::MetricsHttpServer http(reg, &ring, {});
  ASSERT_NE(http.port(), 0);

  const std::string metrics = http_get(http.host(), http.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("msrp_server_batches_received_total 7"), std::string::npos);

  const std::string healthz = http_get(http.host(), http.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string traces = http_get(http.host(), http.port(), "/traces");
  EXPECT_NE(traces.find("200 OK"), std::string::npos);

  const std::string missing = http_get(http.host(), http.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(ObsHttp, SocketsAreCloseOnExec) {
  // A socket without FD_CLOEXEC leaks into every exec'd shard worker, which
  // then holds the /metrics port and delays a scraper's EOF.
  obs::MetricsRegistry reg;
  obs::MetricsHttpServer http(reg, nullptr, {});
  const int scrape = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(scrape, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(http.port());
  ::inet_pton(AF_INET, http.host().c_str(), &addr.sin_addr);
  ASSERT_EQ(::connect(scrape, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string partial = "GET /metrics";  // the request line stays open
  ASSERT_EQ(::write(scrape, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  // The loop accepts in order, so once a later scrape is answered the held
  // connection has been accepted too.
  ASSERT_NE(http_get(http.host(), http.port(), "/healthz").find("200 OK"), std::string::npos);

  std::size_t sockets = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = std::filesystem::read_symlink(entry.path(), ec).string();
    if (ec || target.rfind("socket:", 0) != 0) continue;
    const int fd = std::stoi(entry.path().filename().string());
    ++sockets;
    EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << "fd " << fd << " -> " << target;
  }
  EXPECT_GE(sockets, 3u);  // the listener, the accepted scrape, our end of it
  ::close(scrape);
}

}  // namespace
}  // namespace msrp
