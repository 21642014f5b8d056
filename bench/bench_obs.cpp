// EXP-obs: cost of the observability layer on the serving hot path.
//
// Rows (merged into BENCH_service.json by bench/run_benchmarks.sh):
//
//   * BM_HistogramRecord — one Histogram::record (bucket index + two
//     relaxed fetch_adds on the caller's stripe): the unit each of the
//     four per-stage stamps costs. Budget: well under 20 ns.
//   * BM_MetricsOverhead/0 vs /1 — a tight loop answering the arithmetic
//     a hot serving frame does, without (/0) and with (/1) the full
//     per-request instrumentation (one relaxed fetch_add on a plain atomic,
//     which is how net::Server counts a batch, + four stage records +
//     trace-ring sample tick). The delta prices "metrics on" end to end;
//     it must stay in the low tens of nanoseconds so BM_NetPipelined is
//     unmoved within noise.
//   * BM_Snapshot — full MetricsRegistry::snapshot() with a realistic
//     series population (counters and gauges exported by one collector,
//     as every subsystem exports its own; four stage histograms): the
//     read-side cost a /metrics scrape pays.
//     Milliseconds-scale budget; it shares no locks with record paths.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace msrp {
namespace {

obs::MetricsRegistry& bench_registry() {
  static obs::MetricsRegistry reg;
  return reg;
}

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram* h = bench_registry().histogram("bench.hist");
  std::uint64_t ns = 1;
  for (auto _ : state) {
    // A cheap LCG keeps the recorded value (and thus the bucket) varying,
    // so the row prices bucket_index too, not one hot cache line.
    ns = ns * 2862933555777941757ull + 3037000493ull;
    h->record(ns % 1'000'000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_MetricsOverhead(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  std::atomic<std::uint64_t> batches{0};
  obs::Histogram* decode = bench_registry().histogram("bench.stage", "decode");
  obs::Histogram* queue = bench_registry().histogram("bench.stage", "queue");
  obs::Histogram* execute = bench_registry().histogram("bench.stage", "execute");
  obs::Histogram* flush = bench_registry().histogram("bench.stage", "flush");
  obs::TraceRing ring(/*sample_every_n=*/1024);
  std::uint64_t acc = 0;
  std::uint64_t fake_ns = 100;
  for (auto _ : state) {
    // Stand-in for a frame's real work, kept tiny so the instrumentation
    // delta dominates the row instead of drowning in it.
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    fake_ns = (acc >> 40) + 1;
    if (instrumented) {
      batches.fetch_add(1, std::memory_order_relaxed);
      decode->record(fake_ns);
      queue->record(fake_ns);
      execute->record(fake_ns);
      flush->record(fake_ns);
      benchmark::DoNotOptimize(ring.sample());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

void BM_Snapshot(benchmark::State& state) {
  obs::MetricsRegistry reg;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  for (int i = 0; i < 64; ++i) counter_names.push_back("snap.counter." + std::to_string(i));
  for (int i = 0; i < 8; ++i) gauge_names.push_back("snap.gauge." + std::to_string(i));
  auto collector = reg.register_collector([&](obs::MetricsSnapshot& out) {
    for (std::size_t i = 0; i < counter_names.size(); ++i) {
      out.counters.push_back({counter_names[i], i});
    }
    for (std::size_t i = 0; i < gauge_names.size(); ++i) {
      out.gauges.push_back({gauge_names[i], static_cast<std::int64_t>(i)});
    }
  });
  for (const char* stage : {"decode", "queue", "execute", "flush"}) {
    obs::Histogram* h = reg.histogram("snap.latency", stage);
    for (std::uint64_t ns = 1; ns < 1'000'000; ns *= 3) h->record(ns);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Snapshot);

}  // namespace
}  // namespace msrp
