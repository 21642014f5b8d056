/// \file
/// Lock-free metrics registry: fixed-bucket log-linear latency histograms
/// owned by the registry, plus collectors that export the counters and
/// gauges each subsystem keeps for itself.
///
/// Design constraints, in order:
///
///  1. The hot path (Histogram::record) must cost a couple of relaxed
///     atomic RMWs and nothing else — no locks, no allocation, no branches
///     on registry state. Histogram handles are raw pointers into
///     registry-owned storage that is never freed or moved while the
///     registry lives, so recording threads never synchronize with
///     registration or snapshotting.
///
///  2. Histograms are striped across `kStripes` cache-line-padded cells;
///     each thread picks a stripe once (thread-local round-robin) and
///     hammers only that line. snapshot() sums the stripes — "per-thread
///     sharded cells aggregated on read".
///
///  3. Histograms are mergeable fixed-bucket log-linear (HDR-style): 4
///     sub-buckets per power of two over nanoseconds, exact below 8 ns,
///     ~12.5% relative error above, 136 buckets spanning ~34 s. Quantiles
///     (p50/p90/p99/p999) are derived from the bucket counts; two
///     histograms merge by adding buckets. No floating point on the
///     record path.
///
///  4. Every counter and gauge has exactly one store: the subsystem that
///     counts it (net::Server, FairDispatcher, OracleCache, ShardRouter...)
///     keeps its own value and exports it through a collector callback — a
///     registered std::function that appends samples during snapshot().
///     The registry owns no counters, so per-instance stats() readers and
///     the scrape never disagree. Registration returns an RAII handle;
///     unregistration blocks until no snapshot is mid-callback, so a
///     collector may safely capture `this` of a shorter-lived object.
///
///  5. Per-instance stores may repeat a name — two live servers both
///     export `server.batches_received` — and snapshot() sums duplicates
///     into one series. That is only right for per-instance state, so
///     process-global state (the failpoint sites) is exported once, by a
///     collector MetricsRegistry::instance() registers when it is created,
///     never by a subsystem instance.
///
/// The process-wide registry is `MetricsRegistry::instance()`. Tests may
/// construct private registries; everything here is instance-scoped.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace msrp::obs {

/// Steady-clock nanoseconds (monotonic, not epoch-based). The one time
/// source every stage stamp and histogram record uses.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Histogram bucket geometry (shared by the server, the wire snapshot, and
// client-side percentile math — keep in sync with docs/OBSERVABILITY.md).

/// Bucket count: 8 unit buckets (0..7 ns exact) + 4 sub-buckets per octave
/// for octaves 3..34, i.e. up to 2^35 ns ≈ 34.4 s. Larger values clamp
/// into the last bucket (rendered as +Inf's neighbour).
inline constexpr std::size_t kHistogramBuckets = 136;

/// Maps a nanosecond value to its bucket index.
constexpr std::size_t bucket_index(std::uint64_t ns) {
  if (ns < 8) return static_cast<std::size_t>(ns);
  int msb = 63;
  while ((ns >> msb) == 0) --msb;  // constexpr-friendly clz
  const std::uint64_t sub = (ns >> (msb - 2)) & 3;
  const std::size_t idx = static_cast<std::size_t>(msb - 3) * 4 + static_cast<std::size_t>(sub) + 8;
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

/// Exclusive upper edge of bucket `idx` in nanoseconds. The last bucket's
/// edge is the clamp boundary; values above it are still counted there.
constexpr std::uint64_t bucket_upper_ns(std::size_t idx) {
  if (idx < 8) return static_cast<std::uint64_t>(idx) + 1;
  const std::size_t octave = (idx - 8) / 4 + 3;          // msb of the covered range
  const std::uint64_t quarter = (idx - 8) % 4;           // sub-bucket within the octave
  return (std::uint64_t{1} << (octave - 2)) * (5 + quarter);
}

/// Quantile estimate (q in [0,1]) from dense bucket counts: the upper edge
/// of the bucket containing the q-th sample. Returns 0 for empty data.
std::uint64_t quantile_ns(const std::uint64_t* buckets, std::size_t n_buckets, double q);

// ---------------------------------------------------------------------------
// The hot-path handle. Obtained from a MetricsRegistry; valid for its
// lifetime.

namespace detail {

inline constexpr std::size_t kStripes = 8;  // power of two

/// Index of the calling thread's stripe (assigned round-robin on first use,
/// shared by every histogram in the process).
std::size_t thread_stripe();

}  // namespace detail

/// Log-linear latency histogram over nanoseconds. record() is wait-free:
/// two relaxed fetch_adds (bucket + sum) on the caller's stripe.
class Histogram {
 public:
  void record(std::uint64_t ns) noexcept {
    const std::size_t s = detail::thread_stripe();
    stripes_[s].buckets[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    stripes_[s].sum_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Dense bucket counts summed over stripes (for snapshot/merge/tests).
  void read(std::uint64_t* out_buckets, std::uint64_t& out_count, std::uint64_t& out_sum_ns) const;

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Stripe, detail::kStripes> stripes_{};
};

// ---------------------------------------------------------------------------
// Snapshots: the read-side view every exporter (Prometheus text, STATS
// wire frames, stderr stats lines) renders from.

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;            // base name, e.g. "query_latency"
  std::string label;           // stage label value; empty = unlabelled
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  std::uint64_t quantile(double q) const { return quantile_ns(buckets.data(), buckets.size(), q); }
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;      // sorted by name, duplicates summed
  std::vector<GaugeSample> gauges;          // sorted by name, duplicates summed
  std::vector<HistogramSample> histograms;  // sorted by (name, label)
};

// ---------------------------------------------------------------------------
// The registry.

class MetricsRegistry {
 public:
  /// Appends samples for a subsystem's own state during snapshot(). Runs
  /// under the registry mutex — keep it cheap (atomic loads + push_back).
  using CollectFn = std::function<void(MetricsSnapshot&)>;

  /// RAII collector registration: destruction unregisters and, because it
  /// takes the registry mutex, blocks until any in-flight snapshot is done
  /// calling the function.
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(CollectorHandle&&) noexcept;
    CollectorHandle& operator=(CollectorHandle&&) noexcept;
    CollectorHandle(const CollectorHandle&) = delete;
    CollectorHandle& operator=(const CollectorHandle&) = delete;
    ~CollectorHandle();
    void reset();

   private:
    friend class MetricsRegistry;
    CollectorHandle(MetricsRegistry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
    MetricsRegistry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem publishes into by default.
  static MetricsRegistry& instance();

  /// Find-or-create. The returned pointer is stable for the registry's
  /// lifetime; repeated calls with the same (name, label) return the same
  /// object. Not hot-path — resolve handles once, at startup.
  Histogram* histogram(std::string_view name, std::string_view label = {});

  [[nodiscard]] CollectorHandle register_collector(CollectFn fn);

  /// Full aggregated view: histograms summed over stripes, collector
  /// callbacks appended, duplicates (same name) summed, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  friend class CollectorHandle;
  void unregister_collector(std::uint64_t id);

  mutable std::mutex mu_;
  // deque-like stability via unique_ptr: handles are raw pointers.
  std::vector<std::tuple<std::string, std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<std::pair<std::uint64_t, CollectFn>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace msrp::obs
