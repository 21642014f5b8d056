/// \file
/// Lock-free metrics registry: named monotonic counters, gauges, and
/// fixed-bucket log-linear latency histograms, plus shm-backed counter
/// pages shared with forked shard workers.
///
/// Design constraints, in order:
///
///  1. The hot path (Counter::add, Histogram::record) must cost a couple of
///     relaxed atomic RMWs and nothing else — no locks, no allocation, no
///     branches on registry state. Handles are raw pointers into
///     registry-owned storage that is never freed or moved while the
///     registry lives, so recording threads never synchronize with
///     registration or snapshotting.
///
///  2. Counters and histograms are striped across `kStripes` cache-line-
///     padded cells; each thread picks a stripe once (thread-local
///     round-robin) and hammers only that line. snapshot() sums the
///     stripes — "per-thread sharded cells aggregated on read".
///
///  3. Histograms are mergeable fixed-bucket log-linear (HDR-style): 4
///     sub-buckets per power of two over nanoseconds, exact below 8 ns,
///     ~12.5% relative error above, 136 buckets spanning ~34 s. Quantiles
///     (p50/p90/p99/p999) are derived from the bucket counts; two
///     histograms merge by adding buckets. No floating point on the
///     record path.
///
///  4. Subsystems that already maintain their own atomics (net::Server,
///     FairDispatcher, OracleCache, ShardRouter...) export them through
///     collector callbacks: a registered std::function appends samples
///     during snapshot(). Registration returns an RAII handle;
///     unregistration blocks until no snapshot is mid-callback, so a
///     collector may safely capture `this` of a shorter-lived object.
///
///  5. ShmCounterPage places named u64 slots in a POSIX shared-memory
///     segment (util/shm.hpp) so forked shard workers publish into the
///     supervisor's registry across fork()/exec()/respawn. Slots are
///     claimed lock-free (CAS on a per-slot state word) and survive worker
///     death: a respawned worker re-finds its slot by name and keeps
///     counting — increments are never lost or doubled by the respawn.
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

#include "util/shm.hpp"

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
// Hot-path handles. Obtained from a MetricsRegistry; valid for its lifetime.

namespace detail {

inline constexpr std::size_t kStripes = 8;  // power of two

struct alignas(64) StripedCell {
  std::atomic<std::uint64_t> v{0};
};

/// Index of the calling thread's stripe (assigned round-robin on first use,
/// shared by every counter/histogram in the process).
std::size_t thread_stripe();

}  // namespace detail

/// Monotonic counter. add() is wait-free: one relaxed fetch_add on the
/// caller's stripe.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    cells_[detail::thread_stripe()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::array<detail::StripedCell, detail::kStripes> cells_{};
};

/// Last-write-wins signed gauge (a level, not a rate).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<std::int64_t> v_{0};
};

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
// Shm-backed counter page: named u64 slots in shared memory, written by
// forked shard workers, read by the supervisor's snapshot.

class ShmCounterPage {
 public:
  static constexpr std::size_t kSlots = 62;
  static constexpr std::size_t kSlotNameBytes = 48;

  ShmCounterPage() = default;

  /// Computes the page's byte size (create passes it to ShmSegment).
  static std::size_t bytes_for();

  /// Creates (and owns — unlinks on destruction) a fresh page.
  static ShmCounterPage create(const std::string& shm_name);

  /// Attaches an existing page read-write (worker side / reopen).
  static ShmCounterPage open(const std::string& shm_name);

  bool valid() const { return page_ != nullptr; }
  const std::string& shm_name() const { return seg_.name(); }

  /// Finds the slot named `name`, claiming a fresh one if absent. Safe
  /// concurrently from multiple processes (per-slot CAS claim). Returns
  /// nullptr only when the page is full or the name exceeds
  /// kSlotNameBytes-1 bytes. The returned atomic lives in shared memory:
  /// fetch_add from any process, any time.
  std::atomic<std::uint64_t>* find_or_create(std::string_view name);

  /// Find without claiming; nullptr when absent.
  std::atomic<std::uint64_t>* find(std::string_view name) const;

  /// Appends one CounterSample per claimed slot (name prefixed with
  /// `prefix`) — the registry-collector body for a page.
  void collect(MetricsSnapshot& out, const std::string& prefix = {}) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> state;  // 0 free, 1 published, 2 mid-claim
    char name[kSlotNameBytes];
    std::atomic<std::uint64_t> value;
  };
  struct Page {
    std::uint64_t magic;
    Slot slots[kSlots];
  };
  static constexpr std::uint64_t kMagic = 0x6d737270'6f627331ull;  // "msrp" "obs1"

  ShmSegment seg_;
  Page* page_ = nullptr;
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
  /// lifetime; repeated calls with the same name return the same object.
  /// Not hot-path — resolve handles once, at startup.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name, std::string_view label = {});

  [[nodiscard]] CollectorHandle register_collector(CollectFn fn);

  /// Full aggregated view: owned metrics summed over stripes, collector
  /// callbacks appended, duplicates (same name) summed, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  friend class CollectorHandle;
  void unregister_collector(std::uint64_t id);

  mutable std::mutex mu_;
  // deque-like stability via unique_ptr: handles are raw pointers.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::tuple<std::string, std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<std::pair<std::uint64_t, CollectFn>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace msrp::obs
