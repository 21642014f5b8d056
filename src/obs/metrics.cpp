#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>

#include "util/failpoint.hpp"

namespace msrp::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t quantile_ns(const std::uint64_t* buckets, std::size_t n_buckets, double q) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) total += buckets[i];
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; q=0 -> first sample's bucket.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return bucket_upper_ns(i);
  }
  return bucket_upper_ns(n_buckets - 1);
}

namespace detail {

std::size_t thread_stripe() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

}  // namespace detail

void Histogram::read(std::uint64_t* out_buckets, std::uint64_t& out_count,
                     std::uint64_t& out_sum_ns) const {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) out_buckets[b] = 0;
  for (const Stripe& s : stripes_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t c = s.buckets[b].load(std::memory_order_relaxed);
      out_buckets[b] += c;
      count += c;
    }
    sum += s.sum_ns.load(std::memory_order_relaxed);
  }
  out_count = count;
  out_sum_ns = sum;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  // Failpoint counters are process-global, so they are exported once, by
  // the registry itself, rather than by every subsystem instance that could
  // fire one (each would add the same counts again under the same name).
  static const CollectorHandle failpoints = reg.register_collector([](MetricsSnapshot& out) {
    for (const fail::SiteStats& s : fail::all_sites()) {
      out.counters.push_back({std::string("failpoint.") + s.name + ".hits", s.hits});
      out.counters.push_back({std::string("failpoint.") + s.name + ".fires", s.fires});
    }
  });
  return reg;
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::string_view label) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, l, h] : histograms_) {
    if (n == name && l == label) return h.get();
  }
  histograms_.emplace_back(std::string(name), std::string(label),
                           std::unique_ptr<Histogram>(new Histogram()));
  return std::get<2>(histograms_.back()).get();
}

MetricsRegistry::CollectorHandle MetricsRegistry::register_collector(CollectFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return CollectorHandle(this, id);
}

void MetricsRegistry::unregister_collector(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  std::erase_if(collectors_, [id](const auto& p) { return p.first == id; });
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap.histograms.reserve(histograms_.size());
    for (const auto& [n, l, h] : histograms_) {
      HistogramSample hs;
      hs.name = n;
      hs.label = l;
      h->read(hs.buckets.data(), hs.count, hs.sum_ns);
      snap.histograms.push_back(std::move(hs));
    }
    // Collectors run under mu_ so CollectorHandle::reset() can guarantee
    // the callback is not mid-flight after it returns.
    for (const auto& [id, fn] : collectors_) fn(snap);
  }

  // Merge duplicates (two subsystems exporting the same name sum into one
  // series — the multi-instance test case) and sort for stable output.
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  {
    std::vector<CounterSample> merged;
    for (auto& c : snap.counters) {
      if (!merged.empty() && merged.back().name == c.name) {
        merged.back().value += c.value;
      } else {
        merged.push_back(std::move(c));
      }
    }
    snap.counters = std::move(merged);
  }
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  {
    std::vector<GaugeSample> merged;
    for (auto& g : snap.gauges) {
      if (!merged.empty() && merged.back().name == g.name) {
        merged.back().value += g.value;
      } else {
        merged.push_back(std::move(g));
      }
    }
    snap.gauges = std::move(merged);
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(), [](const auto& a, const auto& b) {
    return a.name != b.name ? a.name < b.name : a.label < b.label;
  });
  {
    std::vector<HistogramSample> merged;
    for (auto& h : snap.histograms) {
      if (!merged.empty() && merged.back().name == h.name && merged.back().label == h.label) {
        HistogramSample& m = merged.back();
        m.count += h.count;
        m.sum_ns += h.sum_ns;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) m.buckets[b] += h.buckets[b];
      } else {
        merged.push_back(std::move(h));
      }
    }
    snap.histograms = std::move(merged);
  }
  return snap;
}

MetricsRegistry::CollectorHandle::CollectorHandle(CollectorHandle&& other) noexcept
    : reg_(other.reg_), id_(other.id_) {
  other.reg_ = nullptr;
  other.id_ = 0;
}

MetricsRegistry::CollectorHandle& MetricsRegistry::CollectorHandle::operator=(
    CollectorHandle&& other) noexcept {
  if (this != &other) {
    reset();
    reg_ = other.reg_;
    id_ = other.id_;
    other.reg_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

MetricsRegistry::CollectorHandle::~CollectorHandle() { reset(); }

void MetricsRegistry::CollectorHandle::reset() {
  if (reg_ != nullptr) {
    reg_->unregister_collector(id_);
    reg_ = nullptr;
    id_ = 0;
  }
}

}  // namespace msrp::obs
