#include "service/oracle_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "util/fnv.hpp"

namespace msrp::service {

std::uint64_t config_fingerprint(const Config& cfg) {
  // Only fields that affect solver OUTPUT enter the fingerprint. The
  // execution knob build_threads is deliberately excluded:
  // the parallel build is bit-identical to the sequential one, so oracles
  // built at different thread counts are interchangeable cache entries.
  std::uint64_t h = fnv::kOffset;
  h = fnv::mix_u64(h, cfg.seed);
  h = fnv::mix_u64(h, std::bit_cast<std::uint64_t>(cfg.oversample));
  h = fnv::mix_u64(h, std::bit_cast<std::uint64_t>(cfg.near_scale));
  h = fnv::mix_u64(h, std::bit_cast<std::uint64_t>(cfg.window_scale));
  h = fnv::mix_u64(h, static_cast<std::uint64_t>(cfg.landmark_rp));
  h = fnv::mix_u64(h, (std::uint64_t{cfg.paper_constants} << 1) | std::uint64_t{cfg.exact});
  return h;
}

std::size_t OracleKeyHash::operator()(const OracleKey& k) const {
  std::uint64_t h = fnv::kOffset;
  h = fnv::mix_u64(h, k.graph_digest);
  h = fnv::mix_u64(h, k.config_fingerprint);
  h = fnv::mix_u64(h, k.sources.size());
  for (const Vertex s : k.sources) h = fnv::mix_u64(h, s);
  return static_cast<std::size_t>(h);
}

std::size_t OracleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(), [](const auto& kv) { return !kv.second.dead(); }));
}

std::shared_ptr<const Snapshot> OracleCache::lookup_locked(const OracleKey& key) {
  auto it = entries_.find(key);
  std::shared_ptr<const Snapshot> live =
      it == entries_.end() ? nullptr : it->second.oracle.lock();
  ++(live ? hits_ : misses_);
  return live;
}

void OracleCache::sweep_locked() {
  std::erase_if(entries_, [](const auto& kv) { return kv.second.dead(); });
}

std::shared_ptr<const Snapshot> OracleCache::get_or_insert(
    const OracleKey& key, std::shared_ptr<const Snapshot> oracle) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto live = lookup_locked(key)) return live;
  sweep_locked();
  entries_[key].oracle = oracle;
  return oracle;
}

std::shared_ptr<const Snapshot> OracleCache::get_or_build(
    const OracleKey& key, const std::function<std::shared_ptr<const Snapshot>()>& build) {
  std::promise<std::shared_ptr<const Snapshot>> mine;
  PendingFuture watch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto live = lookup_locked(key)) return live;
    sweep_locked();
    Entry& entry = entries_[key];
    if (entry.pending.valid()) {
      watch = entry.pending;  // someone else is building
    } else {
      entry.pending = mine.get_future().share();
    }
  }
  if (watch.valid()) return watch.get();  // rethrows if that build failed

  // We own the build. The pending future keeps concurrent misses parked
  // and the entry safe from sweeps; it is cleared before the promise is
  // fulfilled, so once every waiter has returned no copy of the oracle
  // outlives its holders. The slot is released on failure too, or the key
  // would be poisoned with a broken promise forever.
  std::shared_ptr<const Snapshot> built;
  try {
    built = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.find(key)->second.pending = {};
    }
    mine.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_.find(key)->second;
    entry.oracle = built;
    entry.pending = {};
  }
  mine.set_value(built);
  return built;
}

std::size_t OracleCache::pending_builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& kv) { return kv.second.pending.valid(); }));
}

std::uint64_t OracleCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t OracleCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace msrp::service
