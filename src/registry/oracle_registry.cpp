#include "registry/oracle_registry.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"

namespace msrp::registry {

OracleRegistry::OracleRegistry(service::QueryService& svc, RegistryOptions opts)
    : svc_(svc), opts_(opts) {
  MSRP_REQUIRE(opts_.max_tenants >= 1, "registry: max_tenants must be >= 1");
}

OracleRegistry::~OracleRegistry() {
  // Every registration task decrements pending_ as its very last act, so
  // once this returns no task can touch the registry again. The serving
  // layer above guarantees the symmetric property for batch accounting
  // (its own inflight gate drains before the registry is destroyed).
  std::unique_lock<std::mutex> lock(mu_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::uint64_t OracleRegistry::admit_locked(std::string* reason) {
  // FAILED tenants must not block admission — their slots are only kept
  // for failure-reason visibility, not capacity. Reap the expired ones,
  // and when the registry is still full, displace the oldest failure:
  // a live registration outranks a stale error message.
  reap_failed_locked(std::chrono::steady_clock::now());
  while (entries_.size() >= opts_.max_tenants) {
    auto oldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.state != OracleState::kFailed) continue;
      if (oldest == entries_.end() || it->second.failed_at < oldest->second.failed_at) {
        oldest = it;
      }
    }
    if (oldest == entries_.end()) break;
    entries_.erase(oldest);
  }
  if (entries_.size() >= opts_.max_tenants) {
    if (reason) {
      *reason = "registry full (" + std::to_string(opts_.max_tenants) +
                " tenants); unregister one first";
    }
    return 0;
  }
  // Provisional entries hold the admission slot while the build runs; the
  // key is an internal nonce hash, re-keyed to the oracle's content digest
  // when the build lands. fnv of a counter never returns 0 in practice.
  const std::uint64_t key = fnv::mix_u64(fnv::kOffset, ++nonce_);
  Entry e;
  if (opts_.build_timeout.count() > 0) {
    e.build_deadline = std::chrono::steady_clock::now() + opts_.build_timeout;
  }
  entries_.emplace(key, std::move(e));
  return key;
}

bool OracleRegistry::register_graph(Vertex num_vertices,
                                    std::vector<std::pair<Vertex, Vertex>> edges,
                                    std::vector<Vertex> sources, const Config& cfg,
                                    RegisterCallback done, std::string* reason) {
  MSRP_REQUIRE(done != nullptr, "registry: null callback");
  std::uint64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    key = admit_locked(reason);
    if (key == 0) return false;
    entries_[key].done = std::move(done);
    ++pending_;
  }
  svc_.pool().submit([this, key, num_vertices, edges = std::move(edges),
                      sources = std::move(sources), cfg]() mutable {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      // A build timeout may already have failed the entry (or reaped it)
      // before this task even started; leave that verdict alone.
      if (it != entries_.end() && it->second.state == OracleState::kRegistering) {
        it->second.state = OracleState::kBuilding;
      }
    }
    std::shared_ptr<const service::Snapshot> built;
    std::string error;
    try {
      if (MSRP_FAILPOINT("registry.build")) {
        throw std::runtime_error("injected registry build failure");
      }
      if (sources.empty()) throw std::invalid_argument("registration has no sources");
      std::vector<Vertex> sorted = sources;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (sorted[i] >= num_vertices) throw std::invalid_argument("source out of range");
        if (i > 0 && sorted[i] == sorted[i - 1]) {
          throw std::invalid_argument("duplicate source vertex");
        }
      }
      const Graph g(num_vertices, edges);  // validates the edge list
      built = svc_.build(g, sources, cfg);
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    finish(key, std::move(built), std::move(error));
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    pending_cv_.notify_all();
  });
  return true;
}

bool OracleRegistry::register_snapshot(std::string path, RegisterCallback done,
                                       std::string* reason) {
  MSRP_REQUIRE(done != nullptr, "registry: null callback");
  std::uint64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    key = admit_locked(reason);
    if (key == 0) return false;
    entries_[key].done = std::move(done);
    ++pending_;
  }
  svc_.pool().submit([this, key, path = std::move(path)] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.state == OracleState::kRegistering) {
        it->second.state = OracleState::kBuilding;
      }
    }
    std::shared_ptr<const service::Snapshot> loaded;
    std::string error;
    try {
      if (MSRP_FAILPOINT("registry.build")) {
        throw std::runtime_error("injected registry build failure");
      }
      loaded = svc_.load(path);
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    finish(key, std::move(loaded), std::move(error));
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    pending_cv_.notify_all();
  });
  return true;
}

void OracleRegistry::finish(std::uint64_t provisional_key,
                            std::shared_ptr<const service::Snapshot> oracle,
                            std::string error) {
  RegisterOutcome outcome;
  RegisterCallback done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto prov = entries_.find(provisional_key);
    // The entry can be gone (timed out, reaped) or already kFailed with its
    // callback delivered by poke(): either way this build's result arrives
    // too late and is discarded — the timeout verdict stands.
    if (prov == entries_.end()) return;
    done = std::move(prov->second.done);
    prov->second.done = nullptr;
    if (done == nullptr) return;
    if (error.empty() && oracle != nullptr) {
      const std::uint64_t digest = oracle->content_digest();
      const bool already = entries_.count(digest) != 0;
      if (!already && opts_.max_bytes != 0 &&
          resident_bytes_locked() + oracle->footprint_bytes() > opts_.max_bytes) {
        error = "registry byte budget exceeded (" +
                std::to_string(resident_bytes_locked() + oracle->footprint_bytes()) + " > " +
                std::to_string(opts_.max_bytes) + " bytes)";
      } else {
        entries_.erase(prov);
        // Re-registering a digest that is already resident (even one
        // draining as kExpiring) revives it — registration is idempotent.
        Entry& fin = entries_[digest];
        fin.state = OracleState::kReady;
        fin.oracle = oracle;
        outcome.digest = digest;
        outcome.state = OracleState::kReady;
        outcome.oracle = std::move(oracle);
      }
    } else if (error.empty()) {
      error = "registration produced no oracle";
    }
    if (!error.empty()) {
      // Keep the slot as kFailed so LIST_ORACLES can surface the reason;
      // reaped after failed_ttl (immediately when the TTL is zero).
      Entry& f = prov->second;
      f.state = OracleState::kFailed;
      f.error = error;
      f.failed_at = std::chrono::steady_clock::now();
      f.build_deadline = kNoDeadline;
      if (opts_.failed_ttl.count() == 0) entries_.erase(prov);
      outcome.state = OracleState::kFailed;
      outcome.error = std::move(error);
    }
  }
  done(std::move(outcome));
}

void OracleRegistry::poke() {
  struct Fired {
    RegisterCallback done;
    std::string error;
  };
  std::vector<Fired> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    reap_failed_locked(now);
    for (auto& [key, e] : entries_) {
      if (e.build_deadline == kNoDeadline || now < e.build_deadline) continue;
      if (e.state != OracleState::kRegistering && e.state != OracleState::kBuilding) continue;
      e.state = OracleState::kFailed;
      e.error =
          "build timed out after " + std::to_string(opts_.build_timeout.count()) + " ms";
      e.failed_at = now;
      e.build_deadline = kNoDeadline;
      // The pool task keeps running; finish() will see done == nullptr and
      // discard its late result.
      if (e.done) fired.push_back({std::move(e.done), e.error});
      e.done = nullptr;
    }
  }
  for (Fired& f : fired) {
    RegisterOutcome outcome;
    outcome.state = OracleState::kFailed;
    outcome.error = std::move(f.error);
    f.done(std::move(outcome));
  }
}

void OracleRegistry::reap_failed_locked(std::chrono::steady_clock::time_point now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = it->second;
    if (e.state == OracleState::kFailed && now - e.failed_at >= opts_.failed_ttl) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t OracleRegistry::adopt(std::shared_ptr<const service::Snapshot> oracle) {
  MSRP_REQUIRE(oracle != nullptr, "registry: adopt(null)");
  const std::uint64_t digest = oracle->content_digest();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[digest];
  e.state = OracleState::kReady;
  e.oracle = std::move(oracle);
  return digest;
}

std::shared_ptr<const service::Snapshot> OracleRegistry::resolve(std::uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(digest);
  if (it == entries_.end() || it->second.state != OracleState::kReady) return nullptr;
  return it->second.oracle;
}

OracleState OracleRegistry::state(std::uint64_t digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(digest);
  return it == entries_.end() ? OracleState::kUnknown : it->second.state;
}

std::optional<OracleState> OracleRegistry::unregister(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return std::nullopt;
  Entry& e = it->second;
  switch (e.state) {
    case OracleState::kReady:
      if (e.inflight == 0) {
        entries_.erase(it);
        return OracleState::kUnregistered;
      }
      e.state = OracleState::kExpiring;  // drains via note_complete
      return OracleState::kExpiring;
    case OracleState::kExpiring:
      return OracleState::kExpiring;  // idempotent
    case OracleState::kFailed:
      // An operator may clear a failed slot before its TTL reap.
      entries_.erase(it);
      return OracleState::kUnregistered;
    default:
      // Still registering/building: the slot cannot be retired mid-build;
      // the caller reports the unchanged state as an error.
      return e.state;
  }
}

void OracleRegistry::note_batch(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return;
  ++it->second.inflight;
}

void OracleRegistry::note_complete(std::uint64_t digest, std::size_t answered) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  MSRP_CHECK(e.inflight > 0, "registry: completion without an in-flight batch");
  --e.inflight;
  e.queries_answered += answered;
  if (e.state == OracleState::kExpiring && e.inflight == 0) entries_.erase(it);
}

void OracleRegistry::note_busy(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  MSRP_CHECK(e.inflight > 0, "registry: busy rollback without an in-flight batch");
  --e.inflight;
  if (e.state == OracleState::kExpiring && e.inflight == 0) entries_.erase(it);
}

std::vector<OracleInfo> OracleRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OracleInfo> out;
  out.reserve(entries_.size());
  for (const auto& [digest, e] : entries_) {
    OracleInfo info;
    info.digest = digest;
    info.state = e.state;
    info.inflight_batches = static_cast<std::uint32_t>(e.inflight);
    info.queries_answered = e.queries_answered;
    info.error = e.error;
    if (e.oracle) {
      info.num_vertices = e.oracle->num_vertices();
      info.num_edges = e.oracle->num_edges();
      info.sources = e.oracle->sources();
      info.footprint_bytes = e.oracle->footprint_bytes();
    }
    out.push_back(std::move(info));
  }
  // Deterministic order for the wire and the tests.
  std::sort(out.begin(), out.end(),
            [](const OracleInfo& a, const OracleInfo& b) { return a.digest < b.digest; });
  return out;
}

std::size_t OracleRegistry::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t OracleRegistry::resident_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [digest, e] : entries_) {
    if (e.oracle) total += e.oracle->footprint_bytes();
  }
  return total;
}

std::size_t OracleRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_locked();
}

}  // namespace msrp::registry
