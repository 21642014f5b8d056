/// \file
/// The multi-tenant oracle table: digest -> {oracle, stats, lifecycle}.
///
/// One OracleRegistry turns a serving process from "one process = one
/// oracle" into a tenant directory. Registrations arrive over the wire
/// (REGISTER_GRAPH) or from the serve tool's own command line (adopt);
/// each one is admitted synchronously — tenant-count cap — then built or
/// loaded asynchronously on the QueryService pool, walking the state
/// machine in registry/oracle_state.hpp. The heavy work routes through
/// QueryService::build/load and therefore through the single-flight
/// OracleCache: two tenants registering the same graph share one solve.
/// The cache owns no oracle, so the registry's byte budget bounds every
/// tenant oracle the process holds.
///
/// Queries resolve a digest to a pinned shared_ptr<const Snapshot> only
/// in kReady; a building registration answers BUSY, an expiring one is
/// already invisible to new batches and drains through note_complete.
///
/// Threading: every public method is safe from any thread. Completion
/// callbacks run on pool workers; the destructor blocks until every
/// in-flight registration task has finished, so a callback can never
/// touch a dead registry. Destroy the registry AFTER the server that
/// feeds it (declare it first).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "registry/oracle_state.hpp"
#include "service/query_service.hpp"
#include "util/deadline.hpp"

namespace msrp::registry {

struct RegistryOptions {
  /// Registered oracles (any live state) the registry will admit.
  std::size_t max_tenants = 16;
  /// Summed Snapshot footprint across ready oracles (0 = unlimited). A
  /// registration whose finished oracle would break the budget fails at
  /// completion — admission cannot know the footprint before the solve.
  std::size_t max_bytes = 0;
  /// How long a FAILED tenant is retained (so LIST_ORACLES can surface the
  /// failure reason) before its slot is reaped; 0 = release immediately,
  /// the pre-deadline behavior. Reaping runs in poke() and at admission.
  std::chrono::milliseconds failed_ttl{60000};
  /// Budget for a registration to reach kReady; 0 = unbounded. When it
  /// passes, poke() moves the tenant to kFailed ("build timed out") and
  /// fires its callback, instead of the tenant wedging in
  /// REGISTERING/BUILDING forever. The build task itself keeps running
  /// (a pool task cannot be aborted) — its late result is discarded.
  std::chrono::milliseconds build_timeout{0};
};

/// Result of one asynchronous registration, delivered exactly once.
struct RegisterOutcome {
  std::uint64_t digest = 0;  ///< final content digest (0 when failed early)
  OracleState state = OracleState::kFailed;
  std::shared_ptr<const service::Snapshot> oracle;  ///< set when kReady
  std::string error;                                ///< set when kFailed
};

using RegisterCallback = std::function<void(RegisterOutcome)>;

/// One row of list().
struct OracleInfo {
  std::uint64_t digest = 0;
  OracleState state = OracleState::kUnknown;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;
  std::uint32_t inflight_batches = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t footprint_bytes = 0;
  /// Failure reason for kFailed entries (empty otherwise).
  std::string error;
};

class OracleRegistry {
 public:
  /// `svc` must outlive the registry; its pool runs the build tasks.
  OracleRegistry(service::QueryService& svc, RegistryOptions opts = {});

  /// Blocks until every pending registration task has delivered.
  ~OracleRegistry();

  OracleRegistry(const OracleRegistry&) = delete;
  OracleRegistry& operator=(const OracleRegistry&) = delete;

  /// Admits and starts an edge-list registration. Returns false (with
  /// `reason`) when admission rejects it — `done` will then never run.
  /// Otherwise `done` fires once on a pool worker with the outcome.
  bool register_graph(Vertex num_vertices, std::vector<std::pair<Vertex, Vertex>> edges,
                      std::vector<Vertex> sources, const Config& cfg, RegisterCallback done,
                      std::string* reason = nullptr);

  /// Same contract for a server-side snapshot file.
  bool register_snapshot(std::string path, RegisterCallback done,
                         std::string* reason = nullptr);

  /// Registers an already-built oracle as kReady (the serve tool's default
  /// oracle). Idempotent per digest; returns its content digest.
  std::uint64_t adopt(std::shared_ptr<const service::Snapshot> oracle);

  /// The oracle for `digest`, only while kReady; nullptr otherwise.
  std::shared_ptr<const service::Snapshot> resolve(std::uint64_t digest) const;

  /// kUnknown when the digest was never registered (or fully retired).
  OracleState state(std::uint64_t digest) const;

  /// Retires a digest. Returns the resulting state: kUnregistered (gone),
  /// kExpiring (drains when its in-flight batches complete), or the
  /// current state unchanged for an entry that is still registering or
  /// building (the caller reports that as an error); nullopt = unknown.
  std::optional<OracleState> unregister(std::uint64_t digest);

  /// Batch accounting, called by the serving layer around dispatch.
  /// note_batch marks one batch in flight; note_complete retires it and
  /// credits the queries it actually answered (0 for a failed batch).
  void note_batch(std::uint64_t digest);
  void note_complete(std::uint64_t digest, std::size_t answered);
  /// Rolls back a note_batch whose dispatch was refused (BUSY).
  void note_busy(std::uint64_t digest);

  std::vector<OracleInfo> list() const;

  /// Time-driven maintenance: reaps FAILED tenants past their TTL and
  /// times out registrations past the build budget (firing their callbacks
  /// with kFailed, outside the lock). The serving layer calls this from
  /// its event-loop tick; tests call it directly.
  void poke();

  std::size_t tenant_count() const;
  /// Summed footprint of ready/expiring oracles.
  std::size_t resident_bytes() const;

 private:
  struct Entry {
    OracleState state = OracleState::kRegistering;
    std::shared_ptr<const service::Snapshot> oracle;
    std::size_t inflight = 0;
    std::uint64_t queries_answered = 0;
    /// Failure reason while kFailed; surfaced through list().
    std::string error;
    /// When the entry became kFailed (TTL reap reference point).
    std::chrono::steady_clock::time_point failed_at{};
    /// Instant a registration must have reached kReady by; kNoDeadline
    /// when RegistryOptions::build_timeout is 0 or for adopted oracles.
    Deadline build_deadline = kNoDeadline;
    /// Registration callback, held here so a build timeout can fire it;
    /// finish() pulls it (null afterwards = already delivered).
    RegisterCallback done;
  };

  /// Admission + provisional entry under one lock; returns the provisional
  /// key or 0 when rejected. Reaps expired FAILED tenants first so their
  /// slots are reusable.
  std::uint64_t admit_locked(std::string* reason);
  /// Lands a finished build: budget check, provisional -> final re-key,
  /// then the registration callback (outside the lock). A build whose
  /// entry already timed out (kFailed, callback gone) is discarded.
  void finish(std::uint64_t provisional_key,
              std::shared_ptr<const service::Snapshot> oracle, std::string error);
  void reap_failed_locked(std::chrono::steady_clock::time_point now);
  std::size_t resident_bytes_locked() const;

  service::QueryService& svc_;
  RegistryOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t nonce_ = 0;  // provisional-key generator

  // Registration tasks in flight on the pool; the destructor's gate.
  std::condition_variable pending_cv_;
  std::size_t pending_ = 0;
};

}  // namespace msrp::registry
