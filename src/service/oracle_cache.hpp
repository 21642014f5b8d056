/// \file
/// Single-flight table of the live oracles, keyed by what determines the
/// solve.
///
/// A solve is a pure function of (graph, sources, Config) — the solver is
/// deterministic given its seed — so the key is (graph digest, source
/// list, config fingerprint). The table holds weak_ptr<const Snapshot>:
/// it owns no oracle. Whoever holds the shared_ptr (a caller, a batch, the
/// registry) is the only owner of an oracle's memory, and the table serves
/// the oracle for exactly as long as somebody does. A repeat build of an
/// instance that is still held is a hit, not a re-solve.
///
/// The table is mutex-guarded (lookups and inserts are rare and cheap next
/// to a solve); the hot path never touches it — batches run against the
/// Snapshot reference they already hold.
///
/// Builds are single-flighted: the first miss on a key parks a
/// shared_future in the key's entry, concurrent misses wait on it instead
/// of duplicating the solve, and each waiter receives its own shared_ptr.
/// An entry whose oracle has expired and that has no build in flight is
/// swept on the next insert, so the table holds only live oracles plus
/// in-flight builds.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "service/snapshot.hpp"

namespace msrp::service {

/// Stable 64-bit digest of every Config field that affects solver output.
std::uint64_t config_fingerprint(const Config& cfg);

/// Identity of one solved oracle.
struct OracleKey {
  std::uint64_t graph_digest = 0;
  std::vector<Vertex> sources;
  std::uint64_t config_fingerprint = 0;

  friend bool operator==(const OracleKey&, const OracleKey&) = default;
};

struct OracleKeyHash {
  std::size_t operator()(const OracleKey& k) const;
};

class OracleCache {
 public:
  /// Live oracles plus builds in flight.
  std::size_t size() const;

  /// The live oracle for `key`, else `oracle` — which is then recorded
  /// under `key`. Lookup and insert happen under one lock, so concurrent
  /// callers with the same key all get the first one's oracle.
  std::shared_ptr<const Snapshot> get_or_insert(const OracleKey& key,
                                                std::shared_ptr<const Snapshot> oracle);

  /// The live oracle for `key`, else the result of build(). The builder
  /// runs outside the lock: a long solve must not block lookups of other
  /// keys. Concurrent misses on the same key are single-flighted: one
  /// caller builds, the rest block on its result (and see its exception if
  /// the build fails; a failed key can be built again).
  std::shared_ptr<const Snapshot> get_or_build(
      const OracleKey& key, const std::function<std::shared_ptr<const Snapshot>()>& build);

  // Counters (monotonic, for observability and the tests).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  /// Builds currently in flight (claimed but not yet landed).
  std::size_t pending_builds() const;

 private:
  using PendingFuture = std::shared_future<std::shared_ptr<const Snapshot>>;
  struct Entry {
    std::weak_ptr<const Snapshot> oracle;
    PendingFuture pending;  // valid while a build is in flight

    bool dead() const { return !pending.valid() && oracle.expired(); }
  };

  /// The live oracle under `key` (nullptr if none), counting a hit or a
  /// miss.
  std::shared_ptr<const Snapshot> lookup_locked(const OracleKey& key);
  /// Drops every dead entry: no live oracle and no build in flight.
  void sweep_locked();

  mutable std::mutex mu_;
  std::unordered_map<OracleKey, Entry, OracleKeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace msrp::service
