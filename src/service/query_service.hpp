/// \file
/// Batched replacement-path query serving.
///
/// The solver's preprocessing is O~(m sqrt(n sigma) + sigma n^2); a point
/// query d(s, t, e) is O(1). A serving deployment therefore builds (or
/// snapshot-loads) an oracle once and amortizes it over millions of
/// queries. QueryService packages that split:
///
///   * build()/load() produce immutable Snapshot oracles through a
///     single-flight table of live oracles keyed by (graph digest, sources,
///     config fingerprint) — a repeat build of an instance somebody still
///     holds is a hit, not a re-solve; the table itself owns no oracle;
///   * run<W>()/submit<W>() answer a batch of any workload, each with one
///     W::answer call straight from the Snapshot. A point batch is split
///     into kPointChunk-query chunks on the pool's caller-participating
///     parallel_for, so a batch of one chunk runs inline and a larger one
///     spreads across the pool without any task waiting on queued work.
///     The read path takes no locks: the oracle is immutable and answer
///     slots are disjoint by query index. submit<W>() is the asynchronous
///     flavour: it enqueues one closure and returns, and that pool task
///     answers the batch and invokes the callback;
///   * query_batch() is run<Point>() under its older name.
///
/// Every batch is answered in this process: a query is one O(1) read of an
/// immutable table, so a chunked loop on the pool is all the parallelism
/// serving needs.
///
/// A batch with an invalid query yields no answers: the error is thrown to
/// a run<W> caller and delivered in WorkloadResult::error to a submit<W>
/// callback.
///
/// docs/ARCHITECTURE.md traces a query's life through every path.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "service/oracle_cache.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/workloads.hpp"
#include "util/assert.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"

namespace msrp::service {

/// Outcome of one asynchronous batch of workload W (service/workloads.hpp).
template <class W>
struct WorkloadResult {
  /// answers[i] answers queries[i]; empty when error is set.
  std::vector<typename W::Result> answers;
  /// The oracle that answered; null when error is set. Holding it here
  /// keeps it alive for as long as the result lives.
  std::shared_ptr<const Snapshot> oracle;
  /// Null on success; the validation or deadline failure otherwise.
  std::exception_ptr error;
};

/// Invoked exactly once per submit, from a pool worker thread. Must not
/// block on work of the same service's pool, and should not throw — an
/// escaping exception cannot trigger a second delivery; the pool worker
/// swallows it.
template <class W>
using WorkloadCallback = std::function<void(WorkloadResult<W>)>;

using BatchResult = WorkloadResult<Point>;
using BatchCallback = WorkloadCallback<Point>;

class QueryService {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency. Oracle builds run their
    /// phase loops on this same pool.
    unsigned threads = 0;
  };

  QueryService() : QueryService(Options{}) {}
  explicit QueryService(Options opts);

  /// Solves MSRP for (g, sources, cfg) — or returns the live oracle of an
  /// identical instance somebody still holds — and hands back an immutable
  /// snapshot oracle. Concurrent builds of the same instance are
  /// single-flighted.
  std::shared_ptr<const Snapshot> build(const Graph& g, const std::vector<Vertex>& sources,
                                        const Config& cfg = {});

  /// Loads a snapshot from disk. Keyed by its content digest: loading a
  /// file whose oracle is still held returns that oracle. `opts` selects
  /// the zero-copy mmap path for v2 files.
  std::shared_ptr<const Snapshot> load(const std::string& path,
                                       const Snapshot::LoadOptions& opts = {});

  // ----- any workload (see service/workloads.hpp) --------------------------

  /// Answers queries[i] into result[i]: checks the deadline once
  /// (DeadlineExceeded), then W::answer validates and answers the batch
  /// from the Snapshot, a point batch on the pool beside the calling
  /// thread, the other workloads on the calling thread. Validation
  /// failures throw std::invalid_argument and yield no answers; k-fail
  /// |F| == 2 needs the graph behind the oracle — attach_graph() it
  /// (build() does so automatically) or the batch throws. Safe to call
  /// from several threads concurrently. Once started, a batch runs to
  /// completion (k-fail checks `deadline` again before each BFS).
  template <class W>
  std::vector<typename W::Result> run(const Snapshot& oracle,
                                      std::span<const typename W::Query> queries,
                                      Deadline deadline = kNoDeadline);

  /// The one asynchronous entry point: async flavour of run(). Returns
  /// once one closure is enqueued; the "service.answer" failpoint, the
  /// deadline check, validation, and answering all run in that pool task,
  /// and `done` fires exactly once from it — with the answers and the
  /// oracle, or with WorkloadResult::error set (validation failure,
  /// DeadlineExceeded, a missing attached graph). `deadline` is checked
  /// before answering, and before each k-fail BFS.
  template <class W>
  void submit(std::shared_ptr<const Snapshot> oracle, std::vector<typename W::Query> queries,
              WorkloadCallback<W> done, Deadline deadline = kNoDeadline);

  // perfbench/ (which builds against this tree but is versioned with the
  // benchmark) still calls the typed sync entry points by their old names.
  std::vector<Dist> query_batch(const Snapshot& o, std::span<const Query> q,
                                Deadline deadline = kNoDeadline) {
    return run<Point>(o, q, deadline);
  }
  std::vector<VitalityResult> vitality_batch(const Snapshot& o,
                                             std::span<const VitalityQuery> q) {
    return run<Vitality>(o, q);
  }
  std::vector<VickreyResult> vickrey_batch(const Snapshot& o,
                                           std::span<const VickreyQuery> q) {
    return run<Vickrey>(o, q);
  }
  std::vector<Dist> kfail_batch(const Snapshot& o, std::span<const KFailQuery> q) {
    return run<KFail>(o, q);
  }

  /// Attaches the graph behind an oracle digest so 2-edge-failure queries
  /// (a BFS of G - F, not a table read) can be served. build() attaches
  /// automatically, and that graph lives exactly as long as the built
  /// oracle. Oracles loaded from snapshots need this explicit attach before
  /// |F| == 2 K_FAIL queries work; a graph attached here has no oracle to
  /// follow, so the service keeps it until the service is destroyed.
  void attach_graph(std::uint64_t digest, std::shared_ptr<const Graph> graph);

  /// Graph attached for `digest`, or nullptr.
  std::shared_ptr<const Graph> graph_for(std::uint64_t digest);

  /// The worker pool. W::answer steps fan out on it with parallel_for, and
  /// the registry layer builds its registrations on it so they share the
  /// serving pool (and its drain-on-destruction ordering) instead of
  /// spawning threads.
  ThreadPool& pool() { return pool_; }

  unsigned num_threads() const { return pool_.size(); }
  const OracleCache& cache() const { return cache_; }

  /// Total queries answered since construction (across all batches).
  std::uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

 private:
  /// What the service keeps beside the oracles of one content digest: the
  /// graph for |F| == 2 K_FAIL. Equal digests mean equal answers, so
  /// oracles with the same content (a built one and its reloaded snapshot)
  /// share one entry, which lives while any of them does. A graph attached
  /// by digest alone outlives them all.
  struct OracleSide {
    std::vector<std::weak_ptr<const Snapshot>> oracles;  // the entry's holders
    std::shared_ptr<const Graph> graph;
    bool keep_graph = false;  // attach_graph: no oracle to follow
  };
  /// Adds `owner` to the entry's holders, forgetting expired ones.
  static void follow(OracleSide& side, const std::shared_ptr<const Snapshot>& owner);
  /// Moves the side tables whose holders have all expired into `doomed`, so
  /// the caller frees their graphs after side_mu_ is released. Runs
  /// whenever an entry gains a graph.
  void sweep_locked(std::vector<OracleSide>& doomed);

  /// The "service.answer" failpoint and the deadline check every async
  /// batch passes before it answers.
  static void check_before_answer(Deadline deadline);
  void note_served(std::size_t queries) {
    queries_served_.fetch_add(queries, std::memory_order_relaxed);
  }

  OracleCache cache_;
  // Side tables by oracle content digest. Declared before pool_: pool tasks
  // read graphs from these, and the pool's destructor drains its queue
  // first.
  std::mutex side_mu_;
  std::unordered_map<std::uint64_t, OracleSide> side_;
  std::atomic<std::uint64_t> queries_served_{0};
  // Declared last so its destructor — which drains queued tasks — runs
  // first: async tasks touch the cache, side tables, and counters above.
  ThreadPool pool_;
  // After pool_: unregistered before anything the snapshot callback reads
  // (cache_, queries_served_) is torn down.
  obs::MetricsRegistry::CollectorHandle collector_;
};

template <class W>
std::vector<typename W::Result> QueryService::run(const Snapshot& oracle,
                                                  std::span<const typename W::Query> queries,
                                                  Deadline deadline) {
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before answering");
  }
  std::vector<typename W::Result> answers = W::answer(*this, oracle, queries, deadline);
  note_served(queries.size());
  return answers;
}

template <class W>
void QueryService::submit(std::shared_ptr<const Snapshot> oracle,
                          std::vector<typename W::Query> queries, WorkloadCallback<W> done,
                          Deadline deadline) {
  MSRP_REQUIRE(oracle != nullptr, "submit: null oracle");
  MSRP_REQUIRE(done != nullptr, "submit: null callback");
  // Everything heavy — validation and answering — runs inside this one
  // pool task; the caller only enqueues.
  pool_.submit([this, oracle = std::move(oracle), queries = std::move(queries),
                done = std::move(done), deadline]() mutable {
    WorkloadResult<W> result;
    try {
      check_before_answer(deadline);
      result.answers = W::answer(*this, *oracle, queries, deadline);
      note_served(queries.size());
      result.oracle = std::move(oracle);
    } catch (...) {
      result.error = std::current_exception();
    }
    // Outside the try: a callback that throws is not delivered again as a
    // failure.
    done(std::move(result));
  });
}

}  // namespace msrp::service
