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
///   * query_batch() answers a span of (s, t, e) queries on a fixed thread
///     pool. The batch is split by source: every worker task reads one
///     source's replacement table, so tasks touch disjoint table slices
///     and the read path takes no locks (the oracle is immutable; answer
///     slots are disjoint by query index);
///   * run<W>()/submit<W>() answer a batch of any workload; every
///     workload but Point is one W::answer call straight from the
///     Snapshot. submit<W>() is the asynchronous flavour: it enqueues one
///     closure and returns, and a pool worker invokes the callback once
///     the batch completes. Sync and async point batches run through one
///     engine (answer_points): one validation pass, one inline-or-fan-out
///     rule, one exactly-once completion. The sync caller waits for that
///     completion; an async batch's callback fires from whichever task
///     finishes last, so no worker ever waits on other pool tasks.
///
/// Every batch is answered in this process: a query is one O(1) read of an
/// immutable table, so the source-chunked pool is all the parallelism
/// serving needs.
///
/// Invalid queries are rejected before any answer is computed — thrown to
/// the query_batch caller, delivered in WorkloadResult::error to a
/// submit<W> callback; chunk tasks only ever see validated indices.
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
#include <type_traits>
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
/// escaping exception cannot trigger a second delivery, but it is lost to
/// the pool's fire-and-forget error slot.
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
    /// Batches smaller than this answer inline on the calling thread —
    /// below it the fan-out overhead exceeds the O(1)-per-query work.
    std::size_t min_parallel_batch = 2048;
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

  /// Answers queries[i] into result[i]. Throws std::invalid_argument if any
  /// query names a non-source s, or an out-of-range t or e; no partial
  /// answers are produced in that case. Safe to call from several threads
  /// concurrently: batches share the worker pool but track their own
  /// completion. A `deadline` already past when the batch starts throws
  /// DeadlineExceeded instead of answering; once started, a batch is O(1)
  /// work per query and runs to completion.
  std::vector<Dist> query_batch(const Snapshot& oracle, std::span<const Query> queries,
                                Deadline deadline = kNoDeadline);

  // ----- any workload (see service/workloads.hpp) --------------------------

  /// Answers a batch of any workload. Point is query_batch itself; the
  /// other workloads check the deadline once (DeadlineExceeded), then
  /// W::answer validates the whole batch and answers it from the
  /// Snapshot, on the calling thread. Validation failures throw
  /// std::invalid_argument before any answer; k-fail |F| == 2 needs the
  /// graph behind the oracle — attach_graph() it (build() does so
  /// automatically) or the batch throws.
  template <class W>
  std::vector<typename W::Result> run(const Snapshot& oracle,
                                      std::span<const typename W::Query> queries,
                                      Deadline deadline = kNoDeadline);

  /// The one asynchronous entry point: async flavour of run(). Returns
  /// once one closure is enqueued; the "service.answer" failpoint, the
  /// deadline check, validation, and answering all run on the pool, and
  /// `done` fires exactly once from a worker — with the answers and the
  /// oracle, or with WorkloadResult::error set (validation failure,
  /// DeadlineExceeded, a missing attached graph). `deadline` is checked
  /// before answering, and before each k-fail BFS.
  template <class W>
  void submit(std::shared_ptr<const Snapshot> oracle, std::vector<typename W::Query> queries,
              WorkloadCallback<W> done, Deadline deadline = kNoDeadline);

  // perfbench/ (which builds against this tree but is versioned with the
  // benchmark) still calls the typed sync entry points by their old names.
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

  /// Runs a closure on the worker pool — the registry layer builds its
  /// registrations through this so they share the serving pool (and its
  /// drain-on-destruction ordering) instead of spawning threads.
  void run_async(std::function<void()> task) { pool_.submit(std::move(task)); }

  unsigned num_threads() const { return pool_.size(); }
  const OracleCache& cache() const { return cache_; }

  /// Total queries answered since construction (across all batches).
  std::uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

 private:
  /// Validated counting-sort of a batch by source index (the fan-out
  /// axis).
  struct BatchPlan {
    std::vector<std::uint32_t> order;      // query indices, grouped by source
    std::vector<std::size_t> shard_begin;  // sigma+1 prefix bounds into order
  };
  static BatchPlan plan_shards(const Snapshot& oracle, std::span<const Query> queries);
  static void answer_range(const Snapshot& oracle, std::span<const Query> queries,
                           const BatchPlan& plan, std::span<Dist> out, std::uint32_t si,
                           std::size_t lo, std::size_t hi);

  /// One point batch on its way through answer_points. A sync caller keeps
  /// it on its stack and waits for `complete`; submit<Point> allocates
  /// it, and `owner`/`owned` keep the oracle and the queries alive until
  /// the last chunk task lets go.
  struct PointBatch {
    PointBatch(const Snapshot& o, Deadline d, BatchCallback c)
        : oracle(o), deadline(d), complete(std::move(c)) {}

    const Snapshot& oracle;
    std::shared_ptr<const Snapshot> owner;  // async only; handed back in the result
    std::vector<Query> owned;               // async only; what `queries` views
    std::span<const Query> queries;
    Deadline deadline;
    BatchCallback complete;  // fired by finish(), exactly once
    BatchPlan plan;
    std::vector<Dist> answers;
    std::atomic<std::size_t> pending{0};  // unfinished chunk tasks
    std::atomic<bool> finished{false};    // the exactly-once latch
  };

  /// The point engine, shared by query_batch and submit<Point>. Checks
  /// the deadline, validates and plans, and answers inline below
  /// min_parallel_batch or as (source, chunk) pool tasks. Completes the
  /// batch through finish() from whichever thread answers last, and never
  /// waits on pool tasks.
  void answer_points(std::shared_ptr<PointBatch> batch);
  /// Passes the latch at most once: on success counts the batch as served
  /// and hands `complete` the answers, otherwise hands it `error`.
  void finish(PointBatch& batch, std::exception_ptr error);

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

  Options opts_;
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
  if constexpr (std::is_same_v<W, Point>) {
    return query_batch(oracle, queries, deadline);
  } else {
    if (deadline_expired(deadline)) {
      throw DeadlineExceeded("batch expired before answering");
    }
    std::vector<typename W::Result> answers = W::answer(*this, oracle, queries, deadline);
    note_served(queries.size());
    return answers;
  }
}

template <class W>
void QueryService::submit(std::shared_ptr<const Snapshot> oracle,
                          std::vector<typename W::Query> queries, WorkloadCallback<W> done,
                          Deadline deadline) {
  MSRP_REQUIRE(oracle != nullptr, "submit: null oracle");
  MSRP_REQUIRE(done != nullptr, "submit: null callback");
  // Everything heavy — validation and answering — runs inside this one
  // pool task (and, for points, the engine's chunk tasks); the caller only
  // enqueues.
  pool_.submit([this, oracle = std::move(oracle), queries = std::move(queries),
                done = std::move(done), deadline]() mutable {
    if constexpr (std::is_same_v<W, Point>) {
      auto batch = std::make_shared<PointBatch>(*oracle, deadline, std::move(done));
      batch->owner = std::move(oracle);
      batch->owned = std::move(queries);
      batch->queries = batch->owned;
      try {
        check_before_answer(deadline);
      } catch (...) {
        finish(*batch, std::current_exception());
        return;
      }
      answer_points(std::move(batch));
    } else {
      WorkloadResult<W> result;
      try {
        check_before_answer(deadline);
        result.answers = W::answer(*this, *oracle, queries, deadline);
        note_served(queries.size());
        result.oracle = std::move(oracle);
      } catch (...) {
        result.error = std::current_exception();
      }
      // Outside the try: a callback that throws is not delivered again as
      // a failure.
      done(std::move(result));
    }
  });
}

}  // namespace msrp::service
