#include "service/query_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "core/msrp.hpp"
#include "graph/io.hpp"
#include "service/shard_router.hpp"
#include "util/failpoint.hpp"

namespace msrp::service {

/// Worker-process routers a service keeps alive at once; least recently
/// used beyond this are torn down (stopping their workers, unlinking shm).
static constexpr std::size_t kMaxRouters = 4;

/// Graphs kept attached for |F| == 2 K_FAIL service. A graph is a fraction
/// of its oracle's footprint, so this can sit above the oracle cache's
/// default capacity without mattering.
static constexpr std::size_t kMaxAttachedGraphs = 8;

QueryService::QueryService(Options opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity, opts_.cache_max_bytes, opts_.cache_entry_ttl),
      pool_(opts_.threads) {
  if (opts_.cache_refresh_ahead > 0.0 && opts_.cache_entry_ttl.count() > 0) {
    // Refresh tasks run on the serving pool. pool_ is declared last, so
    // its destructor drains every queued refresh before cache_ dies.
    cache_.enable_refresh_ahead(opts_.cache_refresh_ahead,
                                [this](std::function<void()> task) {
                                  pool_.submit(std::move(task));
                                });
  }
  collector_ = obs::MetricsRegistry::instance().register_collector(
      [this](obs::MetricsSnapshot& out) {
        out.counters.push_back({"service.queries_served", queries_served()});
        out.counters.push_back({"cache.hits", cache_.hits()});
        out.counters.push_back({"cache.misses", cache_.misses()});
        out.counters.push_back({"cache.evictions", cache_.evictions()});
        out.counters.push_back({"cache.expirations", cache_.expirations()});
        out.counters.push_back({"cache.refreshes", cache_.refreshes()});
        out.counters.push_back({"cache.refresh_failures", cache_.refresh_failures()});
        out.gauges.push_back(
            {"cache.pending_builds", static_cast<std::int64_t>(cache_.pending_builds())});
        out.gauges.push_back({"cache.entries", static_cast<std::int64_t>(cache_.size())});
        out.gauges.push_back(
            {"cache.bytes", static_cast<std::int64_t>(cache_.size_bytes())});
      });
}

std::shared_ptr<const Snapshot> QueryService::build(const Graph& g,
                                                    const std::vector<Vertex>& sources,
                                                    const Config& cfg) {
  OracleKey key{io::graph_digest(g), sources, config_fingerprint(cfg)};
  // One solve routine serves both the cold build (borrowing the caller's
  // graph by reference) and the refresh-ahead rebuilder (owning a copy —
  // the caller's graph is long gone when a refresh fires). The pool never
  // enters the cache key: parallel builds are bit-identical to sequential
  // ones, and cold builds running ON a pool worker stay safe because the
  // solver's phase loops use caller-participating parallel_for.
  auto solve = [this, cfg](const Graph& graph, const std::vector<Vertex>& srcs) {
    Config build_cfg = cfg;
    build_cfg.build_pool = &pool_;
    const MsrpResult res = solve_msrp(graph, srcs, build_cfg);
    return std::make_shared<const Snapshot>(Snapshot::capture(res));
  };
  OracleCache::BuilderFactory rebuild_factory;
  if (opts_.cache_refresh_ahead > 0.0 && opts_.cache_entry_ttl.count() > 0) {
    rebuild_factory = [&]() -> OracleCache::Builder {
      // Invoked only on the cold build this call owns: copy the graph
      // once so later refreshes are self-contained.
      auto owned = std::make_shared<const Graph>(g);
      return [solve, owned, srcs = sources] { return solve(*owned, srcs); };
    };
  }
  auto snap = cache_.get_or_build(key, [&] { return solve(g, sources); }, rebuild_factory);
  // 2-edge-failure queries need the graph itself, and the caller is holding
  // it right here — attach a copy on first sight of this oracle so K_FAIL
  // works out of the box for built (as opposed to snapshot-loaded) oracles.
  bool attached;
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    attached = std::any_of(graphs_.begin(), graphs_.end(), [&](const auto& entry) {
      return entry.first == snap->content_digest();
    });
  }
  if (!attached) attach_graph(snap->content_digest(), std::make_shared<const Graph>(g));
  return snap;
}

void QueryService::attach_graph(std::uint64_t digest, std::shared_ptr<const Graph> graph) {
  MSRP_REQUIRE(graph != nullptr, "attach_graph: null graph");
  // Destroy an evicted graph outside the lock (freeing a CSR can be a
  // large deallocation).
  std::vector<std::shared_ptr<const Graph>> evicted;
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
      if (it->first == digest) {
        it->second = std::move(graph);
        graphs_.splice(graphs_.begin(), graphs_, it);
        return;
      }
    }
    graphs_.emplace_front(digest, std::move(graph));
    while (graphs_.size() > kMaxAttachedGraphs) {
      evicted.push_back(std::move(graphs_.back().second));
      graphs_.pop_back();
    }
  }
}

std::shared_ptr<const Graph> QueryService::graph_for(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(graphs_mu_);
  for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
    if (it->first == digest) {
      graphs_.splice(graphs_.begin(), graphs_, it);
      return it->second;
    }
  }
  return nullptr;
}

std::shared_ptr<const Snapshot> QueryService::load(const std::string& path,
                                                   const Snapshot::LoadOptions& opts) {
  auto snap = std::make_shared<const Snapshot>(Snapshot::load(path, opts));
  // Snapshots carry no (graph, config) identity, so they are cached under
  // their content digest; config_fingerprint 0 keeps the key space disjoint
  // from built oracles (config_fingerprint() never returns 0 in practice).
  OracleKey key{snap->content_digest(), snap->sources(), 0};
  if (auto hit = cache_.find(key)) return hit;
  cache_.insert(key, snap);
  return snap;
}

std::shared_ptr<ShardRouter> QueryService::router_for(const Snapshot& oracle) {
  const std::uint64_t key = oracle.content_digest();
  // Evicted routers are destroyed AFTER the lock drops: a router teardown
  // stops and reaps worker processes (seconds in the worst case), which
  // must not stall other oracles' batches or the stats accessor.
  std::vector<std::shared_ptr<ShardRouter>> evicted;
  {
    std::lock_guard<std::mutex> lock(routers_mu_);
    for (auto it = routers_.begin(); it != routers_.end(); ++it) {
      if (it->first == key) {
        routers_.splice(routers_.begin(), routers_, it);  // mark MRU
        return routers_.front().second;
      }
    }
    // First batch against this oracle: shard it and spawn the workers.
    // Deliberately under the lock so concurrent cold batches share one
    // placement (single flight); routing itself never takes this lock
    // again. The cost is that a cold router on oracle A briefly blocks a
    // cold router on oracle B — acceptable until a workload actually
    // interleaves many distinct sharded oracles.
    ShardRouterOptions router_opts;
    router_opts.shards = opts_.shards;
    router_opts.worker_argv = opts_.shard_worker_argv;
    router_opts.backoff = opts_.shard_backoff;
    router_opts.pin_workers = opts_.pin_shard_workers;
    auto router = std::make_shared<ShardRouter>(oracle, router_opts);
    routers_.emplace_front(key, router);
    while (routers_.size() > kMaxRouters) {
      evicted.push_back(std::move(routers_.back().second));
      routers_.pop_back();
    }
    return router;
  }
}

std::shared_ptr<const ShardRouter> QueryService::router(const Snapshot& oracle) {
  if (!sharding()) return nullptr;
  const std::uint64_t key = oracle.content_digest();
  std::lock_guard<std::mutex> lock(routers_mu_);
  for (const auto& [digest, router] : routers_) {
    if (digest == key) return router;
  }
  return nullptr;
}

QueryService::BatchPlan QueryService::plan_shards(const Snapshot& oracle,
                                                  std::span<const Query> queries) {
  const Vertex n = oracle.num_vertices();
  const EdgeId m = oracle.num_edges();
  const std::uint32_t sigma = oracle.num_sources();

  // Validate everything before any worker sees the batch, and counting-sort
  // the query indices by source while at it (the sharding axis). The flat
  // `order` array keeps each source's shard contiguous with one allocation —
  // this pass is the only serial work per batch, so it stays lean.
  BatchPlan plan;
  std::vector<std::uint32_t> si_of(queries.size());
  plan.shard_begin.assign(sigma + 1, 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    MSRP_REQUIRE(oracle.is_source(q.s), "query source is not an oracle source");
    MSRP_REQUIRE(q.t < n, "query target out of range");
    MSRP_REQUIRE(q.e < m, "query edge out of range");
    si_of[i] = oracle.source_index(q.s);
    ++plan.shard_begin[si_of[i] + 1];
  }
  for (std::uint32_t si = 0; si < sigma; ++si) plan.shard_begin[si + 1] += plan.shard_begin[si];
  plan.order.resize(queries.size());
  std::vector<std::size_t> fill(plan.shard_begin.begin(), plan.shard_begin.end() - 1);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    plan.order[fill[si_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  return plan;
}

void QueryService::answer_range(const Snapshot& oracle, std::span<const Query> queries,
                                const BatchPlan& plan, std::span<Dist> out, std::uint32_t si,
                                std::size_t lo, std::size_t hi) {
  for (std::size_t j = lo; j < hi; ++j) {
    const Query& q = queries[plan.order[j]];
    out[plan.order[j]] = oracle.avoiding_at(si, q.t, q.e);
  }
}

std::vector<Dist> QueryService::query_batch(const Snapshot& oracle,
                                            std::span<const Query> queries,
                                            Deadline deadline) {
  if (sharding()) {
    // Multi-process path: the router validates, routes each query to the
    // worker owning its source, and merges in batch order — bit-identical
    // to the in-process path below. The router's collector enforces the
    // deadline while answers are in flight.
    std::vector<Dist> out = router_for(oracle)->query_batch(queries, deadline);
    queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);
    return out;
  }
  // The in-process path has no unbounded waits (every chunk is O(1) work
  // on an immutable table), so an up-front check suffices.
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before answering");
  }
  const std::uint32_t sigma = oracle.num_sources();
  const BatchPlan plan = plan_shards(oracle, queries);

  std::vector<Dist> out(queries.size());
  if (queries.size() < opts_.min_parallel_batch || pool_.size() <= 1) {
    for (std::uint32_t si = 0; si < sigma; ++si) {
      answer_range(oracle, queries, plan, out, si, plan.shard_begin[si],
                   plan.shard_begin[si + 1]);
    }
  } else {
    // One task per (source, chunk): sharding by source keeps each worker in
    // one source's table; chunking caps shard size so a skewed batch (all
    // queries on one source) still spreads across the pool. Completion is
    // tracked per batch (not via the pool-wide wait_idle) so concurrent
    // query_batch callers sharing the pool never observe each other's
    // tasks or errors.
    const std::size_t chunk =
        std::max<std::size_t>(512, queries.size() / (std::size_t{pool_.size()} * 4));
    struct BatchState {
      std::mutex mu;
      std::condition_variable done_cv;
      std::size_t pending = 0;
    };
    BatchState batch;
    for (std::uint32_t si = 0; si < sigma; ++si) {
      for (std::size_t lo = plan.shard_begin[si]; lo < plan.shard_begin[si + 1]; lo += chunk) {
        const std::size_t hi = std::min(plan.shard_begin[si + 1], lo + chunk);
        {
          std::lock_guard<std::mutex> lock(batch.mu);
          ++batch.pending;
        }
        pool_.submit([&oracle, &queries, &plan, &out, &batch, si, lo, hi] {
          // Touches only validated indices; nothrow.
          answer_range(oracle, queries, plan, out, si, lo, hi);
          std::lock_guard<std::mutex> lock(batch.mu);
          if (--batch.pending == 0) batch.done_cv.notify_all();
        });
      }
    }
    std::unique_lock<std::mutex> lock(batch.mu);
    batch.done_cv.wait(lock, [&batch] { return batch.pending == 0; });
  }
  queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);
  return out;
}

// --------------------------------------------------------------- async API ---

/// Shared state of one in-flight async batch. Lives until the promise or
/// callback has fired; chunk tasks co-own it, so a caller that drops the
/// future early cannot invalidate anything a worker still touches.
struct QueryService::AsyncBatch {
  std::vector<Query> queries;
  BatchPlan plan;
  std::vector<Dist> answers;
  std::shared_ptr<const Snapshot> oracle;  // pins the oracle against eviction
  std::atomic<std::size_t> pending{0};     // unfinished chunk tasks
  std::promise<BatchResult> promise;
  BatchCallback callback;  // non-null => callback flavour, promise unused
  std::atomic<bool> done{false};           // exactly-once delivery latch

  // The latch keeps the once-only contract even if the user callback itself
  // throws mid-delivery: the orchestrator's catch block would otherwise
  // report the batch a second time. A throwing callback's exception then
  // propagates into the pool's fire-and-forget error slot instead.
  void deliver(BatchResult&& result) {
    if (done.exchange(true, std::memory_order_acq_rel)) return;
    if (callback) {
      callback(std::move(result));
    } else {
      promise.set_value(std::move(result));
    }
  }

  void fail(std::exception_ptr err) {
    if (done.exchange(true, std::memory_order_acq_rel)) return;
    if (callback) {
      callback(BatchResult{{}, nullptr, err});
    } else {
      promise.set_exception(err);
    }
  }
};

std::future<BatchResult> QueryService::submit_batch_impl(
    std::function<std::shared_ptr<const Snapshot>()> resolve, std::vector<Query> queries,
    BatchCallback done, Deadline deadline) {
  auto state = std::make_shared<AsyncBatch>();
  state->queries = std::move(queries);
  state->callback = std::move(done);
  std::future<BatchResult> fut;
  if (!state->callback) fut = state->promise.get_future();

  // Everything heavy — the oracle resolve (a cold-cache build is a full
  // MSRP solve), validation, sharding, answering — happens inside pool
  // tasks. This submit only enqueues one closure.
  pool_.submit([this, state, resolve = std::move(resolve), deadline] {
    try {
      state->oracle = resolve();
      // delay action: burns the batch's budget right where a slow cold
      // build or a saturated pool would, so deadline tests are exact.
      (void)MSRP_FAILPOINT("service.answer");
      // The resolve may have been a full cold build, or the batch may have
      // queued behind a saturated pool — either can consume the whole
      // budget before a single answer is computed.
      if (deadline_expired(deadline)) {
        throw DeadlineExceeded("batch expired before answering");
      }
      const Snapshot& oracle = *state->oracle;
      if (sharding()) {
        // The worker processes are the parallelism; routing occupies just
        // this one pool task (and never blocks on other pool tasks, so the
        // no-worker-waits-on-workers pool invariant holds).
        state->answers = router_for(oracle)->query_batch(state->queries, deadline);
        queries_served_.fetch_add(state->queries.size(), std::memory_order_relaxed);
        state->deliver(BatchResult{std::move(state->answers), state->oracle, nullptr});
        return;
      }
      state->plan = plan_shards(oracle, state->queries);
      state->answers.resize(state->queries.size());

      const std::uint32_t sigma = oracle.num_sources();
      const std::size_t total = state->queries.size();
      auto finish = [this, state] {
        queries_served_.fetch_add(state->queries.size(), std::memory_order_relaxed);
        state->deliver(BatchResult{std::move(state->answers), state->oracle, nullptr});
      };

      if (total == 0 || total < opts_.min_parallel_batch || pool_.size() <= 1) {
        for (std::uint32_t si = 0; si < sigma; ++si) {
          answer_range(oracle, state->queries, state->plan, state->answers, si,
                       state->plan.shard_begin[si], state->plan.shard_begin[si + 1]);
        }
        finish();
        return;
      }

      // Fan the shards out as chunk tasks. Nobody waits: the last chunk to
      // finish fulfils the promise, so the pool stays deadlock-free no
      // matter how many async batches are in flight.
      const std::size_t chunk =
          std::max<std::size_t>(512, total / (std::size_t{pool_.size()} * 4));
      std::size_t num_chunks = 0;
      for (std::uint32_t si = 0; si < sigma; ++si) {
        const std::size_t len = state->plan.shard_begin[si + 1] - state->plan.shard_begin[si];
        num_chunks += (len + chunk - 1) / chunk;
      }
      state->pending.store(num_chunks, std::memory_order_relaxed);
      for (std::uint32_t si = 0; si < sigma; ++si) {
        for (std::size_t lo = state->plan.shard_begin[si];
             lo < state->plan.shard_begin[si + 1]; lo += chunk) {
          const std::size_t hi = std::min(state->plan.shard_begin[si + 1], lo + chunk);
          pool_.submit([state, finish, si, lo, hi] {
            // Touches only validated indices; nothrow.
            answer_range(*state->oracle, state->queries, state->plan, state->answers, si,
                         lo, hi);
            if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) finish();
          });
        }
      }
    } catch (...) {
      state->fail(std::current_exception());
    }
  });
  return fut;
}

std::future<BatchResult> QueryService::submit_batch(std::shared_ptr<const Snapshot> oracle,
                                                    std::vector<Query> queries) {
  MSRP_REQUIRE(oracle != nullptr, "submit_batch: null oracle");
  return submit_batch_impl([oracle = std::move(oracle)] { return oracle; },
                           std::move(queries), nullptr);
}

std::future<BatchResult> QueryService::submit_batch(Graph g, std::vector<Vertex> sources,
                                                    Config cfg, std::vector<Query> queries) {
  return submit_batch_impl(
      [this, g = std::move(g), sources = std::move(sources), cfg] {
        return build(g, sources, cfg);
      },
      std::move(queries), nullptr);
}

void QueryService::submit_batch(std::shared_ptr<const Snapshot> oracle,
                                std::vector<Query> queries, BatchCallback done,
                                Deadline deadline) {
  MSRP_REQUIRE(oracle != nullptr, "submit_batch: null oracle");
  MSRP_REQUIRE(done != nullptr, "submit_batch: null callback");
  submit_batch_impl([oracle = std::move(oracle)] { return oracle; }, std::move(queries),
                    std::move(done), deadline);
}

void QueryService::submit_batch(Graph g, std::vector<Vertex> sources, Config cfg,
                                std::vector<Query> queries, BatchCallback done) {
  MSRP_REQUIRE(done != nullptr, "submit_batch: null callback");
  submit_batch_impl(
      [this, g = std::move(g), sources = std::move(sources), cfg] {
        return build(g, sources, cfg);
      },
      std::move(queries), std::move(done));
}

void QueryService::check_before_answer(Deadline deadline) {
  // delay action: burns the batch's budget right where a slow expansion or
  // a saturated pool would, so deadline tests are exact.
  (void)MSRP_FAILPOINT("service.answer");
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before answering");
  }
}

}  // namespace msrp::service
