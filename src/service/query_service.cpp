#include "service/query_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "core/msrp.hpp"
#include "graph/io.hpp"
#include "util/failpoint.hpp"

namespace msrp::service {

QueryService::QueryService(Options opts) : opts_(std::move(opts)), pool_(opts_.threads) {
  collector_ = obs::MetricsRegistry::instance().register_collector(
      [this](obs::MetricsSnapshot& out) {
        out.counters.push_back({"service.queries_served", queries_served()});
        out.counters.push_back({"cache.hits", cache_.hits()});
        out.counters.push_back({"cache.misses", cache_.misses()});
        out.gauges.push_back(
            {"cache.pending_builds", static_cast<std::int64_t>(cache_.pending_builds())});
        out.gauges.push_back({"cache.entries", static_cast<std::int64_t>(cache_.size())});
      });
}

std::shared_ptr<const Snapshot> QueryService::build(const Graph& g,
                                                    const std::vector<Vertex>& sources,
                                                    const Config& cfg) {
  OracleKey key{io::graph_digest(g), sources, config_fingerprint(cfg)};
  // The pool never enters the key: parallel builds are bit-identical to
  // sequential ones, and builds running ON a pool worker stay safe because
  // the solver's phase loops use caller-participating parallel_for.
  auto snap = cache_.get_or_build(key, [&] {
    Config build_cfg = cfg;
    build_cfg.build_pool = &pool_;
    const MsrpResult res = solve_msrp(g, sources, build_cfg);
    return std::make_shared<const Snapshot>(Snapshot::capture(res));
  });
  // 2-edge-failure queries need the graph itself, and the caller is holding
  // it right here — attach a copy on first sight of this oracle so K_FAIL
  // works out of the box for built (as opposed to snapshot-loaded) oracles.
  // The graph lives as long as `snap`, and the copy is made outside the
  // lock: `snap` holds the entry from the first lock on, so no sweep can
  // remove it in between.
  const std::uint64_t digest = snap->content_digest();
  {
    std::lock_guard<std::mutex> lock(side_mu_);
    OracleSide& side = side_[digest];
    follow(side, snap);
    if (side.graph != nullptr) return snap;
  }
  auto graph = std::make_shared<const Graph>(g);
  std::vector<OracleSide> doomed;
  std::lock_guard<std::mutex> lock(side_mu_);
  OracleSide& side = side_[digest];
  if (side.graph == nullptr) side.graph = std::move(graph);
  sweep_locked(doomed);
  return snap;
}

void QueryService::attach_graph(std::uint64_t digest, std::shared_ptr<const Graph> graph) {
  MSRP_REQUIRE(graph != nullptr, "attach_graph: null graph");
  std::vector<OracleSide> doomed;
  std::lock_guard<std::mutex> lock(side_mu_);
  OracleSide& side = side_[digest];
  side.graph.swap(graph);  // a replaced graph is freed after the lock drops
  side.keep_graph = true;
  sweep_locked(doomed);
}

std::shared_ptr<const Graph> QueryService::graph_for(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(side_mu_);
  const auto it = side_.find(digest);
  return it == side_.end() ? nullptr : it->second.graph;
}

void QueryService::follow(OracleSide& side, const std::shared_ptr<const Snapshot>& owner) {
  std::erase_if(side.oracles, [](const auto& held) { return held.expired(); });
  const bool known =
      std::any_of(side.oracles.begin(), side.oracles.end(), [&](const auto& held) {
        return !held.owner_before(owner) && !owner.owner_before(held);
      });
  if (!known) side.oracles.push_back(owner);
}

void QueryService::sweep_locked(std::vector<OracleSide>& doomed) {
  for (auto it = side_.begin(); it != side_.end();) {
    OracleSide& side = it->second;
    const bool held = std::any_of(side.oracles.begin(), side.oracles.end(),
                                  [](const auto& o) { return !o.expired(); });
    if (held || side.keep_graph) {
      ++it;
    } else {
      doomed.push_back(std::move(side));
      it = side_.erase(it);
    }
  }
}

std::shared_ptr<const Snapshot> QueryService::load(const std::string& path,
                                                   const Snapshot::LoadOptions& opts) {
  auto snap = std::make_shared<const Snapshot>(Snapshot::load(path, opts));
  // Snapshots carry no (graph, config) identity, so they are keyed by
  // their content digest; config_fingerprint 0 keeps the key space disjoint
  // from built oracles (config_fingerprint() never returns 0 in practice).
  OracleKey key{snap->content_digest(), snap->sources(), 0};
  return cache_.get_or_insert(key, std::move(snap));
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
  struct Outcome {
    std::mutex mu;
    std::condition_variable done_cv;
    bool done = false;
    BatchResult result;
  } outcome;
  PointBatch batch(oracle, deadline, [&outcome](BatchResult r) {
    // Notify under the lock: the waiter below may destroy `outcome` the
    // moment it sees `done`.
    std::lock_guard<std::mutex> lock(outcome.mu);
    outcome.result = std::move(r);
    outcome.done = true;
    outcome.done_cv.notify_all();
  });
  batch.queries = queries;
  // This frame owns the batch and outlives every chunk task (it waits for
  // the completion below), so the engine gets a non-owning pointer: the
  // aliasing constructor with an empty owner allocates no control block.
  answer_points(std::shared_ptr<PointBatch>(std::shared_ptr<void>(), &batch));
  {
    std::unique_lock<std::mutex> lock(outcome.mu);
    outcome.done_cv.wait(lock, [&outcome] { return outcome.done; });
  }
  if (outcome.result.error != nullptr) std::rethrow_exception(outcome.result.error);
  return std::move(outcome.result.answers);
}

void QueryService::answer_points(std::shared_ptr<PointBatch> batch) {
  PointBatch& b = *batch;
  std::size_t chunk = 0;  // 0 = answered inline
  try {
    // Every chunk is O(1) work per query on an immutable table, so an
    // up-front check suffices.
    if (deadline_expired(b.deadline)) {
      throw DeadlineExceeded("batch expired before answering");
    }
    b.plan = plan_shards(b.oracle, b.queries);
    b.answers.resize(b.queries.size());
    if (b.queries.size() < opts_.min_parallel_batch || pool_.size() <= 1) {
      for (std::uint32_t si = 0; si < b.oracle.num_sources(); ++si) {
        answer_range(b.oracle, b.queries, b.plan, b.answers, si, b.plan.shard_begin[si],
                     b.plan.shard_begin[si + 1]);
      }
    } else {
      // One task per (source, chunk): splitting by source keeps each
      // worker in one source's table; chunking caps a source's share so a
      // skewed batch (all queries on one source) still spreads across the
      // pool.
      chunk = std::max<std::size_t>(512, b.queries.size() / (std::size_t{pool_.size()} * 4));
    }
  } catch (...) {
    finish(b, std::current_exception());
    return;
  }
  if (chunk == 0) {
    finish(b, nullptr);
    return;
  }
  // Nobody waits on the chunks: the last one to finish completes the
  // batch, so the pool stays deadlock-free however many batches are in
  // flight, and concurrent batches never observe each other's tasks.
  const std::uint32_t sigma = b.oracle.num_sources();
  std::size_t num_chunks = 0;
  for (std::uint32_t si = 0; si < sigma; ++si) {
    num_chunks += (b.plan.shard_begin[si + 1] - b.plan.shard_begin[si] + chunk - 1) / chunk;
  }
  b.pending.store(num_chunks, std::memory_order_relaxed);
  for (std::uint32_t si = 0; si < sigma; ++si) {
    const std::size_t end = b.plan.shard_begin[si + 1];
    for (std::size_t lo = b.plan.shard_begin[si]; lo < end; lo += chunk) {
      const std::size_t hi = std::min(end, lo + chunk);
      pool_.submit([this, batch, si, lo, hi] {
        // Touches only validated indices; nothrow.
        answer_range(batch->oracle, batch->queries, batch->plan, batch->answers, si, lo, hi);
        if (batch->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          finish(*batch, nullptr);
        }
      });
    }
  }
}

void QueryService::finish(PointBatch& batch, std::exception_ptr error) {
  // The latch keeps the once-only contract whatever path reports: a
  // completion that throws cannot be followed by a second delivery.
  if (batch.finished.exchange(true, std::memory_order_acq_rel)) return;
  if (error != nullptr) {
    batch.complete(BatchResult{{}, nullptr, std::move(error)});
    return;
  }
  note_served(batch.queries.size());
  batch.complete(BatchResult{std::move(batch.answers), batch.owner, nullptr});
}

void QueryService::check_before_answer(Deadline deadline) {
  // delay action: burns the batch's budget right where a slow answer or a
  // saturated pool would, so deadline tests are exact.
  (void)MSRP_FAILPOINT("service.answer");
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before answering");
  }
}

}  // namespace msrp::service
