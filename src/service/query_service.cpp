#include "service/query_service.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "core/msrp.hpp"
#include "graph/io.hpp"
#include "util/failpoint.hpp"

namespace msrp::service {

QueryService::QueryService(Options opts) : pool_(opts.threads) {
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

void QueryService::check_before_answer(Deadline deadline) {
  // delay action: burns the batch's budget right where a slow answer or a
  // saturated pool would, so deadline tests are exact.
  (void)MSRP_FAILPOINT("service.answer");
  if (deadline_expired(deadline)) {
    throw DeadlineExceeded("batch expired before answering");
  }
}

}  // namespace msrp::service
