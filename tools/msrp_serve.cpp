// msrp_serve — build-once/serve-many front end for the service layer.
//
// Builds an oracle (solving MSRP) or loads a binary snapshot, then answers
// batched d(s, t, e) queries on a thread pool and reports throughput.
//
// Usage:
//   msrp_serve --build <graph-file> --sources a,b,c [options]
//   msrp_serve --demo [options]
//   msrp_serve --load-snapshot <path> [options]
//
// Oracle options:
//   --sources a,b,c        source vertices (required with --build)
//   --seed N               solver RNG seed (default 42)
//   --oversample X         sampling multiplier
//   --exact                deterministic exact mode
//   --bk                   Section 8 landmark-table machinery
//   --save-snapshot <path> persist the oracle after building
//   --mmap                 serve --load-snapshot zero-copy from a memory
//                          mapping (skips the cells checksum)
//
// Serving options:
//   --batch-file <path>    queries, one "s t e" per line ('#' comments)
//   --workload <kind>      answer a typed workload batch instead of point
//                          queries: "vitality" reads "s t k" lines and
//                          writes top-k most-vital edges, "vickrey" reads
//                          "s t" and writes per-edge Vickrey prices,
//                          "kfail" reads "s t [e...]" and writes d(s, t)
//                          avoiding the listed edges (at most 2; two-edge
//                          sets need a --build/--demo oracle — a bare
//                          snapshot has no graph to BFS). Output lines are
//                          byte-identical to msrp_client --workload over
//                          TCP, which CI compares.
//   --random-queries N     generate N uniform random queries instead
//   --threads N            worker threads (default: hardware concurrency)
//   --repeat K             run the batch K times for throughput (default 1)
//   --out <path>           write "s t e answer" lines for the batch
//
// Network serving (docs/NETWORK_PROTOCOL.md):
//   --listen <port>        serve the oracle over TCP until SIGINT/SIGTERM
//                          (0 = pick an ephemeral port; the bound port is
//                          printed). Composes with every oracle mode —
//                          --build, --demo, --load-snapshot [--mmap].
//   --listen-addr <ip>     bind address (default 127.0.0.1)
//   --idle-timeout-ms N    evict connections with no traffic for N ms
//                          (0 = never, the default)
//   --stall-timeout-ms N   evict connections whose replies make no write
//                          progress for N ms — a stuck peer cannot pin
//                          reply buffers forever (0 = never, the default)
//   --loops N              event-loop threads; each gets its own
//                          SO_REUSEPORT listener on the shared port.
//                          Default 1.
//   --registry             multi-tenant mode: clients register graphs over
//                          the wire (protocol v2) and target them by
//                          digest. Works with or without a local oracle
//                          mode — `--registry --listen 0` alone starts an
//                          empty server that clients populate.
//   --max-tenants N        resident-oracle cap for --registry (default 16)
//   --registry-bytes N     summed-footprint byte budget for --registry
//                          (0 = unlimited)
//   --failed-ttl-ms N      how long a failed registration stays listable
//                          (with its reason) before its slot is reaped
//                          (default 60000; 0 = release immediately)
//   --build-timeout-ms N   fail a registration that has not built within
//                          N ms instead of letting it wedge (0 = never,
//                          the default)
//   --metrics-addr <ip:port>  also serve GET /metrics (Prometheus text
//                          exposition), /healthz, and /traces over HTTP on
//                          its own listener (docs/OBSERVABILITY.md). Port 0
//                          picks an ephemeral port; the bound port is
//                          printed as "metrics on <ip>:<port>".
//   --trace-sample-n N     sample every Nth query into the bounded trace
//                          ring dumped at /traces (0 = tracing off, the
//                          default)
//
// Internal:
//   --shard-worker <base>:<k>   run as worker k of the shard router that
//                               owns shm prefix <base>; never invoked by
//                               hand (a router whose worker argv names this
//                               binary passes it to exec)
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch_io.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/http_metrics.hpp"
#include "obs/trace.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "service/shard_process.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace msrp;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: msrp_serve --build <graph-file> --sources a,b,c [options]\n"
               "       msrp_serve --demo [options]\n"
               "       msrp_serve --load-snapshot <path> [options]\n"
               "options: [--seed N] [--oversample X] [--exact] [--bk]\n"
               "         [--save-snapshot <path>] [--mmap]\n"
               "         [--batch-file <path> | --random-queries N]\n"
               "         [--workload vitality|vickrey|kfail]\n"
               "         [--threads N] [--repeat K]\n"
               "         [--listen <port>] [--listen-addr <ip>] [--loops N]\n"
               "         [--idle-timeout-ms N] [--stall-timeout-ms N]\n"
               "         [--metrics-addr ip:port] [--trace-sample-n N]\n"
               "         [--registry] [--max-tenants N] [--registry-bytes N]\n"
               "         [--failed-ttl-ms N] [--build-timeout-ms N]\n"
               "         [--out <path>]\n"
               "       msrp_serve --registry --listen <port>   (empty multi-tenant server)\n");
  std::exit(2);
}

/// What a local (non --listen) run answers and where the answers go.
struct LocalRun {
  std::string batch_path, out_path;
  std::size_t random_queries = 0;
  std::uint64_t seed = 0;
  std::size_t repeat = 1;
};

/// Answers one batch of workload W — read from --batch-file or drawn
/// uniformly — `repeat` times, reports throughput, and writes --out.
template <class W>
int answer_local(service::QueryService& svc,
                 const std::shared_ptr<const service::Snapshot>& oracle,
                 const LocalRun& run) {
  std::vector<typename W::Query> batch;
  if (!run.batch_path.empty()) {
    batch = tools::read_batch_file<W>(run.batch_path);
  } else if (run.random_queries > 0) {
    Rng rng(run.seed);
    batch = service::random_query_batch<W>(oracle->sources(), oracle->num_vertices(),
                                           oracle->num_edges(), run.random_queries, rng);
  }
  if (batch.empty()) return 0;

  std::vector<typename W::Result> answers;
  Timer serve_timer;
  for (std::size_t r = 0; r < run.repeat; ++r) answers = svc.run<W>(*oracle, batch);
  const double secs = serve_timer.seconds();
  const double total = static_cast<double>(batch.size()) * static_cast<double>(run.repeat);
  const std::string kind = *W::kName ? std::string(W::kName) + " " : "";
  std::printf("answered %zu %squeries x%zu in %.1f ms  (%.0f queries/sec)\n", batch.size(),
              kind.c_str(), run.repeat, secs * 1e3, secs > 0 ? total / secs : 0.0);
  if (!run.out_path.empty()) {
    if (!tools::write_answer_file<W>(run.out_path, batch, answers)) return 1;
    std::printf("wrote answers to %s\n", run.out_path.c_str());
  }
  return 0;
}

// --listen shutdown flag; set by the SIGINT/SIGTERM handler (the only
// async-signal-safe thing to do — the actual graceful shutdown runs on the
// main thread's wait loop).
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// Runs the TCP front end until a signal arrives, then drains and reports.
int serve_network(service::QueryService& svc, std::shared_ptr<const service::Snapshot> oracle,
                  const std::string& addr, std::uint16_t port, unsigned loops,
                  bool use_registry, std::size_t max_tenants, std::size_t registry_bytes,
                  std::uint64_t idle_timeout_ms, std::uint64_t stall_timeout_ms,
                  std::uint64_t failed_ttl_ms, std::uint64_t build_timeout_ms,
                  const std::string& metrics_addr, std::uint32_t trace_sample_n) {
  // Declared before the server so it outlives it: in-flight registrations
  // drain in ~Server, then the registry tears down.
  std::unique_ptr<registry::OracleRegistry> reg;
  if (use_registry) {
    registry::RegistryOptions ropts;
    ropts.max_tenants = max_tenants;
    ropts.max_bytes = registry_bytes;
    ropts.failed_ttl = std::chrono::milliseconds(failed_ttl_ms);
    ropts.build_timeout = std::chrono::milliseconds(build_timeout_ms);
    reg = std::make_unique<registry::OracleRegistry>(svc, ropts);
  }
  // Observability plumbing. The trace ring and HTTP listener live on this
  // frame: declared before the server (so stage handlers can publish spans
  // for the server's whole lifetime) and torn down after it.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  obs::TraceRing trace_ring(trace_sample_n);
  obs::MetricsRegistry::CollectorHandle reg_collector;
  if (use_registry) {
    registry::OracleRegistry* r = reg.get();
    reg_collector = metrics.register_collector([r](obs::MetricsSnapshot& out) {
      out.gauges.push_back(
          {"registry.tenants_resident", static_cast<std::int64_t>(r->tenant_count())});
      out.gauges.push_back(
          {"registry.resident_bytes", static_cast<std::int64_t>(r->resident_bytes())});
    });
  }
  std::unique_ptr<obs::MetricsHttpServer> http;
  if (!metrics_addr.empty()) {
    const std::size_t colon = metrics_addr.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "error: --metrics-addr wants ip:port, got '%s'\n",
                   metrics_addr.c_str());
      return 2;
    }
    const std::uint64_t mport =
        tools::cli_u64(metrics_addr.substr(colon + 1), "--metrics-addr");
    if (mport > 65535) {
      std::fprintf(stderr, "error: --metrics-addr port %llu out of range (0-65535)\n",
                   static_cast<unsigned long long>(mport));
      return 2;
    }
    obs::MetricsHttpServer::Options mopts;
    mopts.host = metrics_addr.substr(0, colon);
    mopts.port = static_cast<std::uint16_t>(mport);
    http = std::make_unique<obs::MetricsHttpServer>(metrics, &trace_ring, mopts);
  }
  net::ServerOptions sopts;
  sopts.bind_addr = addr;
  sopts.port = port;
  sopts.loops = loops;
  sopts.idle_timeout_ms = idle_timeout_ms;
  sopts.write_stall_timeout_ms = stall_timeout_ms;
  sopts.trace_ring = &trace_ring;
  net::Server server(svc, std::move(oracle), reg.get(), sopts);
  if (loops > 1) std::printf("event loops: %u\n", loops);
  if (use_registry) {
    std::printf("registry enabled: max %zu tenants%s\n", max_tenants,
                registry_bytes ? (", " + std::to_string(registry_bytes) + " bytes").c_str()
                               : "");
  }
  std::printf("listening on %s:%u\n", addr.c_str(), server.port());
  if (http != nullptr) {
    std::printf("metrics on %s:%u\n", http->host().c_str(), http->port());
  }
  std::fflush(stdout);  // startup scripts parse these lines for the ports

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // The loop thread must never terminate the process: an escaping
  // exception (epoll failure under fd pressure, ENOMEM) is recorded and
  // treated like a stop signal instead.
  std::atomic<bool> loop_done{false};
  std::string loop_error;
  std::thread loop([&server, &loop_done, &loop_error] {
    try {
      server.run();
    } catch (const std::exception& ex) {
      loop_error = ex.what();
    }
    loop_done.store(true, std::memory_order_release);
  });
  // Periodic telemetry goes to stderr so stdout stays parseable; the
  // lines come from the registry snapshot — the same state /metrics and
  // the wire STATS opcode serve, one formatting path for all three.
  unsigned ticks = 0;
  constexpr unsigned kStatsEveryTicks = 200;  // 200 x 50 ms = 10 s
  while (g_stop == 0 && !loop_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (++ticks == kStatsEveryTicks) {
      ticks = 0;
      std::fputs(obs::render_stats_lines(metrics.snapshot()).c_str(), stderr);
    }
  }
  std::printf("shutting down (draining in-flight batches)\n");
  server.shutdown();
  loop.join();
  if (!loop_error.empty()) {
    std::fprintf(stderr, "error: server loop failed: %s\n", loop_error.c_str());
    return 1;
  }
  // Final telemetry: everything the old per-subsystem printf blocks
  // reported (and more) now renders from the registry in one place.
  std::fputs(obs::render_stats_lines(metrics.snapshot()).c_str(), stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer closing its socket mid-reply must surface as EPIPE from the
  // write, not kill the process. Applies to every mode (server loops,
  // shard workers) — set before anything can write a socket.
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);
#endif
  // Shard-worker mode first: a shard router execs this binary with only the
  // worker spec, and the worker must never parse (or require) serving flags.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--shard-worker") {
      if (i + 1 >= argc) usage();
      return service::shard_worker_main(argv[i + 1]);
    }
  }

  std::string graph_path, snapshot_path, save_path, batch_path, out_path, workload;
  std::vector<Vertex> sources;
  Config cfg;
  cfg.seed = 42;
  bool demo = false;
  std::size_t random_queries = 0;
  unsigned threads = 0;
  std::size_t repeat = 1;
  bool use_mmap = false;
  bool listen = false;
  unsigned listen_port = 0;
  std::string listen_addr = "127.0.0.1";
  unsigned loops = 1;
  bool use_registry = false;
  std::size_t max_tenants = 16;
  std::size_t registry_bytes = 0;
  std::uint64_t idle_timeout_ms = 0;
  std::uint64_t stall_timeout_ms = 0;
  std::uint64_t failed_ttl_ms = 60000;
  std::uint64_t build_timeout_ms = 0;
  std::string metrics_addr;
  std::uint32_t trace_sample_n = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--build") {
      graph_path = next();
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--load-snapshot") {
      snapshot_path = next();
    } else if (arg == "--sources") {
      sources = tools::cli_u32_list(next(), "--sources");
    } else if (arg == "--seed") {
      cfg.seed = tools::cli_u64(next(), "--seed");
    } else if (arg == "--oversample") {
      cfg.oversample = tools::cli_double(next(), "--oversample");
    } else if (arg == "--exact") {
      cfg.exact = true;
    } else if (arg == "--bk") {
      cfg.landmark_rp = LandmarkRpMethod::kBkAuxGraphs;
    } else if (arg == "--save-snapshot") {
      save_path = next();
    } else if (arg == "--mmap") {
      use_mmap = true;
    } else if (arg == "--batch-file") {
      batch_path = next();
    } else if (arg == "--workload") {
      workload = next();
      if (workload.empty() || !tools::with_workload(workload, [](auto) {})) usage();
    } else if (arg == "--random-queries") {
      random_queries = tools::cli_u64(next(), "--random-queries");
    } else if (arg == "--threads") {
      threads = tools::cli_u32(next(), "--threads");
    } else if (arg == "--listen") {
      listen = true;
      const std::uint64_t port = tools::cli_u64(next(), "--listen");
      listen_port = static_cast<unsigned>(port);
      if (port > 65535) {
        std::fprintf(stderr, "error: --listen port %llu out of range (0-65535)\n",
                     static_cast<unsigned long long>(port));
        return 2;
      }
    } else if (arg == "--listen-addr") {
      listen_addr = next();
    } else if (arg == "--loops") {
      loops = tools::cli_u32(next(), "--loops");
      if (loops == 0) loops = 1;
    } else if (arg == "--registry") {
      use_registry = true;
    } else if (arg == "--max-tenants") {
      max_tenants = tools::cli_u64(next(), "--max-tenants");
      if (max_tenants == 0) {
        std::fprintf(stderr, "error: --max-tenants must be >= 1\n");
        return 2;
      }
    } else if (arg == "--registry-bytes") {
      registry_bytes = tools::cli_u64(next(), "--registry-bytes");
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = tools::cli_u64(next(), "--idle-timeout-ms");
    } else if (arg == "--stall-timeout-ms") {
      stall_timeout_ms = tools::cli_u64(next(), "--stall-timeout-ms");
    } else if (arg == "--failed-ttl-ms") {
      failed_ttl_ms = tools::cli_u64(next(), "--failed-ttl-ms");
    } else if (arg == "--build-timeout-ms") {
      build_timeout_ms = tools::cli_u64(next(), "--build-timeout-ms");
    } else if (arg == "--metrics-addr") {
      metrics_addr = next();
    } else if (arg == "--trace-sample-n") {
      trace_sample_n = tools::cli_u32(next(), "--trace-sample-n");
    } else if (arg == "--repeat") {
      repeat = tools::cli_u64(next(), "--repeat");
      if (repeat == 0) repeat = 1;
    } else if (arg == "--out") {
      out_path = next();
    } else {
      usage();
    }
  }

  const int modes = int(!graph_path.empty()) + int(demo) + int(!snapshot_path.empty());
  // A registry listener may start empty (clients register graphs over the
  // wire); every other shape needs exactly one oracle mode.
  if (modes != 1 && !(modes == 0 && use_registry && listen)) usage();
  if ((!metrics_addr.empty() || trace_sample_n != 0) && !listen) {
    std::fprintf(stderr, "error: --metrics-addr/--trace-sample-n need --listen\n");
    return 2;
  }

  try {
    service::QueryService svc({.threads = threads});
    std::shared_ptr<const service::Snapshot> oracle;

    Timer build_timer;
    if (modes == 0) {
      // Registry-only listener: no local oracle; clients register graphs
      // over the wire and target them by digest.
    } else if (!snapshot_path.empty()) {
      // --mmap is the zero-copy serving path: the v2 cells payload stays on
      // disk and pages in on demand, so skip its checksum at load time.
      oracle = svc.load(snapshot_path,
                        {.use_mmap = use_mmap, .verify_cells = !use_mmap});
      std::printf("loaded snapshot %s in %.3f ms (%zu bytes%s)\n", snapshot_path.c_str(),
                  build_timer.millis(), oracle->encoded_size(),
                  oracle->is_mapped() ? ", mmap" : "");
    } else {
      Graph g(0);
      if (demo) {
        Rng rng(cfg.seed);
        g = gen::connected_avg_degree(200, 6.0, rng);
        if (sources.empty()) sources = {0, 50, 100};
        std::printf("# demo instance: n=%u m=%u\n", g.num_vertices(), g.num_edges());
      } else {
        g = io::load_edge_list(graph_path);
        if (sources.empty()) usage();
      }
      oracle = svc.build(g, sources, cfg);
      std::printf("built oracle in %.1f ms\n", build_timer.millis());
    }
    if (oracle != nullptr) {
      std::printf("oracle: n=%u m=%u sigma=%u threads=%u\n", oracle->num_vertices(),
                  oracle->num_edges(), oracle->num_sources(), svc.num_threads());
    }

    if (!save_path.empty() && oracle != nullptr) {
      Timer t;
      oracle->save(save_path);
      std::printf("saved v2 snapshot to %s in %.1f ms (%zu bytes)\n", save_path.c_str(),
                  t.millis(), oracle->encoded_size());
    }

    if (listen) {
      // TCP front end over whatever oracle mode was selected above
      // (in-process build or snapshot, mmap or buffered, alike).
      return serve_network(svc, oracle, listen_addr,
                           static_cast<std::uint16_t>(listen_port), loops, use_registry,
                           max_tenants, registry_bytes, idle_timeout_ms, stall_timeout_ms,
                           failed_ttl_ms, build_timeout_ms, metrics_addr, trace_sample_n);
    }

    const LocalRun run{batch_path, out_path, random_queries, cfg.seed, repeat};
    int rc = 0;
    tools::with_workload(workload, [&](auto tag) {
      rc = answer_local<typename decltype(tag)::type>(svc, oracle, run);
    });
    return rc;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
