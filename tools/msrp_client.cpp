// msrp_client — remote query client and load generator for msrp_serve
// --listen.
//
// Two modes share the connection machinery (src/net/client.hpp):
//
//   Batch mode: send one batch file, write the answers, exit. The output
//   lines are byte-identical to msrp_serve --out for the same batch, which
//   is what the CI network smoke job compares.
//
//     msrp_client --connect 127.0.0.1:7171 --batch-file q.txt --out a.txt
//
//   Load mode: open --connections connections (one thread each), keep
//   --inflight pipelined batches of --batch-size random queries per
//   connection for --duration seconds, then report throughput and
//   per-batch latency percentiles. Random queries are generated from the
//   server's HELLO (source list, n, m) — no local oracle needed.
//
//     msrp_client --connect 127.0.0.1:7171 --connections 4
//         --batch-size 512 --inflight 8 --duration 10
//
// Multi-tenant servers (msrp_serve --registry, protocol v2) add a third
// axis: --register uploads a graph and targets it, --digest targets an
// oracle registered earlier (by this client or anyone else), and --list
// prints what the server is holding. Both modes then run against the
// chosen oracle instead of the HELLO default.
//
//     msrp_client --connect 127.0.0.1:7171 --register g.txt --sources 0,5,9
//         --batch-file q.txt --out a.txt
//     msrp_client --connect 127.0.0.1:7171 --digest 9f3ac2... --duration 10
//
// Protocol v3 servers additionally serve the typed workloads: --workload
// switches batch mode to one of the v3 opcodes, reading the workload's own
// batch-file format and writing lines byte-identical to msrp_serve
// --workload for the same file (the CI smoke job compares exactly that).
//
//     msrp_client --connect 127.0.0.1:7171 --workload vitality
//         --batch-file v.txt --out a.txt
//
// Options:
//   --connect host:port    server address (required)
//   --batch-file <path>    queries, one "s t e" per line ('#' comments)
//   --workload <kind>      batch mode only — send the file as a typed v3
//                          batch: "vitality" ("s t k" lines), "vickrey"
//                          ("s t"), or "kfail" ("s t [e...]", at most 2
//                          failed edges per query)
//   --out <path>           write "s t e answer" lines (batch mode)
//   --connections N        load-mode connections/threads (default 1)
//   --batch-size B         queries per generated batch (default 512)
//   --inflight K           pipelined batches per connection (default 4)
//   --duration S           load-mode seconds (default 5)
//   --seed N               RNG seed for generated queries (default 1)
//   --retries N            extra connect attempts, 200 ms apart (default 25)
//   --deadline-ms N        end-to-end budget per batch, carried on the wire;
//                          batch mode retries on backoff inside the budget,
//                          load mode counts DEADLINE_EXCEEDED batches
//   --max-attempts N       batch-mode retry attempts within the deadline
//                          (default 3; needs --deadline-ms)
//   --register <path>      register this edge-list graph first and target
//                          its oracle (requires --sources; needs a
//                          --registry server)
//   --sources a,b,c        source vertices for --register
//   --build-seed N         solver seed for --register (default: library)
//   --digest HEX           target a registered oracle (16 hex digits, as
//                          printed by the tools); unknown digests are a
//                          usage error listing what the server has
//   --list                 print the server's resident oracles and exit
//   --unregister HEX       retire a registered oracle and exit
//   --stats                print the server's metrics registry (protocol
//                          v4 STATS_REQUEST) and exit: one line per
//                          counter/gauge, histogram lines with derived
//                          percentiles
#include <algorithm>
#include <chrono>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch_io.hpp"
#include "graph/io.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "registry/oracle_state.hpp"
#include "service/query_gen.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace msrp;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: msrp_client --connect host:port --batch-file <path> [--out <path>]\n"
               "                   [--workload vitality|vickrey|kfail]\n"
               "       msrp_client --connect host:port [--connections N] [--batch-size B]\n"
               "                   [--inflight K] [--duration S] [--seed N] [--retries N]\n"
               "                   [--deadline-ms N] [--max-attempts N]\n"
               "       msrp_client --connect host:port --register <graph> --sources a,b,c\n"
               "                   [--build-seed N] [...batch or load options]\n"
               "       msrp_client --connect host:port --digest HEX [...batch or load options]\n"
               "       msrp_client --connect host:port --list\n"
               "       msrp_client --connect host:port --unregister HEX\n"
               "       msrp_client --connect host:port --stats\n");
  std::exit(2);
}

/// Identity of the oracle batches will run against — what random query
/// generation needs. Defaults to the HELLO oracle; --register / --digest
/// swap in the targeted one.
struct Target {
  std::optional<std::uint64_t> digest;  // passed on every QUERY_BATCH
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;
};

std::vector<service::Query> random_batch(const Target& target, std::size_t count, Rng& rng) {
  return service::random_query_batch(target.sources, target.num_vertices, target.num_edges,
                                     count, rng);
}

/// Batch mode: ships one batch file of workload W (retrying inside the
/// deadline when one is set) and writes the answers with the same lines
/// msrp_serve writes for that workload.
template <class W>
int send_batch_file(net::Client& client, const Target& target, const std::string& batch_path,
                    const std::string& out_path, std::uint32_t deadline_ms,
                    unsigned max_attempts) {
  const std::vector<typename W::Query> batch = tools::read_batch_file<W>(batch_path);
  Timer t;
  std::vector<typename W::Result> answers;
  if (deadline_ms > 0) {
    net::RetryPolicy policy;
    policy.deadline_ms = deadline_ms;
    policy.max_attempts = max_attempts;
    answers = client.call_retry<W>(batch, policy, target.digest);
  } else {
    answers = client.call<W>(batch, target.digest);
  }
  const std::string kind = *W::kName ? std::string(W::kName) + " " : "";
  std::printf("answered %zu %squeries in %.3f ms over TCP\n", batch.size(), kind.c_str(),
              t.millis());
  if (!out_path.empty()) {
    if (!tools::write_answer_file<W>(out_path, batch, answers)) return 1;
    std::printf("wrote answers to %s\n", out_path.c_str());
  }
  return 0;
}

struct LoadResult {
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t busy = 0;      // batches the server rejected under load
  std::uint64_t expired = 0;   // batches answered DEADLINE_EXCEEDED
  std::vector<double> latencies_ms;  // one entry per completed batch
  std::string error;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  // The client library sends with MSG_NOSIGNAL, but a server vanishing
  // between poll and send must never kill the tool either way.
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);
#endif
  std::string connect, batch_path, out_path, register_path, workload;
  std::vector<Vertex> reg_sources;
  std::optional<std::uint64_t> build_seed;
  bool digest_given = false;
  std::uint64_t digest_value = 0;
  bool list_only = false;
  std::optional<std::uint64_t> unregister_digest;
  bool stats_only = false;
  unsigned connections = 1;
  std::size_t batch_size = 512;
  std::size_t inflight = 4;
  double duration_s = 5.0;
  std::uint64_t seed = 1;
  unsigned retries = 25;
  std::uint32_t deadline_ms = 0;
  unsigned max_attempts = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = next();
    } else if (arg == "--batch-file") {
      batch_path = next();
    } else if (arg == "--workload") {
      workload = next();
      if (workload.empty() || !tools::with_workload(workload, [](auto) {})) usage();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--connections") {
      connections = tools::cli_u32(next(), "--connections");
    } else if (arg == "--batch-size") {
      batch_size = tools::cli_u64(next(), "--batch-size");
    } else if (arg == "--inflight") {
      inflight = tools::cli_u64(next(), "--inflight");
    } else if (arg == "--duration") {
      duration_s = tools::cli_double(next(), "--duration");
    } else if (arg == "--seed") {
      seed = tools::cli_u64(next(), "--seed");
    } else if (arg == "--retries") {
      retries = tools::cli_u32(next(), "--retries");
    } else if (arg == "--deadline-ms") {
      deadline_ms = tools::cli_u32(next(), "--deadline-ms");
    } else if (arg == "--max-attempts") {
      max_attempts = tools::cli_u32(next(), "--max-attempts");
      if (max_attempts == 0) max_attempts = 1;
    } else if (arg == "--register") {
      register_path = next();
    } else if (arg == "--sources") {
      reg_sources = tools::cli_u32_list(next(), "--sources");
    } else if (arg == "--build-seed") {
      build_seed = tools::cli_u64(next(), "--build-seed");
    } else if (arg == "--digest") {
      digest_given = true;
      digest_value = tools::cli_hex_u64(next(), "--digest");
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--unregister") {
      unregister_digest = tools::cli_hex_u64(next(), "--unregister");
    } else if (arg == "--stats") {
      stats_only = true;
    } else {
      usage();
    }
  }
  if (!register_path.empty() && reg_sources.empty()) usage();
  if (!register_path.empty() && digest_given) usage();  // one way to pick a target
  if (!workload.empty() && batch_path.empty()) usage();  // typed batches are batch mode
  const std::size_t colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos) usage();
  if (connections == 0 || batch_size == 0 || inflight == 0) usage();

  const std::uint64_t port = tools::cli_u64(connect.substr(colon + 1), "--connect");
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "error: port %llu out of range (1-65535)\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }
  net::ClientOptions copts;
  copts.host = connect.substr(0, colon);
  copts.port = static_cast<std::uint16_t>(port);
  copts.connect_retries = retries;

  try {
    // Control connection: handshake, optional list/register/digest target
    // resolution. Batch mode reuses it; load mode dials its own.
    net::Client client(copts);
    std::printf("connected to %s (oracle: n=%u m=%u sigma=%zu digest=%016llx%s)\n",
                connect.c_str(), client.hello().num_vertices, client.hello().num_edges,
                client.hello().sources.size(),
                static_cast<unsigned long long>(client.hello().oracle_digest),
                client.registry_enabled() ? ", registry" : "");

    if (stats_only) {
      // One typed STATS round trip, printed in a stable line-per-series
      // shape (scripts/check_metrics_exposition.py cross-checks these
      // counters against the /metrics scrape).
      const net::StatsSnapshotFrame snap = client.stats();
      for (const net::StatsCounter& c : snap.counters) {
        std::printf("counter %s %llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      }
      for (const net::StatsGauge& g : snap.gauges) {
        std::printf("gauge %s %lld\n", g.name.c_str(), static_cast<long long>(g.value));
      }
      for (const net::StatsHistogram& h : snap.histograms) {
        // Re-densify the sparse buckets over the shared geometry so the
        // percentile math is exactly the server's.
        std::array<std::uint64_t, obs::kHistogramBuckets> buckets{};
        for (const auto& [idx, count] : h.buckets) {
          if (idx < obs::kHistogramBuckets) buckets[idx] = count;
        }
        const auto q = [&buckets](double p) {
          return obs::quantile_ns(buckets.data(), buckets.size(), p);
        };
        std::printf("histogram %s[%s] count=%llu sum_ns=%llu p50_ns=%llu p90_ns=%llu "
                    "p99_ns=%llu p999_ns=%llu\n",
                    h.name.c_str(), h.label.c_str(),
                    static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.sum_ns),
                    static_cast<unsigned long long>(q(0.50)),
                    static_cast<unsigned long long>(q(0.90)),
                    static_cast<unsigned long long>(q(0.99)),
                    static_cast<unsigned long long>(q(0.999)));
      }
      return 0;
    }

    if (list_only) {
      const std::vector<net::OracleListEntry> oracles = client.list_oracles();
      std::printf("%zu oracle(s) resident:\n", oracles.size());
      for (const net::OracleListEntry& e : oracles) {
        std::printf("  %016llx  %-12s n=%-8u m=%-8u sigma=%-4zu inflight=%-4u "
                    "answered=%llu bytes=%llu\n",
                    static_cast<unsigned long long>(e.digest),
                    registry::to_string(e.state), e.num_vertices, e.num_edges,
                    e.sources.size(), e.inflight_batches,
                    static_cast<unsigned long long>(e.queries_answered),
                    static_cast<unsigned long long>(e.footprint_bytes));
      }
      return 0;
    }

    if (unregister_digest) {
      const net::RegisterAckFrame ack = client.unregister(*unregister_digest);
      std::printf("unregistered %016llx: %s\n", static_cast<unsigned long long>(ack.digest),
                  registry::to_string(ack.state));
      return 0;
    }

    Target target;
    target.num_vertices = client.hello().num_vertices;
    target.num_edges = client.hello().num_edges;
    target.sources = client.hello().sources;

    if (!register_path.empty()) {
      const Graph g = io::load_edge_list(register_path);
      Timer rt;
      const net::RegisterAckFrame ack =
          client.register_graph(g.num_vertices(), g.edges(), reg_sources, build_seed);
      std::printf("registered %s: digest=%016llx n=%u m=%u sigma=%zu in %.1f ms\n",
                  register_path.c_str(), static_cast<unsigned long long>(ack.digest),
                  ack.num_vertices, ack.num_edges, ack.sources.size(), rt.millis());
      target.digest = ack.digest;
      target.num_vertices = ack.num_vertices;
      target.num_edges = ack.num_edges;
      target.sources = ack.sources;
    } else if (digest_given) {
      // Resolve the digest against what the server actually has — an
      // unknown one is a usage error, with the valid choices spelled out.
      target.digest = digest_value;
      if (client.registry_enabled()) {
        const std::vector<net::OracleListEntry> oracles = client.list_oracles();
        const net::OracleListEntry* found = nullptr;
        for (const net::OracleListEntry& e : oracles) {
          if (e.digest == digest_value) found = &e;
        }
        if (found == nullptr || found->state != registry::OracleState::kReady) {
          std::fprintf(stderr, "error: --digest %016llx: %s on this server\n",
                       static_cast<unsigned long long>(digest_value),
                       found == nullptr ? "no such oracle"
                                        : registry::to_string(found->state));
          std::fprintf(stderr, "available oracles:\n");
          for (const net::OracleListEntry& e : oracles) {
            std::fprintf(stderr, "  %016llx  %s n=%u m=%u\n",
                         static_cast<unsigned long long>(e.digest),
                         registry::to_string(e.state), e.num_vertices, e.num_edges);
          }
          return 2;
        }
        target.num_vertices = found->num_vertices;
        target.num_edges = found->num_edges;
        target.sources = found->sources;
      } else if (digest_value != client.hello().oracle_digest) {
        std::fprintf(stderr,
                     "error: --digest %016llx: server has only %016llx (no registry)\n",
                     static_cast<unsigned long long>(digest_value),
                     static_cast<unsigned long long>(client.hello().oracle_digest));
        return 2;
      }
    }

    if (!batch_path.empty()) {
      // Batch mode: one connection, one batch, answers out. With a
      // deadline the retry loop hides transient BUSY / connection loss /
      // server-side expiry inside the budget; without one the legacy
      // unbounded round trip is kept. A typed workload's send throws up
      // front against a server older than its opcode.
      int rc = 0;
      tools::with_workload(workload, [&](auto tag) {
        using W = typename decltype(tag)::type;
        rc = send_batch_file<W>(client, target, batch_path, out_path, deadline_ms,
                                max_attempts);
      });
      return rc;
    }

    // Load mode: one thread per connection; each keeps `inflight` batches
    // pipelined and stamps per-batch latency send-to-collect.
    std::vector<LoadResult> results(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    Timer wall;
    for (unsigned c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        LoadResult& res = results[c];
        try {
          net::Client worker(copts);
          Rng rng(seed + c);
          const auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::duration<double>(duration_s);
          std::unordered_map<std::uint64_t, std::chrono::steady_clock::time_point> sent_at;
          const std::optional<std::uint32_t> batch_deadline =
              deadline_ms > 0 ? std::optional<std::uint32_t>(deadline_ms) : std::nullopt;
          while (std::chrono::steady_clock::now() < deadline) {
            while (worker.inflight() < inflight) {
              const auto batch = random_batch(target, batch_size, rng);
              sent_at.emplace(worker.send(batch, target.digest, batch_deadline),
                              std::chrono::steady_clock::now());
            }
            try {
              net::BatchAnswer got = worker.wait_any();
              const auto it = sent_at.find(got.request_id);
              if (it != sent_at.end()) {
                res.latencies_ms.push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - it->second)
                        .count());
                sent_at.erase(it);
              }
              ++res.batches;
              res.queries += got.answers.size();
            } catch (const net::BusyError&) {
              // Admission control said no: the batch never ran. Count it
              // and keep the pipeline full — overload is part of what the
              // load generator measures.
              ++res.busy;
            } catch (const net::DeadlineError&) {
              // The server gave up on the batch inside its budget — also a
              // load signal, not a tool failure.
              ++res.expired;
            }
          }
          while (worker.inflight() > 0) {  // drain the pipeline
            try {
              net::BatchAnswer got = worker.wait_any();
              ++res.batches;
              res.queries += got.answers.size();
            } catch (const net::BusyError&) {
              ++res.busy;
            } catch (const net::DeadlineError&) {
              ++res.expired;
            }
          }
        } catch (const std::exception& ex) {
          res.error = ex.what();
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = wall.seconds();

    std::uint64_t batches = 0, queries = 0, busy = 0, expired = 0;
    std::vector<double> lat;
    for (const LoadResult& res : results) {
      if (!res.error.empty()) {
        std::fprintf(stderr, "error: connection failed: %s\n", res.error.c_str());
        return 1;
      }
      batches += res.batches;
      queries += res.queries;
      busy += res.busy;
      expired += res.expired;
      lat.insert(lat.end(), res.latencies_ms.begin(), res.latencies_ms.end());
    }
    std::sort(lat.begin(), lat.end());
    std::printf("connections=%u batch=%zu inflight=%zu duration=%.1fs\n", connections,
                batch_size, inflight, duration_s);
    std::printf("completed %llu batches (%llu queries) in %.2f s: %.0f queries/s, "
                "%llu busy rejections, %llu deadline expirations\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(queries), secs,
                secs > 0 ? static_cast<double>(queries) / secs : 0.0,
                static_cast<unsigned long long>(busy),
                static_cast<unsigned long long>(expired));
    std::printf("batch latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
                percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99),
                lat.empty() ? 0.0 : lat.back());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
