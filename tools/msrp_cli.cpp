// msrp_cli — command-line front end for the library.
//
// Reads an edge list (see graph/io.hpp: "n m" header then "u v" lines, '#'
// comments allowed), solves MSRP for the given sources, and prints either a
// summary, full rows, or specific queries. A solved oracle can be saved as
// a binary snapshot and reloaded later without re-solving.
//
// Usage:
//   msrp_cli <graph-file> --sources 0,5,9 [options]
//   msrp_cli --demo                      (built-in random instance)
//   msrp_cli --load <snapshot>           (answer queries from a snapshot)
//
// Options:
//   --sources a,b,c       source vertices (required unless --demo/--load)
//   --seed N              RNG seed (default 42)
//   --oversample X        sampling multiplier (default 1.0)
//   --exact               deterministic exact mode
//   --bk                  use the Section 8 landmark-table machinery
//   --rows                print every replacement row
//   --query s,t,e         print a single d(s, t, e) (repeatable)
//   --save <path>         write the solved oracle as a binary snapshot
//   --load <path>         load a snapshot instead of solving
//   --stats               print phase timings and structure sizes
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "batch_io.hpp"
#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/snapshot.hpp"

using namespace msrp;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: msrp_cli <graph-file> --sources a,b,c [--seed N] "
               "[--oversample X]\n"
               "                [--exact] [--bk] [--rows] [--query s,t,e]... "
               "[--save <path>] [--stats]\n"
               "       msrp_cli --demo\n"
               "       msrp_cli --load <snapshot> [--rows] [--query s,t,e]...\n");
  std::exit(2);
}

/// Rejects a query with ids outside the instance instead of letting the
/// lookup throw (or, in release builds, index out of bounds).
bool validate_query(const std::vector<std::uint32_t>& q, const std::vector<Vertex>& sources,
                    Vertex n, EdgeId m) {
  bool is_source = false;
  for (const Vertex s : sources) is_source |= (s == q[0]);
  if (!is_source) {
    std::fprintf(stderr, "error: query source %u is not one of the sources\n", q[0]);
    return false;
  }
  if (q[1] >= n) {
    std::fprintf(stderr, "error: query target %u out of range (n=%u)\n", q[1], n);
    return false;
  }
  if (q[2] >= m) {
    std::fprintf(stderr, "error: query edge %u out of range (m=%u)\n", q[2], m);
    return false;
  }
  return true;
}

void print_query(std::uint32_t s, std::uint32_t t, std::uint32_t e, Dist d) {
  if (d == kInfDist) {
    std::printf("d(%u, %u, e%u) = inf\n", s, t, e);
  } else {
    std::printf("d(%u, %u, e%u) = %u\n", s, t, e, d);
  }
}

void print_row(Vertex s, Vertex t, Dist shortest, std::span<const Dist> row) {
  if (row.empty()) return;
  std::printf("%u %u %u :", s, t, shortest);
  for (const Dist d : row) {
    if (d == kInfDist) {
      std::printf(" inf");
    } else {
      std::printf(" %u", d);
    }
  }
  std::printf("\n");
}

/// Prints the --query answers, then with --rows every replacement row: the
/// one read path of both modes. Returns the exit code.
int answer(const service::Snapshot& snap, const std::vector<std::vector<std::uint32_t>>& queries,
           bool print_rows) {
  for (const auto& q : queries) {
    if (!validate_query(q, snap.sources(), snap.num_vertices(), snap.num_edges())) return 1;
    print_query(q[0], q[1], q[2], snap.avoiding(q[0], q[1], q[2]));
  }
  if (print_rows) {
    for (const Vertex s : snap.sources()) {
      for (Vertex t = 0; t < snap.num_vertices(); ++t) {
        print_row(s, t, snap.shortest(s, t), snap.row(s, t));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path, save_path, load_path;
  std::vector<Vertex> sources;
  std::vector<std::vector<std::uint32_t>> queries;
  Config cfg;
  cfg.seed = 42;
  bool print_rows = false, print_stats = false, demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--sources") {
      sources = tools::cli_u32_list(next(), "--sources");
    } else if (arg == "--seed") {
      cfg.seed = tools::cli_u64(next(), "--seed");
    } else if (arg == "--oversample") {
      cfg.oversample = tools::cli_double(next(), "--oversample");
    } else if (arg == "--exact") {
      cfg.exact = true;
    } else if (arg == "--bk") {
      cfg.landmark_rp = LandmarkRpMethod::kBkAuxGraphs;
    } else if (arg == "--rows") {
      print_rows = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--query") {
      const auto q = tools::cli_u32_list(next(), "--query");
      if (q.size() != 3) usage();
      queries.push_back(q);
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--load") {
      load_path = next();
    } else if (arg == "--demo") {
      demo = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      graph_path = arg;
    }
  }

  // ------------------------------------------------- snapshot-serving mode --
  if (!load_path.empty()) {
    if (demo || !graph_path.empty() || !save_path.empty()) usage();
    try {
      const service::Snapshot snap = service::Snapshot::load(load_path);
      std::printf("loaded: n=%u m=%u sigma=%u\n", snap.num_vertices(), snap.num_edges(),
                  snap.num_sources());
      return answer(snap, queries, print_rows);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 1;
    }
  }

  // ------------------------------------------------------------ solve mode --
  Graph g(0);
  if (demo) {
    Rng rng(cfg.seed);
    g = gen::connected_avg_degree(200, 6.0, rng);
    if (sources.empty()) sources = {0, 50, 100};
    std::printf("# demo instance: n=%u m=%u sources=0,50,100\n", g.num_vertices(),
                g.num_edges());
  } else {
    if (graph_path.empty() || sources.empty()) usage();
    try {
      g = io::load_edge_list(graph_path);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error loading %s: %s\n", graph_path.c_str(), ex.what());
      return 1;
    }
  }

  for (const Vertex s : sources) {
    if (s >= g.num_vertices()) {
      std::fprintf(stderr, "error: source %u out of range (n=%u)\n", s, g.num_vertices());
      return 1;
    }
  }
  for (const auto& q : queries) {
    if (!validate_query(q, sources, g.num_vertices(), g.num_edges())) return 1;
  }

  MsrpResult res = [&] {
    try {
      return solve_msrp(g, sources, cfg);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      std::exit(1);
    }
  }();

  std::printf("solved: n=%u m=%u sigma=%zu landmarks=%zu\n", g.num_vertices(),
              g.num_edges(), sources.size(), res.stats().num_landmarks);
  const MsrpStats st = std::move(res.stats());
  const service::Snapshot snap = service::Snapshot::capture(std::move(res));

  if (!save_path.empty()) {
    try {
      snap.save(save_path);
      std::printf("saved snapshot to %s (%zu bytes)\n", save_path.c_str(),
                  snap.encoded_size());
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error saving snapshot: %s\n", ex.what());
      return 1;
    }
  }

  if (const int rc = answer(snap, queries, print_rows); rc != 0) return rc;

  if (print_stats) {
    std::printf("landmarks=%zu centers=%zu trees=%zu near_small_arcs=%zu\n",
                st.num_landmarks, st.num_centers, st.num_trees, st.near_small_aux_arcs);
    for (const auto& [phase, secs] : st.phase_seconds) {
      std::printf("phase %-24s %8.3f ms\n", phase.c_str(), secs * 1e3);
    }
  }
  return 0;
}
