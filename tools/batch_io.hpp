// Batch-file I/O shared by the serving tools.
//
// msrp_serve (local batches) and msrp_client (remote batches) read the
// same query files and write the same answer lines for every workload —
// and CI byte-compares one tool's output against the other's, so each
// format is one piece of code (the workload trait's parse/print), read and
// written here once.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "service/workloads.hpp"

namespace msrp::tools {

/// Strict numeric flag parsing for the CLIs: the whole token must be a
/// number, and a junk value is a one-line usage error (exit 2), never an
/// uncaught std::stoul exception aborting the process.
inline std::uint64_t cli_u64(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (...) {
  }
  std::fprintf(stderr, "error: %s: invalid number \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

/// Hex flavour for oracle digests: accepts "9f3a..." or "0x9f3a..." (the
/// tools print digests as %016llx). Same strict-parse exit(2) contract.
inline std::uint64_t cli_hex_u64(const std::string& value, const char* flag) {
  std::string v = value;
  if (v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) v = v.substr(2);
  if (!v.empty() && v.size() <= 16) {
    try {
      std::size_t pos = 0;
      const std::uint64_t parsed = std::stoull(v, &pos, 16);
      if (pos == v.size()) return parsed;
    } catch (...) {
    }
  }
  std::fprintf(stderr, "error: %s: invalid hex digest \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

inline double cli_double(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (...) {
  }
  std::fprintf(stderr, "error: %s: invalid number \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

namespace detail {

/// One batch-file field: a decimal number with no sign that fits in 32
/// bits. Everything else (negative, oversized, junk) is rejected.
inline bool parse_field(const std::string& token, std::uint32_t& out) {
  if (token.empty() || token.size() > 10) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace detail

/// Calls f(std::type_identity<W>{}) for the workload W whose --workload
/// name is `name` ("" = Point, the default). False when no workload has
/// that name.
template <class F>
bool with_workload(const std::string& name, F&& f) {
  bool found = false;
  service::for_each_workload([&](auto tag) {
    if (!found && name == decltype(tag)::type::kName) {
      found = true;
      f(tag);
    }
  });
  return found;
}

/// Parses a batch file of workload W: one query per line in W's line
/// format ('#' at the start of a line is a comment). Every field must be a
/// 32-bit unsigned number and the line must hold exactly W's fields; any
/// other line prints a file:line diagnostic and exits 1 (CLI contract).
template <class W = service::Point>
std::vector<typename W::Query> read_batch_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot open batch file %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<typename W::Query> out;
  std::vector<std::uint32_t> fields;
  std::string line, token;
  std::size_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    fields.clear();
    bool ok = true;
    while (ok && ls >> token) {
      fields.push_back(0);
      ok = detail::parse_field(token, fields.back());
    }
    typename W::Query q;
    if (!ok || !W::parse(fields, q)) {
      std::fprintf(stderr, "error: %s:%zu: expected \"%s\"\n",
                   path.c_str(), lineno, W::kLineFormat);
      std::exit(1);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Writes one answer line per query in W's output format ("inf" for an
/// unreachable distance). Returns false (after printing the error) when
/// the file cannot be opened; answers must be batch-sized.
template <class W = service::Point>
bool write_answer_file(const std::string& path, std::span<const typename W::Query> batch,
                       std::span<const typename W::Result> answers) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) W::print(f, batch[i], answers[i]);
  return true;
}

}  // namespace msrp::tools
