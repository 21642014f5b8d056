#include "net/protocol.hpp"

#include "util/fnv.hpp"

namespace msrp::net {

using detail::get_u32;
using detail::get_u64;
using detail::Reader;

namespace detail {

// The payload is written straight into `out` after a 24-byte gap, and the
// header (whose checksum needs the final payload) then fills the gap — no
// temporary buffer and one allocation per frame.
std::size_t begin_frame(std::vector<std::uint8_t>& out, std::size_t payload_bytes) {
  const std::size_t header_at = out.size();
  out.resize(out.size() + kFrameHeaderBytes + payload_bytes);
  return header_at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t header_at, FrameType type) {
  Writer h{out.data() + header_at};
  const std::uint8_t* payload = h.p + kFrameHeaderBytes;
  const std::size_t payload_len = out.size() - header_at - kFrameHeaderBytes;
  h.u32(kFrameMagic);
  h.u32(static_cast<std::uint32_t>(payload_len));
  h.u32(static_cast<std::uint32_t>(type));
  h.u32(0);  // reserved
  h.u64(fnv::mix_words(fnv::kOffset, payload, payload_len));
}

BatchEnvelope read_batch_envelope(Reader& r, const char* frame_name) {
  BatchEnvelope env;
  env.request_id = r.u64();
  env.count = r.u32();
  const std::uint32_t flags = r.u32();
  if ((flags & ~(kQueryBatchHasDigest | kQueryBatchHasDeadline)) != 0) {
    throw ProtocolError(std::string("unknown ") + frame_name + " flags");
  }
  if (flags & kQueryBatchHasDigest) env.digest = r.u64();
  if (flags & kQueryBatchHasDeadline) env.deadline_ms = r.u32();
  return env;
}

}  // namespace detail

using detail::append_frame;

void append_hello(std::vector<std::uint8_t>& out, const HelloInfo& hello) {
  append_frame(out, FrameType::kHello, [&](auto& w) {
    w.u32(hello.version);
    w.u32(hello.flags);  // reserved (always 0) before v2
    w.u64(hello.oracle_digest);
    w.u32(hello.num_vertices);
    w.u32(hello.num_edges);
    w.u32(static_cast<std::uint32_t>(hello.sources.size()));
    w.u32(0);  // reserved
    for (const Vertex s : hello.sources) w.u32(s);
  });
}

void append_error(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::string_view message) {
  append_frame(out, FrameType::kError, [&](auto& w) {
    w.u64(request_id);
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.u32(0);  // reserved
    w.raw(message);
  });
}

void append_busy(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                 std::string_view message) {
  append_frame(out, FrameType::kBusy, [&](auto& w) {
    w.u64(request_id);
    w.u32(static_cast<std::uint32_t>(message.size()));
    w.u32(0);  // reserved
    w.raw(message);
  });
}

void append_register_graph(std::vector<std::uint8_t>& out, const RegisterGraphFrame& reg) {
  append_frame(out, FrameType::kRegisterGraph, [&](auto& w) {
    w.u64(reg.request_id);
    w.u32(static_cast<std::uint32_t>(reg.mode));
    w.u32(0);  // reserved
    if (reg.mode == RegisterMode::kEdgeList) {
      w.u64(reg.seed);
      w.u32(reg.num_vertices);
      w.u32(static_cast<std::uint32_t>(reg.edges.size()));
      w.u32(static_cast<std::uint32_t>(reg.sources.size()));
      w.u32(0);  // reserved
      for (const Vertex s : reg.sources) w.u32(s);
      for (const auto& [u, v] : reg.edges) {
        w.u32(u);
        w.u32(v);
      }
    } else {
      w.u32(static_cast<std::uint32_t>(reg.snapshot_path.size()));
      w.u32(0);  // reserved
      w.raw(reg.snapshot_path);
    }
  });
}

void append_register_ack(std::vector<std::uint8_t>& out, const RegisterAckFrame& ack) {
  append_frame(out, FrameType::kRegisterAck, [&](auto& w) {
    w.u64(ack.request_id);
    w.u64(ack.digest);
    w.u32(static_cast<std::uint32_t>(ack.state));
    w.u32(0);  // reserved
    w.u32(ack.num_vertices);
    w.u32(ack.num_edges);
    w.u32(static_cast<std::uint32_t>(ack.sources.size()));
    w.u32(0);  // reserved
    for (const Vertex s : ack.sources) w.u32(s);
  });
}

void append_list_oracles(std::vector<std::uint8_t>& out, std::uint64_t request_id) {
  append_frame(out, FrameType::kListOracles, [&](auto& w) { w.u64(request_id); });
}

void append_oracle_list(std::vector<std::uint8_t>& out, const OracleListFrame& list) {
  append_frame(out, FrameType::kOracleList, [&](auto& w) {
    w.u64(list.request_id);
    w.u32(static_cast<std::uint32_t>(list.oracles.size()));
    w.u32(0);  // reserved
    for (const OracleListEntry& e : list.oracles) {
      w.u64(e.digest);
      w.u32(static_cast<std::uint32_t>(e.state));
      w.u32(e.num_vertices);
      w.u32(e.num_edges);
      w.u32(static_cast<std::uint32_t>(e.sources.size()));
      w.u32(e.inflight_batches);
      // Previously reserved-zero: length of the failure-reason string that
      // follows the source list. FAILED entries are the only producers, so
      // pre-deadline streams are byte-identical.
      w.u32(static_cast<std::uint32_t>(e.error.size()));
      w.u64(e.queries_answered);
      w.u64(e.footprint_bytes);
      for (const Vertex s : e.sources) w.u32(s);
      w.raw(e.error);
    }
  });
}

void append_unregister(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                       std::uint64_t digest) {
  append_frame(out, FrameType::kUnregister, [&](auto& w) {
    w.u64(request_id);
    w.u64(digest);
  });
}

HelloInfo decode_hello(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  HelloInfo hello;
  hello.version = r.u32();
  hello.flags = r.u32();
  hello.oracle_digest = r.u64();
  hello.num_vertices = r.u32();
  hello.num_edges = r.u32();
  const std::uint32_t sigma = r.u32();
  r.u32();  // reserved
  r.expect_records(sigma, 4);
  hello.sources.reserve(sigma);
  for (std::uint32_t i = 0; i < sigma; ++i) hello.sources.push_back(r.u32());
  r.expect_end();
  return hello;
}

ErrorFrame decode_error(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorFrame err;
  err.request_id = r.u64();
  const std::uint32_t len = r.u32();
  r.u32();  // reserved
  const std::uint8_t* bytes = r.take(len);
  err.message.assign(reinterpret_cast<const char*>(bytes), len);
  r.expect_end();
  return err;
}

namespace {

/// A state u32 from the wire; out-of-range values decode as kUnknown
/// rather than faulting — the set may grow in later protocol revisions.
registry::OracleState decode_state(std::uint32_t raw) {
  return raw <= static_cast<std::uint32_t>(registry::OracleState::kUnregistered)
             ? static_cast<registry::OracleState>(raw)
             : registry::OracleState::kUnknown;
}

}  // namespace

RegisterGraphFrame decode_register_graph(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RegisterGraphFrame reg;
  reg.request_id = r.u64();
  const std::uint32_t mode = r.u32();
  r.u32();  // reserved
  if (mode == static_cast<std::uint32_t>(RegisterMode::kEdgeList)) {
    reg.mode = RegisterMode::kEdgeList;
    reg.seed = r.u64();
    reg.num_vertices = r.u32();
    const std::uint32_t m = r.u32();
    const std::uint32_t sigma = r.u32();
    r.u32();  // reserved
    // Both counts guard their allocations: sources first (they precede the
    // edges in the payload), then edges against what remains.
    r.expect_records(std::uint64_t{sigma} + 2 * std::uint64_t{m}, 4);
    reg.sources.reserve(sigma);
    for (std::uint32_t i = 0; i < sigma; ++i) reg.sources.push_back(r.u32());
    reg.edges.reserve(m);
    for (std::uint32_t i = 0; i < m; ++i) {
      const Vertex u = r.u32();
      const Vertex v = r.u32();
      reg.edges.emplace_back(u, v);
    }
  } else if (mode == static_cast<std::uint32_t>(RegisterMode::kSnapshotPath)) {
    reg.mode = RegisterMode::kSnapshotPath;
    const std::uint32_t len = r.u32();
    r.u32();  // reserved
    const std::uint8_t* bytes = r.take(len);
    reg.snapshot_path.assign(reinterpret_cast<const char*>(bytes), len);
  } else {
    throw ProtocolError("unknown REGISTER_GRAPH mode " + std::to_string(mode));
  }
  r.expect_end();
  return reg;
}

RegisterAckFrame decode_register_ack(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RegisterAckFrame ack;
  ack.request_id = r.u64();
  ack.digest = r.u64();
  ack.state = decode_state(r.u32());
  r.u32();  // reserved
  ack.num_vertices = r.u32();
  ack.num_edges = r.u32();
  const std::uint32_t sigma = r.u32();
  r.u32();  // reserved
  r.expect_records(sigma, 4);
  ack.sources.reserve(sigma);
  for (std::uint32_t i = 0; i < sigma; ++i) ack.sources.push_back(r.u32());
  r.expect_end();
  return ack;
}

std::uint64_t decode_list_oracles(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint64_t request_id = r.u64();
  r.expect_end();
  return request_id;
}

OracleListFrame decode_oracle_list(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  OracleListFrame list;
  list.request_id = r.u64();
  const std::uint32_t count = r.u32();
  r.u32();  // reserved
  r.expect_records(count, 48);  // fixed bytes per entry, sources excluded
  list.oracles.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    OracleListEntry e;
    e.digest = r.u64();
    e.state = decode_state(r.u32());
    e.num_vertices = r.u32();
    e.num_edges = r.u32();
    const std::uint32_t sigma = r.u32();
    e.inflight_batches = r.u32();
    const std::uint32_t error_len = r.u32();  // reserved-zero before deadlines
    e.queries_answered = r.u64();
    e.footprint_bytes = r.u64();
    r.expect_records(sigma, 4);
    e.sources.reserve(sigma);
    for (std::uint32_t j = 0; j < sigma; ++j) e.sources.push_back(r.u32());
    const std::uint8_t* err = r.take(error_len);
    e.error.assign(reinterpret_cast<const char*>(err), error_len);
    list.oracles.push_back(std::move(e));
  }
  r.expect_end();
  return list;
}

UnregisterFrame decode_unregister(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  UnregisterFrame un;
  un.request_id = r.u64();
  un.digest = r.u64();
  r.expect_end();
  return un;
}

void append_stats_request(std::vector<std::uint8_t>& out, std::uint64_t request_id) {
  append_frame(out, FrameType::kStatsRequest, [&](auto& w) { w.u64(request_id); });
}

namespace {

template <class Out>
void put_name(Out& w, const std::string& name) {
  w.u32(static_cast<std::uint32_t>(name.size()));
  w.raw(name);
}

std::string read_name(Reader& r) {
  const std::uint32_t len = r.u32();
  const std::uint8_t* bytes = r.take(len);
  return std::string(reinterpret_cast<const char*>(bytes), len);
}

}  // namespace

void append_stats_snapshot(std::vector<std::uint8_t>& out, const StatsSnapshotFrame& stats) {
  append_frame(out, FrameType::kStatsSnapshot, [&](auto& w) {
    w.u64(stats.request_id);
    w.u32(static_cast<std::uint32_t>(stats.counters.size()));
    w.u32(static_cast<std::uint32_t>(stats.gauges.size()));
    w.u32(static_cast<std::uint32_t>(stats.histograms.size()));
    w.u32(0);  // reserved
    for (const StatsCounter& c : stats.counters) {
      put_name(w, c.name);
      w.u64(c.value);
    }
    for (const StatsGauge& g : stats.gauges) {
      put_name(w, g.name);
      w.u64(static_cast<std::uint64_t>(g.value));
    }
    for (const StatsHistogram& h : stats.histograms) {
      put_name(w, h.name);
      put_name(w, h.label);
      w.u64(h.count);
      w.u64(h.sum_ns);
      w.u32(static_cast<std::uint32_t>(h.buckets.size()));
      w.u32(0);  // reserved
      for (const auto& [idx, cnt] : h.buckets) {
        w.u32(idx);
        w.u64(cnt);
      }
    }
  });
}

std::uint64_t decode_stats_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint64_t request_id = r.u64();
  r.expect_end();
  return request_id;
}

StatsSnapshotFrame decode_stats_snapshot(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  StatsSnapshotFrame stats;
  stats.request_id = r.u64();
  const std::uint32_t n_counters = r.u32();
  const std::uint32_t n_gauges = r.u32();
  const std::uint32_t n_hists = r.u32();
  r.u32();  // reserved
  // Minimum record sizes guard the reserves (names add to the minimum).
  r.expect_records(std::uint64_t{n_counters} + n_gauges, 12);
  stats.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    StatsCounter c;
    c.name = read_name(r);
    c.value = r.u64();
    stats.counters.push_back(std::move(c));
  }
  stats.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    StatsGauge g;
    g.name = read_name(r);
    g.value = static_cast<std::int64_t>(r.u64());
    stats.gauges.push_back(std::move(g));
  }
  r.expect_records(n_hists, 32);
  stats.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    StatsHistogram h;
    h.name = read_name(r);
    h.label = read_name(r);
    h.count = r.u64();
    h.sum_ns = r.u64();
    const std::uint32_t pairs = r.u32();
    r.u32();  // reserved
    r.expect_records(pairs, 12);
    h.buckets.reserve(pairs);
    for (std::uint32_t j = 0; j < pairs; ++j) {
      const std::uint32_t idx = r.u32();
      const std::uint64_t cnt = r.u64();
      if (!h.buckets.empty() && idx <= h.buckets.back().first) {
        throw ProtocolError("STATS_SNAPSHOT bucket indices not ascending");
      }
      h.buckets.emplace_back(idx, cnt);
    }
    stats.histograms.push_back(std::move(h));
  }
  r.expect_end();
  return stats;
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact before growing: once the consumed prefix dominates the buffer
  // (and is past trivial size), shift the tail down so a long-lived
  // connection's buffer stays proportional to its unread bytes.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (buffered_bytes() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  if (get_u32(h) != kFrameMagic) throw ProtocolError("bad frame magic");
  const std::uint32_t payload_len = get_u32(h + 4);
  if (payload_len > max_frame_bytes_) {
    throw ProtocolError("frame exceeds maximum size (" + std::to_string(payload_len) +
                        " > " + std::to_string(max_frame_bytes_) + " bytes)");
  }
  if (buffered_bytes() < kFrameHeaderBytes + payload_len) return std::nullopt;

  const std::uint32_t type = get_u32(h + 8);
  const std::uint64_t checksum = get_u64(h + 16);
  const std::uint8_t* payload = h + kFrameHeaderBytes;
  if (fnv::mix_words(fnv::kOffset, payload, payload_len) != checksum) {
    throw ProtocolError("frame checksum mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(payload, payload + payload_len);
  pos_ += kFrameHeaderBytes + payload_len;
  return frame;
}

}  // namespace msrp::net
