/// \file
/// Binary wire protocol for remote replacement-path serving.
///
/// Everything on the socket is a *frame*: a fixed 24-byte header (magic,
/// payload length, type, checksum) followed by the payload. Frames are
/// self-delimiting, so a TCP stream of them can be cut anywhere — the
/// incremental FrameDecoder reassembles frames across arbitrary read
/// boundaries — and every payload travels under a word-wise FNV-1a checksum
/// (fnv::mix_words), so a corrupted or desynchronized stream is detected at
/// the first bad frame instead of being served as garbage answers.
///
/// The conversation (byte-exact layouts in docs/NETWORK_PROTOCOL.md):
///
///   * on accept the server sends one HELLO frame: protocol version,
///     oracle identity (content digest, n, m) and the source vertex list.
///     A client that sees any other version (or no HELLO as the first
///     frame) must disconnect — version negotiation is "take it or leave
///     it", which keeps old clients from silently mis-decoding new frames;
///   * the client then sends QUERY_BATCH frames, each carrying a caller-
///     chosen request id and a run of (s, t, e) queries. Ids exist for
///     pipelining: a client may have any number of batches in flight, and
///     the server answers each batch as its QueryService completion fires
///     — NOT necessarily in submission order;
///   * the server replies per batch with ANSWER_BATCH (same request id,
///     one u32 distance per query, kInfDist = unreachable) or ERROR (same
///     request id, human-readable message) when the batch failed
///     validation. An ERROR with request id 0 is connection-level — a
///     protocol violation — and is followed by the server closing.
///
/// Protocol v2 (docs/NETWORK_PROTOCOL.md §v2) adds the multi-tenant
/// registry conversation on top of v1:
///
///   * REGISTER_GRAPH uploads an edge list (or names a server-side
///     snapshot path); the server answers REGISTER_ACK with the oracle's
///     digest and build state, or ERROR with the same request id when the
///     registration was rejected;
///   * LIST_ORACLES / ORACLE_LIST enumerate the registered oracles with
///     state and per-tenant counters; UNREGISTER retires a digest;
///   * QUERY_BATCH grows an optional target digest (flag bit 0): a v2
///     client can aim any batch at any registered oracle. A v1-shaped
///     batch (flags == 0, no digest) still decodes and targets the HELLO
///     default — the frame layouts of v1 are a strict subset of v2;
///   * BUSY (same payload shape as ERROR) rejects a batch that admission
///     control will not queue; the connection stays healthy and the
///     client may retry.
///
/// Protocol v3 (docs/NETWORK_PROTOCOL.md §v3) promotes the dormant
/// workloads to first-class opcodes, one request/reply frame pair each:
///
///   * VITALITY_BATCH / VITALITY_ANSWER — top-k most-vital edges of the
///     canonical s->t path, per query (s, t, k);
///   * VICKREY_BATCH / VICKREY_ANSWER — per-edge Vickrey payments along
///     the canonical s->t path, per query (s, t);
///   * KFAIL_BATCH / KFAIL_ANSWER — d(s, t) avoiding an explicit edge set
///     F with |F| <= kMaxKFailEdges, per query (s, t, F).
///
/// The three request frames share QUERY_BATCH's envelope — request id,
/// count, flag word with the same digest (bit 0) and deadline (bit 1)
/// meanings — so digest targeting, admission control, deadlines, BUSY,
/// and the ERROR path all apply unchanged; only the per-query record
/// differs. The v1/v2 frame layouts are untouched: a v2 client's bytes
/// decode identically against a v3 server, and the workload traits'
/// decoders reject malformed requests (k == 0 or k > kMaxTopKVital,
/// |F| > kMaxKFailEdges, duplicate edges in F) as ProtocolError before any
/// allocation. One envelope codec (append_batch / decode_batch /
/// append_answer / decode_answer over a workload trait) serves all four
/// batch opcodes, QUERY_BATCH included.
///
/// Protocol v4 (docs/NETWORK_PROTOCOL.md §v4) adds the observability
/// conversation:
///
///   * STATS_REQUEST / STATS_SNAPSHOT — a typed dump of the server's
///     metrics registry (src/obs/): named monotonic counters, gauges, and
///     log-linear latency histograms with sparse nonzero buckets, so
///     `msrp_client --stats` sees exactly the series a Prometheus scrape
///     of `--metrics-addr` sees. The frame carries registry names
///     ("server.batches_received"); exposition naming ("msrp_..._total")
///     is a renderer concern, not a wire concern.
///
/// Every v1–v3 frame layout is untouched; v3 clients' bytes decode
/// identically against a v4 server.
///
/// Protocol v5 (docs/NETWORK_PROTOCOL.md §v5) changes only the frame
/// checksum: fnv::mix_words, one FNV-1a step per little-endian 64-bit word
/// plus a fold, in place of the byte-serial FNV-1a that took half the time
/// of encoding a 512-query batch. Every payload layout is untouched, but a
/// v1–v4 peer's checksums no longer verify, so it fails at its first frame
/// (the HELLO, or its first request) — there is one checksum rule and no
/// negotiation.
///
/// All integers are little-endian. A frame's payload is capped
/// (max_frame_bytes, default 64 MiB); an oversized length in the header is
/// a protocol error — the decoder refuses it *before* buffering, so a
/// malicious or corrupt length cannot balloon memory.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame_type.hpp"
#include "registry/oracle_state.hpp"
#include "service/workloads.hpp"
#include "util/distance.hpp"

namespace msrp::net {

/// First bytes of every frame, little-endian "MRPC".
inline constexpr std::uint32_t kFrameMagic = 0x4350524du;
/// Wire protocol version announced in the server HELLO. A client accepts
/// exactly this version: v5's checksum rule breaks every older peer.
inline constexpr std::uint32_t kProtocolVersion = 5;
/// Fixed byte size of the frame header.
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Default payload cap; both sides reject frames claiming more.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// QUERY_BATCH flag bits (v2; a v1 frame always carries flags == 0).
inline constexpr std::uint32_t kQueryBatchHasDigest = 1u << 0;
/// Bit 1: the frame carries a u32 relative deadline in milliseconds (after
/// the optional digest). Absent = wait forever — the pre-deadline shape,
/// byte-identical to what older clients emit. A batch whose deadline passes
/// anywhere in the pipeline is answered with an ERROR frame whose message
/// starts with "DEADLINE_EXCEEDED" (util/deadline.hpp) rather than a new
/// frame type, so deadline-unaware peers still parse the reply.
inline constexpr std::uint32_t kQueryBatchHasDeadline = 1u << 1;

/// HELLO flag bits.
inline constexpr std::uint32_t kHelloRegistryEnabled = 1u << 0;

/// A malformed byte stream (bad magic, oversized length, checksum
/// mismatch, truncated or inconsistent payload). Connection-fatal: the
/// stream cannot be resynchronized past it.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Frame {
  FrameType type{};
  std::vector<std::uint8_t> payload;
};

/// Server identity sent on accept. A registry server with no default
/// oracle announces digest 0, n = m = 0 and an empty source list; clients
/// must then name a digest per batch.
struct HelloInfo {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t flags = 0;          ///< kHelloRegistryEnabled, ...
  std::uint64_t oracle_digest = 0;  ///< Snapshot::content_digest(); 0 = none
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;  ///< valid query sources, in oracle order
};

/// One decoded batch request of workload W (service/workloads.hpp). Every
/// batch opcode shares QUERY_BATCH's envelope — request id, record count,
/// flag word, optional digest, optional deadline — and differs only in the
/// per-query record.
template <class W>
struct BatchFrame {
  std::uint64_t request_id = 0;
  /// v2 target oracle; nullopt = the connection's HELLO default (the v1
  /// layout).
  std::optional<std::uint64_t> digest;
  /// Relative deadline budget in ms; nullopt = no deadline. The receiver
  /// pins it to an absolute instant at decode time.
  std::optional<std::uint32_t> deadline_ms;
  std::vector<typename W::Query> queries;
};

/// One decoded reply to a batch of workload W: one result per query, in
/// query order, under W's own answer frame type so a pipelined client can
/// pair replies to request kinds.
template <class W>
struct AnswerFrame {
  std::uint64_t request_id = 0;
  std::vector<typename W::Result> answers;
};

/// How REGISTER_GRAPH names the graph to build.
enum class RegisterMode : std::uint32_t {
  kEdgeList = 1,      ///< inline upload: n, m, sources, edge endpoints
  kSnapshotPath = 2,  ///< path to a v2 snapshot readable by the server
};

struct RegisterGraphFrame {
  std::uint64_t request_id = 0;
  RegisterMode mode = RegisterMode::kEdgeList;
  // kEdgeList payload:
  std::uint64_t seed = 0;  ///< solver Config::seed for the build
  std::uint32_t num_vertices = 0;
  std::vector<Vertex> sources;
  std::vector<std::pair<Vertex, Vertex>> edges;
  // kSnapshotPath payload:
  std::string snapshot_path;
};

struct RegisterAckFrame {
  std::uint64_t request_id = 0;
  std::uint64_t digest = 0;
  registry::OracleState state = registry::OracleState::kUnknown;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;
};

/// One oracle in an ORACLE_LIST reply.
struct OracleListEntry {
  std::uint64_t digest = 0;
  registry::OracleState state = registry::OracleState::kUnknown;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::uint32_t inflight_batches = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t footprint_bytes = 0;
  std::vector<Vertex> sources;
  /// Failure reason for kFailed entries ("" otherwise); travels after the
  /// source list, length in the entry's previously-reserved u32.
  std::string error;
};

struct OracleListFrame {
  std::uint64_t request_id = 0;
  std::vector<OracleListEntry> oracles;
};

struct UnregisterFrame {
  std::uint64_t request_id = 0;
  std::uint64_t digest = 0;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;  ///< 0 = connection-level, close follows
  std::string message;
};

// ----- v4 observability frames ---------------------------------------------
// STATS_SNAPSHOT is a typed dump of an obs::MetricsSnapshot: counter and
// gauge samples by registry name, histograms by (name, stage label) with
// only the nonzero buckets on the wire (bucket geometry is fixed — see
// obs/metrics.hpp bucket_index/bucket_upper_ns — so indices suffice).

struct StatsCounter {
  std::string name;
  std::uint64_t value = 0;
};

struct StatsGauge {
  std::string name;
  std::int64_t value = 0;
};

struct StatsHistogram {
  std::string name;   ///< registry base name, e.g. "query_latency"
  std::string label;  ///< stage label value; "" = unlabelled
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  /// (bucket index, count) for every nonzero bucket, ascending index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

struct StatsSnapshotFrame {
  std::uint64_t request_id = 0;
  std::vector<StatsCounter> counters;
  std::vector<StatsGauge> gauges;
  std::vector<StatsHistogram> histograms;
};

// ----- encoding ------------------------------------------------------------
// Each encoder appends one complete frame (header + payload) to `out`, so
// several frames can be gathered into one write.

void append_hello(std::vector<std::uint8_t>& out, const HelloInfo& hello);
void append_error(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::string_view message);
void append_register_graph(std::vector<std::uint8_t>& out, const RegisterGraphFrame& reg);
void append_register_ack(std::vector<std::uint8_t>& out, const RegisterAckFrame& ack);
void append_list_oracles(std::vector<std::uint8_t>& out, std::uint64_t request_id);
void append_oracle_list(std::vector<std::uint8_t>& out, const OracleListFrame& list);
void append_unregister(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                       std::uint64_t digest);
/// BUSY shares the ERROR payload shape (request id + message).
void append_busy(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                 std::string_view message);
// v4 observability frames. STATS_REQUEST carries just the request id.
void append_stats_request(std::vector<std::uint8_t>& out, std::uint64_t request_id);
void append_stats_snapshot(std::vector<std::uint8_t>& out, const StatsSnapshotFrame& stats);

// ----- payload decoding ----------------------------------------------------
// Throw ProtocolError when the payload size does not match its own counts.

HelloInfo decode_hello(std::span<const std::uint8_t> payload);
ErrorFrame decode_error(std::span<const std::uint8_t> payload);
RegisterGraphFrame decode_register_graph(std::span<const std::uint8_t> payload);
RegisterAckFrame decode_register_ack(std::span<const std::uint8_t> payload);
/// LIST_ORACLES carries just the request id.
std::uint64_t decode_list_oracles(std::span<const std::uint8_t> payload);
OracleListFrame decode_oracle_list(std::span<const std::uint8_t> payload);
UnregisterFrame decode_unregister(std::span<const std::uint8_t> payload);
/// STATS_REQUEST carries just the request id.
std::uint64_t decode_stats_request(std::span<const std::uint8_t> payload);
StatsSnapshotFrame decode_stats_snapshot(std::span<const std::uint8_t> payload);

// ----- batch and answer codec ----------------------------------------------
// One envelope writer and reader serve every workload; the per-query and
// per-result records come from the workload trait W.

namespace detail {

// Little-endian scalar I/O, independent of host byte order.

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  return std::uint64_t{get_u32(p)} | (std::uint64_t{get_u32(p + 4)} << 32);
}

/// Sizes a payload: the first of an encoder's two passes runs its field
/// writes against this, so the frame is allocated once at its final size.
struct SizeCounter {
  std::size_t bytes = 0;
  void u32(std::uint32_t) { bytes += 4; }
  void u64(std::uint64_t) { bytes += 8; }
  void raw(std::string_view s) { bytes += s.size(); }
};

/// The payload writer every encoder (and a trait's put_query/put_result)
/// sees: stores through a cursor into space SizeCounter already sized.
struct Writer {
  std::uint8_t* p;
  /// One 4-byte store: byte-wise stores interleaved with a record's field
  /// loads do not merge, since the bytes may alias the record.
  void u32(std::uint32_t v) {
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
    std::memcpy(p, &v, 4);
    p += 4;
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void raw(std::string_view s) {
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
};

/// A payload reader that throws ProtocolError instead of reading past the
/// end — every decoder funnels through it, so a lying count field can
/// never cause an out-of-bounds read.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> payload) : p_(payload) {}

  std::uint32_t u32() { return get_u32(take(4)); }
  std::uint64_t u64() { return get_u64(take(8)); }

  const std::uint8_t* take(std::size_t n) {
    if (p_.size() - pos_ < n) throw ProtocolError("frame payload truncated");
    const std::uint8_t* at = p_.data() + pos_;
    pos_ += n;
    return at;
  }

  /// Guards a count field before it sizes any allocation: the payload must
  /// actually hold `count` records of `record_bytes` each. Without this, a
  /// 40-byte frame claiming 2^32 queries would drive a multi-gigabyte
  /// resize() whose bad_alloc is not a ProtocolError.
  void expect_records(std::uint64_t count, std::size_t record_bytes) const {
    if ((p_.size() - pos_) / record_bytes < count) {
      throw ProtocolError("frame payload truncated (count exceeds payload)");
    }
  }

  void expect_end() const {
    if (pos_ != p_.size()) throw ProtocolError("frame payload has trailing bytes");
  }

  /// A well-formed record carrying an invalid request.
  [[noreturn]] void fail(const std::string& message) const { throw ProtocolError(message); }

 private:
  std::span<const std::uint8_t> p_;
  std::size_t pos_ = 0;
};

/// Appends a header gap plus `payload_bytes` of payload space; returns
/// where the header starts.
std::size_t begin_frame(std::vector<std::uint8_t>& out, std::size_t payload_bytes);
/// Writes the header into the gap once the payload after it is final.
void end_frame(std::vector<std::uint8_t>& out, std::size_t header_at, FrameType type);

/// Appends one frame whose payload `put(w)` writes through `w`: a first
/// pass against a SizeCounter sizes it, the second fills it in place.
template <class Put>
void append_frame(std::vector<std::uint8_t>& out, FrameType type, Put&& put) {
  SizeCounter size;
  put(size);
  const std::size_t header_at = begin_frame(out, size.bytes);
  Writer w{out.data() + header_at + kFrameHeaderBytes};
  put(w);
  end_frame(out, header_at, type);
}

/// Request id, record count, flag word, then the optional digest and
/// deadline the flags announce.
template <class Out>
void put_batch_envelope(Out& w, std::uint64_t request_id, std::size_t count,
                        const std::optional<std::uint64_t>& digest,
                        const std::optional<std::uint32_t>& deadline_ms) {
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(count));
  // v1 wrote this word as reserved-zero; v2 uses it as a flag field, so a
  // batch with neither digest nor deadline keeps the v1 layout.
  w.u32((digest ? kQueryBatchHasDigest : 0) | (deadline_ms ? kQueryBatchHasDeadline : 0));
  if (digest) w.u64(*digest);
  if (deadline_ms) w.u32(*deadline_ms);
}

struct BatchEnvelope {
  std::uint64_t request_id = 0;
  std::uint32_t count = 0;
  std::optional<std::uint64_t> digest;
  std::optional<std::uint32_t> deadline_ms;
};

/// `frame_name` names the frame in the unknown-flags diagnostic.
BatchEnvelope read_batch_envelope(Reader& r, const char* frame_name);

}  // namespace detail

/// Appends one batch request of workload W. `digest` targets a specific
/// registered oracle; nullopt emits the v1-layout shape (flags == 0,
/// no digest field). `deadline_ms` adds a relative deadline (flag bit 1);
/// nullopt keeps the legacy layout.
template <class W = service::Point>
void append_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::span<const typename W::Query> queries,
                  std::optional<std::uint64_t> digest = std::nullopt,
                  std::optional<std::uint32_t> deadline_ms = std::nullopt) {
  detail::append_frame(out, W::kBatchFrame, [&](auto& w) {
    detail::put_batch_envelope(w, request_id, queries.size(), digest, deadline_ms);
    for (const typename W::Query& q : queries) W::put_query(w, q);
  });
}

/// Appends the reply to one batch of workload W: request id, count, a
/// reserved word, then one result record per query.
template <class W = service::Point>
void append_answer(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                   std::span<const typename W::Result> answers) {
  detail::append_frame(out, W::kAnswerFrame, [&](auto& w) {
    w.u64(request_id);
    w.u32(static_cast<std::uint32_t>(answers.size()));
    w.u32(0);  // reserved
    for (const typename W::Result& r : answers) W::put_result(w, r);
  });
}

/// Decodes a batch request of workload W. Beyond size consistency this
/// applies the trait's request validation (k == 0 or k > kMaxTopKVital, a
/// failure set larger than kMaxKFailEdges, duplicate failed edges), all
/// ProtocolError — rejected before any allocation they would size.
template <class W = service::Point>
BatchFrame<W> decode_batch(std::span<const std::uint8_t> payload) {
  detail::Reader r(payload);
  const detail::BatchEnvelope env = detail::read_batch_envelope(r, W::kFrameName);
  BatchFrame<W> frame{env.request_id, env.digest, env.deadline_ms, {}};
  r.expect_records(env.count, W::kQueryBytes);
  frame.queries.resize(env.count);
  for (typename W::Query& q : frame.queries) q = W::get_query(r);
  r.expect_end();
  return frame;
}

template <class W = service::Point>
AnswerFrame<W> decode_answer(std::span<const std::uint8_t> payload) {
  detail::Reader r(payload);
  AnswerFrame<W> frame;
  frame.request_id = r.u64();
  const std::uint32_t count = r.u32();
  r.u32();  // reserved
  r.expect_records(count, W::kResultBytes);
  frame.answers.resize(count);
  for (typename W::Result& a : frame.answers) a = W::get_result(r);
  r.expect_end();
  return frame;
}

// perfbench/ (which builds against this tree but is versioned with the
// benchmark) still calls the point-query encoders by their old names.
inline void append_query_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                               std::span<const service::Query> queries) {
  append_batch<service::Point>(out, request_id, queries);
}
inline void append_answer_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                                std::span<const Dist> answers) {
  append_answer<service::Point>(out, request_id, answers);
}

/// Incremental frame reassembly over a byte stream.
///
/// feed() whatever the socket produced — any split, down to one byte at a
/// time — then call next() until it returns nullopt. Validation order per
/// frame: magic, length cap, completeness, checksum; the first violation
/// throws ProtocolError and the decoder must be discarded with its
/// connection (a checksummed stream cannot be re-synchronized reliably).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::span<const std::uint8_t> data);

  /// Next complete frame, or nullopt until more bytes arrive.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace msrp::net
