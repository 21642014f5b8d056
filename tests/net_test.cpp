// Tests for the network serving layer (src/net/): the frame codec under
// adversarial inputs (truncation, corruption, oversize, splits), and the
// epoll server + client end to end over loopback — byte-identical answers
// vs the in-process QueryService for every serving mode (built oracle,
// zero-copy mmap snapshot), pipelining, concurrent
// clients, disconnect-mid-batch, backpressure, and graceful shutdown.
// Protocol v2 coverage: wire registration of multiple tenants (the
// differential matrix, scalable via MSRP_FUZZ_TENANTS), digest-targeted
// batches, BUSY admission rejections, unregister lifecycles,
// call_retry recovery across a server restart, and adversarial registry
// frames. Multi-loop coverage: SO_REUSEPORT listeners and the
// accept-hand-off fallback serve identically, drain on shutdown, and a
// peer RST mid-reply never raises SIGPIPE. Protocol v3 coverage: the three
// workload opcodes (TOP_K_VITAL, VICKREY_PRICES, K_FAIL) round-trip,
// reject lying counts / out-of-range k / oversized or duplicated failure
// sets, serve byte-identically across every serving mode and pipeline
// mixed with point batches, and an untargeted point batch keeps the v1
// payload layout (plus an unknown-opcode probe). Protocol v5 coverage: the
// word-wise frame checksum's known answers and flip detection, and a
// v1–v4 peer's byte-wise checksum failing the connection on either side.
// Runs under TSan in CI (loop threads vs pool callbacks vs client
// threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "registry/oracle_registry.hpp"
#include "service/query_gen.hpp"
#include "service/query_service.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace msrp {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::ProtocolError;
using service::KFail;
using service::Query;
using service::Snapshot;
using service::Vickrey;
using service::Vitality;

// ----------------------------------------------------------- frame codec ---

std::vector<std::uint8_t> sample_stream() {
  std::vector<std::uint8_t> bytes;
  net::HelloInfo hello;
  hello.oracle_digest = 0x1234567890abcdefULL;
  hello.num_vertices = 100;
  hello.num_edges = 250;
  hello.sources = {0, 17, 41};
  net::append_hello(bytes, hello);
  net::append_batch(bytes, 7, std::vector<Query>{{0, 5, 3}, {17, 99, 0}});
  net::append_answer(bytes, 7, std::vector<Dist>{4, kInfDist});
  net::append_error(bytes, 9, "boom");
  return bytes;
}

void expect_sample_frames(std::vector<Frame> frames) {
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  const net::HelloInfo hello = net::decode_hello(frames[0].payload);
  EXPECT_EQ(hello.version, net::kProtocolVersion);
  EXPECT_EQ(hello.oracle_digest, 0x1234567890abcdefULL);
  EXPECT_EQ(hello.num_vertices, 100u);
  EXPECT_EQ(hello.num_edges, 250u);
  EXPECT_EQ(hello.sources, (std::vector<Vertex>{0, 17, 41}));

  EXPECT_EQ(frames[1].type, FrameType::kQueryBatch);
  const net::BatchFrame<service::Point> qb = net::decode_batch(frames[1].payload);
  EXPECT_EQ(qb.request_id, 7u);
  EXPECT_EQ(qb.queries, (std::vector<Query>{{0, 5, 3}, {17, 99, 0}}));

  EXPECT_EQ(frames[2].type, FrameType::kAnswerBatch);
  const net::AnswerFrame<service::Point> ab = net::decode_answer(frames[2].payload);
  EXPECT_EQ(ab.request_id, 7u);
  EXPECT_EQ(ab.answers, (std::vector<Dist>{4, kInfDist}));

  EXPECT_EQ(frames[3].type, FrameType::kError);
  const net::ErrorFrame err = net::decode_error(frames[3].payload);
  EXPECT_EQ(err.request_id, 9u);
  EXPECT_EQ(err.message, "boom");
}

TEST(FrameDecoder, RoundTripsEveryFrameType) {
  const auto bytes = sample_stream();
  FrameDecoder dec;
  dec.feed(bytes);
  std::vector<Frame> frames;
  while (auto f = dec.next()) frames.push_back(std::move(*f));
  expect_sample_frames(std::move(frames));
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoder, ReassemblesAcrossArbitrarySplits) {
  const auto bytes = sample_stream();
  // Every prefix split, plus byte-at-a-time: a frame boundary must never be
  // assumed to coincide with a read boundary.
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder dec;
    std::vector<Frame> frames;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t chunk =
          trial == 0 ? 1 : 1 + rng.next_below(std::min<std::size_t>(37, bytes.size() - pos));
      dec.feed({bytes.data() + pos, std::min(chunk, bytes.size() - pos)});
      pos += chunk;
      while (auto f = dec.next()) frames.push_back(std::move(*f));
    }
    expect_sample_frames(std::move(frames));
  }
}

// ------------------------------------------- adversarial input suite -------

TEST(FrameDecoderAdversarial, TruncatedHeaderYieldsNoFrame) {
  const auto bytes = sample_stream();
  FrameDecoder dec;
  dec.feed({bytes.data(), net::kFrameHeaderBytes - 1});
  EXPECT_FALSE(dec.next().has_value());  // not an error: more bytes may come
  EXPECT_EQ(dec.buffered_bytes(), net::kFrameHeaderBytes - 1);
}

TEST(FrameDecoderAdversarial, TruncatedPayloadYieldsNoFrame) {
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 1, std::vector<Query>{{0, 1, 2}});
  FrameDecoder dec;
  dec.feed({bytes.data(), bytes.size() - 1});
  EXPECT_FALSE(dec.next().has_value());
  dec.feed({bytes.data() + bytes.size() - 1, 1});  // last byte completes it
  EXPECT_TRUE(dec.next().has_value());
}

TEST(FrameDecoderAdversarial, BadMagicThrows) {
  auto bytes = sample_stream();
  bytes[0] ^= 0xff;
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(FrameDecoderAdversarial, ChecksumMismatchThrowsForEveryPayloadByte) {
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 42, std::vector<Query>{{1, 2, 3}});
  for (std::size_t i = net::kFrameHeaderBytes; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x01;
    FrameDecoder dec;
    dec.feed(corrupt);
    EXPECT_THROW(dec.next(), ProtocolError) << "flipped payload byte " << i;
  }
}

TEST(FrameDecoderAdversarial, ZeroLengthBatchIsValid) {
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 5, std::vector<Query>{});
  FrameDecoder dec;
  dec.feed(bytes);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  const net::BatchFrame<service::Point> qb = net::decode_batch(frame->payload);
  EXPECT_EQ(qb.request_id, 5u);
  EXPECT_TRUE(qb.queries.empty());
}

TEST(FrameDecoderAdversarial, MaxSizePlusOneFrameRejectedBeforeBuffering) {
  // A header announcing max+1 payload bytes must be refused from the header
  // alone — the decoder never waits for (or allocates) the payload.
  constexpr std::size_t kMax = 4096;
  std::vector<std::uint8_t> frame;
  net::append_error(frame, 1, std::string(kMax + 1, 'x'));
  FrameDecoder dec(kMax);
  dec.feed({frame.data(), net::kFrameHeaderBytes});  // header only
  EXPECT_THROW(dec.next(), ProtocolError);

  // Exactly max-size is accepted (boundary).
  std::vector<std::uint8_t> ok;
  net::append_error(ok, 1, std::string(kMax - 16, 'x'));  // 16 = error fixed fields
  FrameDecoder dec2(kMax);
  dec2.feed(ok);
  EXPECT_TRUE(dec2.next().has_value());
}

TEST(FrameDecoderAdversarial, LyingPayloadCountsThrow) {
  // A checksum-valid frame whose payload counts disagree with its size must
  // be caught by the payload decoders, not read out of bounds.
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 1, std::vector<Query>{{0, 1, 2}});
  Frame frame;
  {
    FrameDecoder dec;
    dec.feed(bytes);
    frame = *dec.next();
  }
  auto short_payload = frame.payload;
  short_payload.resize(short_payload.size() - 4);  // count says 1, bytes say less
  EXPECT_THROW(net::decode_batch(short_payload), ProtocolError);

  auto long_payload = frame.payload;
  long_payload.push_back(0);  // trailing garbage
  EXPECT_THROW(net::decode_batch(long_payload), ProtocolError);
}

TEST(FrameDecoderAdversarial, HugeCountFieldRejectedBeforeAllocating) {
  // A 16-byte payload claiming 2^32 - 1 queries must be refused by the
  // count-vs-payload check, not by a multi-gigabyte reserve() blowing up.
  std::vector<std::uint8_t> payload(16, 0);
  payload[8] = payload[9] = payload[10] = payload[11] = 0xff;  // count, LE
  EXPECT_THROW(net::decode_batch(payload), ProtocolError);
  EXPECT_THROW(net::decode_answer(payload), ProtocolError);
  // Same shape for HELLO's source count (offset 24 within its payload).
  std::vector<std::uint8_t> hello(32, 0);
  hello[0] = 1;  // version
  hello[24] = hello[25] = hello[26] = hello[27] = 0xff;  // sigma, LE
  EXPECT_THROW(net::decode_hello(hello), ProtocolError);
}

TEST(FrameDecoderAdversarial, InterleavedPipelinedIdsDecodeInOrder) {
  // Many batches with shuffled request ids back-to-back in one buffer: the
  // decoder must hand them back in wire order with ids intact (the ids, not
  // arrival order, pair answers to requests).
  std::vector<std::uint64_t> ids = {9, 2, 7, 1, 8, 3, 1000000007ULL, 4};
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t id : ids) {
    net::append_batch(
        bytes, id, std::vector<Query>{{static_cast<Vertex>(id % 97), 1, 2}});
  }
  FrameDecoder dec;
  dec.feed(bytes);
  for (const std::uint64_t id : ids) {
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(net::decode_batch(frame->payload).request_id, id);
  }
  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameDecoder, RoundTripsRegistryFrameTypes) {
  std::vector<std::uint8_t> bytes;
  net::RegisterGraphFrame reg;
  reg.request_id = 3;
  reg.mode = net::RegisterMode::kEdgeList;
  reg.seed = 42;
  reg.num_vertices = 5;
  reg.sources = {0, 2};
  reg.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  net::append_register_graph(bytes, reg);

  net::RegisterGraphFrame by_path;
  by_path.request_id = 4;
  by_path.mode = net::RegisterMode::kSnapshotPath;
  by_path.snapshot_path = "oracles/g.v2.snap";
  net::append_register_graph(bytes, by_path);

  net::RegisterAckFrame ack;
  ack.request_id = 5;
  ack.digest = 0xfeedfaceULL;
  ack.state = registry::OracleState::kReady;
  ack.num_vertices = 5;
  ack.num_edges = 4;
  ack.sources = {0, 2};
  net::append_register_ack(bytes, ack);

  net::append_list_oracles(bytes, 6);

  net::OracleListFrame list;
  list.request_id = 6;
  net::OracleListEntry entry;
  entry.digest = 0xfeedfaceULL;
  entry.state = registry::OracleState::kExpiring;
  entry.num_vertices = 5;
  entry.num_edges = 4;
  entry.inflight_batches = 2;
  entry.queries_answered = 777;
  entry.footprint_bytes = 4096;
  entry.sources = {0, 2};
  list.oracles = {entry};
  net::append_oracle_list(bytes, list);

  net::append_unregister(bytes, 7, 0xfeedfaceULL);
  net::append_busy(bytes, 8, "tenant queue full");
  net::append_batch(bytes, 9, std::vector<Query>{{0, 1, 2}}, 0xfeedfaceULL);

  FrameDecoder dec;
  dec.feed(bytes);
  const auto next = [&dec] {
    auto f = dec.next();
    EXPECT_TRUE(f.has_value());
    return std::move(*f);
  };

  Frame f = next();
  EXPECT_EQ(f.type, FrameType::kRegisterGraph);
  const net::RegisterGraphFrame reg2 = net::decode_register_graph(f.payload);
  EXPECT_EQ(reg2.request_id, 3u);
  EXPECT_EQ(reg2.mode, net::RegisterMode::kEdgeList);
  EXPECT_EQ(reg2.seed, 42u);
  EXPECT_EQ(reg2.num_vertices, 5u);
  EXPECT_EQ(reg2.sources, reg.sources);
  EXPECT_EQ(reg2.edges, reg.edges);

  f = next();
  const net::RegisterGraphFrame path2 = net::decode_register_graph(f.payload);
  EXPECT_EQ(path2.request_id, 4u);
  EXPECT_EQ(path2.mode, net::RegisterMode::kSnapshotPath);
  EXPECT_EQ(path2.snapshot_path, "oracles/g.v2.snap");

  f = next();
  EXPECT_EQ(f.type, FrameType::kRegisterAck);
  const net::RegisterAckFrame ack2 = net::decode_register_ack(f.payload);
  EXPECT_EQ(ack2.request_id, 5u);
  EXPECT_EQ(ack2.digest, 0xfeedfaceULL);
  EXPECT_EQ(ack2.state, registry::OracleState::kReady);
  EXPECT_EQ(ack2.num_edges, 4u);
  EXPECT_EQ(ack2.sources, ack.sources);

  f = next();
  EXPECT_EQ(f.type, FrameType::kListOracles);
  EXPECT_EQ(net::decode_list_oracles(f.payload), 6u);

  f = next();
  EXPECT_EQ(f.type, FrameType::kOracleList);
  const net::OracleListFrame list2 = net::decode_oracle_list(f.payload);
  EXPECT_EQ(list2.request_id, 6u);
  ASSERT_EQ(list2.oracles.size(), 1u);
  EXPECT_EQ(list2.oracles[0].digest, 0xfeedfaceULL);
  EXPECT_EQ(list2.oracles[0].state, registry::OracleState::kExpiring);
  EXPECT_EQ(list2.oracles[0].inflight_batches, 2u);
  EXPECT_EQ(list2.oracles[0].queries_answered, 777u);
  EXPECT_EQ(list2.oracles[0].footprint_bytes, 4096u);
  EXPECT_EQ(list2.oracles[0].sources, entry.sources);

  f = next();
  EXPECT_EQ(f.type, FrameType::kUnregister);
  const net::UnregisterFrame un = net::decode_unregister(f.payload);
  EXPECT_EQ(un.request_id, 7u);
  EXPECT_EQ(un.digest, 0xfeedfaceULL);

  f = next();
  EXPECT_EQ(f.type, FrameType::kBusy);
  const net::ErrorFrame busy = net::decode_error(f.payload);  // shared shape
  EXPECT_EQ(busy.request_id, 8u);
  EXPECT_EQ(busy.message, "tenant queue full");

  f = next();
  EXPECT_EQ(f.type, FrameType::kQueryBatch);
  const net::BatchFrame<service::Point> qb = net::decode_batch(f.payload);
  EXPECT_EQ(qb.request_id, 9u);
  ASSERT_TRUE(qb.digest.has_value());
  EXPECT_EQ(*qb.digest, 0xfeedfaceULL);
  EXPECT_EQ(qb.queries, (std::vector<Query>{{0, 1, 2}}));

  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameDecoderAdversarial, LyingRegistryPayloadCountsThrow) {
  // Same discipline as the v1 frames: checksum-valid payloads whose counts
  // disagree with their byte size must throw, never read out of bounds.
  const auto frame_payload = [](auto&& append) {
    std::vector<std::uint8_t> bytes;
    append(bytes);
    FrameDecoder dec;
    dec.feed(bytes);
    return dec.next()->payload;
  };

  net::RegisterGraphFrame reg;
  reg.request_id = 1;
  reg.num_vertices = 4;
  reg.sources = {0, 1};
  reg.edges = {{0, 1}, {1, 2}};
  auto payload = frame_payload(
      [&](std::vector<std::uint8_t>& b) { net::append_register_graph(b, reg); });
  auto shorter = payload;
  shorter.resize(shorter.size() - 4);
  EXPECT_THROW(net::decode_register_graph(shorter), ProtocolError);
  auto longer = payload;
  longer.push_back(0);
  EXPECT_THROW(net::decode_register_graph(longer), ProtocolError);

  net::OracleListFrame list;
  list.oracles.resize(1);
  list.oracles[0].sources = {0, 3};
  payload = frame_payload(
      [&](std::vector<std::uint8_t>& b) { net::append_oracle_list(b, list); });
  shorter = payload;
  shorter.resize(shorter.size() - 2);
  EXPECT_THROW(net::decode_oracle_list(shorter), ProtocolError);

  net::RegisterAckFrame ack;
  ack.sources = {0};
  payload = frame_payload(
      [&](std::vector<std::uint8_t>& b) { net::append_register_ack(b, ack); });
  shorter = payload;
  shorter.resize(shorter.size() - 1);
  EXPECT_THROW(net::decode_register_ack(shorter), ProtocolError);

  payload = frame_payload(
      [](std::vector<std::uint8_t>& b) { net::append_unregister(b, 1, 2); });
  shorter = payload;
  shorter.resize(shorter.size() - 1);
  EXPECT_THROW(net::decode_unregister(shorter), ProtocolError);
}

// ------------------------------------------- v3 workload frames -----------

TEST(FrameDecoder, RoundTripsWorkloadFrameTypes) {
  std::vector<std::uint8_t> bytes;
  const std::vector<service::VitalityQuery> vq{{0, 5, 3}, {17, 99, 1}};
  net::append_batch<Vitality>(bytes, 21, vq, 0xfeedfaceULL, 250);
  std::vector<service::VitalityResult> vres(2);
  vres[0].base = 4;
  vres[0].edges = {{7, 0, kInfDist}, {9, 2, 6}};
  vres[1].base = kInfDist;
  net::append_answer<Vitality>(bytes, 21, vres);

  const std::vector<service::VickreyQuery> pq{{0, 5}, {17, 99}};
  net::append_batch<Vickrey>(bytes, 22, pq);
  std::vector<service::VickreyResult> pres(2);
  pres[0].base = 4;
  pres[0].prices = {{7, 0}, {9, kInfDist}};
  net::append_answer<Vickrey>(bytes, 22, pres);

  const std::vector<service::KFailQuery> fq{{0, 5, {}}, {1, 6, {3}}, {2, 7, {3, 9}}};
  net::append_batch<KFail>(bytes, 23, fq, std::nullopt, 100);
  net::append_answer<KFail>(bytes, 23, std::vector<Dist>{4, kInfDist, 9});

  FrameDecoder dec;
  dec.feed(bytes);
  const auto next = [&dec] {
    auto f = dec.next();
    EXPECT_TRUE(f.has_value());
    return std::move(*f);
  };

  Frame f = next();
  EXPECT_EQ(f.type, FrameType::kVitalityBatch);
  const net::BatchFrame<Vitality> vb = net::decode_batch<Vitality>(f.payload);
  EXPECT_EQ(vb.request_id, 21u);
  ASSERT_TRUE(vb.digest.has_value());
  EXPECT_EQ(*vb.digest, 0xfeedfaceULL);
  ASSERT_TRUE(vb.deadline_ms.has_value());
  EXPECT_EQ(*vb.deadline_ms, 250u);
  EXPECT_EQ(vb.queries, vq);

  f = next();
  EXPECT_EQ(f.type, FrameType::kVitalityAnswer);
  const net::AnswerFrame<Vitality> va = net::decode_answer<Vitality>(f.payload);
  EXPECT_EQ(va.request_id, 21u);
  EXPECT_EQ(va.answers, vres);

  f = next();
  EXPECT_EQ(f.type, FrameType::kVickreyBatch);
  const net::BatchFrame<Vickrey> pb = net::decode_batch<Vickrey>(f.payload);
  EXPECT_EQ(pb.request_id, 22u);
  EXPECT_FALSE(pb.digest.has_value());
  EXPECT_FALSE(pb.deadline_ms.has_value());
  EXPECT_EQ(pb.queries, pq);

  f = next();
  EXPECT_EQ(f.type, FrameType::kVickreyAnswer);
  const net::AnswerFrame<Vickrey> pa = net::decode_answer<Vickrey>(f.payload);
  EXPECT_EQ(pa.request_id, 22u);
  EXPECT_EQ(pa.answers, pres);

  f = next();
  EXPECT_EQ(f.type, FrameType::kKFailBatch);
  const net::BatchFrame<KFail> fb = net::decode_batch<KFail>(f.payload);
  EXPECT_EQ(fb.request_id, 23u);
  EXPECT_FALSE(fb.digest.has_value());
  ASSERT_TRUE(fb.deadline_ms.has_value());
  EXPECT_EQ(*fb.deadline_ms, 100u);
  EXPECT_EQ(fb.queries, fq);

  f = next();
  EXPECT_EQ(f.type, FrameType::kKFailAnswer);
  const net::AnswerFrame<KFail> fa = net::decode_answer<KFail>(f.payload);
  EXPECT_EQ(fa.request_id, 23u);
  EXPECT_EQ(fa.answers, (std::vector<Dist>{4, kInfDist, 9}));

  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameDecoderAdversarial, WorkloadRequestValidationThrows) {
  // The v3 request decoders reject malformed *requests*, not just
  // malformed bytes: k out of range, an oversized failure set, and a
  // duplicated failed edge are each ProtocolError before any allocation.
  const auto payload_of = [](auto&& append) {
    std::vector<std::uint8_t> bytes;
    append(bytes);
    FrameDecoder dec;
    dec.feed(bytes);
    return dec.next()->payload;
  };

  // k == 0 asks for nothing; the decoder refuses rather than guessing.
  auto payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<Vitality>(b, 1, std::vector<service::VitalityQuery>{{0, 1, 0}});
  });
  EXPECT_THROW(net::decode_batch<Vitality>(payload), ProtocolError);

  // k just past the cap throws; the cap itself is accepted (boundary).
  payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<Vitality>(
        b, 1, std::vector<service::VitalityQuery>{{0, 1, service::kMaxTopKVital + 1}});
  });
  EXPECT_THROW(net::decode_batch<Vitality>(payload), ProtocolError);
  payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<Vitality>(
        b, 1, std::vector<service::VitalityQuery>{{0, 1, service::kMaxTopKVital}});
  });
  EXPECT_EQ(net::decode_batch<Vitality>(payload).queries[0].k, service::kMaxTopKVital);

  // |F| == kMaxKFailEdges + 1 is refused even though the bytes are
  // perfectly self-consistent.
  payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<KFail>(b, 1, std::vector<service::KFailQuery>{{0, 1, {2, 3, 4}}});
  });
  EXPECT_THROW(net::decode_batch<KFail>(payload), ProtocolError);

  // A duplicated edge in F is a contradiction (failing one edge twice), so
  // it is rejected rather than silently deduplicated.
  payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<KFail>(b, 1, std::vector<service::KFailQuery>{{0, 1, {4, 4}}});
  });
  EXPECT_THROW(net::decode_batch<KFail>(payload), ProtocolError);
  payload = payload_of([](std::vector<std::uint8_t>& b) {
    net::append_batch<KFail>(b, 1, std::vector<service::KFailQuery>{{0, 1, {4, 5}}});
  });
  EXPECT_EQ(net::decode_batch<KFail>(payload).queries[0].fails, (std::vector<EdgeId>{4, 5}));
}

TEST(FrameDecoderAdversarial, LyingWorkloadPayloadCountsThrow) {
  // Same discipline as the v1/v2 frames: checksum-valid payloads whose
  // counts disagree with their byte size must throw, never read out of
  // bounds — for all six workload frame shapes.
  const auto payload_of = [](auto&& append) {
    std::vector<std::uint8_t> bytes;
    append(bytes);
    FrameDecoder dec;
    dec.feed(bytes);
    return dec.next()->payload;
  };
  const auto expect_lying_throws = [](std::vector<std::uint8_t> payload, auto&& decode) {
    auto shorter = payload;
    shorter.resize(shorter.size() - 1);
    EXPECT_THROW(decode(shorter), ProtocolError);
    auto longer = payload;
    longer.push_back(0);
    EXPECT_THROW(decode(longer), ProtocolError);
  };

  expect_lying_throws(
      payload_of([](std::vector<std::uint8_t>& b) {
        net::append_batch<Vitality>(b, 1, std::vector<service::VitalityQuery>{{0, 1, 2}});
      }),
      [](std::span<const std::uint8_t> p) { return net::decode_batch<Vitality>(p); });
  std::vector<service::VitalityResult> vres(1);
  vres[0].base = 3;
  vres[0].edges = {{0, 0, 5}};
  expect_lying_throws(
      payload_of(
          [&](std::vector<std::uint8_t>& b) { net::append_answer<Vitality>(b, 1, vres); }),
      [](std::span<const std::uint8_t> p) { return net::decode_answer<Vitality>(p); });
  expect_lying_throws(
      payload_of([](std::vector<std::uint8_t>& b) {
        net::append_batch<Vickrey>(b, 1, std::vector<service::VickreyQuery>{{0, 1}});
      }),
      [](std::span<const std::uint8_t> p) { return net::decode_batch<Vickrey>(p); });
  std::vector<service::VickreyResult> pres(1);
  pres[0].base = 3;
  pres[0].prices = {{0, 2}};
  expect_lying_throws(
      payload_of(
          [&](std::vector<std::uint8_t>& b) { net::append_answer<Vickrey>(b, 1, pres); }),
      [](std::span<const std::uint8_t> p) { return net::decode_answer<Vickrey>(p); });
  expect_lying_throws(
      payload_of([](std::vector<std::uint8_t>& b) {
        net::append_batch<KFail>(b, 1, std::vector<service::KFailQuery>{{0, 1, {2}}});
      }),
      [](std::span<const std::uint8_t> p) { return net::decode_batch<KFail>(p); });
  expect_lying_throws(
      payload_of([](std::vector<std::uint8_t>& b) {
        net::append_answer<KFail>(b, 1, std::vector<Dist>{4});
      }),
      [](std::span<const std::uint8_t> p) { return net::decode_answer<KFail>(p); });

  // A 16-byte envelope claiming 2^32 - 1 queries must die on the
  // count-vs-payload check, not on a multi-gigabyte reserve().
  std::vector<std::uint8_t> huge(16, 0);
  huge[8] = huge[9] = huge[10] = huge[11] = 0xff;  // count, LE
  EXPECT_THROW(net::decode_batch<Vitality>(huge), ProtocolError);
  EXPECT_THROW(net::decode_batch<Vickrey>(huge), ProtocolError);
  EXPECT_THROW(net::decode_batch<KFail>(huge), ProtocolError);
  EXPECT_THROW(net::decode_answer<Vitality>(huge), ProtocolError);
  EXPECT_THROW(net::decode_answer<Vickrey>(huge), ProtocolError);
  EXPECT_THROW(net::decode_answer<KFail>(huge), ProtocolError);
}

// ------------------------------------------------------ frame checksum ---

/// A fixed byte pattern, (i * 131 + 7) mod 256, with no zero words.
std::vector<std::uint8_t> checksum_pattern(std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return bytes;
}

/// The word loop without the h ^= h >> 32 fold, kept only to show that the
/// flip sweep below can see the weakness the fold removes.
std::uint64_t plain_word_fnv(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = fnv::kOffset;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) h = (h ^ net::detail::get_u64(data + i)) * fnv::kPrime;
  return fnv::mix_bytes(h, data + i, size - i);
}

/// How many of the 1- and 2-bit flips of `payload` leave `hash` unchanged.
template <class Hash>
std::size_t missed_flips(std::vector<std::uint8_t> payload, Hash&& hash) {
  const std::uint64_t want = hash(payload.data(), payload.size());
  const std::size_t bits = payload.size() * 8;
  const auto flip = [&](std::size_t bit) {
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  std::size_t missed = 0;
  for (std::size_t a = 0; a < bits; ++a) {
    flip(a);
    missed += hash(payload.data(), payload.size()) == want;
    for (std::size_t b = a + 1; b < bits; ++b) {
      flip(b);
      missed += hash(payload.data(), payload.size()) == want;
      flip(b);
    }
    flip(a);
  }
  return missed;
}

TEST(FrameChecksum, KnownAnswers) {
  // Recorded from fnv::mix_words and from an independent big-integer
  // implementation of the same rule; a change to the word order, the fold
  // or the tail handling moves them.
  const std::vector<std::uint8_t> bytes = checksum_pattern(6160);
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {0, 0xcbf29ce484222325ULL},  {1, 0xaf63ba4c8601b2c6ULL},  {7, 0xde50935f6b78323bULL},
      {8, 0x940cc3d7d8f0a711ULL},  {9, 0x8257d5c5a0ebdccaULL},  {15, 0xc537d085a99e840fULL},
      {16, 0x9d66f1f324916739ULL}, {6160, 0x10b0faae8201e162ULL},
  };
  for (const auto& [size, want] : pins) {
    EXPECT_EQ(fnv::mix_words(fnv::kOffset, bytes.data(), size), want) << size << " bytes";
  }
}

TEST(FrameChecksum, DetectsEveryOneAndTwoBitFlipOfA64BytePayload) {
  const std::vector<std::uint8_t> payload = checksum_pattern(64);
  EXPECT_EQ(missed_flips(payload,
                         [](const std::uint8_t* p, std::size_t n) {
                           return fnv::mix_words(fnv::kOffset, p, n);
                         }),
            0u);
  // Without the fold, paired top-bit flips cancel: the sweep sees it.
  EXPECT_GT(missed_flips(payload, plain_word_fnv), 0u);
}

TEST(FrameChecksum, DecoderRejectsEveryOneBitFlipOfAPointQueryBatch) {
  Rng rng(27);
  std::vector<Query> queries(512);
  for (Query& q : queries) {
    q = {static_cast<Vertex>(rng.next_below(4096)), static_cast<Vertex>(rng.next_below(4096)),
         static_cast<EdgeId>(rng.next_below(16384))};
  }
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 42, queries);
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + 6160);
  for (std::size_t bit = net::kFrameHeaderBytes * 8; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameDecoder dec;
    dec.feed(bytes);
    try {
      dec.next();
      ADD_FAILURE() << "flipped payload bit " << bit << " decoded";
    } catch (const ProtocolError& ex) {
      EXPECT_STREQ(ex.what(), "frame checksum mismatch") << "payload bit " << bit;
    }
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// ---------------------------------------------------- pinned wire bytes ---

/// A frame's length, the byte-wise FNV-1a of its payload alone, and the
/// byte-wise FNV-1a of the whole frame (header + payload).
struct PinnedFrame {
  const char* name;
  std::size_t size;
  std::uint64_t payload_fnv;
  std::uint64_t fnv;
};

void expect_pinned(const std::vector<std::uint8_t>& bytes, const PinnedFrame& pin) {
  EXPECT_EQ(bytes.size(), pin.size) << pin.name;
  EXPECT_EQ(fnv::mix_bytes(fnv::kOffset, bytes.data() + net::kFrameHeaderBytes,
                           bytes.size() - net::kFrameHeaderBytes),
            pin.payload_fnv)
      << pin.name;
  EXPECT_EQ(fnv::mix_bytes(fnv::kOffset, bytes.data(), bytes.size()), pin.fnv) << pin.name;
}

Frame only_frame(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder dec;
  dec.feed(bytes);
  std::optional<Frame> f = dec.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  return f ? std::move(*f) : Frame{};
}

TEST(Protocol, WireBytesMatchPinnedFrames) {
  // The round-trip and v1-layout tests encode both sides with the same
  // code, so a layout change made symmetrically in encoder and decoder
  // passes them. The sizes and payload hashes were recorded from the
  // protocol v4 encoders, before the v5 frame checksum; any payload byte
  // that moves fails here. The whole-frame hashes cover the header too,
  // so they were re-recorded when v5 changed the checksum field.
  constexpr std::uint64_t kId = 0x0102030405060708ULL;
  constexpr std::uint64_t kDigest = 0x1122334455667788ULL;
  constexpr std::uint32_t kDeadline = 250;
  static constexpr PinnedFrame kBatchPins[4][3] = {
      {{"QUERY_BATCH", 64, 0xca0d51be19efd2dfULL, 0x70acc141dec450d7ULL},
       {"QUERY_BATCH digest", 72, 0x3a302e424565526eULL, 0xaaf7a7dd6e199252ULL},
       {"QUERY_BATCH digest+deadline", 76, 0x0da730a8e65ff36eULL, 0x3536ca701acc3bc9ULL}},
      {{"VITALITY_BATCH", 64, 0x27a399289f87aaf2ULL, 0xda53c6bbb260db0fULL},
       {"VITALITY_BATCH digest", 72, 0xe122a3bbb6a7bba3ULL, 0x335590f0b472c40aULL},
       {"VITALITY_BATCH digest+deadline", 76, 0xb499a62257a25ca3ULL, 0x86f2c83c5152d770ULL}},
      {{"VICKREY_BATCH", 56, 0x6e2404004a49e1e0ULL, 0xe9f7afb050b5f1b9ULL},
       {"VICKREY_BATCH digest", 64, 0x65e52306d343e0b1ULL, 0xa7dc59efa3adeac9ULL},
       {"VICKREY_BATCH digest+deadline", 68, 0xdaa1ce558be461b1ULL, 0xd1007d9f18e210cdULL}},
      {{"KFAIL_BATCH", 88, 0x035852e2e52050bbULL, 0x7fb57c82f7aeaef6ULL},
       {"KFAIL_BATCH digest", 96, 0xd487fc021881ec92ULL, 0xc0019088daccd508ULL},
       {"KFAIL_BATCH digest+deadline", 100, 0x1af7066933f7b0b2ULL, 0x6acb770ffc495b83ULL}},
  };
  static constexpr PinnedFrame kAnswerPins[4] = {
      {"ANSWER_BATCH", 48, 0x4e7707b001baa26fULL, 0xcb07a57ff496d5a5ULL},
      {"VITALITY_ANSWER", 80, 0xfebcafb3a744692bULL, 0x46edb59224411222ULL},
      {"VICKREY_ANSWER", 72, 0x292d287605ef3e77ULL, 0x5379d775009264efULL},
      {"KFAIL_ANSWER", 52, 0xf6296530d4dc4217ULL, 0x05d5df0c46608045ULL},
  };

  const std::vector<Query> pq{{0, 5, 3}, {17, 99, kNoEdge}};
  const std::vector<service::VitalityQuery> vq{{0, 5, 3}, {17, 99, 1}};
  const std::vector<service::VickreyQuery> cq{{0, 5}, {17, 99}};
  const std::vector<service::KFailQuery> fq{{0, 5, {}}, {1, 6, {3}}, {2, 7, {3, 9}}};
  const std::vector<Dist> pa{4, kInfDist};
  std::vector<service::VitalityResult> va(2);
  va[0].base = 4;
  va[0].edges = {{7, 0, kInfDist}, {9, 2, 6}};
  va[1].base = kInfDist;
  std::vector<service::VickreyResult> ca(2);
  ca[0].base = 4;
  ca[0].prices = {{7, 0}, {9, kInfDist}};
  ca[1].base = kInfDist;
  const std::vector<Dist> fa{4, kInfDist, 9};

  const std::optional<std::uint64_t> digests[3] = {std::nullopt, kDigest, kDigest};
  const std::optional<std::uint32_t> deadlines[3] = {std::nullopt, std::nullopt, kDeadline};
  for (int form = 0; form < 3; ++form) {
    const auto check_batch = [&](const PinnedFrame& pin, FrameType type, auto&& append,
                                 auto&& decode, const auto& want) {
      std::vector<std::uint8_t> bytes;
      append(bytes, digests[form], deadlines[form]);
      expect_pinned(bytes, pin);
      const Frame f = only_frame(bytes);
      EXPECT_EQ(f.type, type) << pin.name;
      const auto got = decode(f.payload);
      EXPECT_EQ(got.request_id, kId) << pin.name;
      EXPECT_EQ(got.digest, digests[form]) << pin.name;
      EXPECT_EQ(got.deadline_ms, deadlines[form]) << pin.name;
      EXPECT_EQ(got.queries, want) << pin.name;
    };
    check_batch(
        kBatchPins[0][form], FrameType::kQueryBatch,
        [&](auto& b, auto d, auto dl) { net::append_batch(b, kId, pq, d, dl); },
        [](auto p) { return net::decode_batch(p); }, pq);
    check_batch(
        kBatchPins[1][form], FrameType::kVitalityBatch,
        [&](auto& b, auto d, auto dl) { net::append_batch<Vitality>(b, kId, vq, d, dl); },
        [](auto p) { return net::decode_batch<Vitality>(p); }, vq);
    check_batch(
        kBatchPins[2][form], FrameType::kVickreyBatch,
        [&](auto& b, auto d, auto dl) { net::append_batch<Vickrey>(b, kId, cq, d, dl); },
        [](auto p) { return net::decode_batch<Vickrey>(p); }, cq);
    check_batch(
        kBatchPins[3][form], FrameType::kKFailBatch,
        [&](auto& b, auto d, auto dl) { net::append_batch<KFail>(b, kId, fq, d, dl); },
        [](auto p) { return net::decode_batch<KFail>(p); }, fq);
  }

  const auto check_answer = [&](const PinnedFrame& pin, FrameType type, auto&& append,
                                auto&& decode) {
    std::vector<std::uint8_t> bytes;
    append(bytes);
    expect_pinned(bytes, pin);
    const Frame f = only_frame(bytes);
    EXPECT_EQ(f.type, type) << pin.name;
    decode(f.payload);
  };
  check_answer(
      kAnswerPins[0], FrameType::kAnswerBatch,
      [&](auto& b) { net::append_answer(b, kId, pa); },
      [&](auto p) {
        const auto got = net::decode_answer(p);
        EXPECT_EQ(got.request_id, kId);
        EXPECT_EQ(got.answers, pa);
      });
  check_answer(
      kAnswerPins[1], FrameType::kVitalityAnswer,
      [&](auto& b) { net::append_answer<Vitality>(b, kId, va); },
      [&](auto p) {
        const auto got = net::decode_answer<Vitality>(p);
        EXPECT_EQ(got.request_id, kId);
        EXPECT_EQ(got.answers, va);
      });
  check_answer(
      kAnswerPins[2], FrameType::kVickreyAnswer,
      [&](auto& b) { net::append_answer<Vickrey>(b, kId, ca); },
      [&](auto p) {
        const auto got = net::decode_answer<Vickrey>(p);
        EXPECT_EQ(got.request_id, kId);
        EXPECT_EQ(got.answers, ca);
      });
  check_answer(
      kAnswerPins[3], FrameType::kKFailAnswer,
      [&](auto& b) { net::append_answer<KFail>(b, kId, fa); },
      [&](auto p) {
        const auto got = net::decode_answer<KFail>(p);
        EXPECT_EQ(got.request_id, kId);
        EXPECT_EQ(got.answers, fa);
      });
}

// -------------------------------------------------- loopback end-to-end ---

/// Small deterministic instance shared by the end-to-end tests.
struct NetFixture {
  Graph g{0};
  std::vector<Vertex> sources{0, 11, 29};
  service::QueryService svc{{.threads = 2}};
  std::shared_ptr<const Snapshot> oracle;

  NetFixture() {
    Rng rng(77);
    g = gen::connected_gnp(60, 0.08, rng);
    oracle = svc.build(g, sources);
  }

  std::vector<Query> random_queries(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    return service::random_query_batch(sources, g.num_vertices(), g.num_edges(), count,
                                       rng);
  }
};

/// Server on an ephemeral loopback port with its run() thread.
struct TestServer {
  net::Server server;
  std::thread thread;

  TestServer(service::QueryService& svc, std::shared_ptr<const Snapshot> oracle,
             net::ServerOptions opts = {})
      : server(svc, std::move(oracle), opts), thread([this] { server.run(); }) {}

  ~TestServer() {
    server.shutdown();
    thread.join();
  }

  net::ClientOptions client_options() const {
    net::ClientOptions copts;
    copts.port = server.port();
    copts.connect_retries = 10;
    return copts;
  }
};

TEST(NetServer, HelloCarriesOracleIdentity) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_EQ(client.hello().version, net::kProtocolVersion);
  EXPECT_EQ(client.hello().oracle_digest, fx.oracle->content_digest());
  EXPECT_EQ(client.hello().num_vertices, fx.g.num_vertices());
  EXPECT_EQ(client.hello().num_edges, fx.g.num_edges());
  EXPECT_EQ(client.hello().sources, fx.sources);
}

TEST(NetServer, AnswersOverTcpMatchInProcessByteForByte) {
  NetFixture fx;
  const std::vector<Query> queries = fx.random_queries(3000, 1);
  const std::vector<Dist> want = fx.svc.query_batch(*fx.oracle, queries);

  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_EQ(client.call(queries), want);

  const net::ServerStats st = ts.server.stats();
  EXPECT_EQ(st.batches_received, 1u);
  EXPECT_EQ(st.queries_answered, queries.size());
  EXPECT_EQ(st.protocol_errors, 0u);
}

// The acceptance matrix: TCP answers must be byte-identical to the
// in-process path for every serving mode — freshly built and zero-copy
// mmap snapshot.
TEST(NetServer, EveryServingModeMatchesInProcess) {
  NetFixture fx;
  const std::vector<Query> queries = fx.random_queries(2000, 2);
  const std::vector<Dist> want = fx.svc.query_batch(*fx.oracle, queries);

  {  // v2 snapshot served zero-copy from a memory mapping
    const std::string path = testing::TempDir() + "/net_test_oracle.v2.snap";
    fx.oracle->save(path);
    service::QueryService svc({.threads = 2});
    const auto mapped = svc.load(path, {.use_mmap = true, .verify_cells = false});
    ASSERT_TRUE(mapped->is_mapped());
    TestServer ts(svc, mapped);
    net::Client client(ts.client_options());
    EXPECT_EQ(client.call(queries), want);
  }
}

/// Random typed workload batches over the fixture's instance; |F| cycles
/// through 0, 1, and 2 so every K_FAIL serving tier is hit.
struct WorkloadBatches {
  std::vector<service::VitalityQuery> vitality;
  std::vector<service::VickreyQuery> vickrey;
  std::vector<service::KFailQuery> kfail;
};

WorkloadBatches random_workloads(const NetFixture& fx, std::size_t count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  WorkloadBatches out;
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex s = fx.sources[rng.next_below(fx.sources.size())];
    const Vertex t = static_cast<Vertex>(rng.next_below(fx.g.num_vertices()));
    out.vitality.push_back({s, t, 1 + static_cast<std::uint32_t>(rng.next_below(6))});
    out.vickrey.push_back({s, t});
    service::KFailQuery f{s, t, {}};
    while (f.fails.size() < i % (service::kMaxKFailEdges + 1)) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(fx.g.num_edges()));
      if (std::find(f.fails.begin(), f.fails.end(), e) == f.fails.end()) {
        f.fails.push_back(e);
      }
    }
    out.kfail.push_back(std::move(f));
  }
  return out;
}

// The v3 acceptance matrix, wire leg: all three workload opcodes over TCP
// must be byte-identical to the in-process typed entry points.
TEST(NetServer, WorkloadOpcodesOverTcpMatchInProcess) {
  NetFixture fx;
  const WorkloadBatches wb = random_workloads(fx, 200, 314);
  const auto vwant = fx.svc.run<Vitality>(*fx.oracle, wb.vitality);
  const auto pwant = fx.svc.run<Vickrey>(*fx.oracle, wb.vickrey);
  const auto fwant = fx.svc.run<KFail>(*fx.oracle, wb.kfail);

  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_EQ(client.call<Vitality>(wb.vitality), vwant);
  EXPECT_EQ(client.call<Vickrey>(wb.vickrey), pwant);
  EXPECT_EQ(client.call<KFail>(wb.kfail), fwant);

  const net::ServerStats st = ts.server.stats();
  EXPECT_EQ(st.vitality_batches, 1u);
  EXPECT_EQ(st.vickrey_batches, 1u);
  EXPECT_EQ(st.kfail_batches, 1u);
  EXPECT_EQ(st.queries_answered, wb.vitality.size() + wb.vickrey.size() + wb.kfail.size());
  EXPECT_EQ(st.protocol_errors, 0u);
}

// Workload serving-mode matrix: the same typed batches against a zero-copy
// mmap snapshot (graph attached for the |F| == 2 tier) must produce the
// same bytes as the built oracle.
TEST(NetServer, WorkloadOpcodesServeEveryMode) {
  NetFixture fx;
  const WorkloadBatches wb = random_workloads(fx, 150, 315);
  const auto vwant = fx.svc.run<Vitality>(*fx.oracle, wb.vitality);
  const auto pwant = fx.svc.run<Vickrey>(*fx.oracle, wb.vickrey);
  const auto fwant = fx.svc.run<KFail>(*fx.oracle, wb.kfail);

  {  // v2 snapshot served zero-copy from a memory mapping
    const std::string path = testing::TempDir() + "/net_test_workload.v2.snap";
    fx.oracle->save(path);
    service::QueryService svc({.threads = 2});
    const auto mapped = svc.load(path, {.use_mmap = true, .verify_cells = false});
    ASSERT_TRUE(mapped->is_mapped());
    svc.attach_graph(mapped->content_digest(), std::make_shared<const Graph>(fx.g));
    TestServer ts(svc, mapped);
    net::Client client(ts.client_options());
    EXPECT_EQ(client.call<Vitality>(wb.vitality), vwant);
    EXPECT_EQ(client.call<Vickrey>(wb.vickrey), pwant);
    EXPECT_EQ(client.call<KFail>(wb.kfail), fwant);
  }
}

// A two-edge failure set against a snapshot-only server (no graph behind
// the digest) is a batch error naming attach_graph — and the connection
// keeps serving the tiers that do work.
TEST(NetServer, TwoEdgeKFailWithoutGraphFailsTheBatchNotTheConnection) {
  NetFixture fx;
  const std::string path = testing::TempDir() + "/net_test_nograph.v2.snap";
  fx.oracle->save(path);
  service::QueryService svc({.threads = 2});
  const auto mapped = svc.load(path, {.use_mmap = true, .verify_cells = false});
  TestServer ts(svc, mapped);
  net::Client client(ts.client_options());

  const std::vector<service::KFailQuery> two{{fx.sources[0], 5, {0, 1}}};
  try {
    client.call<KFail>(two);
    FAIL() << "expected a batch error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("attach_graph"), std::string::npos);
  }

  const std::vector<service::KFailQuery> one{{fx.sources[0], 5, {0}}};
  EXPECT_EQ(client.call<KFail>(one), fx.svc.run<KFail>(*fx.oracle, one));
  EXPECT_EQ(ts.server.stats().batch_errors, 1u);
  EXPECT_EQ(ts.server.stats().protocol_errors, 0u);
}

// Point batches and all three workload kinds pipelined on one connection:
// replies pair by (request id, opcode), whatever order completions land in.
TEST(NetServer, PipelinedMixedOpcodesPairByIdAndKind) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  constexpr std::size_t kRounds = 4;
  std::vector<std::vector<Query>> points;
  std::vector<WorkloadBatches> loads;
  std::vector<std::uint64_t> point_ids, vit_ids, vic_ids, kf_ids;
  for (std::size_t r = 0; r < kRounds; ++r) {
    points.push_back(fx.random_queries(80 + 13 * r, 700 + r));
    loads.push_back(random_workloads(fx, 40 + 9 * r, 800 + r));
    point_ids.push_back(client.send(points[r]));
    vit_ids.push_back(client.send<Vitality>(loads[r].vitality));
    vic_ids.push_back(client.send<Vickrey>(loads[r].vickrey));
    kf_ids.push_back(client.send<KFail>(loads[r].kfail));
  }
  EXPECT_EQ(client.inflight(), 4 * kRounds);
  // Collect newest-first, interleaving kinds.
  for (std::size_t r = kRounds; r-- > 0;) {
    EXPECT_EQ(client.wait<KFail>(kf_ids[r]), fx.svc.run<KFail>(*fx.oracle, loads[r].kfail))
        << "round " << r;
    EXPECT_EQ(client.wait(point_ids[r]), fx.svc.query_batch(*fx.oracle, points[r]))
        << "round " << r;
    EXPECT_EQ(client.wait<Vitality>(vit_ids[r]),
              fx.svc.run<Vitality>(*fx.oracle, loads[r].vitality))
        << "round " << r;
    EXPECT_EQ(client.wait<Vickrey>(vic_ids[r]),
              fx.svc.run<Vickrey>(*fx.oracle, loads[r].vickrey))
        << "round " << r;
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(NetServer, EmptyBatchAnswersEmpty) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_TRUE(client.call(std::vector<Query>{}).empty());
}

TEST(NetServer, PipelinedBatchesCollectByIdInAnyOrder) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  constexpr std::size_t kBatches = 12;
  std::vector<std::vector<Query>> batches;
  std::vector<std::uint64_t> ids;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(fx.random_queries(100 + 37 * b, 100 + b));
    ids.push_back(client.send(batches.back()));
  }
  EXPECT_EQ(client.inflight(), kBatches);
  // Collect newest-first: buffered out-of-order answers must pair by id.
  for (std::size_t b = kBatches; b-- > 0;) {
    EXPECT_EQ(client.wait(ids[b]), fx.svc.query_batch(*fx.oracle, batches[b]))
        << "batch " << b;
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(NetServer, TinyPipelineWindowStillDrainsFullBurst) {
  NetFixture fx;
  // Window of 2 with a 30-batch burst sent before any read: progress must
  // come from completions pumping the decoder backlog, not from new bytes.
  net::ServerOptions sopts;
  sopts.max_inflight_batches = 2;
  TestServer ts(fx.svc, fx.oracle, sopts);
  net::Client client(ts.client_options());

  constexpr std::size_t kBatches = 30;
  std::vector<std::vector<Query>> batches;
  std::vector<std::uint64_t> ids;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(fx.random_queries(64, 200 + b));
    ids.push_back(client.send(batches[b]));
  }
  for (std::size_t b = 0; b < kBatches; ++b) {
    EXPECT_EQ(client.wait(ids[b]), fx.svc.query_batch(*fx.oracle, batches[b]));
  }
}

TEST(NetServer, InvalidQueryAnswersErrorAndConnectionSurvives) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  const Vertex not_a_source = 1;  // fixture sources are {0, 11, 29}
  ASSERT_EQ(std::count(fx.sources.begin(), fx.sources.end(), not_a_source), 0);
  EXPECT_THROW(client.call(std::vector<Query>{{not_a_source, 0, 0}}),
               std::runtime_error);

  // Batch-level failure, not connection-level: the same connection keeps
  // serving valid batches.
  const std::vector<Query> queries = fx.random_queries(200, 4);
  EXPECT_EQ(client.call(queries), fx.svc.query_batch(*fx.oracle, queries));
  EXPECT_EQ(ts.server.stats().batch_errors, 1u);
}

TEST(NetServer, ConcurrentClientsGetConsistentAnswers) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);

  constexpr unsigned kClients = 4;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client(ts.client_options());
        for (int round = 0; round < 5; ++round) {
          const auto queries = fx.random_queries(300, 1000 + 17 * c + round);
          const auto want = fx.svc.query_batch(*fx.oracle, queries);
          if (client.call(queries) != want) {
            errors[c] = "answer mismatch";
            return;
          }
        }
      } catch (const std::exception& ex) {
        errors[c] = ex.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned c = 0; c < kClients; ++c) EXPECT_EQ(errors[c], "") << "client " << c;
}

TEST(NetServer, ClientDisconnectMidBatchLeavesServerServing) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  {
    net::Client doomed(ts.client_options());
    doomed.send(fx.random_queries(5000, 5));
    // Destructor closes the socket with the batch still in flight; the
    // server completes it, finds the connection gone, and drops the reply.
  }
  net::Client client(ts.client_options());
  const std::vector<Query> queries = fx.random_queries(500, 6);
  EXPECT_EQ(client.call(queries), fx.svc.query_batch(*fx.oracle, queries));
}

TEST(NetServer, GracefulShutdownDrainsInFlightBatches) {
  NetFixture fx;
  auto ts = std::make_unique<TestServer>(fx.svc, fx.oracle);
  net::Client client(ts->client_options());

  // Several batches in flight when shutdown lands: every reply must still
  // arrive (drain semantics), after which the server closes the connection.
  std::vector<std::vector<Query>> batches;
  std::vector<std::uint64_t> ids;
  for (std::size_t b = 0; b < 8; ++b) {
    batches.push_back(fx.random_queries(2000, 300 + b));
    ids.push_back(client.send(batches[b]));
  }
  // Drain covers batches the server has *read*; make sure all 8 were
  // (send() only guarantees kernel-buffer delivery) before shutting down.
  while (ts->server.stats().batches_received < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts->server.shutdown();
  for (std::size_t b = 0; b < 8; ++b) {
    EXPECT_EQ(client.wait(ids[b]), fx.svc.query_batch(*fx.oracle, batches[b]));
  }
  ts.reset();  // run() has drained; join
  // The drained connection is closed; the next round trip must fail.
  EXPECT_THROW(client.call(fx.random_queries(10, 7)), std::runtime_error);
}

TEST(NetServer, DrainCompletesPromptlyWhenOutputFlushesLate) {
  NetFixture fx;
  auto ts = std::make_unique<TestServer>(fx.svc, fx.oracle);
  net::Client client(ts->client_options());

  // A reply far larger than the socket buffers, with the client not
  // reading until after shutdown: the final flush happens via EPOLLOUT
  // while draining, and the connection must close the moment it empties —
  // not at the 10 s drain deadline.
  const std::vector<Query> queries = fx.random_queries(1'500'000, 9);
  const std::uint64_t id = client.send(queries);
  while (ts->server.stats().batches_received == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts->server.shutdown();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.wait(id).size(), queries.size());
  ts.reset();  // joins run(); stalls until the drain deadline if broken
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(8));
}

// ----------------------------------------------------- multi-loop accept ---

TEST(NetServerMultiLoop, ReuseportLoopsServeConcurrentClientsIdentically) {
  NetFixture fx;
  net::ServerOptions sopts;
  sopts.loops = 3;  // all three listeners share the ephemeral port
  TestServer ts(fx.svc, fx.oracle, sopts);

  constexpr unsigned kClients = 6;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client(ts.client_options());
        for (int round = 0; round < 4; ++round) {
          const auto queries = fx.random_queries(400, 3000 + 31 * c + round);
          const auto want = fx.svc.query_batch(*fx.oracle, queries);
          if (client.call(queries) != want) {
            errors[c] = "answer mismatch";
            return;
          }
        }
      } catch (const std::exception& ex) {
        errors[c] = ex.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned c = 0; c < kClients; ++c) EXPECT_EQ(errors[c], "") << "client " << c;
  const net::ServerStats st = ts.server.stats();
  EXPECT_EQ(st.connections_accepted, kClients);
  EXPECT_EQ(st.batches_received, kClients * 4u);
  EXPECT_EQ(st.protocol_errors, 0u);
}

TEST(NetServerMultiLoop, GracefulShutdownDrainsEveryLoop) {
  NetFixture fx;
  net::ServerOptions sopts;
  sopts.loops = 2;
  auto ts = std::make_unique<TestServer>(fx.svc, fx.oracle, sopts);

  // Batches in flight on connections owned by different loops when
  // shutdown lands: every loop must observe the drain and still flush
  // every reply before run() returns.
  constexpr unsigned kClients = 4;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::vector<Query>> batches;
  std::vector<std::uint64_t> ids;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<net::Client>(ts->client_options()));
    batches.push_back(fx.random_queries(2000, 5000 + c));
    ids.push_back(clients[c]->send(batches[c]));
  }
  while (ts->server.stats().batches_received < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts->server.shutdown();
  for (unsigned c = 0; c < kClients; ++c) {
    EXPECT_EQ(clients[c]->wait(ids[c]), fx.svc.query_batch(*fx.oracle, batches[c]))
        << "client " << c;
  }
  ts.reset();  // joins every loop thread; hangs here if one missed the drain
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(NetServerMultiLoop, ListenFailureClosesEveryListener) {
  // A plain listener without SO_REUSEPORT holds an ephemeral port, so no
  // server listener can join it, reuseport or not.
  const int holder = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(holder, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(holder, reinterpret_cast<::sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(holder, 4), 0);
  ::socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<::sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  NetFixture fx;
  const std::size_t fds_before = open_fd_count();
  for (const unsigned loops : {1u, 3u}) {
    net::ServerOptions sopts;
    sopts.port = port;
    sopts.loops = loops;
    try {
      net::Server server(fx.svc, fx.oracle, sopts);
      ADD_FAILURE() << loops << " loop(s) listened on a taken port";
    } catch (const std::runtime_error& ex) {
      EXPECT_NE(std::string(ex.what()).find(":" + std::to_string(port) + " "),
                std::string::npos)
          << ex.what();
    }
  }
  EXPECT_EQ(open_fd_count(), fds_before);
  ::close(holder);
}

// --------------------------------------- multi-tenant registry (v2) ---

/// Registry-enabled server on an ephemeral port. The registry member is
/// declared before the server so it outlives it, exactly as production
/// embedders must order the two.
struct RegistryTestServer {
  registry::OracleRegistry registry;
  net::Server server;
  std::thread thread;

  RegistryTestServer(service::QueryService& svc, std::shared_ptr<const Snapshot> oracle,
                     registry::RegistryOptions ropts = {}, net::ServerOptions sopts = {})
      : registry(svc, ropts),
        server(svc, std::move(oracle), &registry, sopts),
        thread([this] { server.run(); }) {}

  ~RegistryTestServer() {
    server.shutdown();
    thread.join();
  }

  net::ClientOptions client_options() const {
    net::ClientOptions copts;
    copts.port = server.port();
    copts.connect_retries = 10;
    return copts;
  }
};

/// Parks every worker of `svc` until the returned promise is fulfilled, so
/// a dispatched batch deterministically stays in flight.
std::promise<void> wedge_pool(service::QueryService& svc) {
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  for (unsigned i = 0; i < svc.num_threads(); ++i) {
    svc.pool().submit([gate] { gate.wait(); });
  }
  return release;
}

// The acceptance matrix: one listener, several oracles registered purely
// over the wire, interleaved pipelined batches against each — answers must
// be byte-identical to a local QueryService building the same graphs.
// MSRP_FUZZ_TENANTS widens the matrix (2..8 random tenant graphs).
TEST(NetRegistry, WireRegisteredTenantsMatchInProcessByteForByte) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);  // no default oracle: registry only
  net::Client client(ts.client_options());
  EXPECT_TRUE(client.registry_enabled());
  EXPECT_EQ(client.hello().oracle_digest, 0u);

  std::size_t tenants = 2;
  if (const char* fuzz = std::getenv("MSRP_FUZZ_TENANTS")) {
    tenants = std::clamp<std::size_t>(std::strtoul(fuzz, nullptr, 10), 2, 8);
  }

  service::QueryService local({.threads = 2});
  struct Tenant {
    Graph g{0};
    std::vector<Vertex> sources;
    std::uint64_t digest = 0;
    std::shared_ptr<const Snapshot> oracle;  // the local differential build
  };
  std::vector<Tenant> tens(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    Rng rng(500 + i);
    tens[i].g = gen::connected_gnp(static_cast<Vertex>(30 + 5 * i), 0.12, rng);
    tens[i].sources = {0, static_cast<Vertex>(3 + i), static_cast<Vertex>(11 + 2 * i)};
    const net::RegisterAckFrame ack =
        client.register_graph(tens[i].g.num_vertices(), tens[i].g.edges(), tens[i].sources);
    tens[i].oracle = local.build(tens[i].g, tens[i].sources);
    EXPECT_EQ(ack.state, registry::OracleState::kReady);
    EXPECT_EQ(ack.digest, tens[i].oracle->content_digest()) << "tenant " << i;
    EXPECT_EQ(ack.num_vertices, tens[i].g.num_vertices());
    EXPECT_EQ(ack.sources, tens[i].sources);
    tens[i].digest = ack.digest;
  }
  for (std::size_t i = 0; i < tenants; ++i) {
    for (std::size_t j = i + 1; j < tenants; ++j) {
      EXPECT_NE(tens[i].digest, tens[j].digest);
    }
  }

  // Interleave pipelined batches across every tenant on one connection.
  struct Sent {
    std::uint64_t id = 0;
    std::size_t tenant = 0;
    std::vector<Query> queries;
  };
  std::vector<Sent> sent;
  std::size_t total_queries = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < tenants; ++i) {
      Rng rng(900 + 7 * round + i);
      auto queries = service::random_query_batch(tens[i].sources, tens[i].g.num_vertices(),
                                                 tens[i].g.num_edges(), 150 + 31 * round, rng);
      total_queries += queries.size();
      sent.push_back({client.send(queries, tens[i].digest), i, std::move(queries)});
    }
  }
  for (std::size_t s = sent.size(); s-- > 0;) {  // collect newest-first
    EXPECT_EQ(client.wait(sent[s].id),
              local.query_batch(*tens[sent[s].tenant].oracle, sent[s].queries))
        << "batch " << s;
  }

  const auto listed = client.list_oracles();
  ASSERT_EQ(listed.size(), tenants);
  std::uint64_t answered = 0;
  for (const auto& e : listed) {
    EXPECT_EQ(e.state, registry::OracleState::kReady);
    EXPECT_EQ(e.inflight_batches, 0u);
    answered += e.queries_answered;
  }
  EXPECT_EQ(answered, total_queries);
  EXPECT_EQ(ts.server.stats().oracles_registered, tenants);
}

TEST(NetRegistry, DefaultOracleServesV1AndDigestTargetedBatches) {
  NetFixture fx;
  RegistryTestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());
  EXPECT_TRUE(client.registry_enabled());
  EXPECT_EQ(client.hello().oracle_digest, fx.oracle->content_digest());

  const auto queries = fx.random_queries(500, 21);
  const auto want = fx.svc.query_batch(*fx.oracle, queries);
  EXPECT_EQ(client.call(queries), want);  // v1 shape, no digest
  EXPECT_EQ(client.call(queries, fx.oracle->content_digest()), want);

  // The adopted default is a first-class tenant in LIST_ORACLES.
  const auto listed = client.list_oracles();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].digest, fx.oracle->content_digest());
  EXPECT_EQ(listed[0].queries_answered, 2 * queries.size());
}

TEST(NetRegistry, NoDefaultOracleRejectsUntargetedBatches) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);
  net::Client client(ts.client_options());
  try {
    client.call(std::vector<Query>{{0, 0, 0}});
    FAIL() << "expected a batch error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("no default oracle"), std::string::npos);
  }

  // The connection survives; registering then targeting works.
  Rng rng(81);
  const Graph g = gen::connected_gnp(25, 0.18, rng);
  const auto ack = client.register_graph(g.num_vertices(), g.edges(), std::vector<Vertex>{0, 4});
  ASSERT_EQ(ack.state, registry::OracleState::kReady);
  EXPECT_EQ(client.call(std::vector<Query>{{0, 1, 0}}, ack.digest).size(), 1u);
}

TEST(NetRegistry, UnknownDigestFailsTheBatchNotTheConnection) {
  NetFixture fx;
  RegistryTestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  const auto queries = fx.random_queries(50, 51);
  try {
    client.call(queries, 0xdeadbeefdeadbeefULL);
    FAIL() << "expected a batch error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("unknown oracle digest"), std::string::npos);
  }
  EXPECT_EQ(client.call(queries), fx.svc.query_batch(*fx.oracle, queries));
  EXPECT_EQ(ts.server.stats().batch_errors, 1u);
  EXPECT_EQ(ts.server.stats().protocol_errors, 0u);
}

// Digest-targeted workload batches against a wire-registered tenant: the
// registry path and the typed opcodes compose.
TEST(NetRegistry, WorkloadBatchesTargetRegisteredTenants) {
  NetFixture fx;
  RegistryTestServer ts(fx.svc, fx.oracle);
  net::Client client(ts.client_options());

  Rng rng(88);
  const Graph g2 = gen::connected_gnp(35, 0.15, rng);
  const std::vector<Vertex> sources2{0, 7};
  const net::RegisterAckFrame ack =
      client.register_graph(g2.num_vertices(), g2.edges(), sources2);
  ASSERT_EQ(ack.state, registry::OracleState::kReady);

  service::QueryService local({.threads = 2});
  const auto oracle2 = local.build(g2, sources2);
  ASSERT_EQ(oracle2->content_digest(), ack.digest);

  std::vector<service::VitalityQuery> vq;
  std::vector<service::KFailQuery> fq;
  for (Vertex t = 0; t < g2.num_vertices(); ++t) {
    vq.push_back({0, t, 3});
    fq.push_back({7, t, {static_cast<EdgeId>(t % g2.num_edges()),
                         static_cast<EdgeId>((t + 1) % g2.num_edges())}});
  }
  // The registered tenant's graph lives server-side (register_graph built
  // it there), so even |F| == 2 works over the wire against the digest.
  EXPECT_EQ(client.call<Vitality>(vq, ack.digest), local.run<Vitality>(*oracle2, vq));
  EXPECT_EQ(client.call<KFail>(fq, ack.digest), local.run<KFail>(*oracle2, fq));

  // An unknown digest fails the workload batch, not the connection.
  try {
    client.call<Vitality>(vq, 0xdeadbeefULL);
    FAIL() << "expected a batch error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("unknown oracle digest"), std::string::npos);
  }
  EXPECT_EQ(client.call<Vitality>(vq, ack.digest), local.run<Vitality>(*oracle2, vq));
}

TEST(NetRegistry, RegistryDisabledServerStillSpeaksV2Shapes) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);  // single-oracle server, no registry
  net::Client client(ts.client_options());
  EXPECT_FALSE(client.registry_enabled());

  Rng rng(91);
  const Graph g = gen::connected_gnp(20, 0.2, rng);
  try {
    client.register_graph(g.num_vertices(), g.edges(), std::vector<Vertex>{0});
    FAIL() << "expected registration to be refused";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("registry is disabled"), std::string::npos);
  }

  // An explicit digest naming the served oracle is accepted; a foreign one
  // is a batch error that names the limitation.
  const auto queries = fx.random_queries(100, 92);
  EXPECT_EQ(client.call(queries, fx.oracle->content_digest()),
            fx.svc.query_batch(*fx.oracle, queries));
  try {
    client.call(queries, 0x1234);
    FAIL() << "expected a batch error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("single-oracle server"), std::string::npos);
  }

  // LIST_ORACLES degrades to a one-row answer for the default oracle.
  const auto listed = client.list_oracles();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].digest, fx.oracle->content_digest());
}

TEST(NetRegistry, AdmissionControlAnswersBusyAndRetrySucceeds) {
  NetFixture fx;
  net::ServerOptions sopts;
  sopts.dispatch = {.per_tenant_inflight = 1, .per_tenant_queue = 0, .total_inflight = 4};
  RegistryTestServer ts(fx.svc, fx.oracle, {}, sopts);
  net::Client client(ts.client_options());

  // Wedge the pool so the first batch deterministically stays in flight;
  // the second then overflows the zero-length queue.
  std::promise<void> release = wedge_pool(fx.svc);
  const auto b1 = fx.random_queries(200, 41);
  const auto b2 = fx.random_queries(100, 42);
  const std::uint64_t id1 = client.send(b1);
  const std::uint64_t id2 = client.send(b2);
  try {
    client.wait(id2);
    FAIL() << "expected BUSY";
  } catch (const net::BusyError& ex) {
    EXPECT_NE(std::string(ex.what()).find("busy"), std::string::npos);
  }
  release.set_value();
  EXPECT_EQ(client.wait(id1), fx.svc.query_batch(*fx.oracle, b1));
  EXPECT_EQ(ts.server.stats().busy_rejected, 1u);

  // BUSY means "did not run": an identical resend is safe and succeeds.
  EXPECT_EQ(client.call(b2), fx.svc.query_batch(*fx.oracle, b2));
}

TEST(NetRegistry, UnregisterAndReRegisterOverTheWire) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);
  net::Client client(ts.client_options());

  Rng rng(61);
  const Graph g = gen::connected_gnp(30, 0.15, rng);
  const std::vector<Vertex> sources{0, 5, 9};
  const auto ack = client.register_graph(g.num_vertices(), g.edges(), sources);
  ASSERT_EQ(ack.state, registry::OracleState::kReady);

  // Re-registering a resident digest is idempotent, not a second tenant.
  const auto dup = client.register_graph(g.num_vertices(), g.edges(), sources);
  EXPECT_EQ(dup.digest, ack.digest);
  EXPECT_EQ(client.list_oracles().size(), 1u);

  Rng qrng(62);
  const auto queries =
      service::random_query_batch(sources, g.num_vertices(), g.num_edges(), 120, qrng);
  const auto want = client.call(queries, ack.digest);
  EXPECT_EQ(want.size(), queries.size());

  const auto gone = client.unregister(ack.digest);
  EXPECT_EQ(gone.state, registry::OracleState::kUnregistered);
  EXPECT_TRUE(client.list_oracles().empty());
  EXPECT_THROW(client.call(queries, ack.digest), std::runtime_error);
  EXPECT_THROW(client.unregister(ack.digest), std::runtime_error);  // unknown now

  // Re-registering the same graph revives the same digest.
  const auto again = client.register_graph(g.num_vertices(), g.edges(), sources);
  EXPECT_EQ(again.digest, ack.digest);
  EXPECT_EQ(client.call(queries, ack.digest), want);
}

TEST(NetRegistry, UnregisterWhileInflightDrainsThenRetires) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);
  net::Client client(ts.client_options());

  Rng rng(71);
  const Graph g = gen::connected_gnp(30, 0.15, rng);
  const std::vector<Vertex> sources{0, 5, 9};
  const auto ack = client.register_graph(g.num_vertices(), g.edges(), sources);
  ASSERT_EQ(ack.state, registry::OracleState::kReady);
  Rng qrng(72);
  const auto queries =
      service::random_query_batch(sources, g.num_vertices(), g.num_edges(), 120, qrng);
  const auto want = client.call(queries, ack.digest);  // warm round trip

  // One batch in flight on a wedged pool, then unregister underneath it.
  std::promise<void> release = wedge_pool(svc);
  const std::uint64_t id = client.send(queries, ack.digest);
  while (ts.server.stats().batches_received < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto expiring = client.unregister(ack.digest);
  EXPECT_EQ(expiring.state, registry::OracleState::kExpiring);
  // Invisible to new batches while draining.
  EXPECT_THROW(client.call(queries, ack.digest), std::runtime_error);

  release.set_value();
  EXPECT_EQ(client.wait(id), want);  // the in-flight batch drains with answers
  for (int i = 0; i < 2000 && ts.registry.tenant_count() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ts.registry.tenant_count(), 0u);  // fully retired after the drain
}

// A server restart on the same port: the client's socket dies with the
// old server, and call_retry re-dials the new one and answers every batch
// byte for byte.
TEST(NetRegistry, CallRetryRecoversAcrossRestart) {
  NetFixture fx;
  auto tsA = std::make_unique<TestServer>(fx.svc, fx.oracle);
  const std::uint16_t port = tsA->server.port();
  net::Client client(tsA->client_options());
  net::RetryPolicy policy;
  policy.initial_backoff_ms = 1;

  const auto warm = fx.random_queries(150, 600);
  EXPECT_EQ(client.call_retry(warm, policy), fx.svc.query_batch(*fx.oracle, warm));
  tsA.reset();  // the server dies under a connected client

  net::ServerOptions sopts;
  sopts.port = port;
  TestServer tsB(fx.svc, fx.oracle, sopts);  // restart on the same port
  for (std::size_t b = 1; b < 4; ++b) {
    const auto queries = fx.random_queries(150 + 40 * b, 600 + b);
    EXPECT_EQ(client.call_retry(queries, policy), fx.svc.query_batch(*fx.oracle, queries))
        << "batch " << b;
  }
  EXPECT_EQ(tsB.server.stats().connections_accepted, 1u);
  EXPECT_EQ(client.inflight(), 0u);
}

/// Raw loopback socket for protocol-violation tests (the Client refuses to
/// send malformed bytes, so speak to the port directly).
struct RawConn {
  int fd = -1;

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr), 0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send(std::span<const std::uint8_t> bytes) {
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<::ssize_t>(bytes.size()));
  }

  /// Reads until EOF and returns every frame the server sent.
  std::vector<Frame> read_all_frames() {
    FrameDecoder dec;
    std::vector<Frame> frames;
    std::uint8_t buf[4096];
    for (;;) {
      const ::ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      dec.feed({buf, static_cast<std::size_t>(n)});
      while (auto f = dec.next()) frames.push_back(std::move(*f));
    }
    return frames;
  }

  /// Reads until `want` frames arrived (or EOF), leaving the connection
  /// open — for success-path tests where the server keeps serving.
  std::vector<Frame> read_frames(std::size_t want) {
    FrameDecoder dec;
    std::vector<Frame> frames;
    std::uint8_t buf[4096];
    while (frames.size() < want) {
      const ::ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      dec.feed({buf, static_cast<std::size_t>(n)});
      while (auto f = dec.next()) frames.push_back(std::move(*f));
    }
    return frames;
  }
};

TEST(NetServer, GarbageBytesGetErrorFrameThenClose) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  const std::uint8_t garbage[64] = {0xde, 0xad, 0xbe, 0xef};
  raw.send(garbage);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);  // HELLO, then connection-level ERROR + EOF
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_EQ(net::decode_error(frames[1].payload).request_id, 0u);
  EXPECT_EQ(ts.server.stats().protocol_errors, 1u);
}

TEST(NetServer, OversizedFrameHeaderGetsErrorFrameThenClose) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  // Valid magic, payload_len = max+1: rejected from the header alone.
  std::vector<std::uint8_t> header;
  net::append_error(header, 0, "");     // borrow a real header...
  header.resize(net::kFrameHeaderBytes);  // ...keep only the 24 header bytes
  const auto too_big = static_cast<std::uint32_t>(net::kDefaultMaxFrameBytes + 1);
  for (int i = 0; i < 4; ++i) header[4 + i] = static_cast<std::uint8_t>(too_big >> (8 * i));
  raw.send(header);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_NE(net::decode_error(frames[1].payload).message.find("maximum size"),
            std::string::npos);
}

TEST(NetServer, RequestIdZeroIsRejected) {
  // Id 0 means "the connection" in ERROR frames; a batch using it could
  // never be failed unambiguously, so it is a protocol violation up front.
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 0, fx.random_queries(5, 8));
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  const net::ErrorFrame err = net::decode_error(frames[1].payload);
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_NE(err.message.find("reserved"), std::string::npos);
}

TEST(NetServer, NonBatchFrameFromClientIsRejected) {
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> bytes;
  net::append_answer(bytes, 1, std::vector<Dist>{1});  // clients must not send this
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_EQ(net::decode_error(frames[1].payload).request_id, 0u);
}

TEST(NetServer, UnknownOpcodeProbeGetsErrorFrameThenClose) {
  // A forward-compatibility probe: a checksum-valid frame with a type the
  // server does not know (say, a hypothetical v4 opcode) must be answered
  // with a connection-level ERROR naming the allowed opcodes — never
  // silently dropped, never crashing the dispatch switch.
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 1, fx.random_queries(3, 14));
  bytes[8] = 99;  // frame type (checksum covers the payload, not the header)
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  const net::ErrorFrame err = net::decode_error(frames[1].payload);
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_NE(err.message.find("unexpected frame type 99"), std::string::npos);
  EXPECT_EQ(ts.server.stats().protocol_errors, 1u);
}

TEST(NetServer, UntargetedPointQueryBatchKeepsTheV1Layout) {
  // Layout pin: an untargeted batch (flags == 0, no digest, no deadline)
  // is the v1 QUERY_BATCH payload, the server answers it with the v1
  // ANSWER_BATCH payload, and the HELLO still announces sources and digest
  // in the v1 layout. Only the frame checksum rule changed since v1.
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  const std::vector<Query> queries = fx.random_queries(120, 15);
  const std::vector<Dist> want = fx.svc.query_batch(*fx.oracle, queries);

  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 7, queries);  // exactly a v2 client's bytes
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_frames(2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  const net::HelloInfo hello = net::decode_hello(frames[0].payload);
  EXPECT_EQ(hello.version, net::kProtocolVersion);
  EXPECT_EQ(hello.sources, fx.sources);

  // Byte-compare the reply against a locally encoded ANSWER_BATCH.
  ASSERT_EQ(frames[1].type, FrameType::kAnswerBatch);
  std::vector<std::uint8_t> expect;
  net::append_answer(expect, 7, want);
  FrameDecoder dec;
  dec.feed(expect);
  EXPECT_EQ(frames[1].payload, dec.next()->payload);
}

/// Rewrites the checksum field of every frame in `bytes` with the byte-wise
/// FNV-1a that protocol v1–v4 used.
void rechecksum_bytewise(std::vector<std::uint8_t>& bytes) {
  for (std::size_t at = 0; at < bytes.size();) {
    const std::uint32_t len = net::detail::get_u32(bytes.data() + at + 4);
    const std::uint8_t* payload = bytes.data() + at + net::kFrameHeaderBytes;
    std::uint64_t ck = fnv::mix_bytes(fnv::kOffset, payload, len);
    for (int i = 0; i < 8; ++i, ck >>= 8) bytes[at + 16 + i] = static_cast<std::uint8_t>(ck);
    at += net::kFrameHeaderBytes + len;
  }
}

TEST(NetServer, PreV5ChecksumIsConnectionFatal) {
  // A v1–v4 client's frames carry the byte-wise checksum: the server must
  // refuse the first one like any corrupt frame, never serve it.
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> bytes;
  net::append_batch(bytes, 7, fx.random_queries(20, 16));
  rechecksum_bytewise(bytes);
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);  // HELLO, then connection-level ERROR + EOF
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  ASSERT_EQ(frames[1].type, FrameType::kError);
  const net::ErrorFrame err = net::decode_error(frames[1].payload);
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_NE(err.message.find("checksum"), std::string::npos) << err.message;
  EXPECT_EQ(ts.server.stats().protocol_errors, 1u);
  EXPECT_EQ(ts.server.stats().batches_received, 0u);
}

TEST(NetClient, PreV5ServerHelloFailsTheHandshake) {
  // A one-shot listener that greets like a v4 server: HELLO version 4
  // under the byte-wise checksum.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  ::socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<::sockaddr*>(&addr), &len), 0);

  std::vector<std::uint8_t> hello;
  net::HelloInfo info;
  info.version = 4;
  info.num_vertices = 10;
  info.sources = {0};
  net::append_hello(hello, info);
  rechecksum_bytewise(hello);
  std::thread server([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    [[maybe_unused]] const ::ssize_t n = ::write(fd, hello.data(), hello.size());
    std::uint8_t sink[64];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
    ::close(fd);
  });

  net::ClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  std::string message;
  try {
    net::Client client(copts);
  } catch (const std::runtime_error& ex) {
    message = ex.what();
  }
  ::shutdown(lfd, SHUT_RDWR);  // unblocks accept() should the dial have failed
  server.join();
  ::close(lfd);
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
}

TEST(NetServer, PeerResetMidReplyDoesNotKillServer) {
  // SIGPIPE regression test. A client that sends a batch and then
  // hard-resets its socket (SO_LINGER 0 → RST) leaves the server writing a
  // large reply into a dead connection. Every server write uses
  // MSG_NOSIGNAL, so that must surface as a failed send and a closed
  // connection — never a SIGPIPE that kills the process. If the guard
  // regresses, this whole test binary dies here.
  NetFixture fx;
  TestServer ts(fx.svc, fx.oracle);
  {
    RawConn raw(ts.server.port());
    // A batch whose reply far exceeds the socket buffers, so the server is
    // still sending when the RST lands.
    std::vector<std::uint8_t> bytes;
    net::append_batch(bytes, 1, fx.random_queries(500'000, 12));
    raw.send(bytes);
    while (ts.server.stats().batches_received == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::linger lg{1, 0};  // close() sends RST instead of FIN
    ASSERT_EQ(::setsockopt(raw.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg), 0);
  }
  // The server must still be alive and serving.
  while (ts.server.stats().connections_closed == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net::Client client(ts.client_options());
  const std::vector<Query> queries = fx.random_queries(300, 13);
  EXPECT_EQ(client.call(queries), fx.svc.query_batch(*fx.oracle, queries));
  EXPECT_EQ(ts.server.stats().protocol_errors, 0u);
}

TEST(NetRegistry, TruncatedRegisterUploadLeavesNoTenantBehind) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);
  {
    // Half a REGISTER_GRAPH frame, then the uploader vanishes.
    Rng rng(96);
    const Graph g = gen::connected_gnp(30, 0.15, rng);
    net::RegisterGraphFrame reg;
    reg.request_id = 1;
    reg.num_vertices = g.num_vertices();
    reg.sources = {0, 5};
    reg.edges = g.edges();
    std::vector<std::uint8_t> bytes;
    net::append_register_graph(bytes, reg);
    RawConn raw(ts.server.port());
    raw.send(std::span(bytes.data(), bytes.size() / 2));
  }
  while (ts.server.stats().connections_closed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The partial frame never became a registration — no provisional slot
  // leaked — and the server still serves full uploads.
  EXPECT_EQ(ts.server.stats().oracles_registered, 0u);
  EXPECT_EQ(ts.registry.tenant_count(), 0u);
  net::Client client(ts.client_options());
  Rng rng2(97);
  const Graph g2 = gen::connected_gnp(25, 0.18, rng2);
  const auto ack = client.register_graph(g2.num_vertices(), g2.edges(), std::vector<Vertex>{0, 3});
  EXPECT_EQ(ack.state, registry::OracleState::kReady);
}

TEST(NetRegistry, RegisterRequestIdZeroIsRejected) {
  service::QueryService svc({.threads = 2});
  RegistryTestServer ts(svc, nullptr);
  RawConn raw(ts.server.port());
  net::RegisterGraphFrame reg;
  reg.request_id = 0;  // reserved for connection-level errors
  reg.num_vertices = 3;
  reg.sources = {0};
  reg.edges = {{0, 1}, {1, 2}};
  std::vector<std::uint8_t> bytes;
  net::append_register_graph(bytes, reg);
  raw.send(bytes);
  const std::vector<Frame> frames = raw.read_all_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  const net::ErrorFrame err = net::decode_error(frames[1].payload);
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_NE(err.message.find("reserved"), std::string::npos);
  EXPECT_EQ(ts.registry.tenant_count(), 0u);
}

}  // namespace
}  // namespace msrp
