/// \file
/// Wire frame type codes (byte-exact meanings in docs/NETWORK_PROTOCOL.md).
///
/// Split out of protocol.hpp so the workload traits (service/workloads.hpp)
/// can name their request and answer frames without pulling in the codec.
#pragma once

#include <cstdint>

namespace msrp::net {

enum class FrameType : std::uint32_t {
  kHello = 1,        ///< server -> client, once, first frame on the wire
  kQueryBatch = 2,   ///< client -> server, pipelined
  kAnswerBatch = 3,  ///< server -> client, one per QUERY_BATCH
  kError = 4,        ///< server -> client; id 0 = fatal protocol error
  // ----- v2 (registry) -----
  kRegisterGraph = 5,  ///< client -> server: upload edge list / name a snapshot
  kRegisterAck = 6,    ///< server -> client: digest + build state
  kListOracles = 7,    ///< client -> server: enumerate registered oracles
  kOracleList = 8,     ///< server -> client: reply to LIST_ORACLES
  kUnregister = 9,     ///< client -> server: retire a digest
  kBusy = 10,          ///< server -> client: batch rejected by admission control
  // ----- v3 (workload opcodes) -----
  kVitalityBatch = 11,   ///< client -> server: top-k most-vital-edge queries
  kVitalityAnswer = 12,  ///< server -> client: one per VITALITY_BATCH
  kVickreyBatch = 13,    ///< client -> server: Vickrey pricing queries
  kVickreyAnswer = 14,   ///< server -> client: one per VICKREY_BATCH
  kKFailBatch = 15,      ///< client -> server: k-edge-failure queries
  kKFailAnswer = 16,     ///< server -> client: one per KFAIL_BATCH
  // ----- v4 (observability) -----
  kStatsRequest = 17,   ///< client -> server: dump the metrics registry
  kStatsSnapshot = 18,  ///< server -> client: one per STATS_REQUEST
};

}  // namespace msrp::net
