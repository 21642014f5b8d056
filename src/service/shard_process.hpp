/// \file
/// Shard worker: the child-process half of multi-process serving.
///
/// A worker attaches two shared-memory segments its supervisor placed —
/// shard_snapshot_name() holds the shard's v2 snapshot image, served
/// zero-copy via Snapshot::attach; shard_channel_name() holds the SPSC
/// request/response rings — flags itself ready, and then answers point
/// queries until the supervisor raises the stop flag or the parent process
/// disappears. The loop is single-threaded by design: that is what makes
/// the channel's single-consumer/single-producer contract structural.
///
/// Workers are spawned two ways (see ShardRouterOptions::worker_argv):
/// plain fork (the child calls run_shard_worker in the parent's image; how
/// tests and library embedders run) or fork+exec of a binary that routes
/// its `--shard-worker <base>:<k>` flag to shard_worker_main (how
/// msrp_serve deploys — each worker is a real, separately-visible OS
/// process with a fresh address space).
#pragma once

#include <cstdint>
#include <string>

namespace msrp::service {

/// Identifies one worker's segments: shared-memory base name + shard index.
struct ShardWorkerConfig {
  std::string base_name;      ///< router-chosen prefix, e.g. "/msrp.4711.1"
  std::uint32_t shard_index = 0;
};

/// Exit code of a worker whose snapshot segment failed attach-time
/// validation (checksum/shape mismatch — a corrupt or torn image). Distinct
/// from 0 (clean stop), 1 (generic failure), 2 (bad --shard-worker spec)
/// and 127 (exec failure) so the supervisor can log it meaningfully.
inline constexpr int kShardWorkerExitBadSnapshot = 3;

/// Name of shard k's channel segment: "<base>.c<k>".
std::string shard_channel_name(const std::string& base, std::uint32_t k);
/// Name of shard k's snapshot segment: "<base>.s<k>".
std::string shard_snapshot_name(const std::string& base, std::uint32_t k);
/// Name of the router-global completion-doorbell segment: "<base>.d".
std::string shard_doorbell_name(const std::string& base);

/// Runs a worker to completion in the calling process. Returns a process
/// exit code (0 = clean stop). Never throws.
int run_shard_worker(const ShardWorkerConfig& cfg);

/// Entry point for the exec'd flavour: parses the "<base>:<k>" spec a
/// router appends after `--shard-worker` and runs the worker. Returns the
/// process exit code.
int shard_worker_main(const std::string& spec);

}  // namespace msrp::service
