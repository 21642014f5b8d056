/// \file
/// Sampled query tracing: where did this query's 2 ms go?
///
/// Every request gets its per-stage durations recorded into the registry's
/// latency histograms unconditionally (that is cheap — see metrics.hpp).
/// On top of that, one request in N is *traced*: its TraceSpan — request
/// identity plus the four stage durations — is published into a bounded
/// ring that an operator can dump on demand (GET /traces on the metrics
/// listener, or programmatically via dump()).
///
/// The stage model matches the serving path end to end:
///
///   decode   frame arrival on the loop thread -> batch validated,
///            oracle resolved, handed to the dispatcher
///   queue    dispatcher submit -> the batch wins an inflight slot and
///            starts executing (admission + round-robin wait)
///   execute  execution start -> completion callback (pool workers and/or
///            shard round trips)
///   flush    completion posted back to the loop thread -> reply encoded
///            and pushed into the connection's send path
///
/// Sampling is a single atomic tick; an unsampled request costs one
/// fetch_add and no ring traffic. The ring overwrites oldest-first, so a
/// dump shows the most recent ~capacity sampled requests.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace msrp::obs {

struct TraceSpan {
  std::uint64_t trace_id = 0;    // monotonically increasing per sampled span
  std::uint64_t request_id = 0;  // wire frame id (Frame::id)
  std::uint32_t frame_type = 0;  // protocol FrameType of the request
  std::uint32_t queries = 0;     // batch size
  std::uint64_t start_ns = 0;    // now_ns() at decode entry
  std::uint64_t decode_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t execute_ns = 0;
  std::uint64_t flush_ns = 0;
  bool error = false;  // the reply was an ERROR (incl. deadline exceeded)
};

class TraceRing {
 public:
  /// Samples one request in `sample_every_n` (0 disables sampling
  /// entirely). `capacity` bounds retained spans.
  explicit TraceRing(std::uint32_t sample_every_n, std::size_t capacity = 256);

  /// True when the caller should trace this request. Wait-free.
  bool sample() noexcept {
    if (every_ == 0) return false;
    return tick_.fetch_add(1, std::memory_order_relaxed) % every_ == 0;
  }

  void publish(const TraceSpan& span);

  /// Retained spans, oldest first. Cheap enough for an operator endpoint;
  /// never called on the serving hot path.
  std::vector<TraceSpan> dump() const;

  std::uint32_t sample_every() const { return every_; }
  std::size_t capacity() const { return cap_; }
  std::uint64_t published() const;

 private:
  const std::uint32_t every_;
  const std::size_t cap_;
  std::atomic<std::uint64_t> tick_{0};
  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;   // ring_[i % cap_], wrapped
  std::uint64_t published_ = 0;   // total spans ever published
};

/// Human-readable dump, one span per line (the /traces body).
std::string format_trace_spans(const std::vector<TraceSpan>& spans);

}  // namespace msrp::obs
