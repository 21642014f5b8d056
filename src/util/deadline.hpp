// End-to-end request deadlines.
//
// A deadline is an absolute steady_clock instant past which the system owes
// the caller an answer of "too late" rather than more waiting. It enters at
// the wire (QUERY_BATCH flag bit 1 carries a relative budget in ms, pinned
// to an absolute instant the moment the frame is decoded) and propagates by
// value: Server -> FairDispatcher -> QueryService. Each stage that can
// wait checks it; whichever stage notices expiry first fails the batch
// with DeadlineExceeded, which the server maps to an ERROR frame whose
// message begins with kDeadlineExceededPrefix — no new frame type, so
// deadline-unaware clients still parse the reply.
//
// kNoDeadline (time_point::max) means "wait forever", the pre-deadline
// behavior, and is the default everywhere.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace msrp {

using Deadline = std::chrono::steady_clock::time_point;

/// "No deadline": comparisons against it never expire.
inline constexpr Deadline kNoDeadline = Deadline::max();

inline Deadline deadline_after_ms(std::uint64_t ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

inline bool deadline_expired(Deadline d) {
  return d != kNoDeadline && std::chrono::steady_clock::now() >= d;
}

/// Wire-visible marker: ERROR frames for expired batches carry a message
/// starting with this, and the client retry policy keys off it.
inline constexpr std::string_view kDeadlineExceededPrefix = "DEADLINE_EXCEEDED";

inline bool is_deadline_exceeded_message(std::string_view msg) {
  return msg.substr(0, kDeadlineExceededPrefix.size()) == kDeadlineExceededPrefix;
}

class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error(std::string(kDeadlineExceededPrefix)) {}
  explicit DeadlineExceeded(const std::string& detail)
      : std::runtime_error(std::string(kDeadlineExceededPrefix) + ": " + detail) {}
};

}  // namespace msrp
