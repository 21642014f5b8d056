/// \file
/// Cross-process futex wait/wake on 32-bit words in shared memory.
///
/// The shard transport's doorbells are plain `std::atomic<std::uint32_t>`
/// sequence words living in shm segments mapped by supervisor and workers.
/// A waiter snapshots the word, re-checks its real condition, and parks in
/// the kernel with futex(FUTEX_WAIT) only if the word still holds the
/// snapshot; a waker bumps the word and calls futex(FUTEX_WAKE). The
/// classic lost-wakeup race is closed by the kernel's atomic compare inside
/// FUTEX_WAIT: a bump between snapshot and wait makes the wait return
/// immediately (EAGAIN).
///
/// All waits are bounded: callers pass a timeout so death detection (a
/// worker that will never ring again) and stop flags are always observed
/// within one timeout period even if a wake is lost to a crashed peer.
#pragma once

#include <atomic>
#include <cstdint>
#include <ctime>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

namespace msrp::util {

/// Blocks until `word` no longer holds `expected`, a wake arrives, or
/// `timeout_us` elapses (0 = return immediately). Spurious returns are
/// fine: every caller re-checks its real condition in a loop. The word must
/// live in memory shared by all participating processes (FUTEX is used
/// without the PRIVATE flag).
inline void futex_wait_u32(const std::atomic<std::uint32_t>& word, std::uint32_t expected,
                           std::uint64_t timeout_us) {
  if (timeout_us == 0) return;
  ::timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
  ts.tv_nsec = static_cast<long>((timeout_us % 1000000) * 1000);
  // FUTEX_WAIT (not _PRIVATE): supervisor and workers are distinct
  // processes sharing the word through shm. EAGAIN (word already changed),
  // EINTR, and ETIMEDOUT all mean "go re-check the condition".
  ::syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(&word), FUTEX_WAIT, expected,
            &ts, nullptr, 0);
}

/// Wakes up to `count` waiters parked on `word`. Cheap when nobody waits
/// (one syscall, no contention); callers ring unconditionally after bumping
/// the word rather than tracking waiter counts across processes.
inline void futex_wake_u32(std::atomic<std::uint32_t>& word, int count) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE, count, nullptr,
            nullptr, 0);
}

}  // namespace msrp::util
