// Child processes of the benchmark: the msrp_serve servers the serve
// workloads drive, and fresh copies of the driver that time a cold build.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// A spawned process whose stdout is a pipe to us and whose stderr goes to
/// a log file. The destructor SIGKILLs and reaps a child still running, so
/// no exit path leaves a process behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& stderr_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Reads stdout until a line starting with `prefix` arrives; returns it.
  /// Every line read is kept in lines(). Throws on EOF or timeout.
  std::string wait_for_line(const std::string& prefix, std::chrono::milliseconds timeout);

  const std::vector<std::string>& lines() const { return lines_; }

  /// Sends SIGTERM and waits up to `timeout` for the exit; a child still
  /// running then is SIGKILLed. Returns the exit status (128 + signal for
  /// a signal death, -1 when it had to be killed).
  int terminate(std::chrono::milliseconds timeout);

  /// Waits for a normal exit (SIGKILL after `timeout`); same return
  /// convention as terminate().
  int wait(std::chrono::milliseconds timeout);

  /// VmHWM (peak resident set) of the running child, in MiB.
  double peak_rss_mb() const;

 private:
  bool read_some(int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  std::vector<std::string> lines_;
};

/// VmHWM of a live process (`pid` 0 = this process), in MiB.
double peak_rss_mb(pid_t pid);

/// Names of the msrp shared-memory segments currently in /dev/shm.
std::set<std::string> msrp_shm_segments();

}  // namespace perfbench
