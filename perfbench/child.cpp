#include "child.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point until) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, const std::string& stderr_path) {
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int err_fd = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    throw std::runtime_error("cannot open " + stderr_path);
  }
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  pid_ = fork();
  if (pid_ == 0) {
    dup2(pipefd[1], STDOUT_FILENO);
    dup2(err_fd, STDERR_FILENO);
    execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", cargv[0], std::strerror(errno));
    _exit(127);
  }
  close(pipefd[1]);
  close(err_fd);
  if (pid_ < 0) {
    close(pipefd[0]);
    throw std::runtime_error("fork failed");
  }
  out_fd_ = pipefd[0];
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

bool Child::read_some(int timeout_ms) {
  pollfd p{out_fd_, POLLIN, 0};
  const int r = poll(&p, 1, timeout_ms);
  if (r < 0 && errno == EINTR) return true;
  if (r <= 0) return r == 0;  // timeout: caller re-checks its clock
  char chunk[4096];
  const ssize_t got = read(out_fd_, chunk, sizeof chunk);
  if (got < 0) return errno == EINTR;
  if (got == 0) return false;  // EOF
  buf_.append(chunk, static_cast<std::size_t>(got));
  std::size_t nl;
  while ((nl = buf_.find('\n')) != std::string::npos) {
    lines_.push_back(buf_.substr(0, nl));
    buf_.erase(0, nl + 1);
  }
  return true;
}

std::string Child::wait_for_line(const std::string& prefix, std::chrono::milliseconds timeout) {
  const auto until = Clock::now() + timeout;
  std::size_t seen = 0;
  for (;;) {
    for (; seen < lines_.size(); ++seen) {
      if (lines_[seen].rfind(prefix, 0) == 0) return lines_[seen];
    }
    const int left = remaining_ms(until);
    if (left == 0) throw std::runtime_error("child: timed out waiting for '" + prefix + "'");
    if (!read_some(left)) throw std::runtime_error("child: exited before '" + prefix + "'");
  }
}

int Child::wait(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return -1;
  const auto until = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return decode_status(status);
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (remaining_ms(until) == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return -1;
    }
    // Drain stdout so a chatty child never blocks on a full pipe.
    read_some(5);
  }
}

int Child::terminate(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  return wait(timeout);
}

double Child::peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0.0;
}

std::set<std::string> msrp_shm_segments() {
  std::set<std::string> out;
  DIR* d = opendir("/dev/shm");
  if (d == nullptr) return out;
  while (const dirent* e = readdir(d)) {
    if (std::strncmp(e->d_name, "msrp.", 5) == 0) out.insert(e->d_name);
  }
  closedir(d);
  return out;
}

}  // namespace perfbench
