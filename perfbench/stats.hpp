// Statistics, scheduling, and span bookkeeping for the benchmark driver.
//
// Header-only and free of msrp dependencies so selftest.cpp can pin the
// arithmetic down without building the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// The p-th percentile (p in [0, 100]) of `v`, linearly interpolated between
/// the two closest ranks (numpy's default). NaN for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Fixed-rate open-loop schedule: request i is due at start + i / rate.
/// Latency is measured from due(i), not from when the generator managed to
/// send, so a stall is charged to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, std::uint64_t start_ns)
      : period_ns_(1e9 / rate_per_s), start_ns_(start_ns) {}

  std::uint64_t due_ns(std::uint64_t i) const {
    return start_ns_ + static_cast<std::uint64_t>(std::llround(period_ns_ * static_cast<double>(i)));
  }

 private:
  double period_ns_;
  std::uint64_t start_ns_;
};

/// One timed interval at a layer boundary. `parent` is the index of the
/// enclosing span in the same log, or kNoParent for a root; spans of one
/// request share `trace`.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";  ///< a string literal
  std::uint64_t trace = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its direct children (clipped to the span, overlaps counted
/// once). Result[i] belongs to spans[i].
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

}  // namespace perfbench
