// Order statistics for the benchmark's reports. Header-only so the unit
// test (tests/stats_test.cpp) builds without the library.
//
// Conventions:
//   - quantile(v, q) interpolates linearly between closest ranks
//     (position q * (n - 1) in the sorted sample, numpy's default).
//   - quartiles() follows Python's statistics.quantiles(v, n=4) in its
//     default "exclusive" method, which is what perfbench/steady.py and
//     the acceptance procedure use: position p * (n + 1), 1-based.
//   - tail(): the highest rung of kTailLadder (up to a requested one)
//     whose count of samples strictly above it is at least
//     kTailMinBeyond; below kTailMinSamples samples it reports the median
//     alone (a percentile of so few samples is no tail).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailMinSamples = 40;
inline constexpr size_t kTailMinBeyond = 10;
// Candidate tail percentiles, highest first.
inline constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75};

inline double quantile_sorted(const std::vector<double>& s, double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// Python statistics.quantiles(v, n=4) ("exclusive"), transcribed: cut
// point i of 4 sits at 1-based position i * (n + 1) / 4, with the rank
// clamped to [1, n - 1]. A single sample is its own quartiles.
inline Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  const long m = n + 1;
  auto cut = [&](long i) {
    const long j = std::clamp<long>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[static_cast<size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<size_t>(j)] * delta) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

struct Tail {
  double percentile = 0.5;  // the percentile reported (0.5 = median alone)
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;        // samples strictly above value
};

inline size_t count_above(const std::vector<double>& sorted, double x) {
  return static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), x));
}

// The tail statistic: the highest ladder percentile not above `wanted`
// that leaves at least kTailMinBeyond samples strictly above it; the
// median alone below kTailMinSamples samples or when no rung qualifies.
inline Tail tail(std::vector<double> v, double wanted = kTailLadder[0]) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  if (v.size() >= kTailMinSamples) {
    for (double p : kTailLadder) {
      if (p > wanted) continue;
      const double x = quantile_sorted(v, p);
      const size_t beyond = count_above(v, x);
      if (beyond >= kTailMinBeyond) {
        t.percentile = p;
        t.value = x;
        t.beyond = beyond;
        return t;
      }
    }
  }
  t.value = quantile_sorted(v, 0.5);
  t.beyond = count_above(v, t.value);
  return t;
}

}  // namespace perfbench
