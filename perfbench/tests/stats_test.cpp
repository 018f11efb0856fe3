// Unit tests of the benchmark's statistics helpers (src/stats.h). The
// expected values are worked out by hand in the comments. Build and run:
//   python3 perfbench/run.py --test
// Exit status 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "../src/stats.h"

namespace {

int failures = 0;

void check_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void check_eq(const char* what, size_t got, size_t want) {
  if (got != want) {
    std::printf("FAIL %s: got %zu, want %zu\n", what, got, want);
    ++failures;
  }
}

std::vector<double> one_to(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Median: odd count takes the middle, even count the mean of the two.
  check_near("median odd", median({3, 1, 2}), 2.0);
  check_near("median even", median({4, 1, 3, 2}), 2.5);
  check_near("median single", median({7}), 7.0);

  // Linear quantile: position q * (n - 1) = 0.9 * 4 = 3.6 in
  // {10, 20, 30, 40, 50} -> 40 + 0.6 * 10 = 46.
  check_near("quantile 0.9", quantile({50, 10, 40, 20, 30}, 0.9), 46.0);

  // Quartiles as Python's statistics.quantiles(v, n=4): for 1..10,
  // m = 11; cut 1: j = 11 // 4 = 2, delta = 3 -> (2 * 1 + 3 * 3) / 4 = 2.75;
  // cut 2: j = 5, delta = 2 -> (5 * 2 + 6 * 2) / 4 = 5.5;
  // cut 3: j = 8, delta = 1 -> (8 * 3 + 9 * 1) / 4 = 8.25.
  Quartiles q = quartiles(one_to(10));
  check_near("quartile 1 of 1..10", q.q1, 2.75);
  check_near("quartile 2 of 1..10", q.q2, 5.5);
  check_near("quartile 3 of 1..10", q.q3, 8.25);
  // Two samples {1, 2}: m = 3; cut 1 clamps j to 1 with delta = -1 ->
  // (1 * 5 + 2 * -1) / 4 = 0.75; cut 2 -> 1.5; cut 3 clamps j to 1 with
  // delta = 5 -> (1 * -1 + 2 * 5) / 4 = 2.25 (Python extrapolates too).
  q = quartiles({2, 1});
  check_near("quartile 1 of {1,2}", q.q1, 0.75);
  check_near("quartile 2 of {1,2}", q.q2, 1.5);
  check_near("quartile 3 of {1,2}", q.q3, 2.25);

  // Tail below 40 samples: the median alone. 1..39 -> 20, with the 19
  // samples 21..39 beyond it.
  Tail t = tail(one_to(39), 0.99);
  check_near("tail <40 percentile", t.percentile, 0.5);
  check_near("tail <40 value", t.value, 20.0);
  check_eq("tail <40 samples", t.samples, 39);
  check_eq("tail <40 beyond", t.beyond, 19);

  // 40 samples 1..40: p99 = 39.61 (1 beyond), p95 = 38.05 (2), p90 =
  // 36.1 (4) leave fewer than 10 beyond; p75 at position 29.25 -> 30.25
  // leaves exactly 31..40 = 10 beyond.
  t = tail(one_to(40), 0.99);
  check_near("tail 40 percentile", t.percentile, 0.75);
  check_near("tail 40 value", t.value, 30.25);
  check_eq("tail 40 beyond", t.beyond, 10);

  // 1000 samples 1..1000, wanted p99: position 989.01 -> 990.01, with
  // 991..1000 = 10 beyond.
  t = tail(one_to(1000), 0.99);
  check_near("tail 1000 percentile", t.percentile, 0.99);
  check_near("tail 1000 value", t.value, 990.01);
  check_eq("tail 1000 beyond", t.beyond, 10);
  // Default (highest rung p99.9 = 999.001) has only 1000 beyond it, so the
  // ladder steps down to p99.
  t = tail(one_to(1000));
  check_near("tail 1000 default percentile", t.percentile, 0.99);
  // Wanted p90 is honoured when it qualifies: position 899.1 -> 900.1,
  // 100 beyond.
  t = tail(one_to(1000), 0.9);
  check_near("tail 1000 p90 value", t.value, 900.1);
  check_eq("tail 1000 p90 beyond", t.beyond, 100);

  // All-equal samples leave nothing beyond any rung: the median alone.
  t = tail(std::vector<double>(100, 5.0), 0.99);
  check_near("tail ties percentile", t.percentile, 0.5);
  check_near("tail ties value", t.value, 5.0);
  check_eq("tail ties beyond", t.beyond, 0);

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
