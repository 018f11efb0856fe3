// Shared plumbing of the end-to-end benchmark: options, the result line,
// the monotonic clock, the in-memory span tracer, CPU rotation across
// rounds and the per-run scratch directory. See README.md for the design.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;  // required on the command line (BENCHMARK.json's run_seconds)
  bool trace = false;
};

// One metric of the result line (value with all its digits, unit).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result of one invocation: the last stdout line. Its `correct`
// follows the output checks: it is true exactly when no operation failed.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Folds a workload's outcome into this one (traced runs cover all
  // three workloads).
  void merge(const Result& other);
  std::string json() const;
};

// Monotonic nanoseconds: per-operation latencies and trace spans.
uint64_t now_ns();
// CPU nanoseconds of the calling thread (CLOCK_THREAD_CPUTIME_ID): rates,
// operations of milliseconds and set-up. The workloads are single-threaded
// and never block (the store writes into the page cache), so on a
// dedicated core this equals wall time; on a shared VM it leaves out the
// time the hypervisor steals from the vCPU. A read is a system call
// (~0.4 us), so it brackets whole loops, never a microsecond operation.
uint64_t cpu_ns();

// --- in-memory span tracer ---------------------------------------------
// Spans are recorded only while enabled (traced runs). Each span has a
// name, the layer it is charged to, start and end, and its parent (the
// innermost span open when it began). Spans are kept in memory and
// written out once, when the run ends.
struct SpanRec {
  const char* name = "";
  const char* layer = "";
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t parent = -1;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int32_t begin(const char* name, const char* layer);
  void end(int32_t id);
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

  // Self time (span minus the parts its direct children cover), summed
  // per layer over the subtree rooted at `root` (root included).
  std::map<std::string, double> self_ns_by_layer(int32_t root) const;
  // Total duration and count of spans named `name` under `root`.
  std::pair<double, size_t> total_ns(int32_t root, const std::string& name) const;
  // Sum of self time of spans named `name` under `root`.
  double self_ns(int32_t root, const std::string& name) const;
  // Appends the spans as Chrome trace-event JSON ("X" events) to `path`.
  bool write_chrome_json(const std::string& path, const std::string& label) const;

 private:
  std::vector<double> self_times() const;
  bool under(int32_t id, int32_t root) const;

  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::vector<int32_t> stack_;
};

inline Tracer g_tracer;
inline Tracer& tracer() { return g_tracer; }

// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(const char* name, const char* layer)
      : id_(tracer().enabled() ? tracer().begin(name, layer) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int32_t id() const { return id_; }

 private:
  int32_t id_;
};

// Per-layer self times of one traced round, the round's wall time and
// the share of it no layer span covers (the benchmark's own loop).
struct LayerBreakdown {
  std::map<std::string, double> self_ms;
  double wall_ms = 0.0;
  double unattributed_share = 0.0;
};
LayerBreakdown breakdown(int32_t root);
// The most of a traced round that may lie outside every layer span.
inline constexpr double kUnattributedTolerance = 0.05;
// Adds `<prefix>.layer.<layer>_ms`, `<prefix>.layer.round_ms` and
// `<prefix>.layer.unattributed_share` for `layers` (absent layers report
// their measured 0).
void add_breakdown(Result& r, const std::string& prefix,
                   const LayerBreakdown& b,
                   const std::vector<std::string>& layers);

// Runs one untimed warm-up round, then `round(traced)` untraced and
// traced kTraceReps times each in ABBA order (untraced-traced,
// traced-untraced, ...), so that neither kind always runs first. The
// tracer is cleared before each traced round, so the spans of the last
// one remain (under a root span `name`). `round` must do the same work
// either way. The overhead is median(traced) / median(untraced) - 1.
inline constexpr int kTraceReps = 4;
struct TracedRounds {
  int32_t root = -1;
  double overhead_share = 0.0;
};
template <typename Fn>
TracedRounds alternate_rounds(const char* name, Fn&& round) {
  std::vector<double> plain, traced;
  TracedRounds out;
  round(false);
  for (int rep = 0; rep < kTraceReps; ++rep) {
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == (rep % 2 == 0)) {
        const uint64_t t0 = now_ns();
        round(false);
        plain.push_back(static_cast<double>(now_ns() - t0));
        continue;
      }
      tracer().clear();
      tracer().set_enabled(true);
      const uint64_t t0 = now_ns();
      {
        Span root(name, "bench");
        out.root = root.id();
        round(true);
      }
      traced.push_back(static_cast<double>(now_ns() - t0));
      tracer().set_enabled(false);
    }
  }
  out.overhead_share = median(traced) / median(plain) - 1.0;
  return out;
}

// --- host-noise lever: rotate rounds across allowed CPUs ----------------
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();  // restores the original affinity
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  // Pins the calling thread to the (round mod n)-th allowed CPU.
  void enter(size_t round);

 private:
  bool enabled_;
  std::vector<int> cpus_;
};

// --- per-run scratch directory under the checkout -----------------------
// `.bench_build/perfbench-tmp/run-<pid>`, removed with everything in it
// when the object is destroyed.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  // A fresh, empty subdirectory `<path>/<name>` (removed first if present).
  std::string fresh(const std::string& name) const;

 private:
  std::string path_;
};

// Peak resident set size of this process so far, in MB (2^20 bytes).
double peak_rss_mb();

// Fixed work per run: `nominal_per_s` rounds per second of requested run
// length (calibrated on the reference host, README), at least `min`.
size_t rounds_for(const Options& opt, double nominal_per_s, size_t min);

// One line on stderr: the quartiles of a run's round times, in ms (the
// within-run spread the host noise causes).
void note_rounds(const char* workload, const std::vector<double>& round_ms);

// Appends the CPU time `fn` takes, in seconds, to `out`. The set-up metric
// is the median of such timings: the inputs are built once before the
// first round and rebuilt (and discarded) between rounds, so that the
// repetitions sample the host's drifting memory state the way the rounds
// do rather than one moment at the start of the process.
template <typename Fn>
void time_into(std::vector<double>& out, Fn&& fn) {
  const uint64_t t0 = cpu_ns();
  fn();
  out.push_back(static_cast<double>(cpu_ns() - t0) * 1e-9);
}

// The three workloads. Each measures (trace off) or traces (trace on)
// and returns its part of the result line.
Result run_record(const Options& opt);
Result run_repair(const Options& opt);
Result run_ingest(const Options& opt);
Result trace_record(const Options& opt);
Result trace_repair(const Options& opt);
Result trace_ingest(const Options& opt);

}  // namespace perfbench
