#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;

void Result::merge(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
}

std::string Result::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char buf[64];
    // %.17g keeps every digit of the double (main refuses a non-finite
    // value before the line is printed).
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// --- tracer ------------------------------------------------------------

int32_t Tracer::begin(const char* name, const char* layer) {
  SpanRec s;
  s.name = name;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_[static_cast<size_t>(id)].start = now_ns();
  return id;
}

void Tracer::end(int32_t id) {
  spans_[static_cast<size_t>(id)].end = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end - spans_[i].start);
  }
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= static_cast<double>(s.end - s.start);
    }
  }
  return self;
}

bool Tracer::under(int32_t id, int32_t root) const {
  // Parents always precede their children, so the walk terminates.
  while (id >= 0) {
    if (id == root) return true;
    id = spans_[static_cast<size_t>(id)].parent;
  }
  return false;
}

std::map<std::string, double> Tracer::self_ns_by_layer(int32_t root) const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (under(static_cast<int32_t>(i), root)) out[spans_[i].layer] += self[i];
  }
  return out;
}

std::pair<double, size_t> Tracer::total_ns(int32_t root,
                                           const std::string& name) const {
  double total = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name && under(static_cast<int32_t>(i), root)) {
      total += static_cast<double>(spans_[i].end - spans_[i].start);
      ++n;
    }
  }
  return {total, n};
}

double Tracer::self_ns(int32_t root, const std::string& name) const {
  const std::vector<double> self = self_times();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name && under(static_cast<int32_t>(i), root)) {
      total += self[i];
    }
  }
  return total;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& label) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"otherData\": {\"label\": \"" << label << "\"}, \"traceEvents\": [";
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i ? "," : "", s.name, s.layer,
                  static_cast<double>(s.start - t0) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3, i, s.parent);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

LayerBreakdown breakdown(int32_t root) {
  const Tracer& t = tracer();
  LayerBreakdown b;
  const SpanRec& r = t.spans()[static_cast<size_t>(root)];
  b.wall_ms = static_cast<double>(r.end - r.start) * 1e-6;
  double attributed = 0.0;
  for (const auto& [layer, ns] : t.self_ns_by_layer(root)) {
    if (layer == std::string(r.layer)) continue;  // the round's own loop
    b.self_ms[layer] = ns * 1e-6;
    attributed += ns * 1e-6;
  }
  b.unattributed_share = b.wall_ms > 0 ? 1.0 - attributed / b.wall_ms : 0.0;
  return b;
}

void add_breakdown(Result& r, const std::string& prefix, const LayerBreakdown& b,
                   const std::vector<std::string>& layers) {
  for (const std::string& layer : layers) {
    const auto it = b.self_ms.find(layer);
    r.add(prefix + ".layer." + layer + "_ms",
          it == b.self_ms.end() ? 0.0 : it->second, "ms");
  }
  r.add(prefix + ".layer.round_ms", b.wall_ms, "ms");
  r.add(prefix + ".layer.unattributed_share", b.unattributed_share, "ratio");
}

// --- CPU rotation --------------------------------------------------------

CpuRotor::CpuRotor() : enabled_(true) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    enabled_ = false;
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) enabled_ = false;
}

CpuRotor::~CpuRotor() {
  if (!enabled_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotor::enter(size_t round) {
  if (!enabled_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[round % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

// --- scratch directory ---------------------------------------------------

ScratchDir::ScratchDir() {
  path_ = (fs::current_path() / ".bench_build" / "perfbench-tmp" /
           ("run-" + std::to_string(getpid())))
              .string();
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string ScratchDir::fresh(const std::string& name) const {
  const std::string p = path_ + "/" + name;
  std::error_code ec;
  fs::remove_all(p, ec);
  fs::create_directories(p);
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note_rounds(const char* workload, const std::vector<double>& round_ms) {
  const Quartiles q = quartiles(round_ms);
  std::fprintf(stderr, "%s: round time quartiles %.1f / %.1f / %.1f ms\n",
               workload, q.q1, q.q2, q.q3);
}

size_t rounds_for(const Options& opt, double nominal_per_s, size_t min) {
  const double want = nominal_per_s * static_cast<double>(opt.seconds);
  const size_t n = static_cast<size_t>(std::llround(want));
  return n < min ? min : n;
}

}  // namespace perfbench
