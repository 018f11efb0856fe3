// perfbench: the end-to-end benchmark of the meta-provenance runtime.
//
//   perfbench --workload record|repair|ingest --seed N --seconds S
//             --trace 0|1
//
// --trace 0 measures the workload's end-to-end metrics; --trace 1 runs
// one traced round of every workload on the same seed and reports the
// per-layer metrics. The last stdout line is the JSON result; notes go
// to stderr. See README.md.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload record|repair|ingest "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

bool parse_u64(const char* s, uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    uint64_t v = 0;
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      if (!parse_u64(value(), opt.seed)) usage("bad --seed");
    } else if (a == "--seconds") {
      if (!parse_u64(value(), v) || v < 1 || v > 600) usage("bad --seconds");
      opt.seconds = static_cast<int>(v);
    } else if (a == "--trace") {
      if (!parse_u64(value(), v) || v > 1) usage("bad --trace");
      opt.trace = v == 1;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload != "record" && opt.workload != "repair" &&
      opt.workload != "ingest") {
    usage("--workload must be record, repair or ingest");
  }
  if (opt.seconds == 0) usage("--seconds is required");

  try {
    Result r;
    if (!opt.trace) {
      if (opt.workload == "record") r = run_record(opt);
      if (opt.workload == "repair") r = run_repair(opt);
      if (opt.workload == "ingest") r = run_ingest(opt);
    } else {
      std::filesystem::create_directories(".bench_build/perfbench-trace");
      r.merge(trace_record(opt));
      r.merge(trace_repair(opt));
      r.merge(trace_ingest(opt));
    }
    // A metric that is not a number is a fault of the benchmark: no
    // result line is printed for it.
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                     m.name.c_str());
        return 1;
      }
    }
    std::fflush(stderr);
    std::printf("%s\n", r.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
