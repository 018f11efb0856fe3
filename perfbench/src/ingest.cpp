// `ingest` workload: the engine and the durable log, without the network.
// Each scenario's engine_trace is fed to Engine::insert_batch in bursts
// with provenance on; auto-compaction spills the log into a SegmentStore.
// The run then recovers cold: a new SegmentStore opened on the directory
// is replayed with backtest::replay_base_stream into a fresh engine.
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "backtest/replay.h"
#include "common.h"
#include "scenarios/scenario.h"
#include "sink_probe.h"
#include "storage/segment_store.h"

namespace perfbench {
namespace {

using namespace mp;

constexpr size_t kBurst = 256;
constexpr size_t kTraceCap = size_t{1} << 20;  // whole workloads
constexpr size_t kCompactAfterEvents = 8192;
// Rounds per second of requested run length (reference host, README).
constexpr double kRoundsPerSecond = 5.0;
constexpr size_t kMinRounds = 4;
// The inputs are rebuilt, and the build timed, before every
// kSetupEvery-th round (see time_into).
constexpr size_t kSetupEvery = 4;
// The tail percentile reported for burst latency (README).
constexpr double kTailPercentile = 0.99;

struct Inputs {
  std::vector<scenario::Scenario> scenarios;
  std::vector<std::vector<eval::Tuple>> traces;
};

Inputs make_inputs(uint64_t seed) {
  sdn::CampusOptions campus;
  campus.seed = seed;
  Inputs in;
  in.scenarios = scenario::all_scenarios(campus);
  for (const scenario::Scenario& s : in.scenarios) {
    in.traces.push_back(scenario::engine_trace(s, kTraceCap));
  }
  return in;
}

eval::EngineOptions live_options() {
  eval::EngineOptions eo;
  eo.compact_after_events = kCompactAfterEvents;
  return eo;
}

// One scenario's live engine with its store, then the recovered pair.
struct Ingest {
  std::unique_ptr<storage::SegmentStore> store;
  std::unique_ptr<SinkProbe> sink;
  std::unique_ptr<eval::Engine> engine;
  std::unique_ptr<storage::SegmentStore> cold;
  std::unique_ptr<eval::Engine> recovered;
  std::vector<double> burst_us;
  uint64_t ingest_ns = 0;    // CPU time: bursts + final compaction + flush
  uint64_t recover_ns = 0;   // CPU time: store open + replay_base_stream
  uint64_t compact_ns = 0;   // the final compact(0)
  uint64_t open_ns = 0;      // the cold store's recovery scan
  size_t recovered_events = 0;

  ~Ingest() {
    if (engine) engine->log().set_spill(nullptr);
  }
};

void run_one(Ingest& g, const scenario::Scenario& s,
             const std::vector<eval::Tuple>& trace, const std::string& dir,
             bool traced) {
  g.store = std::make_unique<storage::SegmentStore>(dir);
  g.engine = std::make_unique<eval::Engine>(s.program, live_options());
  if (traced) {
    g.sink = std::make_unique<SinkProbe>(*g.store);
    g.engine->log().set_spill(g.sink.get());
  } else {
    g.engine->log().set_spill(g.store.get());
  }
  g.burst_us.reserve(trace.size() / kBurst + 1);
  const std::span<const eval::Tuple> all(trace);
  const uint64_t t0 = cpu_ns();
  for (size_t i = 0; i < all.size(); i += kBurst) {
    const uint64_t b0 = now_ns();
    {
      Span span("eval.insert_batch", "eval");
      g.engine->insert_batch(all.subspan(i, std::min(kBurst, all.size() - i)));
    }
    g.burst_us.push_back(static_cast<double>(now_ns() - b0) * 1e-3);
  }
  {
    const uint64_t c0 = now_ns();
    Span span("eval.compact", "eval");
    g.engine->log().compact(0);
    g.compact_ns = now_ns() - c0;
  }
  {
    Span span("storage.flush", "storage");
    g.store->flush(false);
  }
  g.ingest_ns = cpu_ns() - t0;

  const uint64_t rc0 = cpu_ns();
  const uint64_t r0 = now_ns();
  {
    Span span("storage.recover", "storage");
    g.cold = std::make_unique<storage::SegmentStore>(dir);
  }
  g.open_ns = now_ns() - r0;
  {
    Span span("eval.rebuild", "eval");
    g.recovered = std::make_unique<eval::Engine>(s.program);
    backtest::replay_base_stream(*g.cold, *g.recovered);
  }
  g.recover_ns = cpu_ns() - rc0;
  g.recovered_events = g.cold->events();
}

// The recovered engine's tables and event sequence equal the live
// engine's.
bool same_state(const scenario::Scenario& s, const Ingest& g) {
  for (const ndlog::TableDecl& t : s.program.tables) {
    std::vector<eval::Tuple> a = g.engine->all_tuples(t.name);
    std::vector<eval::Tuple> b = g.recovered->all_tuples(t.name);
    auto by_text = [](const eval::Tuple& x, const eval::Tuple& y) {
      return x.to_string() < y.to_string();
    };
    std::sort(a.begin(), a.end(), by_text);
    std::sort(b.begin(), b.end(), by_text);
    if (a != b) return false;
  }
  auto sequence = [](const eval::EventLog& log) {
    std::vector<std::string> out;
    log.for_each_event([&](const eval::Event& e) {
      std::string line = log.to_string(e) + " tags=" + std::to_string(e.tags) +
                         " causes=";
      for (eval::EventId c : log.causes_of(e)) line += std::to_string(c) + ",";
      out.push_back(std::move(line));
    });
    return out;
  };
  const auto live = sequence(g.engine->log());
  return !live.empty() && live == sequence(g.recovered->log());
}

}  // namespace

Result run_ingest(const Options& opt) {
  Result r;
  Inputs in;
  std::vector<double> setup_s;
  time_into(setup_s, [&] { in = make_inputs(opt.seed); });

  ScratchDir scratch;
  CpuRotor rotor;
  std::vector<double> round_ms;
  const size_t rounds = rounds_for(opt, kRoundsPerSecond, kMinRounds);
  const size_t n = in.scenarios.size();
  uint64_t total_ns = 0;
  std::vector<double> burst_us, recover_us;
  std::vector<bool> bad(n, false);
  std::vector<size_t> first_events(n, 0), first_bytes(n, 0);
  double log_bytes = 0, log_events = 0;
  size_t tuples = 0;
  for (const auto& t : in.traces) tuples += t.size();

  for (size_t round = 0; round < rounds; ++round) {
    rotor.enter(round);
    if (round % kSetupEvery == kSetupEvery - 1) {
      time_into(setup_s, [&] { make_inputs(opt.seed); });
    }
    uint64_t round_ns = 0;
    for (size_t k = 0; k < n; ++k) {
      const std::string dir = scratch.fresh("ingest");
      Ingest g;
      run_one(g, in.scenarios[k], in.traces[k], dir, false);
      round_ns += g.ingest_ns;
      burst_us.insert(burst_us.end(), g.burst_us.begin(), g.burst_us.end());
      recover_us.push_back(static_cast<double>(g.recover_ns) * 1e-3);
      // --- checks (outside every metric) ---
      const size_t events = g.engine->log().size();
      const size_t bytes = g.store->bytes();
      if (g.recovered_events != events || g.store->failed()) bad[k] = true;
      if (round == 0) {
        first_events[k] = events;
        first_bytes[k] = bytes;
        log_bytes += static_cast<double>(bytes);
        log_events += static_cast<double>(events);
        if (!same_state(in.scenarios[k], g)) bad[k] = true;
      } else if (events != first_events[k] || bytes != first_bytes[k]) {
        bad[k] = true;  // no state may carry between rounds
      }
    }
    total_ns += round_ns;
    round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
  }
  for (size_t k = 0; k < n; ++k) {
    const size_t bursts = (in.traces[k].size() + kBurst - 1) / kBurst;
    r.attempted += bursts * rounds;
    if (bad[k]) {
      r.failed += bursts * rounds;
      std::fprintf(stderr, "ingest: %s failed its checks\n",
                   in.scenarios[k].id.c_str());
    }
  }

  const Tail t = tail(burst_us, kTailPercentile);
  note_rounds("ingest", round_ms);
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("ops_per_s",
        static_cast<double>(tuples * rounds) / (static_cast<double>(total_ns) * 1e-9),
        "1/s");
  r.add("op_p50_us", median(burst_us), "us");
  r.add("op_tail_us", t.value, "us");
  r.add("slow_op_p50_us", median(recover_us), "us");
  r.add("log_bytes_per_event", log_bytes / log_events, "B");
  std::fprintf(stderr,
               "ingest: %zu rounds x %zu tuples (%zu-tuple bursts); tail = "
               "p%.1f of %zu samples (%zu beyond); %.0f events/round\n",
               rounds, tuples, kBurst, t.percentile * 100.0, t.samples,
               t.beyond, log_events);
  return r;
}

Result trace_ingest(const Options& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  ScratchDir scratch;
  Tracer& tr = tracer();
  const size_t n = in.scenarios.size();

  size_t tuples = 0, events = 0, lanes = 0;
  double steps = 0, append_ns = 0, appends = 0, bytes = 0, compact_ns = 0;
  double open_ns = 0, decode_ns = 0, decoded = 0;
  bool ok = true;
  // The counters describe the last traced round; untraced rounds do the
  // same work and leave them alone.
  const TracedRounds rounds = alternate_rounds("ingest.round", [&](bool traced) {
    if (traced) {
      tuples = events = lanes = 0;
      steps = append_ns = appends = bytes = compact_ns = open_ns = 0;
    }
    for (size_t k = 0; k < n; ++k) {
      std::string dir;
      {
        Span span("storage.mkdir", "storage");
        dir = scratch.fresh("ingest");
      }
      Ingest g;
      run_one(g, in.scenarios[k], in.traces[k], dir, traced);
      ok = ok && g.recovered_events == g.engine->log().size();
      if (traced) {
        tuples += in.traces[k].size();
        events += g.engine->log().size();
        lanes += g.engine->entry_lanes();
        steps += static_cast<double>(g.engine->steps());
        append_ns += static_cast<double>(g.sink->append_ns);
        appends += static_cast<double>(g.sink->appends);
        bytes += static_cast<double>(g.store->bytes());
        compact_ns += static_cast<double>(g.compact_ns);
        open_ns += static_cast<double>(g.open_ns);
      }
      {
        Span span("eval.teardown", "eval");
        g.engine->log().set_spill(nullptr);
        g.recovered.reset();
        g.engine.reset();
      }
      Span span("storage.close", "storage");
      g.cold.reset();
      g.store.reset();
    }
  });
  const int32_t root = rounds.root;

  // A bare decode walk of each cold store (outside the traced round): the
  // decode share of recovery.
  for (size_t k = 0; k < n; ++k) {
    Ingest g;
    run_one(g, in.scenarios[k], in.traces[k], scratch.fresh("ingest"), false);
    const uint64_t d0 = now_ns();
    size_t count = 0;
    g.cold->replay_raw([&](const eval::RawEvent&) {
      ++count;
      return true;
    });
    decode_ns += static_cast<double>(now_ns() - d0);
    decoded += static_cast<double>(count);
  }

  // insert_batch time minus the storage appends made inside it.
  const double insert_self = tr.self_ns(root, "eval.insert_batch");
  const double rebuild_ns = tr.total_ns(root, "eval.rebuild").first;
  const LayerBreakdown b = breakdown(root);
  tr.write_chrome_json(".bench_build/perfbench-trace/ingest-seed" +
                           std::to_string(opt.seed) + ".json",
                       "ingest");
  tr.clear();

  // The layer self times must account for the round (README).
  ok = ok && b.unattributed_share <= kUnattributedTolerance;
  r.attempted = n;
  r.failed = ok ? 0 : n;
  const std::string p = "ingest.";
  const double t = static_cast<double>(tuples);
  r.add(p + "eval.insert_us_per_tuple", insert_self * 1e-3 / t, "us");
  r.add(p + "eval.steps_per_tuple", steps / t, "count");
  r.add(p + "eval.events_per_tuple", static_cast<double>(events) / t, "count");
  r.add(p + "eval.entry_lanes", static_cast<double>(lanes), "count");
  r.add(p + "eval.compact_ms", compact_ns * 1e-6, "ms");
  r.add(p + "storage.append_us", append_ns * 1e-3 / appends, "us");
  r.add(p + "storage.bytes_per_event", bytes / static_cast<double>(events), "B");
  r.add(p + "storage.recover_ms", open_ns * 1e-6, "ms");
  r.add(p + "storage.decode_ns_per_event", decode_ns / decoded, "ns");
  r.add(p + "eval.rebuild_ns_per_event",
        (rebuild_ns - decode_ns) / static_cast<double>(events), "ns");
  add_breakdown(r, "ingest", b, {"eval", "storage"});
  r.add(p + "trace.overhead_share",
        rounds.overhead_share, "ratio");
  return r;
}

}  // namespace perfbench
