// `record` workload: the production cost of meta-provenance recording.
// The five scenario controllers (Q1-Q5, buggy programs) run on the
// largest Fig. 9c campus; every packet of each scenario's workload is
// injected with Network::inject while the engine records provenance and
// its log auto-compacts into a SegmentStore.
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sink_probe.h"
#include "scenarios/pipeline.h"
#include "scenarios/scenario.h"
#include "sdn/controller.h"
#include "sdn/topology.h"
#include "storage/segment_store.h"

namespace perfbench {
namespace {

using namespace mp;

// Fig. 9c's largest campus: 169 switches, 8 core routers, 5 hosts/edge.
sdn::CampusOptions record_campus(uint64_t seed) {
  sdn::CampusOptions c;
  c.total_switches = 169;
  c.core_count = 8;
  c.hosts_per_edge = 5;
  c.seed = seed;
  return c;
}

constexpr size_t kCompactAfterEvents = 1024;
// Rounds per second of requested run length (reference host, README).
constexpr double kRoundsPerSecond = 1.0;
constexpr size_t kMinRounds = 4;
// The inputs are rebuilt, and the build timed, before every
// kSetupEvery-th round (see time_into).
constexpr size_t kSetupEvery = 4;
// The tail percentile reported for per-packet latency (README).
constexpr double kTailPercentile = 0.99;

struct Inputs {
  std::vector<scenario::Scenario> scenarios;
  std::vector<std::vector<sdn::Injection>> work;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  in.scenarios = scenario::all_scenarios(record_campus(seed));
  for (const scenario::Scenario& s : in.scenarios) {
    // Workload generation needs host placement: a throwaway topology.
    sdn::Network probe;
    const sdn::Campus campus = sdn::build_campus(probe, s.campus);
    if (s.wire_app) s.wire_app(probe, campus);
    in.work.push_back(s.make_workload(probe));
  }
  return in;
}

// Traced runs only: charges on_packet_in to the controller span.
class ControllerProbe final : public sdn::ControllerIface {
 public:
  explicit ControllerProbe(sdn::ControllerIface& inner) : inner_(inner) {}
  void on_packet_in(int64_t sw, int64_t in_port, const sdn::Packet& p,
                    eval::TagMask miss_tags) override {
    Span span("sdn.controller", "eval");
    ++calls;
    inner_.on_packet_in(sw, in_port, p, miss_tags);
  }
  size_t calls = 0;

 private:
  sdn::ControllerIface& inner_;
};

eval::EngineOptions engine_options(bool record) {
  eval::EngineOptions eo;
  eo.record_provenance = record;
  if (record) eo.compact_after_events = kCompactAfterEvents;
  return eo;
}

// The untraced build: the scenario's ScenarioRun with its log spilling
// into a fresh store, config inserted.
struct Recorder {
  scenario::ScenarioRun run;
  storage::SegmentStore store;

  Recorder(const scenario::Scenario& s, const std::string& dir)
      : run(s, s.program, engine_options(true)), store(dir) {
    run.engine().log().set_spill(&store);
    run.insert_config();
  }
  ~Recorder() { run.engine().log().set_spill(nullptr); }
};

// The traced build: the same pieces as ScenarioRun plus the store,
// assembled here so that each is built in the span of its layer and the
// controller, its bindings and the store can be wrapped.
struct Rig {
  std::unique_ptr<sdn::Network> owned_net = std::make_unique<sdn::Network>();
  sdn::Network& net = *owned_net;
  sdn::Campus campus;
  std::unique_ptr<storage::SegmentStore> store;
  std::unique_ptr<SinkProbe> sink;
  std::unique_ptr<eval::Engine> engine;
  std::unique_ptr<sdn::NdlogController> ctrl;
  std::unique_ptr<ControllerProbe> probe;

  Rig(const scenario::Scenario& s, const std::string& dir) {
    Span build("scenarios.build", "scenarios");
    {
      Span span("sdn.campus", "sdn");
      campus = sdn::build_campus(net, s.campus);
      if (s.wire_app) s.wire_app(net, campus);
    }
    {
      Span span("eval.engine", "eval");
      engine = std::make_unique<eval::Engine>(s.program, engine_options(true));
    }
    {
      Span span("storage.open", "storage");
      store = std::make_unique<storage::SegmentStore>(dir);
      sink = std::make_unique<SinkProbe>(*store);
      engine->log().set_spill(sink.get());
    }
    // Charge the proxy's encode/decode to sdn (they run inside the
    // controller span).
    sdn::ControllerBindings b = s.make_bindings();
    auto enc = b.encode_packet_in;
    b.encode_packet_in = [enc](int64_t sw, int64_t port, const sdn::Packet& p) {
      Span span("sdn.encode", "sdn");
      return enc(sw, port, p);
    };
    auto dec = b.decode_flow;
    b.decode_flow = [dec](const eval::Tuple& t) {
      Span span("sdn.decode", "sdn");
      return dec(t);
    };
    ctrl = std::make_unique<sdn::NdlogController>(net, *engine, b);
    probe = std::make_unique<ControllerProbe>(*ctrl);
    net.set_controller(probe.get());
    Span config("eval.config", "eval");
    engine->insert_batch(s.config_tuples);
  }
  // Tears down the engine (its log detaches from the store first), the
  // store (which writes its last group buffer) and the network, each in
  // the span of its layer.
  ~Rig() {
    net.set_controller(nullptr);
    probe.reset();
    ctrl.reset();
    {
      Span span("eval.teardown", "eval");
      engine->log().set_spill(nullptr);
      engine.reset();
    }
    {
      Span span("storage.close", "storage");
      sink.reset();
      store.reset();
    }
    Span span("sdn.teardown", "sdn");
    owned_net.reset();
  }

  size_t flow_entries() const {
    // Switch ids are dense up to the last edge switch (the scenario
    // switches 1-6 and the core sit below it).
    size_t n = 0;
    for (int64_t id = 0; id <= campus.edge_switches.back(); ++id) {
      if (const sdn::Switch* sw = net.find_switch(id)) n += sw->table().size();
    }
    return n;
  }
};

// Per-packet observations of one scenario loop.
struct Loop {
  std::vector<double> lat_us;
  std::vector<uint8_t> packet_in;
  std::vector<uint8_t> outcomes;  // terminal outcomes accounted
  uint64_t loop_ns = 0;           // CPU time of the whole loop
};

Loop run_loop(sdn::Network& net, const std::vector<sdn::Injection>& work) {
  Loop l;
  l.lat_us.resize(work.size());
  l.packet_in.resize(work.size());
  l.outcomes.resize(work.size());
  const sdn::DeliveryStats& st = net.stats();
  const uint64_t c0 = cpu_ns();
  for (size_t i = 0; i < work.size(); ++i) {
    const sdn::Injection& inj = work[i];
    const size_t pin0 = st.packet_ins;
    const size_t out0 = st.delivered + st.dropped + st.external;
    const uint64_t t0 = now_ns();
    {
      Span span("sdn.inject", "sdn");
      net.inject(inj.sw, inj.port, inj.packet, true);
    }
    const uint64_t dt = now_ns() - t0;
    l.lat_us[i] = static_cast<double>(dt) * 1e-3;
    l.packet_in[i] = st.packet_ins != pin0;
    l.outcomes[i] =
        static_cast<uint8_t>(st.delivered + st.dropped + st.external - out0);
  }
  l.loop_ns = cpu_ns() - c0;
  return l;
}

bool same_stats(const sdn::DeliveryStats& a, const sdn::DeliveryStats& b) {
  return a.delivered == b.delivered && a.dropped == b.dropped &&
         a.external == b.external && a.packet_ins == b.packet_ins &&
         a.flow_mods == b.flow_mods && a.packet_outs == b.packet_outs &&
         a.hops == b.hops && a.per_host.counts() == b.per_host.counts() &&
         a.per_host_port.counts() == b.per_host_port.counts();
}

// The log holds one PacketIn insertion per controller invocation. Walks
// the whole record: the spilled segments, then the live suffix.
bool packet_ins_logged(const eval::EventLog& log, const std::string& table,
                       size_t invocations) {
  size_t inserts = 0;
  log.for_each_event([&](const eval::Event& e) {
    if (e.kind == eval::EventKind::Insert && log.table_name(e.tuple) == table) {
      ++inserts;
    }
  });
  return inserts == invocations;
}

// The table the controller proxy encodes PacketIns into.
std::string packet_in_table(const scenario::Scenario& s,
                            const std::vector<sdn::Injection>& work) {
  const sdn::Injection& inj = work.front();
  return s.make_bindings().encode_packet_in(inj.sw, inj.port, inj.packet).table;
}

// Replays a scenario with recording off (no store) and returns its
// statistics and loop time: the baseline provenance must not change.
std::pair<sdn::DeliveryStats, uint64_t> replay_unrecorded(
    const scenario::Scenario& s, const std::vector<sdn::Injection>& work) {
  scenario::ScenarioRun run(s, s.program, engine_options(false));
  run.insert_config();
  const Loop l = run_loop(run.net(), work);
  return {run.net().stats(), l.loop_ns};
}

}  // namespace

Result run_record(const Options& opt) {
  Result r;
  Inputs in;
  std::vector<double> setup_s;
  time_into(setup_s, [&] { in = make_inputs(opt.seed); });

  ScratchDir scratch;
  CpuRotor rotor;
  std::vector<double> round_ms;
  const size_t rounds = rounds_for(opt, kRoundsPerSecond, kMinRounds);
  const size_t n = in.scenarios.size();
  uint64_t loop_ns = 0;
  size_t looped = 0;
  std::vector<double> lat_us, packet_in_lat_us;
  std::vector<sdn::DeliveryStats> first(n);
  std::vector<bool> bad(n, false);
  std::vector<size_t> packets(n, 0);
  double log_bytes = 0, log_events = 0;

  for (size_t round = 0; round < rounds; ++round) {
    rotor.enter(round);
    if (round % kSetupEvery == kSetupEvery - 1) {
      time_into(setup_s, [&] { make_inputs(opt.seed); });
    }
    uint64_t round_ns = 0;
    size_t round_packets = 0;
    for (size_t k = 0; k < n; ++k) {
      const std::string dir = scratch.fresh("record");
      Recorder rec(in.scenarios[k], dir);
      const Loop l = run_loop(rec.run.net(), in.work[k]);
      round_ns += l.loop_ns;
      round_packets += in.work[k].size();
      lat_us.insert(lat_us.end(), l.lat_us.begin(), l.lat_us.end());
      for (size_t i = 0; i < l.lat_us.size(); ++i) {
        if (l.packet_in[i]) packet_in_lat_us.push_back(l.lat_us[i]);
      }
      // --- checks (outside every metric) ---
      for (uint8_t o : l.outcomes) {
        if (o != 1) bad[k] = true;  // exactly one terminal outcome each
      }
      const sdn::DeliveryStats& st = rec.run.net().stats();
      if (round == 0) {
        first[k] = st;
        packets[k] = in.work[k].size();
        const std::string table = packet_in_table(in.scenarios[k], in.work[k]);
        if (!packet_ins_logged(rec.run.engine().log(), table, st.packet_ins)) {
          bad[k] = true;
        }
        rec.run.engine().log().compact(0);
        rec.store.flush(false);
        log_bytes += static_cast<double>(rec.store.bytes());
        log_events += static_cast<double>(rec.store.events());
      } else if (!same_stats(st, first[k])) {
        bad[k] = true;  // no state may carry between rounds
      }
    }
    loop_ns += round_ns;
    round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
    looped += round_packets;
  }
  // Recording is passive: statistics with it off equal those with it on.
  for (size_t k = 0; k < n; ++k) {
    if (!same_stats(replay_unrecorded(in.scenarios[k], in.work[k]).first,
                    first[k])) {
      bad[k] = true;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    r.attempted += packets[k] * rounds;
    if (bad[k]) r.failed += packets[k] * rounds;
  }

  const Tail t = tail(lat_us, kTailPercentile);
  note_rounds("record", round_ms);
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("ops_per_s", static_cast<double>(looped) / (static_cast<double>(loop_ns) * 1e-9),
        "1/s");
  r.add("op_p50_us", median(lat_us), "us");
  r.add("op_tail_us", t.value, "us");
  r.add("slow_op_p50_us", median(packet_in_lat_us), "us");
  r.add("log_bytes_per_event", log_bytes / log_events, "B");
  std::fprintf(stderr,
               "record: %zu rounds x %zu packets; tail = p%.1f of %zu samples "
               "(%zu beyond); %zu PacketIn samples; %.1f log B/packet\n",
               rounds, lat_us.size() / rounds, t.percentile * 100.0, t.samples,
               t.beyond, packet_in_lat_us.size(),
               log_bytes / static_cast<double>(lat_us.size() / rounds));
  return r;
}

Result trace_record(const Options& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  ScratchDir scratch;
  Tracer& tr = tracer();
  const size_t n = in.scenarios.size();

  // Recording on (the end-to-end configuration) against off on the same
  // inputs, in ABBA order; medians of kTraceReps loop times each.
  std::vector<double> on_ns, off_ns;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    for (int half = 0; half < 2; ++half) {
      double loop = 0;
      if ((half == 0) == (rep % 2 == 0)) {
        for (size_t k = 0; k < n; ++k) {
          Recorder rec(in.scenarios[k], scratch.fresh("record"));
          loop += static_cast<double>(run_loop(rec.run.net(), in.work[k]).loop_ns);
        }
        on_ns.push_back(loop);
      } else {
        for (size_t k = 0; k < n; ++k) {
          loop += static_cast<double>(
              replay_unrecorded(in.scenarios[k], in.work[k]).second);
        }
        off_ns.push_back(loop);
      }
    }
  }

  size_t packets = 0, packet_ins = 0, hops = 0, flow_entries = 0;
  double steps = 0, events = 0, append_ns = 0, appends = 0;
  double store_bytes = 0, store_events = 0;
  bool ok = true;
  // The counters describe the last traced round; untraced rounds run the
  // same packets and leave them alone.
  const TracedRounds rounds = alternate_rounds("record.round", [&](bool traced) {
    if (!traced) {
      for (size_t k = 0; k < n; ++k) {
        Recorder rec(in.scenarios[k], scratch.fresh("record"));
        for (uint8_t o : run_loop(rec.run.net(), in.work[k]).outcomes) {
          ok = ok && o == 1;
        }
      }
      return;
    }
    packets = packet_ins = hops = flow_entries = 0;
    steps = events = append_ns = appends = store_bytes = store_events = 0;
    for (size_t k = 0; k < n; ++k) {
      auto rig = std::make_unique<Rig>(in.scenarios[k], scratch.fresh("record"));
      const size_t steps0 = rig->engine->steps();
      const size_t events0 = rig->engine->log().size();
      const Loop l = run_loop(rig->net, in.work[k]);
      for (uint8_t o : l.outcomes) ok = ok && o == 1;
      const sdn::DeliveryStats& st = rig->net.stats();
      packets += in.work[k].size();
      packet_ins += st.packet_ins;
      hops += st.hops;
      flow_entries += rig->flow_entries();
      steps += static_cast<double>(rig->engine->steps() - steps0);
      events += static_cast<double>(rig->engine->log().size() - events0);
      store_bytes += static_cast<double>(rig->store->bytes());
      store_events += static_cast<double>(rig->store->events());
      append_ns += static_cast<double>(rig->sink->append_ns);
      appends += static_cast<double>(rig->sink->appends);
      ok = ok && rig->probe->calls == st.packet_ins;
    }
  });
  const int32_t root = rounds.root;

  const double build_ns = tr.total_ns(root, "scenarios.build").first;
  const auto [inject_total, injects] = tr.total_ns(root, "sdn.inject");
  const auto [controller_ns, ctrl_calls] = tr.total_ns(root, "sdn.controller");
  const double forward_ns = inject_total - controller_ns;
  const LayerBreakdown b = breakdown(root);
  tr.write_chrome_json(".bench_build/perfbench-trace/record-seed" +
                           std::to_string(opt.seed) + ".json",
                       "record");
  tr.clear();

  // The layer self times must account for the round (README).
  ok = ok && b.unattributed_share <= kUnattributedTolerance;
  r.attempted = packets;
  r.failed = ok ? 0 : packets;
  const std::string p = "record.";
  r.add(p + "sdn.build_ms", build_ns * 1e-6 / static_cast<double>(n), "ms");
  r.add(p + "sdn.forward_us", forward_ns * 1e-3 / static_cast<double>(injects), "us");
  r.add(p + "sdn.hops_per_packet", static_cast<double>(hops) / packets, "count");
  r.add(p + "sdn.packet_in_share", static_cast<double>(packet_ins) / packets, "ratio");
  r.add(p + "sdn.flow_entries", static_cast<double>(flow_entries), "count");
  r.add(p + "sdn.controller_us",
        controller_ns * 1e-3 / static_cast<double>(ctrl_calls), "us");
  r.add(p + "eval.steps_per_packet_in", steps / static_cast<double>(packet_ins), "count");
  r.add(p + "eval.events_per_packet_in", events / static_cast<double>(packet_ins), "count");
  r.add(p + "eval.recording_share", 1.0 - median(off_ns) / median(on_ns), "ratio");
  r.add(p + "storage.append_us", append_ns * 1e-3 / appends, "us");
  r.add(p + "storage.bytes_per_event", store_bytes / store_events, "B");
  add_breakdown(r, "record", b, {"scenarios", "sdn", "eval", "storage"});
  r.add(p + "trace.overhead_share", rounds.overhead_share, "ratio");
  return r;
}

}  // namespace perfbench
