// `repair` workload: the operator's time to repair. run_pipeline on the
// five scenarios (Q1-Q5) on the default campus, with multi-query (tag
// mode) backtesting of at most 16 candidates.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "repair/change.h"
#include "repair/generator.h"
#include "scenarios/pipeline.h"
#include "scenarios/scenario.h"

namespace perfbench {
namespace {

using namespace mp;

// Rounds (of Q1-Q5) per second of requested run length (README).
constexpr double kRoundsPerSecond = 1.4;
constexpr size_t kMinRounds = 4;
// The inputs are rebuilt, and the build timed, before every
// kSetupEvery-th round (see time_into).
constexpr size_t kSetupEvery = 1;
// The tail percentile reported for pipeline latency (README).
constexpr double kTailPercentile = 0.95;

scenario::PipelineOptions pipeline_options() {
  scenario::PipelineOptions o;
  o.multiquery = true;
  o.max_backtested = 16;
  return o;
}

// The scenarios and, for each, a harness holding its generated workload
// (used by the checks; run_pipeline builds its own).
struct Inputs {
  std::vector<scenario::Scenario> scenarios;
  std::vector<std::unique_ptr<scenario::ScenarioHarness>> harnesses;
};

std::unique_ptr<Inputs> make_inputs(uint64_t seed) {
  sdn::CampusOptions campus;
  campus.seed = seed;
  auto in = std::make_unique<Inputs>();
  in->scenarios = scenario::all_scenarios(campus);
  for (const scenario::Scenario& s : in->scenarios) {
    in->harnesses.push_back(std::make_unique<scenario::ScenarioHarness>(s));
  }
  return in;
}

std::vector<std::string> accepted_descriptions(const backtest::BacktestReport& b) {
  std::vector<std::string> out;
  for (const backtest::BacktestEntry& e : b.entries) {
    if (e.accepted) out.push_back(e.candidate.description);
  }
  return out;
}

// The output checks of one scenario's pipeline result, against
// computations made apart from the pipeline (README, "Checks").
bool check_repairs(const scenario::Scenario& s,
                   scenario::ScenarioHarness& harness,
                   const backtest::BacktestReport& report) {
  const backtest::ReplayOutcome baseline = harness.replay_baseline();
  const std::string fixed = s.fixed.to_string();
  bool found_fixed = false;
  size_t accepted = 0;
  for (const backtest::BacktestEntry& e : report.entries) {
    if (!e.accepted) continue;
    ++accepted;
    const auto program = repair::apply_candidate(s.program, e.candidate);
    if (program && program->to_string() == fixed) found_fixed = true;
    // Sequential replay of the candidate alone equals the joint tag-mode
    // outcome (the multi-query equivalence) and cures the symptom.
    const backtest::ReplayOutcome alone = harness.replay(e.candidate);
    if (!alone.valid || !alone.symptom_fixed ||
        alone.delivered != e.outcome.delivered ||
        alone.dropped != e.outcome.dropped) {
      return false;
    }
  }
  if (s.id == "Q4") {
    // Q4's fix adds rules: the hand-written program cures the symptom and
    // the buggy baseline does not.
    scenario::ScenarioRun run(s, s.fixed);
    run.insert_config();
    run.replay(harness.workload());
    const backtest::ReplayOutcome out =
        backtest::outcome_from_stats(run.net().stats());
    const bool cured = s.symptom_fixed(out, baseline, run.engine(), eval::kAllTags);
    const bool buggy_cured = s.symptom_fixed(
        baseline, baseline, harness.buggy_run().engine(), eval::kAllTags);
    return cured && !buggy_cured;
  }
  return accepted > 0 && found_fixed;
}

// Serialized log bytes and events of the recorded buggy run.
std::pair<double, double> recorded_log(scenario::ScenarioHarness& harness) {
  const eval::EventLog& log = harness.buggy_run().engine().log();
  return {static_cast<double>(log.byte_estimate()),
          static_cast<double>(log.size())};
}

}  // namespace

Result run_repair(const Options& opt) {
  Result r;
  std::unique_ptr<Inputs> inputs;
  std::vector<double> setup_s;
  time_into(setup_s, [&] { inputs = make_inputs(opt.seed); });
  const std::vector<scenario::Scenario>& in = inputs->scenarios;

  CpuRotor rotor;
  std::vector<double> round_ms;
  const size_t rounds = rounds_for(opt, kRoundsPerSecond, kMinRounds);
  const size_t n = in.size();
  const scenario::PipelineOptions popt = pipeline_options();
  uint64_t total_ns = 0;
  std::vector<double> lat_us, q1_us;
  std::vector<scenario::PipelineResult> last(n);
  std::vector<std::vector<std::string>> first(n);
  std::vector<bool> bad(n, false);
  for (size_t round = 0; round < rounds; ++round) {
    rotor.enter(round);
    if (round % kSetupEvery == kSetupEvery - 1) {
      time_into(setup_s, [&] { make_inputs(opt.seed); });
    }
    uint64_t round_ns = 0;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t t0 = cpu_ns();
      scenario::PipelineResult res = scenario::run_pipeline(in[k], popt);
      const uint64_t dt = cpu_ns() - t0;
      round_ns += dt;
      lat_us.push_back(static_cast<double>(dt) * 1e-3);
      if (in[k].id == "Q1") q1_us.push_back(static_cast<double>(dt) * 1e-3);
      // Every round repeats the same repair (no state carries over).
      const auto acc = accepted_descriptions(res.backtest);
      if (round == 0) first[k] = acc;
      if (acc != first[k]) bad[k] = true;
      last[k] = std::move(res);
    }
    total_ns += round_ns;
    round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
  }
  double log_bytes = 0, log_events = 0;
  for (size_t k = 0; k < n; ++k) {
    scenario::ScenarioHarness& h = *inputs->harnesses[k];
    if (!check_repairs(in[k], h, last[k].backtest)) bad[k] = true;
    const auto [bytes, events] = recorded_log(h);
    log_bytes += bytes;
    log_events += events;
  }
  for (size_t k = 0; k < n; ++k) {
    r.attempted += rounds;
    if (bad[k]) {
      r.failed += rounds;
      std::fprintf(stderr, "repair: %s failed its checks\n", in[k].id.c_str());
    }
  }

  const Tail t = tail(lat_us, kTailPercentile);
  note_rounds("repair", round_ms);
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("ops_per_s",
        static_cast<double>(n * rounds) / (static_cast<double>(total_ns) * 1e-9), "1/s");
  r.add("op_p50_us", median(lat_us), "us");
  r.add("op_tail_us", t.value, "us");
  r.add("slow_op_p50_us", median(q1_us), "us");
  r.add("log_bytes_per_event", log_bytes / log_events, "B");
  std::fprintf(stderr,
               "repair: %zu rounds x %zu pipelines; tail = p%.1f of %zu "
               "samples (%zu beyond); %zu Q1 samples\n",
               rounds, n, t.percentile * 100.0, t.samples, t.beyond,
               q1_us.size());
  return r;
}

namespace {

// Traced runs only: charges the harness's replays to backtest spans.
class HarnessProbe final : public backtest::ReplayHarness {
 public:
  explicit HarnessProbe(scenario::ScenarioHarness& inner) : inner_(inner) {}
  backtest::ReplayOutcome replay_baseline() override {
    Span span("backtest.replay_baseline", "backtest");
    return inner_.replay_baseline();
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& cand) override {
    Span span("backtest.replay", "backtest");
    return inner_.replay(cand);
  }
  std::vector<backtest::ReplayOutcome> replay_joint(
      const std::vector<repair::RepairCandidate>& cands) override {
    Span span("backtest.replay_joint", "backtest");
    return inner_.replay_joint(cands);
  }

 private:
  scenario::ScenarioHarness& inner_;
};

struct StepwisePipeline {
  std::vector<std::string> accepted;
  size_t candidates = 0;
  size_t accepted_count = 0;
  size_t goals_expanded = 0;
  size_t solver_calls = 0;
};

// run_pipeline, step by step through the public API, with a span around
// each call into a layer.
StepwisePipeline stepwise_pipeline(const scenario::Scenario& s,
                               const scenario::PipelineOptions& popt) {
  StepwisePipeline out;
  Span pipe("scenarios.pipeline", "scenarios");
  std::unique_ptr<scenario::ScenarioHarness> harness;
  {
    Span span("scenarios.workload", "scenarios");
    harness = std::make_unique<scenario::ScenarioHarness>(s);
  }
  scenario::ScenarioRun* buggy = nullptr;
  {
    Span span("scenarios.record", "scenarios");
    buggy = &harness->buggy_run();
  }
  std::vector<repair::RepairCandidate> cands;
  {
    Span span("repair.generate", "repair");
    repair::RepairGenerator generator(buggy->engine(), s.space);
    std::set<std::string> seen;
    for (const repair::Symptom& symptom : s.symptoms) {
      repair::GenerationReport rep = generator.generate(symptom);
      out.goals_expanded += rep.stats.goals_expanded;
      out.solver_calls += rep.stats.solver.calls;
      for (auto& cand : rep.candidates) {
        if (seen.insert(cand.description).second) cands.push_back(std::move(cand));
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const repair::RepairCandidate& a, const repair::RepairCandidate& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.description < b.description;
              });
    if (cands.size() > popt.max_backtested) cands.resize(popt.max_backtested);
  }
  out.candidates = cands.size();
  HarnessProbe probe(*harness);
  backtest::BacktestConfig cfg;
  cfg.use_multiquery = popt.multiquery;
  cfg.shards = popt.backtest_shards;
  backtest::BacktestReport report;
  {
    Span span("backtest.run", "backtest");
    report = backtest::Backtester(cfg).run(probe, cands);
  }
  out.accepted = accepted_descriptions(report);
  out.accepted_count = report.accepted_count;
  {
    Span span("scenarios.teardown", "scenarios");
    harness.reset();
  }
  return out;
}

}  // namespace

Result trace_repair(const Options& opt) {
  Result r;
  const std::unique_ptr<Inputs> inputs = make_inputs(opt.seed);
  const std::vector<scenario::Scenario>& in = inputs->scenarios;
  const scenario::PipelineOptions popt = pipeline_options();
  const size_t n = in.size();
  Tracer& tr = tracer();

  std::vector<StepwisePipeline> res;
  const TracedRounds rounds = alternate_rounds("repair.round", [&](bool) {
    res.clear();
    for (const scenario::Scenario& s : in) res.push_back(stepwise_pipeline(s, popt));
  });
  const int32_t root = rounds.root;

  // The step-by-step pipeline must agree with run_pipeline.
  bool ok = true;
  size_t candidates = 0, accepted = 0, goals = 0, solver = 0;
  for (size_t k = 0; k < n; ++k) {
    const scenario::PipelineResult ref = scenario::run_pipeline(in[k], popt);
    ok = ok && accepted_descriptions(ref.backtest) == res[k].accepted;
    candidates += res[k].candidates;
    accepted += res[k].accepted_count;
    goals += res[k].goals_expanded;
    solver += res[k].solver_calls;
  }

  auto total_ms = [&](const char* name) { return tr.total_ns(root, name).first * 1e-6; };
  const double workload_ms = total_ms("scenarios.workload");
  const double record_ms = total_ms("scenarios.record");
  const double generate_ms = total_ms("repair.generate");
  const double joint_ms = total_ms("backtest.replay_joint");
  const double harness_ms = joint_ms + total_ms("backtest.replay") +
                            total_ms("backtest.replay_baseline");
  const double backtest_self_ms = total_ms("backtest.run") - harness_ms;
  const LayerBreakdown b = breakdown(root);
  tr.write_chrome_json(".bench_build/perfbench-trace/repair-seed" +
                           std::to_string(opt.seed) + ".json",
                       "repair");
  tr.clear();

  // The layer self times must account for the round (README).
  ok = ok && b.unattributed_share <= kUnattributedTolerance;
  r.attempted = n;
  r.failed = ok ? 0 : n;
  // Times are per round of Q1-Q5 (sums over the five pipelines).
  const std::string p = "repair.";
  r.add(p + "scenarios.workload_ms", workload_ms, "ms");
  r.add(p + "scenarios.record_ms", record_ms, "ms");
  r.add(p + "repair.generate_ms", generate_ms, "ms");
  r.add(p + "repair.goals_expanded", static_cast<double>(goals), "count");
  r.add(p + "repair.solver_calls", static_cast<double>(solver), "count");
  r.add(p + "repair.candidates", static_cast<double>(candidates), "count");
  r.add(p + "backtest.replay_joint_ms", joint_ms, "ms");
  r.add(p + "backtest.self_ms", backtest_self_ms, "ms");
  r.add(p + "backtest.accepted_per_candidate",
        static_cast<double>(accepted) / static_cast<double>(candidates), "ratio");
  add_breakdown(r, "repair", b, {"scenarios", "repair", "backtest"});
  r.add(p + "trace.overhead_share",
        rounds.overhead_share, "ratio");
  return r;
}

}  // namespace perfbench
