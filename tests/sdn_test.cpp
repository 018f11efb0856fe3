// Tests for the SDN simulator substrate and the backtest machinery.
#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "backtest/multiquery.h"
#include "ndlog/parser.h"
#include "sdn/controller.h"
#include "sdn/topology.h"
#include "sdn/traffic.h"

namespace mp::sdn {
namespace {

TEST(FlowTable, WildcardAndPriority) {
  FlowTable ft;
  FlowEntry coarse;
  coarse.match = {{Field::Dpt, Value(80)}, {Field::Sip, Value::wildcard()}};
  coarse.priority = 0;
  coarse.action = Action::output(1);
  ft.add(coarse);
  FlowEntry fine;
  fine.match = {{Field::Dpt, Value(80)}, {Field::Sip, Value(7)}};
  fine.priority = 5;
  fine.action = Action::output(2);
  ft.add(fine);

  Packet p;
  p.dpt = 80;
  p.sip = 7;
  const FlowEntry* hit = ft.lookup(p, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // higher priority wins
  p.sip = 9;
  hit = ft.lookup(p, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);  // wildcard entry
  p.dpt = 53;
  EXPECT_EQ(ft.lookup(p, 0), nullptr);
}

TEST(FlowTable, TieBreaksToFirstInstalled) {
  FlowTable ft;
  FlowEntry a, b;
  a.action = Action::output(1);
  b.action = Action::output(2);
  ft.add(a);
  ft.add(b);
  Packet p;
  EXPECT_EQ(ft.lookup(p, 0)->action.port, 1);
}

TEST(FlowTable, TagVisibility) {
  FlowTable ft;
  FlowEntry e;
  e.action = Action::output(1);
  e.tags = 0b10;
  ft.add(e);
  Packet p;
  EXPECT_EQ(ft.lookup(p, 0, 0b01), nullptr);
  EXPECT_NE(ft.lookup(p, 0, 0b10), nullptr);
}

TEST(Network, DeliversAlongStaticRoutes) {
  Network net;
  net.add_switch(1);
  net.add_switch(2);
  net.link(1, 5, 2, 5);
  net.add_host({1, "H", 42, 0, 2, 1});
  FlowEntry e;
  e.match = {{Field::Dip, Value(42)}};
  e.priority = -1;
  e.action = Action::output(5);
  net.find_switch(1)->table().add(e);
  FlowEntry e2 = e;
  e2.action = Action::output(1);
  net.find_switch(2)->table().add(e2);

  Packet p;
  p.dip = 42;
  net.inject(1, 9, p);
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.stats().per_host.get("H"), 1.0);
}

TEST(Network, MissWithoutControllerDrops) {
  Network net;
  net.add_switch(1);
  Packet p;
  net.inject(1, 1, p);
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().packet_ins, 0u);
}

namespace {
class InstallController : public ControllerIface {
 public:
  explicit InstallController(Network& net, int64_t out, bool release)
      : net_(&net), out_(out), release_(release) {}
  void on_packet_in(int64_t sw, int64_t, const Packet& p,
                    eval::TagMask tags) override {
    ++calls;
    FlowEntry e;
    e.match = {{Field::Dpt, Value(p.dpt)}};
    e.action = Action::output(out_);
    e.tags = tags;
    net_->install(sw, e);
    if (release_) net_->packet_out(sw, out_, tags);
  }
  Network* net_;
  int64_t out_;
  bool release_;
  int calls = 0;
};
}  // namespace

TEST(Network, ReactiveInstallAndRelease) {
  Network net;
  net.add_switch(1);
  net.add_host({1, "H", 42, 0, 1, 3});
  InstallController ctrl(net, 3, /*release=*/true);
  net.set_controller(&ctrl);
  Packet p;
  p.dpt = 80;
  net.inject(1, 1, p);  // miss -> install + release -> delivered
  net.inject(1, 1, p);  // hits the entry
  EXPECT_EQ(ctrl.calls, 1);
  EXPECT_EQ(net.stats().delivered, 2u);
  EXPECT_EQ(net.stats().packet_ins, 1u);
  EXPECT_EQ(net.stats().flow_mods, 1u);
}

TEST(Network, ForgottenPacketOutDropsFirstPacket) {
  Network net;
  net.add_switch(1);
  net.add_host({1, "H", 42, 0, 1, 3});
  InstallController ctrl(net, 3, /*release=*/false);
  net.set_controller(&ctrl);
  Packet p;
  p.dpt = 80;
  net.inject(1, 1, p);
  net.inject(1, 1, p);
  EXPECT_EQ(net.stats().dropped, 1u);    // the buffered first packet
  EXPECT_EQ(net.stats().delivered, 1u);  // the second one
}

TEST(Network, ResetKeepsStaticEntriesOnly) {
  Network net;
  net.add_switch(1);
  // Two static entries that tie on priority and key: the first wins.
  FlowEntry st;
  st.match = {{Field::Dpt, Value(80)}};
  st.priority = -1;
  st.action = Action::output(7);
  net.find_switch(1)->table().add(st);
  FlowEntry dyn;
  dyn.match = {{Field::Dpt, Value(80)}};
  dyn.priority = 0;
  dyn.action = Action::drop();
  net.install(1, dyn);
  FlowEntry st2 = st;
  st2.action = Action::output(8);
  net.find_switch(1)->table().add(st2);
  const FlowTable& table = net.find_switch(1)->table();
  Packet p;
  p.dpt = 80;
  ASSERT_NE(table.lookup(p, 0), nullptr);
  EXPECT_EQ(table.lookup(p, 0)->action.kind, Action::Kind::Drop);
  net.inject(1, 1, p);
  EXPECT_EQ(net.stats().dropped, 1u);

  net.reset_dynamic_state();
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(net.stats().dropped, 0u);
  EXPECT_EQ(net.stats().flow_mods, 0u);
  // The static entries are still found, in their original tie order.
  ASSERT_NE(table.lookup(p, 0), nullptr);
  EXPECT_EQ(table.lookup(p, 0)->action.port, 7);
  EXPECT_EQ(table.entries()[1].action.port, 8);
  p.dpt = 53;
  EXPECT_EQ(table.lookup(p, 0), nullptr);
}

TEST(Topology, BuildsRequestedSize) {
  Network net;
  CampusOptions opt;
  opt.total_switches = 30;
  opt.core_count = 8;
  opt.hosts_per_edge = 3;
  Campus c = build_campus(net, opt);
  EXPECT_EQ(c.app_switches.size(), 4u);
  EXPECT_EQ(c.core_switches.size(), 8u);
  EXPECT_EQ(c.edge_switches.size(), 30u - 12u);
  EXPECT_EQ(c.host_ips.size(), (30u - 12u) * 3u);
  EXPECT_EQ(net.switch_count(), 30u);
  EXPECT_GT(c.static_entries, 0u);
}

TEST(Topology, AllHostPairsAreRoutable) {
  Network net;
  CampusOptions opt;
  opt.total_switches = 24;
  opt.core_count = 6;
  opt.hosts_per_edge = 2;
  build_campus(net, opt);
  const auto& hosts = net.hosts();
  ASSERT_GE(hosts.size(), 4u);
  size_t pairs = 0;
  for (size_t i = 0; i < hosts.size() && pairs < 40; i += 3) {
    for (size_t j = 0; j < hosts.size() && pairs < 40; j += 5) {
      if (i == j) continue;
      Packet p;
      p.sip = hosts[i].ip;
      p.dip = hosts[j].ip;
      net.inject(hosts[i].sw, hosts[i].port, p, false);
      ++pairs;
    }
  }
  EXPECT_EQ(net.stats().delivered, pairs);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(Traffic, DeterministicForSameSeed) {
  Network net;
  build_campus(net, {});
  auto a = background_traffic(net, 100, 7);
  auto b = background_traffic(net, 100, 7);
  auto c = background_traffic(net, 100, 8);
  ASSERT_EQ(a.size(), b.size());
  bool same = true, diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].packet.sip != b[i].packet.sip) same = false;
    if (i < c.size() && a[i].packet.sip != c[i].packet.sip) diff = true;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(diff);
}

TEST(Traffic, IngressCarriesBucketsAndPorts) {
  IngressOptions opt;
  opt.flows = 10;
  opt.packets_per_flow = 3;
  opt.dpt = 53;
  auto v = ingress_traffic(opt);
  EXPECT_EQ(v.size(), 30u);
  for (const auto& inj : v) {
    EXPECT_EQ(inj.packet.dpt, 53);
    EXPECT_GE(inj.packet.bucket, 1);
    EXPECT_LE(inj.packet.bucket, 2);
    EXPECT_EQ(inj.sw, 1);
  }
}

TEST(Recorder, AccountsStorage) {
  Recorder r;
  r.record_ingress(Injection{});
  r.record_ingress(Injection{});
  r.record_ctrl(CtrlMsgKind::PacketIn, 1, 5);
  EXPECT_EQ(r.packet_log_bytes(), 240u);  // 120 B per packet, as in S5.4
  EXPECT_GT(r.ctrl_log_bytes(), 0u);
  r.clear();
  EXPECT_EQ(r.ingress().size(), 0u);
}

// --- backtest ---------------------------------------------------------

TEST(Multiquery, CombinedProgramRestrictsRules) {
  auto base = ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0.");
  repair::RepairCandidate c1;  // modifies r1
  repair::Change ch;
  ch.kind = repair::ChangeKind::ChangeSelConst;
  ch.rule = "r1";
  ch.index = 0;
  ch.side = 1;
  ch.new_value = Value(5);
  c1.changes.push_back(ch);
  repair::RepairCandidate c2;  // inserts a tuple, leaves rules alone
  repair::Change ins;
  ins.kind = repair::ChangeKind::InsertBaseTuple;
  ins.tuple = eval::Tuple{"A", {Value(1), Value(9)}};
  c2.changes.push_back(ins);

  auto combined = backtest::build_backtest_program(base, {c1, c2});
  EXPECT_EQ(combined.candidate_count, 2u);
  EXPECT_EQ(combined.rule_restrict.at("r1"), eval::TagMask{0b10});
  ASSERT_EQ(combined.program.rules.size(), 2u);  // original + tagged copy
  EXPECT_EQ(combined.rule_restrict.at("r1#0"), eval::TagMask{0b01});
  ASSERT_EQ(combined.insertions.size(), 1u);
  EXPECT_EQ(combined.insertions[0].second, eval::TagMask{0b10});
  EXPECT_TRUE(combined.invalid.empty());
}

TEST(Multiquery, InvalidCandidateFlagged) {
  auto base = ndlog::parse_program(
      "table A/2.\nevent B/2.\nr1 A(@X,Q) :- B(@X,Q), Q > 0.");
  repair::RepairCandidate bad;
  repair::Change ch;
  ch.kind = repair::ChangeKind::ChangeSelConst;
  ch.rule = "nope";
  bad.changes.push_back(ch);
  auto combined = backtest::build_backtest_program(base, {bad});
  ASSERT_EQ(combined.invalid.size(), 1u);
}

TEST(Multiquery, ConfigMaskExcludesDeleters) {
  backtest::CombinedProgram cp;
  cp.candidate_count = 3;
  eval::Tuple t{"Cfg", {Value(1)}};
  cp.deletions.emplace_back(t, eval::TagMask{0b010});
  EXPECT_EQ(cp.config_mask(t), eval::TagMask{0b101});
  eval::Tuple other{"Cfg", {Value(2)}};
  EXPECT_EQ(cp.config_mask(other), eval::TagMask{0b111});
}

namespace {
// A fake harness: candidate "good" fixes the symptom with no side
// effects, "loud" fixes it but shifts traffic, "dud" does nothing.
class FakeHarness : public backtest::ReplayHarness {
 public:
  backtest::ReplayOutcome replay_baseline() override {
    backtest::ReplayOutcome o;
    for (int i = 0; i < 20; ++i) {
      o.per_host.add("h" + std::to_string(i), 500);
    }
    o.packet_ins = 10;
    return o;
  }
  backtest::ReplayOutcome replay(const repair::RepairCandidate& c) override {
    backtest::ReplayOutcome o = replay_baseline();
    if (c.description == "good") {
      o.symptom_fixed = true;
      o.per_host.add("victim", 20);
    } else if (c.description == "loud") {
      o.symptom_fixed = true;
      o.per_host.add("victim", 4000);
    }
    return o;
  }
};
}  // namespace

TEST(Backtester, AcceptsQuietEffectiveRejectsLoudAndDud) {
  FakeHarness h;
  repair::RepairCandidate good, loud, dud;
  good.description = "good";
  loud.description = "loud";
  dud.description = "dud";
  backtest::Backtester tester;
  auto report = tester.run(h, {good, loud, dud});
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_TRUE(report.entries[0].accepted);
  EXPECT_TRUE(report.entries[1].effective);
  EXPECT_FALSE(report.entries[1].accepted);
  EXPECT_FALSE(report.entries[2].effective);
  EXPECT_EQ(report.accepted_count, 1u);
  auto ranked = report.ranked_accepted();
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0]->candidate.description, "good");
}

}  // namespace
}  // namespace mp::sdn

// --- property: tag-group partition == per-tag lookup ---------------------

#include "util/rng.h"

namespace mp::sdn {
namespace {

class PartitionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProperty, MatchesPerTagLookup) {
  Rng rng(GetParam());
  FlowTable ft;
  const size_t n_entries = 3 + rng.below(12);
  for (size_t i = 0; i < n_entries; ++i) {
    FlowEntry e;
    if (rng.chance(0.7)) {
      e.match.push_back({Field::Dpt, Value(static_cast<int64_t>(rng.below(3) * 27 + 26))});
    }
    if (rng.chance(0.4)) {
      e.match.push_back({Field::Sip, Value(static_cast<int64_t>(rng.below(4)))});
    }
    e.priority = static_cast<int>(rng.below(4)) - 1;
    e.tags = rng.next() | 1;  // non-empty mask
    e.action = rng.chance(0.2) ? Action::drop()
                               : Action::output(static_cast<int64_t>(rng.below(5)));
    ft.add(e);
  }
  for (int trial = 0; trial < 16; ++trial) {
    Packet p;
    p.dpt = static_cast<int64_t>(rng.below(3) * 27 + 26);
    p.sip = static_cast<int64_t>(rng.below(4));
    const eval::TagMask tags = rng.next();
    // Partition the tag set by winning entry.
    std::map<const FlowEntry*, eval::TagMask> groups;
    const eval::TagMask missing =
        ft.partition(p, 0, tags, [&](const FlowEntry& e, eval::TagMask sub) {
          groups[&e] |= sub;
        });
    // Every tag must land exactly where a per-tag lookup puts it.
    eval::TagMask covered = missing;
    for (const auto& [entry, sub] : groups) {
      EXPECT_EQ(covered & sub, 0u) << "groups must be disjoint";
      covered |= sub;
      for (size_t b = 0; b < eval::kMaxTags; ++b) {
        const eval::TagMask bit = eval::TagMask{1} << b;
        if (sub & bit) EXPECT_EQ(ft.lookup(p, 0, bit), entry);
      }
    }
    EXPECT_EQ(covered, tags) << "partition must cover the whole tag set";
    for (size_t b = 0; b < eval::kMaxTags; ++b) {
      const eval::TagMask bit = eval::TagMask{1} << b;
      if (missing & bit) EXPECT_EQ(ft.lookup(p, 0, bit), nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, PartitionProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace mp::sdn

// --- oracle: the tiered flow table against the linear walk it replaced --

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>

namespace mp::sdn {
namespace {

// The flow table before tuple-space search: entries stable-sorted by
// priority, walked linearly, the first visible match wins. It exists only
// here, as the reference FlowTable must agree with entry for entry.
struct LinearTable {
  std::vector<FlowEntry> entries;

  static bool matches(const FlowEntry& e, const Packet& p, int64_t in_port) {
    for (const MatchField& m : e.match) {
      if (m.value.is_wildcard()) continue;
      if (!m.value.is_int() || field_of(p, in_port, m.field) != m.value.as_int()) {
        return false;
      }
    }
    return true;
  }
  std::vector<size_t> order() const {
    std::vector<size_t> o(entries.size());
    std::iota(o.begin(), o.end(), size_t{0});
    std::stable_sort(o.begin(), o.end(), [&](size_t a, size_t b) {
      return entries[a].priority > entries[b].priority;
    });
    return o;
  }
  std::optional<size_t> lookup(const Packet& p, int64_t in_port,
                               eval::TagMask tag_bit) const {
    for (size_t i : order()) {
      if ((entries[i].tags & tag_bit) != 0 && matches(entries[i], p, in_port)) return i;
    }
    return std::nullopt;
  }
  eval::TagMask partition(const Packet& p, int64_t in_port, eval::TagMask tags,
                          std::vector<std::pair<size_t, eval::TagMask>>& calls) const {
    eval::TagMask remaining = tags;
    for (size_t i : order()) {
      if (remaining == 0) break;
      const eval::TagMask sub = remaining & entries[i].tags;
      if (sub == 0 || !matches(entries[i], p, in_port)) continue;
      calls.emplace_back(i, sub);
      remaining &= ~sub;
    }
    return remaining;
  }
};

constexpr Field kOracleFields[] = {Field::InPort, Field::Sip, Field::Dip,
                                   Field::Dpt, Field::Proto, Field::Bucket};

void set_field(Packet& p, int64_t& in_port, Field f, int64_t v) {
  switch (f) {
    case Field::InPort: in_port = v; break;
    case Field::Sip: p.sip = v; break;
    case Field::Dip: p.dip = v; break;
    case Field::Smc: p.smc = v; break;
    case Field::Dmc: p.dmc = v; break;
    case Field::Spt: p.spt = v; break;
    case Field::Dpt: p.dpt = v; break;
    case Field::Proto: p.proto = v; break;
    case Field::Bucket: p.bucket = v; break;
  }
}

// Up to three constraints over values [0, range): sometimes a wildcard or
// a string, sometimes a second constraint on a field already constrained
// (agreeing or conflicting); priorities -2..3; all, one or random tags.
FlowEntry random_entry(Rng& rng, int64_t range) {
  FlowEntry e;
  const size_t n = rng.below(4);
  for (size_t k = 0; k < n; ++k) {
    MatchField m;
    m.field = kOracleFields[rng.below(std::size(kOracleFields))];
    const uint64_t kind = rng.below(10);
    if (kind == 0) {
      m.value = Value::wildcard();
    } else if (kind == 1) {
      m.value = Value::str("x");
    } else {
      m.value = Value(rng.range(0, range - 1));
    }
    e.match.push_back(m);
  }
  if (!e.match.empty() && rng.chance(0.25)) {
    MatchField dup = e.match[rng.below(e.match.size())];
    if (dup.value.is_int() && rng.chance(0.5)) dup.value = Value(dup.value.as_int() + 1);
    e.match.push_back(dup);
  }
  e.priority = static_cast<int>(rng.below(6)) - 2;
  switch (rng.below(4)) {
    case 0: e.tags = eval::kAllTags; break;
    case 1: e.tags = eval::TagMask{1} << rng.below(eval::kMaxTags); break;
    default: {
      const eval::TagMask a = rng.next();
      e.tags = a & rng.next();
    }
  }
  e.action = Action::output(rng.range(0, 7));
  return e;
}

// Every per-tag lookup and the whole partition callback sequence must
// name the same entries (by install position) with the same submasks.
void expect_same(const FlowTable& ft, const LinearTable& ref, Rng& rng,
                 int64_t range) {
  ASSERT_EQ(ft.size(), ref.entries.size());
  for (size_t i = 0; i < ref.entries.size(); ++i) {
    ASSERT_EQ(ft.entries()[i].to_string(), ref.entries[i].to_string());
    ASSERT_EQ(ft.entries()[i].tags, ref.entries[i].tags);
  }
  auto position = [&](const FlowEntry* e) -> std::optional<size_t> {
    if (e == nullptr) return std::nullopt;
    return static_cast<size_t>(e - ft.entries().data());
  };
  for (int trial = 0; trial < 8; ++trial) {
    Packet p;
    int64_t in_port = rng.range(0, range - 1);
    for (Field f : kOracleFields) set_field(p, in_port, f, rng.range(0, range - 1));
    // Half the packets carry some entry's values, so deep tiers hit.
    if (!ref.entries.empty() && rng.chance(0.5)) {
      for (const MatchField& m : ref.entries[rng.below(ref.entries.size())].match) {
        if (m.value.is_int()) set_field(p, in_port, m.field, m.value.as_int());
      }
    }
    for (size_t b = 0; b < eval::kMaxTags; ++b) {
      const eval::TagMask bit = eval::TagMask{1} << b;
      ASSERT_EQ(position(ft.lookup(p, in_port, bit)), ref.lookup(p, in_port, bit))
          << "tag " << b;
    }
    ASSERT_EQ(position(ft.lookup(p, in_port)), ref.lookup(p, in_port, eval::kAllTags));
    const eval::TagMask tags = rng.chance(0.3) ? eval::kAllTags : rng.next();
    std::vector<std::pair<size_t, eval::TagMask>> got, want;
    const eval::TagMask got_rest =
        ft.partition(p, in_port, tags, [&](const FlowEntry& e, eval::TagMask sub) {
          got.emplace_back(*position(&e), sub);
        });
    const eval::TagMask want_rest = ref.partition(p, in_port, tags, want);
    ASSERT_EQ(got, want);
    ASSERT_EQ(got_rest, want_rest);
  }
}

class FlowTableOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowTableOracle, MatchesLinearReference) {
  Rng rng(GetParam());
  // Narrow values give long chains and many tiers hit at once; wide ones
  // give many keys per tier, so the tiers grow and rehash.
  const int64_t range = GetParam() % 2 == 0 ? 3 : 400;
  const size_t max_entries = range == 3 ? 60 : 300;
  FlowTable ft;
  LinearTable ref;
  for (int phase = 0; phase < 2; ++phase) {
    const size_t n = 1 + rng.below(max_entries);
    for (size_t i = 0; i < n; ++i) {
      const FlowEntry e = random_entry(rng, range);
      ft.add(e);
      ref.entries.push_back(e);
      if (rng.chance(0.1)) {
        expect_same(ft, ref, rng, range);
        if (HasFatalFailure()) return;
      }
    }
    expect_same(ft, ref, rng, range);
    if (HasFatalFailure()) return;
    // Erase-if keeps the survivors in install order.
    auto reactive = [](const FlowEntry& e) { return e.priority >= 0; };
    EXPECT_EQ(ft.erase_if(reactive), std::erase_if(ref.entries, reactive));
    expect_same(ft, ref, rng, range);
    if (HasFatalFailure()) return;
    if (phase == 0) {
      ft.clear();
      ref.entries.clear();
      expect_same(ft, ref, rng, range);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, FlowTableOracle,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace mp::sdn

// --- golden forwarding at the record campus size ------------------------

#include "scenarios/pipeline.h"
#include "scenarios/scenario.h"

namespace mp::sdn {
namespace {

// FNV-1a over "key=count\n" lines in key order.
uint64_t digest(const CountDistribution& d) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [key, count] : d.counts()) {
    const std::string line =
        key + "=" + std::to_string(static_cast<long long>(count)) + "\n";
    for (unsigned char c : line) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct GoldenStats {
  const char* id;
  size_t packets, delivered, dropped, external, packet_ins, flow_mods,
      packet_outs, hops;
  size_t hosts;
  uint64_t per_host;
  size_t host_ports;
  uint64_t per_host_port;
};

// Captured from the linear flow table (and the per-host BFS route
// installation) before tuple-space search replaced them.
constexpr GoldenStats kGolden[] = {
    {"Q1", 13944, 12882, 1062, 0, 1023, 11, 8, 58716,
     772, 0x55b3018e39bba333ULL, 1805, 0x092d02305579d357ULL},
    {"Q2", 11250, 10500, 750, 0, 760, 10, 10, 45316,
     760, 0x95c144d8f81a9cd0ULL, 1708, 0x7e4e2cd6a63ae0b4ULL},
    {"Q3", 10995, 10540, 455, 0, 478, 23, 23, 45555,
     757, 0x0915648333cc3ddfULL, 1702, 0x517197c966fc6d22ULL},
    {"Q4", 8600, 8406, 194, 0, 194, 194, 0, 36049,
     746, 0xfab7a20c693faf2aULL, 1553, 0xf26c71716c13c257ULL},
    {"Q5", 8120, 8105, 15, 0, 17, 2, 2, 35126,
     744, 0x72ebe8d60e41b9e1ULL, 1574, 0x8699e65494aaf27aULL},
};

// Q1-Q5's workloads on Fig. 9c's largest campus (169 switches, 8 core,
// 5 hosts per edge switch): the perfbench `record` configuration.
TEST(GoldenForwarding, RecordCampusStatsUnchanged) {
  CampusOptions c;
  c.total_switches = 169;
  c.core_count = 8;
  c.hosts_per_edge = 5;
  const std::vector<scenario::Scenario> scenarios = scenario::all_scenarios(c);
  ASSERT_EQ(scenarios.size(), std::size(kGolden));
  for (size_t k = 0; k < scenarios.size(); ++k) {
    const scenario::Scenario& s = scenarios[k];
    const GoldenStats& g = kGolden[k];
    SCOPED_TRACE(s.id);
    ASSERT_EQ(s.id, g.id);
    Network probe;
    const Campus campus = build_campus(probe, s.campus);
    if (s.wire_app) s.wire_app(probe, campus);
    const std::vector<Injection> work = s.make_workload(probe);
    EXPECT_EQ(work.size(), g.packets);

    scenario::ScenarioRun run(s, s.program);
    run.insert_config();
    for (const Injection& inj : work) run.net().inject(inj.sw, inj.port, inj.packet);
    const DeliveryStats& st = run.net().stats();
    EXPECT_EQ(st.delivered, g.delivered);
    EXPECT_EQ(st.dropped, g.dropped);
    EXPECT_EQ(st.external, g.external);
    EXPECT_EQ(st.packet_ins, g.packet_ins);
    EXPECT_EQ(st.flow_mods, g.flow_mods);
    EXPECT_EQ(st.packet_outs, g.packet_outs);
    EXPECT_EQ(st.hops, g.hops);
    EXPECT_EQ(st.per_host.counts().size(), g.hosts);
    EXPECT_EQ(digest(st.per_host), g.per_host);
    EXPECT_EQ(st.per_host_port.counts().size(), g.host_ports);
    EXPECT_EQ(digest(st.per_host_port), g.per_host_port);
  }
}

}  // namespace
}  // namespace mp::sdn
