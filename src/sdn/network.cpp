#include "sdn/network.h"

namespace mp::sdn {

Switch& Network::add_switch(int64_t id) {
  auto [it, inserted] = switches_.try_emplace(id, Switch(id));
  return it->second;
}

Switch* Network::find_switch(int64_t id) {
  auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second;
}

const Switch* Network::find_switch(int64_t id) const {
  auto it = switches_.find(id);
  return it == switches_.end() ? nullptr : &it->second;
}

Host& Network::add_host(Host h) {
  Switch& sw = add_switch(h.sw);
  sw.connect(h.port, PortPeer{PortPeer::Kind::Host, h.id, 0});
  // try_emplace keeps an existing mapping: the first-added host wins.
  host_by_ip_.try_emplace(h.ip, hosts_.size());
  host_by_id_.try_emplace(h.id, hosts_.size());
  hosts_.push_back(std::move(h));
  return hosts_.back();
}

const Host* Network::host_by_ip(int64_t ip) const {
  auto it = host_by_ip_.find(ip);
  return it == host_by_ip_.end() ? nullptr : &hosts_[it->second];
}

const Host* Network::host_by_id(int64_t id) const {
  auto it = host_by_id_.find(id);
  return it == host_by_id_.end() ? nullptr : &hosts_[it->second];
}

void Network::link(int64_t sw_a, int64_t port_a, int64_t sw_b, int64_t port_b) {
  add_switch(sw_a).connect(port_a, PortPeer{PortPeer::Kind::Switch, sw_b, port_b});
  add_switch(sw_b).connect(port_b, PortPeer{PortPeer::Kind::Switch, sw_a, port_a});
}

void Network::external(int64_t sw, int64_t port) {
  add_switch(sw).connect(port, PortPeer{PortPeer::Kind::External, 0, 0});
}

void Network::install(int64_t sw, FlowEntry entry) {
  Switch* s = find_switch(sw);
  if (s == nullptr) return;
  ++stats_.flow_mods;
  recorder_.record_ctrl(CtrlMsgKind::FlowMod, sw, clock_);
  s->table().add(std::move(entry));
}

void Network::packet_out(int64_t sw, int64_t port, eval::TagMask tags) {
  ++stats_.packet_outs;
  recorder_.record_ctrl(CtrlMsgKind::PacketOut, sw, clock_);
  pending_outs_.push_back(PendingOut{sw, port, tags});
}

void Network::reset_dynamic_state() {
  for (auto& [id, sw] : switches_) {
    sw.table().erase_if([](const FlowEntry& e) { return e.priority >= 0; });
  }
  stats_ = DeliveryStats{};
  tag_stats_.clear();
  pending_outs_.clear();
}

const DeliveryStats& Network::tag_stats(size_t tag_index) const {
  static const DeliveryStats kEmpty;
  auto it = tag_stats_.find(tag_index);
  return it == tag_stats_.end() ? kEmpty : it->second;
}

namespace {

struct WalkOutcome {
  enum class Kind : uint8_t { Delivered, Dropped, External, Miss } kind =
      Kind::Dropped;
  int64_t host = 0;   // delivered host id
  int64_t sw = 0;     // miss location
  int64_t port = 0;   // miss in-port
};

}  // namespace

void Network::inject_batch(const std::vector<Injection>& work, bool record,
                           bool preserve_stamped_times) {
  if (record) recorder_.reserve_ingress(work.size());
  for (const Injection& inj : work) {
    if (record && preserve_stamped_times && inj.time != 0) {
      recorder_.record_ingress(inj);
      inject(inj.sw, inj.port, inj.packet, /*record=*/false);
    } else {
      inject(inj.sw, inj.port, inj.packet, record);
    }
  }
}

void Network::inject(int64_t sw, int64_t in_port, const Packet& p, bool record) {
  ++clock_;
  if (record) recorder_.record_ingress(Injection{sw, in_port, p, clock_});

  // Accounts a terminal outcome for every tag in `mask`. Outside tag mode
  // this is a single bump; in tag mode each candidate world gets its own
  // statistics (so joint outcomes equal sequential ones exactly).
  auto account = [&](const WalkOutcome& o, eval::TagMask mask) {
    auto bump = [&](DeliveryStats& st) {
      switch (o.kind) {
        case WalkOutcome::Kind::Delivered: {
          const Host* h = host_by_id(o.host);
          const std::string name = h != nullptr ? h->name : "?";
          st.per_host.add(name);
          st.per_host_port.add(name + ":" + std::to_string(p.dpt));
          ++st.delivered;
          break;
        }
        case WalkOutcome::Kind::Dropped: ++st.dropped; break;
        case WalkOutcome::Kind::External: ++st.external; break;
        case WalkOutcome::Kind::Miss: break;
      }
    };
    if (!tag_mode_) {
      bump(stats_);
      return;
    }
    for (size_t b = 0; b < eval::kMaxTags; ++b) {
      if ((mask & (eval::TagMask{1} << b)) == 0) continue;
      bump(stats_);
      bump(tag_stats_[b]);
    }
  };

  using Where = std::pair<int64_t, int64_t>;
  // Frontier of disjoint tag groups: all tags in a group sit at the same
  // position and have behaved identically so far. In normal operation the
  // frontier is a single kAllTags group, so this is exactly the plain
  // walk; in multi-query mode groups split only where candidate flow
  // tables genuinely diverge (Section 4.4's shared computation).
  std::map<Where, eval::TagMask> frontier;
  frontier[{sw, in_port}] = tag_mode_ ? active_tags_ : eval::kAllTags;

  size_t hop_budget = 4096;
  for (int wave = 0; wave < 8 && !frontier.empty(); ++wave) {
    std::map<Where, eval::TagMask> misses;
    std::vector<std::pair<Where, eval::TagMask>> work(frontier.begin(),
                                                      frontier.end());
    frontier.clear();
    while (!work.empty()) {
      auto [where, tags] = work.back();
      work.pop_back();
      if (hop_budget-- == 0) {
        account({WalkOutcome::Kind::Dropped, 0, 0, 0}, tags);
        continue;
      }
      ++stats_.hops;
      Switch* s = find_switch(where.first);
      if (s == nullptr) {
        account({WalkOutcome::Kind::Dropped, 0, 0, 0}, tags);
        continue;
      }
      const eval::TagMask missed = s->table().partition(
          p, where.second, tags,
          [&](const FlowEntry& e, eval::TagMask sub) {
            if (e.action.kind == Action::Kind::Drop) {
              account({WalkOutcome::Kind::Dropped, 0, 0, 0}, sub);
              return;
            }
            const PortPeer* peer = s->peer(e.action.port);
            if (peer == nullptr || peer->kind == PortPeer::Kind::None) {
              account({WalkOutcome::Kind::Dropped, 0, 0, 0}, sub);
            } else if (peer->kind == PortPeer::Kind::Host) {
              account({WalkOutcome::Kind::Delivered, peer->peer, 0, 0}, sub);
            } else if (peer->kind == PortPeer::Kind::External) {
              account({WalkOutcome::Kind::External, 0, 0, 0}, sub);
            } else {
              work.emplace_back(Where{peer->peer, peer->peer_port}, sub);
            }
          });
      if (missed) misses[where] |= missed;
    }

    if (misses.empty()) break;
    if (controller_ == nullptr) {
      for (const auto& [where, mask] : misses) {
        account({WalkOutcome::Kind::Dropped, 0, 0, 0}, mask);
      }
      break;
    }
    for (const auto& [where, mask] : misses) {
      ++stats_.packet_ins;
      if (tag_mode_) {
        for (size_t b = 0; b < eval::kMaxTags; ++b) {
          if (mask & (eval::TagMask{1} << b)) ++tag_stats_[b].packet_ins;
        }
      }
      recorder_.record_ctrl(CtrlMsgKind::PacketIn, where.first, clock_);
      pending_outs_.clear();
      controller_->on_packet_in(where.first, where.second, p, mask);
      // Resume the released tags along their PacketOut ports; the rest of
      // the buffered packet's worlds are lost (Q4's failure mode).
      eval::TagMask unreleased = mask;
      for (const PendingOut& out : pending_outs_) {
        if (out.sw != where.first) continue;
        const eval::TagMask sub = unreleased & out.tags;
        if (sub == 0) continue;
        unreleased &= ~sub;
        Switch* s = find_switch(where.first);
        const PortPeer* peer = s != nullptr ? s->peer(out.port) : nullptr;
        if (peer == nullptr || peer->kind == PortPeer::Kind::None) {
          account({WalkOutcome::Kind::Dropped, 0, 0, 0}, sub);
        } else if (peer->kind == PortPeer::Kind::Host) {
          account({WalkOutcome::Kind::Delivered, peer->peer, 0, 0}, sub);
        } else if (peer->kind == PortPeer::Kind::External) {
          account({WalkOutcome::Kind::External, 0, 0, 0}, sub);
        } else {
          frontier[{peer->peer, peer->peer_port}] |= sub;
        }
      }
      if (unreleased) {
        account({WalkOutcome::Kind::Dropped, 0, 0, 0}, unreleased);
      }
    }
  }
}

}  // namespace mp::sdn
