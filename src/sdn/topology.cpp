#include "sdn/topology.h"

#include <algorithm>
#include <cstdint>
#include <map>

namespace mp::sdn {

namespace {

// Port allocator: gives each new link a fresh port per switch.
class Ports {
 public:
  int64_t next(int64_t sw) { return ++next_[sw]; }
  void reserve(int64_t sw, int64_t up_to) {
    next_[sw] = std::max(next_[sw], up_to);
  }

 private:
  std::map<int64_t, int64_t> next_;
};

constexpr uint32_t kNone = ~uint32_t{0};

// The switch graph in dense form: switches by ascending id, and for each
// its switch-facing ports in port order with the neighbour's index.
struct Graph {
  struct Link {
    int64_t port;
    uint32_t peer;
  };
  std::vector<int64_t> ids;
  std::vector<std::vector<Link>> links;

  explicit Graph(const Network& net) {
    for (const auto& [id, sw] : net.switches()) ids.push_back(id);
    links.resize(ids.size());
    for (const auto& [id, sw] : net.switches()) {
      std::vector<Link>& out = links[index_of(id)];
      for (const auto& [port, peer] : sw.ports()) {
        if (peer.kind != PortPeer::Kind::Switch) continue;
        const uint32_t j = index_of(peer.peer);
        if (j != kNone) out.push_back({port, j});
      }
    }
  }

  uint32_t index_of(int64_t id) const {
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) return kNone;
    return static_cast<uint32_t>(it - ids.begin());
  }

  // egress[s] = the port at switch s on a shortest path toward switch
  // `dest` (BFS in port order; the lowest port to the BFS parent), or
  // kNoPort when s is `dest` or cannot reach it.
  static constexpr int64_t kNoPort = INT64_MIN;
  std::vector<int64_t> egress_toward(uint32_t dest) const {
    std::vector<uint32_t> via(ids.size(), kNone);  // BFS parent
    std::vector<uint32_t> queue{dest};
    via[dest] = dest;
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint32_t cur = queue[head];
      for (const Link& l : links[cur]) {
        if (via[l.peer] != kNone) continue;
        via[l.peer] = cur;
        queue.push_back(l.peer);
      }
    }
    std::vector<int64_t> egress(ids.size(), kNoPort);
    for (size_t s = 0; s < ids.size(); ++s) {
      if (s == dest || via[s] == kNone) continue;
      for (const Link& l : links[s]) {
        if (l.peer == via[s]) {
          egress[s] = l.port;
          break;
        }
      }
    }
    return egress;
  }
};

}  // namespace

size_t install_host_routes(Network& net, const std::vector<int64_t>& ips,
                           const std::vector<int64_t>& exclude) {
  const Graph g(net);
  const size_t n = g.ids.size();
  std::vector<Switch*> switches(n);
  std::vector<bool> excluded(n, false);
  for (size_t s = 0; s < n; ++s) switches[s] = net.find_switch(g.ids[s]);
  for (int64_t id : exclude) {
    const uint32_t s = g.index_of(id);
    if (s != kNone) excluded[s] = true;
  }

  // The hosts grouped by their switch, switches in order of first
  // appearance, so that one BFS serves every host on a switch. Each table
  // receives its routes in `ips` order whenever the hosts of a switch are
  // contiguous in `ips` (as the campus's are); routes toward distinct ips
  // never match the same packet, so the order among them cannot matter.
  std::vector<uint32_t> group_of(n, kNone);
  std::vector<std::pair<uint32_t, std::vector<const Host*>>> groups;
  for (int64_t ip : ips) {
    const Host* h = net.host_by_ip(ip);
    if (h == nullptr) continue;
    const uint32_t d = g.index_of(h->sw);
    if (group_of[d] == kNone) {
      group_of[d] = static_cast<uint32_t>(groups.size());
      groups.push_back({d, {}});
    }
    groups[group_of[d]].second.push_back(h);
  }

  // Each switch receives at most one route per host: size its table once
  // rather than let it grow by doubling.
  size_t routes = 0;
  for (const auto& group : groups) routes += group.second.size();
  for (size_t s = 0; s < n; ++s) {
    if (!excluded[s]) {
      switches[s]->table().reserve(switches[s]->table().size() + routes);
    }
  }

  size_t installed = 0;
  for (const auto& [dest, hosts] : groups) {
    const std::vector<int64_t> egress = g.egress_toward(dest);  // one tree alive
    for (const Host* h : hosts) {
      for (size_t s = 0; s < n; ++s) {
        if (excluded[s]) continue;
        const int64_t port = s == dest ? h->port : egress[s];
        if (port == Graph::kNoPort) continue;
        FlowEntry e;
        e.match.push_back({Field::Dip, Value(h->ip)});
        e.priority = -1;  // static / proactive
        e.action = Action::output(port);
        switches[s]->table().add(std::move(e));
        ++installed;
      }
    }
  }
  return installed;
}

Campus build_campus(Network& net, const CampusOptions& opt) {
  Campus campus;
  Ports ports;

  const size_t core_count = std::max<size_t>(2, opt.core_count);
  // App switches 1..4 (S4 is the guest/branch switch used by scenarios).
  for (int64_t s = 1; s <= 4; ++s) {
    net.add_switch(s);
    campus.app_switches.push_back(s);
    ports.reserve(s, 8);  // low ports are host/app-facing
  }
  net.external(1, 1);

  // Core ring with cross-chords (backbone + operational zone routers).
  const int64_t core_base = 10;
  for (size_t i = 0; i < core_count; ++i) {
    campus.core_switches.push_back(core_base + static_cast<int64_t>(i));
    net.add_switch(campus.core_switches.back());
  }
  for (size_t i = 0; i < core_count; ++i) {
    const int64_t a = campus.core_switches[i];
    const int64_t b = campus.core_switches[(i + 1) % core_count];
    net.link(a, ports.next(a), b, ports.next(b));
  }
  for (size_t i = 0; i + core_count / 2 < core_count; i += 4) {
    const int64_t a = campus.core_switches[i];
    const int64_t b = campus.core_switches[i + core_count / 2];
    net.link(a, ports.next(a), b, ports.next(b));
  }
  // App network attachment points.
  net.link(1, ports.next(1), campus.core_switches[0],
           ports.next(campus.core_switches[0]));
  net.link(4, ports.next(4), campus.core_switches[1 % core_count],
           ports.next(campus.core_switches[1 % core_count]));

  // Edge switches fill the remaining budget, round-robin on the cores.
  const size_t used = 4 + core_count;
  const size_t edge_count =
      opt.total_switches > used ? opt.total_switches - used : 0;
  int64_t next_id = core_base + static_cast<int64_t>(core_count);
  for (size_t e = 0; e < edge_count; ++e) {
    const int64_t id = next_id++;
    campus.edge_switches.push_back(id);
    net.add_switch(id);
    const int64_t core = campus.core_switches[e % core_count];
    net.link(id, ports.next(id), core, ports.next(core));
  }

  // Campus end hosts on the edges (ips >= 100).
  int64_t next_ip = 100;
  int64_t next_host_id = 1000;
  for (int64_t edge : campus.edge_switches) {
    for (size_t h = 0; h < opt.hosts_per_edge; ++h) {
      Host host;
      host.id = next_host_id++;
      host.ip = next_ip++;
      host.mac = host.ip + 100000;
      host.name = "E" + std::to_string(host.ip);
      host.sw = edge;
      host.port = ports.next(edge);
      net.add_host(host);
      campus.host_ips.push_back(host.ip);
    }
  }

  campus.static_entries = install_host_routes(net, campus.host_ips, {});
  return campus;
}

}  // namespace mp::sdn
