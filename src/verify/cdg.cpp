#include "verify/cdg.h"

#include <algorithm>
#include <cassert>

#include "core/interface.h"

namespace ocn::verify {

using topo::Port;

namespace {

/// VCs the allocator could grant on one hop. `want_odd` is the dateline
/// parity the packet will have on the link (Router::effective_dateline);
/// `parity` says whether the allocator checks it.
std::vector<VcId> hop_vc_set(const router::RouterParams& rp, int service_class,
                             Port out, bool parity, bool want_odd, bool scheduled) {
  std::vector<VcId> set;
  if (scheduled) {
    set.push_back(rp.scheduled_vc());
    return set;
  }
  const std::uint8_t mask = core::vc_mask_for_class(service_class);
  for (VcId v = 0; v < rp.vcs; ++v) {
    if ((mask & (1u << static_cast<unsigned>(v))) == 0) continue;
    if (rp.exclusive_scheduled_vc && v == rp.scheduled_vc()) continue;
    if (rp.dropping()) {
      // Dropping flow control keeps the injection VC index across hops
      // (VcAllocator::allocate_exact), so the class's even VC is the only
      // channel the packet ever occupies.
      if (v != static_cast<VcId>(2 * service_class) && rp.vcs != 1) continue;
    } else if (parity && out != Port::kTile) {
      // Dateline discipline: parity must match on direction ports; the
      // ejection port allocates with ignore_parity (the dateline scheme
      // does not apply there), so both members stay eligible.
      if ((v % 2 != 0) != want_odd) continue;
    }
    set.push_back(v);
  }
  return set;
}

RouteExpansion expand(const core::Config& config,
                      const routing::RouteComputer& routes, NodeId src,
                      NodeId dst, int service_class, bool scheduled,
                      Datelines datelines) {
  const topo::Topology& topo = routes.topology();
  const bool parity = datelines == Datelines::kDerived && config.dateline_parity();
  RouteExpansion e;
  const auto path = routes.port_path(src, dst);
  if (path.empty()) return e;
  e.nodes.reserve(path.size());
  e.ports.reserve(path.size());
  e.vc_sets.reserve(path.size());

  // Replicates the flit's dateline state: reset when entering the network
  // or changing dimension, set when the hop crosses the ring's dateline
  // (exactly Router::effective_dateline, which both the allocator's
  // want_odd and the stored flit state are derived from).
  bool crossed = false;
  NodeId node = src;
  Port in = Port::kTile;
  for (const Port out : path) {
    bool eff = crossed;
    if (out != Port::kTile) {
      if (in == Port::kTile || topo::dim_of(in) != topo::dim_of(out)) {
        eff = false;
      }
      if (topo.crosses_dateline(node, out)) eff = true;
    }
    e.nodes.push_back(node);
    e.ports.push_back(out);
    e.vc_sets.push_back(
        hop_vc_set(config.router, service_class, out, parity, eff, scheduled));
    if (out != Port::kTile) {
      node = topo.neighbor(node, out)->dst;
      crossed = eff;
      in = out;
    }
  }
  return e;
}

}  // namespace

RouteExpansion expand_route(const core::Config& config,
                            const routing::RouteComputer& routes, NodeId src,
                            NodeId dst, int service_class, Datelines datelines) {
  return expand(config, routes, src, dst, service_class, /*scheduled=*/false,
                datelines);
}

RouteExpansion expand_scheduled_route(const core::Config& config,
                                      const routing::RouteComputer& routes,
                                      NodeId src, NodeId dst) {
  return expand(config, routes, src, dst, /*service_class=*/0,
                /*scheduled=*/true, Datelines::kDerived);
}

Cdg::Cdg(const core::Config& config, const routing::RouteComputer& routes,
         Datelines datelines)
    : topo_(&routes.topology()), vcs_(config.router.vcs) {
  const topo::Topology& topo = *topo_;
  num_nodes_ = topo.num_nodes();

  // Enumerate channels: every existing direction link plus the ejection
  // channel of each router, times the VC count.
  id_map_.assign(
      static_cast<std::size_t>(num_nodes_) * topo::kNumPorts *
          static_cast<std::size_t>(vcs_),
      -1);
  auto slot = [&](NodeId n, Port p, VcId v) -> int& {
    return id_map_[(static_cast<std::size_t>(n) * topo::kNumPorts +
                    static_cast<std::size_t>(p)) *
                       static_cast<std::size_t>(vcs_) +
                   static_cast<std::size_t>(v)];
  };
  for (NodeId n = 0; n < num_nodes_; ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<Port>(p);
      if (port != Port::kTile && !topo.neighbor(n, port).has_value()) continue;
      for (VcId v = 0; v < vcs_; ++v) {
        slot(n, port, v) = static_cast<int>(channels_.size());
        channels_.push_back(ChannelNode{n, port, v});
      }
    }
  }
  adj_.resize(channels_.size());
  start_.assign(channels_.size(), false);

  // Dependencies induced by every dynamic route. A packet holding the VC of
  // hop i requests a VC of hop i+1: edge for every pair the allocator could
  // produce. Scheduled flows add their fixed-VC chains as well; their slots
  // are conflict-free by construction, but the channels are still held
  // across cycles whenever a bypass hop waits on a credit.
  const auto classes = core::dynamic_classes(config.router);
  for (NodeId s = 0; s < num_nodes_; ++s) {
    for (NodeId d = 0; d < num_nodes_; ++d) {
      if (s == d) continue;
      for (const int c : classes) {
        const RouteExpansion e = expand_route(config, routes, s, d, c, datelines);
        for (std::size_t i = 0; i < e.hops(); ++i) {
          for (const VcId v : e.vc_sets[i]) {
            const int id = slot(e.nodes[i], e.ports[i], v);
            if (i == 0) start_[static_cast<std::size_t>(id)] = true;
            if (i + 1 == e.hops()) continue;
            for (const VcId w : e.vc_sets[i + 1]) {
              add_edge(id, slot(e.nodes[i + 1], e.ports[i + 1], w));
            }
          }
        }
      }
      if (config.router.exclusive_scheduled_vc) {
        const RouteExpansion e = expand_scheduled_route(config, routes, s, d);
        for (std::size_t i = 0; i < e.hops(); ++i) {
          const int id = slot(e.nodes[i], e.ports[i], config.router.scheduled_vc());
          if (i == 0) start_[static_cast<std::size_t>(id)] = true;
          if (i + 1 == e.hops()) continue;
          add_edge(id,
                   slot(e.nodes[i + 1], e.ports[i + 1], config.router.scheduled_vc()));
        }
      }
    }
  }

  num_edges_ = 0;
  for (auto& nbrs : adj_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    num_edges_ += static_cast<std::int64_t>(nbrs.size());
  }
}

void Cdg::add_edge(int from, int to) {
  adj_[static_cast<std::size_t>(from)].push_back(to);
}

int Cdg::channel_id(NodeId src, Port port, VcId vc) const {
  if (src < 0 || src >= num_nodes_ || vc < 0 || vc >= vcs_) return -1;
  return id_map_[(static_cast<std::size_t>(src) * topo::kNumPorts +
                  static_cast<std::size_t>(port)) *
                     static_cast<std::size_t>(vcs_) +
                 static_cast<std::size_t>(vc)];
}

bool Cdg::has_edge(int from, int to) const {
  if (from < 0 || to < 0) return false;
  const auto& nbrs = adj_[static_cast<std::size_t>(from)];
  return std::binary_search(nbrs.begin(), nbrs.end(), to);
}

std::vector<int> Cdg::find_cycle() const {
  // Iterative DFS with three colours; a gray-to-gray edge closes a cycle,
  // recovered from the explicit stack so the report shows the actual
  // dependency path.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(channels_.size(), kWhite);
  struct Frame {
    int node;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  for (int root = 0; root < num_channels(); ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    stack.push_back({root});
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& nbrs = adj_[static_cast<std::size_t>(f.node)];
      if (f.next < nbrs.size()) {
        const int n = nbrs[f.next++];
        if (color[static_cast<std::size_t>(n)] == kGray) {
          // Extract the cycle: the stack suffix from n (inclusive — gray
          // nodes are exactly the on-stack nodes) up to the top, whose edge
          // back to n closes it.
          std::vector<int> cycle;
          std::size_t i = stack.size();
          while (i > 0 && stack[i - 1].node != n) --i;
          assert(i > 0 && "gray neighbor must be on the DFS stack");
          for (--i; i < stack.size(); ++i) cycle.push_back(stack[i].node);
          return cycle;
        }
        if (color[static_cast<std::size_t>(n)] == kWhite) {
          color[static_cast<std::size_t>(n)] = kGray;
          stack.push_back({n});
        }
      } else {
        color[static_cast<std::size_t>(f.node)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::string Cdg::describe(int id) const {
  // channel_id() returns -1 for (node, port, vc) triples outside the CDG —
  // e.g. a rogue flit the monitor observed on a VC no route may use. Such an
  // id names no channel, so describe it as such instead of indexing with it.
  if (id < 0 || static_cast<std::size_t>(id) >= channels_.size()) {
    return "<no such channel (id " + std::to_string(id) + ")>";
  }
  const ChannelNode& c = channel(id);
  std::string s = "n" + std::to_string(c.src);
  if (c.port == Port::kTile) {
    s += " --eject";
  } else {
    // Ids are only handed out for ports with a live link, so neighbor() is
    // always engaged here.
    s += " --" + std::string(topo::port_name(c.port)) + "--> n" +
         std::to_string(topo_->neighbor(c.src, c.port)->dst);
  }
  s += " [vc" + std::to_string(c.vc) + "]";
  return s;
}

std::string Cdg::describe_cycle(const std::vector<int>& cycle) const {
  std::string s;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) s += " -> ";
    s += describe(cycle[i]);
  }
  if (!cycle.empty()) s += " -> (closes at " + describe(cycle.front()) + ")";
  return s;
}

}  // namespace ocn::verify
