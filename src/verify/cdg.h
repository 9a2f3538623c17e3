// Channel-dependency graph over (link, virtual channel) pairs.
//
// Dally's deadlock criterion: a routing function is deadlock-free iff the
// graph whose nodes are the network's channels and whose edges connect every
// channel a packet may hold to every channel it may request next is acyclic.
// Here a channel is one (upstream router, output port, VC) triple — the
// resource a packet owns from VC allocation until its tail crosses the link —
// and the edges are derived statically from every producible source route
// plus the dateline VC-transition rules the allocator enforces
// (Router::effective_dateline / VcAllocator::allocate).
//
// The same per-hop expansion (expand_route) feeds three consumers: the CDG
// builder, the verifier's VC-reachability lint, and the RuntimeMonitor's
// per-packet hop checks during simulation.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"
#include "routing/route_computer.h"
#include "topo/topology.h"

namespace ocn::verify {

/// The dateline discipline the dependency model assumes.
enum class Datelines {
  kDerived,  ///< the one the routers keep: Config::dateline_parity()
  kNone,     ///< none at all: the counter-demonstration that a torus
             ///< without datelines has a dependency cycle
};

/// One CDG node: the VC `vc` of the link leaving router `src` through
/// `port`. `port == kTile` names the ejection channel into the NIC.
struct ChannelNode {
  NodeId src = kInvalidNode;
  topo::Port port = topo::Port::kTile;
  VcId vc = kInvalidVc;
};

/// Hop-by-hop expansion of the route src -> dst for one service class:
/// the router driving hop i, the output port taken, and the set of VCs the
/// allocator could grant on that hop (singleton under the dateline parity
/// discipline, when `datelines` keeps it, on direction ports; the whole
/// class pair at the ejection port where parity is ignored; the injection
/// VC alone in dropping mode, which keeps the VC index end to end).
struct RouteExpansion {
  std::vector<NodeId> nodes;
  std::vector<topo::Port> ports;
  std::vector<std::vector<VcId>> vc_sets;

  bool empty() const { return ports.empty(); }
  std::size_t hops() const { return ports.size(); }
};

RouteExpansion expand_route(const core::Config& config,
                            const routing::RouteComputer& routes, NodeId src,
                            NodeId dst, int service_class,
                            Datelines datelines = Datelines::kDerived);

/// Expansion for a pre-scheduled flow: same port path, but every hop rides
/// the dedicated scheduled VC (reservation bypass skips allocation).
RouteExpansion expand_scheduled_route(const core::Config& config,
                                      const routing::RouteComputer& routes,
                                      NodeId src, NodeId dst);

class Cdg {
 public:
  Cdg(const core::Config& config, const routing::RouteComputer& routes,
      Datelines datelines = Datelines::kDerived);

  int num_channels() const { return static_cast<int>(channels_.size()); }
  std::int64_t num_edges() const { return num_edges_; }

  /// Channel id for (src, port, vc); -1 when the port has no link (mesh
  /// boundary) or the VC is out of range.
  int channel_id(NodeId src, topo::Port port, VcId vc) const;
  const ChannelNode& channel(int id) const {
    return channels_[static_cast<std::size_t>(id)];
  }

  bool has_edge(int from, int to) const;
  /// True when some route's first hop can occupy this channel.
  bool is_start(int id) const { return start_[static_cast<std::size_t>(id)]; }

  /// One dependency cycle as a channel-id sequence (the edge from the last
  /// entry back to the first closes it), or empty when the graph is acyclic
  /// — the deadlock-freedom proof.
  std::vector<int> find_cycle() const;

  std::string describe(int id) const;
  std::string describe_cycle(const std::vector<int>& cycle) const;

 private:
  void add_edge(int from, int to);

  const topo::Topology* topo_ = nullptr;
  int vcs_ = 0;
  int num_nodes_ = 0;
  std::vector<ChannelNode> channels_;
  std::vector<int> id_map_;            // (node, port, vc) -> channel id
  std::vector<std::vector<int>> adj_;  // sorted, deduplicated
  std::vector<bool> start_;
  std::int64_t num_edges_ = 0;
};

}  // namespace ocn::verify
