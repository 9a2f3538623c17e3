#include "routing/route_computer.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>

namespace ocn::routing {

using topo::Port;

void RouteComputer::set_link_dead(NodeId src, Port port, bool dead) {
  assert(port != Port::kTile && "only direction links can die");
  assert(topo_.neighbor(src, port).has_value() && "no link leaves this port");
  if (dead_.empty()) {
    dead_.assign(static_cast<std::size_t>(topo_.num_nodes()) *
                     static_cast<std::size_t>(topo::kNumDirPorts),
                 0);
  }
  auto& flag = dead_[static_cast<std::size_t>(src) * topo::kNumDirPorts +
                     static_cast<std::size_t>(port)];
  if (flag != static_cast<std::uint8_t>(dead)) {
    flag = static_cast<std::uint8_t>(dead);
    dead_count_ += dead ? 1 : -1;
  }
}

bool RouteComputer::is_link_dead(NodeId src, Port port) const {
  if (dead_count_ == 0 || port == Port::kTile) return false;
  return dead_[static_cast<std::size_t>(src) * topo::kNumDirPorts +
               static_cast<std::size_t>(port)] != 0;
}

void RouteComputer::clear_dead_links() {
  dead_.clear();
  dead_count_ = 0;
}

bool RouteComputer::segment_live(NodeId from, Port dir, int hops) const {
  NodeId node = from;
  for (int i = 0; i < hops; ++i) {
    if (is_link_dead(node, dir)) return false;
    node = topo_.neighbor(node, dir)->dst;
  }
  return true;
}

bool RouteComputer::path_live(NodeId src, NodeId dst) const {
  if (dead_count_ == 0) return true;
  NodeId node = src;
  for (const Port p : port_path(src, dst)) {
    if (p == Port::kTile) break;
    if (is_link_dead(node, p)) return false;
    node = topo_.neighbor(node, p)->dst;
  }
  return true;
}

std::array<RouteComputer::Leg, 2> RouteComputer::legs(NodeId src, NodeId dst) const {
  std::array<Leg, 2> out{};
  const int k = topo_.radix();
  // A row hop changes only the row ring index and a column hop only the
  // column index, so both legs follow from src and dst alone; the node the
  // column leg starts from is walked to only when a dead link may force a
  // detour.
  NodeId node = src;
  for (int dim = 0; dim < 2; ++dim) {
    const int from = topo_.ring_index(src, dim);
    const int to = topo_.ring_index(dst, dim);
    if (from == to) continue;
    const Port pos = dim == 0 ? Port::kRowPos : Port::kColPos;
    const Port neg = dim == 0 ? Port::kRowNeg : Port::kColNeg;
    Leg& leg = out[static_cast<std::size_t>(dim)];
    if (topo_.has_wraparound()) {
      // Tie-break (ring distance exactly k/2): both members of an antipodal
      // pair orbit the same rotational direction, and pairs alternate
      // direction by the parity of their lower ring index. Every directed
      // ring link then carries exactly one tied flow under antipodal
      // patterns (tornado, bit-complement), using the full ring capacity.
      const int dist_pos = (to - from + k) % k;
      const int dist_neg = (from - to + k) % k;
      const bool go_pos =
          dist_pos != dist_neg ? dist_pos < dist_neg : (std::min(from, to) % 2) == 0;
      leg = {go_pos ? pos : neg, go_pos ? dist_pos : dist_neg};
      // Fault-aware detour: when the chosen ring segment crosses a dead
      // link, go the other way around the ring if that side is intact. The
      // detour is non-minimal but still dimension-ordered, so the turn
      // encoding and the dateline VC scheme apply unchanged.
      if (dead_count_ > 0 && !segment_live(node, leg.dir, leg.hops)) {
        const Port alt = go_pos ? neg : pos;
        if (segment_live(node, alt, k - leg.hops)) leg = {alt, k - leg.hops};
      }
    } else {
      leg = {to > from ? pos : neg, std::abs(to - from)};
    }
    if (dead_count_ > 0 && dim == 0) {
      for (int i = 0; i < leg.hops; ++i) node = topo_.neighbor(node, leg.dir)->dst;
    }
  }
  return out;
}

std::vector<Port> RouteComputer::port_path(NodeId src, NodeId dst) const {
  std::vector<Port> path;
  if (src == dst) return path;
  for (const Leg& leg : legs(src, dst)) path.insert(path.end(), leg.hops, leg.dir);
  path.push_back(Port::kTile);
  return path;
}

SourceRoute RouteComputer::compute(NodeId src, NodeId dst) const {
  // Runs once per injected packet: the turn codes come straight from the
  // two legs, with no path vector and, while no link is dead, no walk.
  SourceRoute route;
  if (src == dst) return route;
  const auto [row, col] = legs(src, dst);
  const auto straight = static_cast<std::uint8_t>(TurnCode::kStraight);
  route.push(injection_code(row.hops > 0 ? row.dir : col.dir));
  for (int i = 1; i < row.hops; ++i) route.push(straight);
  if (row.hops > 0 && col.hops > 0) {
    const auto turn = turn_between(row.dir, col.dir);
    assert(turn.has_value() && "dimension-order path must be turn-encodable");
    route.push(static_cast<std::uint8_t>(*turn));
  }
  for (int i = 1; i < col.hops; ++i) route.push(straight);
  route.push(static_cast<std::uint8_t>(TurnCode::kExtract));
  return route;
}

std::vector<NodeId> RouteComputer::walk(NodeId src, SourceRoute route) const {
  std::vector<NodeId> nodes{src};
  if (route.empty()) return nodes;
  Port heading = injection_port(route.pop());
  NodeId node = src;
  while (true) {
    const auto link = topo_.neighbor(node, heading);
    assert(link.has_value() && "route walks off the topology");
    node = link->dst;
    nodes.push_back(node);
    if (route.empty()) break;  // malformed route without extract; stop
    const auto code = static_cast<TurnCode>(route.pop());
    if (code == TurnCode::kExtract) break;
    heading = apply_turn(heading, code);
  }
  return nodes;
}

int RouteComputer::hop_count(NodeId src, NodeId dst) const {
  const auto [row, col] = legs(src, dst);
  return row.hops + col.hops;
}

}  // namespace ocn::routing
