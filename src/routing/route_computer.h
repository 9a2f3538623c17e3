// Destination-to-route translation (paper section 2.2: "Local logic can also
// provide a translation from a destination node to a route").
//
// Routes are minimal and dimension-ordered (row first, then column), which
// keeps the turn model to a single turn and — combined with the VC dateline
// scheme — makes the torus deadlock-free. On rings, ties between the two
// directions (distance exactly k/2) break by a deterministic hash of
// (src, dst, dimension): globally the tied pairs split evenly between the
// two directions (so patterns like bit-complement load both ring halves),
// while any one (src, dst) pair always routes identically, preserving
// in-order delivery per source and class.
//
// Fault-aware recomputation (paper section 2.5's graceful degradation):
// links can be marked dead at runtime. On wraparound topologies a ring
// segment through a dead link is replaced by the (possibly non-minimal)
// segment the other way around the ring, which stays dimension-ordered, so
// the turn model and the dateline VC discipline — and therefore the
// deadlock-freedom argument — are unchanged; chaos::kill_link re-proves
// this with the CDG before committing the dead set. Meshes have no
// alternative under dimension-order routing, so dead mesh links leave the
// path unchanged and path_live() reports the casualty.
#pragma once

#include <array>
#include <vector>

#include "routing/source_route.h"
#include "topo/topology.h"

namespace ocn::routing {

class RouteComputer {
 public:
  explicit RouteComputer(const topo::Topology& topology) : topo_(topology) {}

  /// Output ports taken from src to dst, ending with kTile (the extract).
  /// Empty for src == dst.
  std::vector<topo::Port> port_path(NodeId src, NodeId dst) const;

  /// Encoded source route: first entry uses the absolute injection code,
  /// the rest relative turns, final entry extract.
  SourceRoute compute(NodeId src, NodeId dst) const;

  /// Decode a route by walking the topology; returns the nodes visited
  /// (starting with src, ending with the extraction node). Used by tests
  /// and by the deflection router's per-hop re-route.
  std::vector<NodeId> walk(NodeId src, SourceRoute route) const;

  /// Network hops (links traversed) for the computed route.
  int hop_count(NodeId src, NodeId dst) const;

  // --- fault-aware routing ----------------------------------------------------
  /// Mark the link out of `src` through `port` dead (or alive again). Every
  /// subsequently computed route detours around dead links where the
  /// topology offers a dimension-ordered alternative. Costs nothing on
  /// route computation while no link is dead.
  void set_link_dead(NodeId src, topo::Port port, bool dead = true);
  bool is_link_dead(NodeId src, topo::Port port) const;
  int dead_link_count() const { return dead_count_; }
  void clear_dead_links();

  /// True when the path src -> dst traverses no dead link (src == dst is
  /// trivially live).
  bool path_live(NodeId src, NodeId dst) const;

  const topo::Topology& topology() const { return topo_; }

 private:
  /// One dimension's run of hops: `hops` links through `dir` (0: none).
  struct Leg {
    topo::Port dir = topo::Port::kRowPos;
    int hops = 0;
  };
  /// The row leg then the column leg from src to dst, detours included:
  /// the one route computation port_path(), compute() and hop_count()
  /// read. Walks the topology only while a link is dead.
  std::array<Leg, 2> legs(NodeId src, NodeId dst) const;
  bool segment_live(NodeId from, topo::Port dir, int hops) const;

  const topo::Topology& topo_;
  /// Dead flag per (node, direction port); empty until a link dies.
  std::vector<std::uint8_t> dead_;
  int dead_count_ = 0;
};

}  // namespace ocn::routing
