// The wiring plan: every link of a network, declared once.
//
// A link is a flit channel from one end to the other and a credit channel
// back; an end is a router port or the node's NIC. The plan lists each
// topology channel and each node's inject and eject tile ports. It is a
// pure function of the Config and the topology and, like the analyzer,
// never calls Config::validate, so an unbuildable system (a zero-latency
// link) is listed as it is. core::Network::build builds the plan's
// channels and analyze::build_footprint models them, both filed by
// file_channel: the shard-safety proof checks the wiring the network
// builds, not a copy of it. The plan is enumerated, not stored: a 64x64
// fabric has 24,576 links, and holding all their records before building
// any channel made Network construction measurably slower.
#pragma once

#include <functional>
#include <string>

#include "core/config.h"
#include "core/shard_partition.h"
#include "topo/topology.h"

namespace ocn::core {

/// Port `port` of node `node`'s router, or node `node`'s NIC (`port` kTile).
struct LinkEnd {
  NodeId node = kInvalidNode;
  topo::Port port = topo::Port::kTile;
  bool nic = false;
};

/// A flit channel `from` -> `to` and its credit channel `to` -> `from`.
struct Link {
  LinkEnd from;
  LinkEnd to;
  int latency = 1;
  double length_mm = 0.0;   ///< 0 for a tile port
  std::string flit_name;    ///< "link:3:row+", "inject:3", "eject:3"
  std::string credit_name;  ///< "link:3:row+:credit", "inject_credit:3", "eject_credit:3"

  bool tile() const { return from.nic || to.nic; }
};

/// Call `visit` on every link of the plan, in kernel registration order:
/// the topology channels in Topology::channels() order, then per node its
/// inject and eject links. The visitor may move the names out.
void for_each_link(const Config& config, const topo::Topology& topology,
                   const std::function<void(Link&)>& visit);

/// Where the kernel files one channel.
struct Filing {
  int shard = 0;
  bool boundary = false;  ///< crosses shards: advanced every cycle
};

/// The one filing rule: a channel is interior to its shard when `sender`
/// and `receiver` share one, otherwise a boundary channel filed under the
/// receiver's shard. That keeps every wake stamp shard-local: an advance
/// stamps the receiver's arrival byte and due bit in phase B on the worker
/// that reads and clears them in phase A.
Filing file_channel(const ShardPartition& partition, NodeId sender, NodeId receiver);

}  // namespace ocn::core
