// The wiring plan: every link of a network, declared once.
//
// A link is a flit channel from one end to the other and a credit channel
// back; an end is a router port or the node's NIC. The plan lists each
// topology channel and each node's inject and eject tile ports. It is a
// pure function of the Config and the topology and, like the analyzer,
// never calls Config::validate, so an unbuildable system (a zero-latency
// link) is listed as it is. core::Network::build files each of the plan's
// channels into a row of its receiver shard's link store and
// analyze::build_footprint models them, both through file_channel: the
// shard-safety proof checks the wiring the network builds, not a copy of
// it. The plan is enumerated, not stored: a 64x64 fabric has 24,576 links,
// and holding all their records before building any channel made Network
// construction measurably slower. Names are generated from a link's ends
// when asked for (error messages, the analyzer's states), never stored.
#pragma once

#include <cstdint>
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
  double length_mm = 0.0;  ///< 0 for a tile port

  bool tile() const { return from.nic || to.nic; }
  /// "link:3:row+", "inject:3", "eject:3".
  std::string flit_name() const;
  /// "link:3:row+:credit", "inject_credit:3", "eject_credit:3".
  std::string credit_name() const;
};

/// Call `visit` on every link of the plan: the topology channels in
/// Topology::channels() order, then per node its inject and eject links.
void for_each_link(const Config& config, const topo::Topology& topology,
                   const std::function<void(const Link&)>& visit);

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

/// The row of `link`'s flit channel (`credit` false, from -> to) or credit
/// channel (`credit` true, to -> from) in its receiver shard's link store
/// (router/soa.h names the kinds): a router's inbound flit link at (pool
/// slot, input port), its inbound credit link at (pool slot, output port),
/// a NIC's eject and inject-credit links at its node's pool slot.
std::uint32_t link_row(const ShardPartition& partition, const Link& link, bool credit);

/// The name of the channel filed at `row` of shard `shard`'s store (the
/// plan walked on demand: error paths only), or "" when none is.
std::string channel_name(const Config& config, const topo::Topology& topology,
                         const ShardPartition& partition, int shard, std::uint32_t row);

}  // namespace ocn::core
