#include "core/wiring.h"

#include "router/soa.h"

namespace ocn::core {

using router::RouterStatePool;
using topo::Port;

std::string Link::flit_name() const {
  if (from.nic) return "inject:" + std::to_string(from.node);
  if (to.nic) return "eject:" + std::to_string(from.node);
  return "link:" + std::to_string(from.node) + ":" + topo::port_name(from.port);
}

std::string Link::credit_name() const {
  if (from.nic) return "inject_credit:" + std::to_string(from.node);
  if (to.nic) return "eject_credit:" + std::to_string(from.node);
  return flit_name() + ":credit";
}

void for_each_link(const Config& config, const topo::Topology& topology,
                   const std::function<void(const Link&)>& visit) {
  for (const topo::ChannelDesc& d : topology.channels()) {
    visit(Link{{d.src, d.src_out_port, false}, {d.dst, d.dst_in_port, false},
               config.link_latency, d.length_mm});
  }
  for (NodeId i = 0; i < topology.num_nodes(); ++i) {
    const LinkEnd nic{i, Port::kTile, true};
    const LinkEnd router{i, Port::kTile, false};
    visit(Link{nic, router, 1, 0.0});   // inject
    visit(Link{router, nic, 1, 0.0});   // eject
  }
}

Filing file_channel(const ShardPartition& partition, NodeId sender, NodeId receiver) {
  const int shard = partition.shard_of(receiver);
  return Filing{shard, partition.shard_of(sender) != shard};
}

std::uint32_t link_row(const ShardPartition& partition, const Link& link, bool credit) {
  const LinkEnd& receiver = credit ? link.from : link.to;
  const int slot = partition.slot_of(receiver.node);
  if (receiver.nic) {
    return credit ? RouterStatePool::nic_credit_row(slot) : RouterStatePool::nic_eject_row(slot);
  }
  const int port = static_cast<int>(receiver.port);
  return credit ? RouterStatePool::credit_in_row(slot, port)
                : RouterStatePool::flit_in_row(slot, port);
}

std::string channel_name(const Config& config, const topo::Topology& topology,
                         const ShardPartition& partition, int shard, std::uint32_t row) {
  std::string name;
  for_each_link(config, topology, [&](const Link& link) {
    for (const bool credit : {false, true}) {
      const LinkEnd& receiver = credit ? link.from : link.to;
      if (partition.shard_of(receiver.node) == shard && link_row(partition, link, credit) == row) {
        name = credit ? link.credit_name() : link.flit_name();
      }
    }
  });
  return name;
}

}  // namespace ocn::core
