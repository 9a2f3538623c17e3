#include "core/wiring.h"

namespace ocn::core {

using topo::Port;

void for_each_link(const Config& config, const topo::Topology& topology,
                   const std::function<void(Link&)>& visit) {
  for (const topo::ChannelDesc& d : topology.channels()) {
    std::string name = "link:" + std::to_string(d.src) + ":" + topo::port_name(d.src_out_port);
    std::string credit = name + ":credit";
    Link link{{d.src, d.src_out_port, false}, {d.dst, d.dst_in_port, false},
              config.link_latency, d.length_mm, std::move(name), std::move(credit)};
    visit(link);
  }
  for (NodeId i = 0; i < topology.num_nodes(); ++i) {
    const std::string node = std::to_string(i);
    const LinkEnd nic{i, Port::kTile, true};
    const LinkEnd router{i, Port::kTile, false};
    Link inject{nic, router, 1, 0.0, "inject:" + node, "inject_credit:" + node};
    visit(inject);
    Link eject{router, nic, 1, 0.0, "eject:" + node, "eject_credit:" + node};
    visit(eject);
  }
}

Filing file_channel(const ShardPartition& partition, NodeId sender, NodeId receiver) {
  const int shard = partition.shard_of(receiver);
  return Filing{shard, partition.shard_of(sender) != shard};
}

}  // namespace ocn::core
