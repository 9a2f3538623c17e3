// The wiring plan (core/wiring.h): every link declared once, for the network
// and the shard-safety analyzer alike. These tests pin the plan to the
// topology it is drawn from (each channel once, one inject and one eject
// link per node, the channel names), the filing rule to its definition
// (receiver's shard, boundary exactly when the ends' shards differ), and
// both readers to the plan: Network's links and the analyzer's channel
// states come out in plan order with plan names and filings.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <string>
#include <vector>

#include "analyze/footprint.h"
#include "core/network.h"
#include "core/shard_partition.h"
#include "core/wiring.h"

namespace ocn {
namespace {

using core::Config;
using core::Link;
using core::LinkEnd;
using core::TopologyKind;
using topo::Port;

Config config_for(TopologyKind kind, int radix) {
  Config c = Config::paper_baseline();
  c.topology = kind;
  c.radix = radix;
  return c;
}

const TopologyKind kKinds[] = {TopologyKind::kMesh, TopologyKind::kTorus,
                               TopologyKind::kFoldedTorus};

std::string label(TopologyKind kind, int radix) {
  return std::string(core::topology_kind_name(kind)) + " " + std::to_string(radix) + "x" +
         std::to_string(radix);
}

// The plan, collected in order.
std::vector<Link> links_of(const Config& c, const topo::Topology& topology) {
  std::vector<Link> links;
  core::for_each_link(c, topology, [&](const Link& link) { links.push_back(link); });
  return links;
}

bool same_end(const LinkEnd& a, const LinkEnd& b) {
  return a.node == b.node && a.port == b.port && a.nic == b.nic;
}

TEST(Wiring, ListsEachTopologyChannelOnceAndTwoTilePortsPerNode) {
  for (const TopologyKind kind : kKinds) {
    for (const int radix : {2, 3, 4, 8}) {
      SCOPED_TRACE(label(kind, radix));
      Config c = config_for(kind, radix);
      c.link_latency = 3;
      const auto topology = c.make_topology();
      const std::vector<Link> links = links_of(c, *topology);
      const std::vector<topo::ChannelDesc> channels = topology->channels();
      const int n = topology->num_nodes();
      ASSERT_EQ(links.size(), channels.size() + 2 * static_cast<std::size_t>(n));

      std::set<std::string> names;
      for (const Link& link : links) {
        EXPECT_TRUE(names.insert(link.flit_name()).second) << link.flit_name();
        EXPECT_TRUE(names.insert(link.credit_name()).second) << link.credit_name();
      }
      for (std::size_t i = 0; i < channels.size(); ++i) {
        const topo::ChannelDesc& d = channels[i];
        const Link& link = links[i];
        const std::string name =
            "link:" + std::to_string(d.src) + ":" + topo::port_name(d.src_out_port);
        EXPECT_FALSE(link.tile());
        EXPECT_TRUE(same_end(link.from, LinkEnd{d.src, d.src_out_port, false})) << name;
        EXPECT_TRUE(same_end(link.to, LinkEnd{d.dst, d.dst_in_port, false})) << name;
        EXPECT_EQ(link.latency, 3) << name;
        EXPECT_EQ(link.length_mm, d.length_mm) << name;
        EXPECT_EQ(link.flit_name(), name);
        EXPECT_EQ(link.credit_name(), name + ":credit");
      }
      for (NodeId i = 0; i < n; ++i) {
        const std::string node = std::to_string(i);
        const Link& inject = links[channels.size() + 2 * static_cast<std::size_t>(i)];
        const Link& eject = links[channels.size() + 2 * static_cast<std::size_t>(i) + 1];
        EXPECT_TRUE(same_end(inject.from, LinkEnd{i, Port::kTile, true})) << node;
        EXPECT_TRUE(same_end(inject.to, LinkEnd{i, Port::kTile, false})) << node;
        EXPECT_TRUE(same_end(eject.from, LinkEnd{i, Port::kTile, false})) << node;
        EXPECT_TRUE(same_end(eject.to, LinkEnd{i, Port::kTile, true})) << node;
        for (const Link* tile : {&inject, &eject}) {
          EXPECT_TRUE(tile->tile());
          EXPECT_EQ(tile->latency, 1);
          EXPECT_EQ(tile->length_mm, 0.0);
        }
        EXPECT_EQ(inject.flit_name(), "inject:" + node);
        EXPECT_EQ(inject.credit_name(), "inject_credit:" + node);
        EXPECT_EQ(eject.flit_name(), "eject:" + node);
        EXPECT_EQ(eject.credit_name(), "eject_credit:" + node);
      }

      // Each router port is driven by at most one link and fed by at most
      // one: a port wired twice would lose one of its channels.
      std::set<std::pair<NodeId, Port>> outputs;
      std::set<std::pair<NodeId, Port>> inputs;
      for (const Link& link : links) {
        if (!link.from.nic) {
          EXPECT_TRUE(outputs.insert({link.from.node, link.from.port}).second) << link.flit_name();
        }
        if (!link.to.nic) {
          EXPECT_TRUE(inputs.insert({link.to.node, link.to.port}).second) << link.flit_name();
        }
      }
    }
  }
}

// The plan never validates the Config: a link latency of 0, which the
// Network constructor refuses, is listed as it is for the analyzer.
TEST(Wiring, ListsAnUnbuildableLatencyAsItIs) {
  Config c = Config::paper_baseline();
  c.link_latency = 0;
  const auto topology = c.make_topology();
  int router_links = 0;
  core::for_each_link(c, *topology, [&](const Link& link) {
    if (!link.tile()) {
      EXPECT_EQ(link.latency, 0) << link.flit_name();
      ++router_links;
    }
  });
  EXPECT_EQ(router_links, static_cast<int>(topology->channels().size()));
}

// Under row strips every channel is filed on its receiver's shard, and it
// is a boundary channel exactly when its two ends' shards differ. A tile
// port never crosses a shard.
TEST(Wiring, FilesEveryChannelOnItsReceiversShard) {
  for (const TopologyKind kind : kKinds) {
    for (const int radix : {4, 8}) {
      for (const int shards : {1, 2, 4}) {
        SCOPED_TRACE(label(kind, radix) + " at " + std::to_string(shards) + " shards");
        const Config c = config_for(kind, radix);
        const auto topology = c.make_topology();
        const auto partition = core::ShardPartition::row_strips(*topology, shards);
        int boundary = 0;
        for (const Link& link : links_of(c, *topology)) {
          // The flit channel runs from -> to, the credit channel back.
          for (const auto& [sender, receiver] :
               {std::pair{link.from, link.to}, std::pair{link.to, link.from}}) {
            const core::Filing f = core::file_channel(partition, sender.node, receiver.node);
            EXPECT_EQ(f.shard, partition.shard_of(receiver.node)) << link.flit_name();
            EXPECT_EQ(f.boundary,
                      partition.shard_of(sender.node) != partition.shard_of(receiver.node))
                << link.flit_name();
            if (link.tile()) {
              EXPECT_FALSE(f.boundary) << link.flit_name();
            }
            boundary += f.boundary ? 1 : 0;
          }
        }
        if (shards == 1) {
          EXPECT_EQ(boundary, 0);
        } else {
          EXPECT_GT(boundary, 0);
        }
      }
    }
  }
}

// Both readers walk the plan: the network's links are its topology
// channels in plan order, each with a fault layer when the Config asks for
// one, and the analyzer's channel states are the plan's channels in
// registration order, named, timed and filed as the plan says.
TEST(Wiring, NetworkAndFootprintReadThePlan) {
  for (const TopologyKind kind : kKinds) {
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(label(kind, 4) + " at " + std::to_string(shards) + " shards");
      Config c = config_for(kind, 4);
      c.fault_layer = true;
      core::Network net(c, shards);
      const std::vector<Link> links = links_of(c, net.topology());

      const std::vector<core::LinkUsage> usage = net.link_usage();
      ASSERT_EQ(usage.size(), net.topology().channels().size());
      for (std::size_t i = 0; i < usage.size(); ++i) {
        const Link& link = links[i];
        EXPECT_EQ(usage[i].src, link.from.node);
        EXPECT_EQ(usage[i].port, link.from.port);
        EXPECT_EQ(usage[i].length_mm, link.length_mm);
        // link_fault finds the link's own fault layer: the transform its
        // sending output applies.
        const auto* fault = net.link_fault(link.from.node, link.from.port);
        EXPECT_NE(fault, nullptr) << link.flit_name();
        EXPECT_EQ(fault, net.router_at(link.from.node).output(link.from.port).transform())
            << link.flit_name();
      }
      // Every direction port without a link (the mesh edges) has none.
      for (NodeId n = 0; n < net.num_nodes(); ++n) {
        for (int p = 0; p < topo::kNumDirPorts; ++p) {
          if (net.topology().neighbor(n, static_cast<Port>(p)).has_value()) continue;
          EXPECT_EQ(net.link_fault(n, static_cast<Port>(p)), nullptr) << n << " " << p;
        }
        EXPECT_EQ(net.link_fault(n, Port::kTile), nullptr);
      }

      const analyze::FootprintModel m = analyze::build_footprint(c, net.partition());
      std::vector<const analyze::State*> channels;
      for (const analyze::State& s : m.states) {
        if (s.channel) channels.push_back(&s);
      }
      ASSERT_EQ(channels.size(), 2 * links.size());
      for (std::size_t i = 0; i < links.size(); ++i) {
        const Link& link = links[i];
        const analyze::State& flit = *channels[2 * i];
        const analyze::State& credit = *channels[2 * i + 1];
        EXPECT_EQ(flit.name, "chan." + link.flit_name());
        EXPECT_EQ(credit.name, "chan." + link.credit_name());
        const core::Filing ff = core::file_channel(net.partition(), link.from.node, link.to.node);
        const core::Filing cf = core::file_channel(net.partition(), link.to.node, link.from.node);
        EXPECT_EQ(flit.advance_shard, ff.shard) << flit.name;
        EXPECT_EQ(flit.boundary, ff.boundary) << flit.name;
        EXPECT_EQ(credit.advance_shard, cf.shard) << credit.name;
        EXPECT_EQ(credit.boundary, cf.boundary) << credit.name;
        EXPECT_EQ(flit.latency, link.latency) << flit.name;
        EXPECT_EQ(credit.latency, link.latency) << credit.name;
      }
    }
  }
}

}  // namespace
}  // namespace ocn
