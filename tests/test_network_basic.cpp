// End-to-end datagram delivery on the assembled network.
#include <gtest/gtest.h>

#include "core/network.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using core::Packet;
using core::TopologyKind;

Config small(TopologyKind kind) {
  Config c = Config::paper_baseline();
  c.topology = kind;
  return c;
}

TEST(NetworkBasic, SingleFlitPacketIsDelivered) {
  Network net(small(TopologyKind::kFoldedTorus));
  Packet p = core::make_word_packet(/*dst=*/5, /*service_class=*/0, 0xdeadbeefull);
  ASSERT_TRUE(net.nic(0).inject(std::move(p), net.now()));
  net.run(100);
  auto& rx = net.nic(5).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx.front().src, 0);
  EXPECT_EQ(rx.front().dst, 5);
  EXPECT_EQ(rx.front().flit_payloads[0][0], 0xdeadbeefull);
  EXPECT_EQ(rx.front().last_flit_bits, 64);
  EXPECT_GT(rx.front().latency(), 0);
}

TEST(NetworkBasic, MultiFlitPacketReassemblesInOrder) {
  Network net(small(TopologyKind::kFoldedTorus));
  Packet p = core::make_packet(/*dst=*/10, /*service_class=*/1, /*num_flits=*/4,
                               /*last_flit_bits=*/128);
  for (int i = 0; i < 4; ++i) p.flit_payloads[static_cast<std::size_t>(i)][0] = 100u + i;
  ASSERT_TRUE(net.nic(3).inject(std::move(p), net.now()));
  net.run(200);
  auto& rx = net.nic(10).received();
  ASSERT_EQ(rx.size(), 1u);
  const Packet& got = rx.front();
  ASSERT_EQ(got.num_flits(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got.flit_payloads[static_cast<std::size_t>(i)][0], 100u + i);
  }
  EXPECT_EQ(got.last_flit_bits, 128);
  EXPECT_EQ(got.payload_bits(), 3 * 256 + 128);
}

TEST(NetworkBasic, SelfAddressedPacketLoopsBackLocally) {
  Network net(small(TopologyKind::kFoldedTorus));
  ASSERT_TRUE(net.nic(7).inject(core::make_word_packet(7, 0, 42), net.now()));
  net.run(5);
  auto& rx = net.nic(7).received();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx.front().flit_payloads[0][0], 42u);
  // No flit crossed any link.
  EXPECT_EQ(net.stats().hops.mean(), 0.0);
}

class AllPairs : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AllPairs, EveryPairDeliversExactlyOnce) {
  Network net(small(GetParam()));
  const int n = net.num_nodes();
  int expected_per_dst = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      Packet p = core::make_word_packet(d, 0, static_cast<std::uint64_t>(s) << 32 |
                                                  static_cast<std::uint64_t>(d));
      ASSERT_TRUE(net.nic(s).inject(std::move(p), net.now()));
    }
  }
  expected_per_dst = n - 1;
  ASSERT_TRUE(net.drain(50000)) << "network failed to drain (possible deadlock)";
  for (NodeId d = 0; d < n; ++d) {
    EXPECT_EQ(net.nic(d).received().size(), static_cast<std::size_t>(expected_per_dst))
        << "at node " << d;
    for (const Packet& p : net.nic(d).received()) {
      EXPECT_EQ(p.flit_payloads[0][0] & 0xffffffffu, static_cast<std::uint64_t>(d));
    }
  }
  const auto s = net.stats();
  EXPECT_EQ(s.packets_injected, n * (n - 1));
  EXPECT_EQ(s.packets_delivered, n * (n - 1));
}

TEST_P(AllPairs, HopCountsMatchMinimalRouting) {
  Network net(small(GetParam()));
  const auto& topo = net.topology();
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    for (NodeId d = 0; d < net.num_nodes(); ++d) {
      if (s == d) continue;
      ASSERT_TRUE(net.nic(s).inject(core::make_word_packet(d, 0, 1), net.now()));
    }
  }
  ASSERT_TRUE(net.drain(50000));
  for (NodeId d = 0; d < net.num_nodes(); ++d) {
    for (const Packet& p : net.nic(d).received()) {
      EXPECT_EQ(p.hops, topo.min_hops(p.src, p.dst))
          << "non-minimal delivery " << p.src << "->" << p.dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, AllPairs,
                         ::testing::Values(TopologyKind::kMesh, TopologyKind::kTorus,
                                           TopologyKind::kFoldedTorus),
                         [](const auto& param_info) {
                           return std::string(core::topology_kind_name(param_info.param));
                         });

TEST(NetworkBasic, UncontendedLatencyIsTwoCyclesPerHopPlusOverhead) {
  Network net(small(TopologyKind::kFoldedTorus));
  // 0 -> 2 is one folded-torus row hop.
  ASSERT_EQ(net.topology().min_hops(0, 2), 1);
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(2, 0, 1), net.now()));
  ASSERT_TRUE(net.drain(1000));
  const Packet& p = net.nic(2).received().front();
  // NIC inject (1) + tile->router channel (1) + router (same cycle) + stage
  // (1) + link (1) + eject channel (1) + NIC consume: ~5-6 cycles for 1 hop.
  EXPECT_LE(p.latency(), 8);
  EXPECT_GE(p.latency(), 3);
}

TEST(NetworkBasic, ConfigValidationRejectsBadSetups) {
  Config c = Config::paper_baseline();
  c.router.vcs = 9;
  EXPECT_THROW(Network{c}, std::invalid_argument);
  c = Config::paper_baseline();
  c.interface_partitions = 3;  // does not divide 256
  EXPECT_THROW(Network{c}, std::invalid_argument);
}

}  // namespace
}  // namespace ocn
