// Flow-control alternatives (section 3.2): credit-based VC flow control
// (lossless), dropping (lossy, minimal buffers), deflection (bufferless).
#include <gtest/gtest.h>

#include "core/deflection.h"
#include "core/network.h"
#include "topo/folded_torus.h"
#include "topo/mesh.h"
#include "traffic/generator.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;

TEST(Dropping, LowLoadDeliversEverything) {
  Config c = Config::paper_baseline();
  c.router.flow_control = router::FlowControl::kDropping;
  Network net(c);
  for (int i = 0; i < 16; ++i) {
    // One packet at a time from distinct sources: no contention, no drops.
    ASSERT_TRUE(net.nic(i).inject(core::make_word_packet((i + 3) % 16, 0, i), net.now()));
    ASSERT_TRUE(net.drain(2000));
  }
  EXPECT_EQ(net.stats().packets_dropped, 0);
  EXPECT_EQ(net.stats().packets_delivered, 16);
}

TEST(Dropping, ContentionDropsButNeverWedges) {
  Config c = Config::paper_baseline();
  c.router.flow_control = router::FlowControl::kDropping;
  c.router.buffer_depth = 1;  // the buffer-poor regime dropping targets
  Network net(c);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.4;
  opt.packet_flits = 1;
  opt.warmup = 200;
  opt.measure = 2000;
  opt.seed = 7;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  EXPECT_GT(r.dropped_packets, 0);          // heavy contention drops...
  EXPECT_TRUE(r.drained);                   // ...but the network drains clean
  EXPECT_LT(r.delivered_fraction, 1.0);
  EXPECT_GT(r.delivered_fraction, 0.2);
}

TEST(Dropping, AccountingBalances) {
  Config c = Config::paper_baseline();
  c.router.flow_control = router::FlowControl::kDropping;
  c.router.buffer_depth = 1;
  Network net(c);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.3;
  opt.warmup = 100;
  opt.measure = 1000;
  traffic::LoadHarness harness(net, opt);
  harness.run();
  const auto s = net.stats();
  EXPECT_EQ(s.packets_injected, s.packets_delivered + s.packets_dropped);
}

TEST(Deflection, DeliversEverythingEventually) {
  const topo::FoldedTorus topo(4, 3.0);
  core::DeflectionNetwork net(topo, /*seed=*/3);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(16));
    NodeId d = static_cast<NodeId>(rng.next_below(15));
    if (d >= s) ++d;
    net.inject(s, d, net.now());
    net.step();
  }
  ASSERT_TRUE(net.drain(10000)) << "deflection network livelocked";
  EXPECT_EQ(net.delivered(), 500);
}

TEST(Deflection, UncontendedPathsAreMinimal) {
  const topo::FoldedTorus topo(4, 3.0);
  core::DeflectionNetwork net(topo, 1);
  net.inject(0, 5, net.now());
  ASSERT_TRUE(net.drain(100));
  EXPECT_EQ(net.hops().mean(), topo.min_hops(0, 5));
  EXPECT_EQ(net.deflections(), 0);
}

TEST(Deflection, ContentionCausesDetoursAndExtraWireLoad) {
  const topo::FoldedTorus topo(4, 3.0);
  core::DeflectionNetwork net(topo, 9);
  // Everyone hammers node 0: heavy contention near the hotspot.
  for (int round = 0; round < 200; ++round) {
    for (NodeId s = 1; s < 16; ++s) {
      if (round % 2 == 0) net.inject(s, 0, net.now());
    }
    net.step();
  }
  ASSERT_TRUE(net.drain(20000));
  EXPECT_GT(net.deflections(), 0);
  // Average distance exceeds the minimal average: wire loading grows
  // (the paper's stated cost of misrouting).
  double min_mm = 0.0;
  int cnt = 0;
  for (NodeId s = 1; s < 16; ++s) {
    min_mm += topo.min_hops(s, 0);  // proxy; per-hop mm varies
    ++cnt;
  }
  EXPECT_GT(net.hops().mean(), min_mm / cnt - 1e-9);
}

TEST(Deflection, WorksOnMeshBoundaries) {
  const topo::Mesh topo(4, 3.0);
  core::DeflectionNetwork net(topo, 5);
  for (NodeId s = 0; s < 16; ++s) {
    net.inject(s, static_cast<NodeId>(15 - s == s ? (s + 1) % 16 : 15 - s), net.now());
  }
  ASSERT_TRUE(net.drain(5000));
  EXPECT_EQ(net.delivered(), net.injected());
}

TEST(VcFlowControl, LosslessUnderSustainedLoad) {
  Network net(Config::paper_baseline());
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.2;
  opt.packet_flits = 2;
  opt.warmup = 500;
  opt.measure = 3000;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(net.stats().packets_dropped, 0);
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
  EXPECT_NEAR(r.accepted_flits, r.offered_flits, 0.05);
}

}  // namespace
}  // namespace ocn
