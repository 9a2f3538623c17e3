// Piggybacked credits (paper section 2.3): correctness under load,
// equivalence with the dedicated-wire model, credit-only filler flits.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/chaos.h"
#include "core/network.h"
#include "services/reliable.h"
#include "traffic/generator.h"
#include "traffic/scheduled.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;

Config piggyback_config() {
  Config c = Config::paper_baseline();
  c.router.piggyback_credits = true;
  return c;
}

std::int64_t credit_only_total(Network& net) {
  std::int64_t n = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      n += net.router_at(i).output(static_cast<topo::Port>(p)).credit_only_flits();
    }
  }
  return n;
}

TEST(Piggyback, SinglePacketDelivers) {
  Network net(piggyback_config());
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(15, 0, 0xabc), net.now()));
  ASSERT_TRUE(net.drain(2000));
  ASSERT_EQ(net.nic(15).received().size(), 1u);
  EXPECT_EQ(net.nic(15).received().front().flit_payloads[0][0], 0xabcu);
}

TEST(Piggyback, CreditOnlyFlitsFillIdleReverseLinks) {
  Network net(piggyback_config());
  // One-directional traffic: credits must come back on otherwise idle
  // reverse links via credit-only flits.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(15, i % 3, 1), net.now()));
  }
  ASSERT_TRUE(net.drain(5000));
  EXPECT_GT(credit_only_total(net), 0);
  EXPECT_EQ(net.stats().packets_delivered, 20);
}

TEST(Piggyback, BidirectionalTrafficPiggybacksOnRealFlits) {
  Network net(piggyback_config());
  // Heavy traffic both ways on the same ring: most credits ride real flits,
  // so credit-only count stays well below flit count.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(2, i % 3, 1), net.now()));
    ASSERT_TRUE(net.nic(2).inject(core::make_word_packet(0, i % 3, 1), net.now()));
    net.step();
  }
  ASSERT_TRUE(net.drain(10000));
  EXPECT_EQ(net.stats().packets_delivered, 200);
  EXPECT_LT(credit_only_total(net), net.stats().flits_delivered);
}

TEST(Piggyback, SustainedLoadConservesTraffic) {
  Network net(piggyback_config());
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.3;
  opt.warmup = 300;
  opt.measure = 3000;
  opt.seed = 17;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained);
  const auto s = net.stats();
  EXPECT_EQ(s.flits_injected, s.flits_delivered);
  EXPECT_EQ(s.packets_dropped, 0);
}

TEST(Piggyback, SaturationDrainsLosslessly) {
  Network net(piggyback_config());
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.9;
  opt.pattern = traffic::Pattern::kTranspose;
  opt.warmup = 0;
  opt.measure = 3000;
  opt.drain_max = 200000;
  opt.seed = 23;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained) << "deadlock with piggybacked credits";
  EXPECT_EQ(net.stats().flits_injected, net.stats().flits_delivered);
}

TEST(Piggyback, ThroughputMatchesDedicatedCreditWire) {
  auto accepted = [](bool piggyback) {
    Config c = Config::paper_baseline();
    c.router.piggyback_credits = piggyback;
    Network net(c);
    traffic::HarnessOptions opt;
    opt.injection_rate = 0.6;
    opt.warmup = 500;
    opt.measure = 3000;
    opt.drain_max = 1;
    opt.seed = 29;
    traffic::LoadHarness harness(net, opt);
    return harness.run().accepted_flits;
  };
  // Under bidirectional load nearly every credit rides a real flit, so the
  // loops have the same length: throughput within a few percent.
  EXPECT_NEAR(accepted(true), accepted(false), 0.03);
}

TEST(Piggyback, LatencyOverheadIsSmallAtLowLoad) {
  auto latency = [](bool piggyback) {
    Config c = Config::paper_baseline();
    c.router.piggyback_credits = piggyback;
    Network net(c);
    traffic::HarnessOptions opt;
    opt.injection_rate = 0.05;
    opt.warmup = 300;
    opt.measure = 3000;
    opt.seed = 31;
    traffic::LoadHarness harness(net, opt);
    return harness.run().avg_latency;
  };
  EXPECT_NEAR(latency(true), latency(false), 1.0);
}

TEST(Piggyback, ScheduledFlowsStillJitterFree) {
  Config c = piggyback_config();
  c.router.exclusive_scheduled_vc = true;
  c.router.reservation_frame = 24;
  Network net(c);
  traffic::ScheduledFlow flow(net, 1, 11);
  flow.start();
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.3;
  opt.warmup = 0;
  opt.measure = 4000;
  opt.drain_max = 1;
  opt.seed = 37;
  traffic::LoadHarness harness(net, opt);
  harness.run();
  EXPECT_GT(flow.received(), 100);
  EXPECT_DOUBLE_EQ(flow.interarrival().stddev(), 0.0);
}

// Credit-accounting audit regressions. Every credit is born when a buffer
// slot frees and dies when one is claimed, so after the network drains and
// in-flight piggyback carriers flush, every per-VC credit counter — NIC
// injection credits and router output credits — must sit exactly at
// buffer_depth, every carry queue must be empty, and no downstream VC may
// still be allocated. A lost credit (idle-channel harvest dropped) shows up
// as a counter below depth; a double restore (e.g. a credit re-granted
// around an ARQ retransmission) as one above.
void expect_credits_fully_restored(Network& net, const char* context) {
  const int vcs = net.config().router.vcs;
  const int depth = net.config().router.buffer_depth;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    core::Nic& nic = net.nic(n);
    EXPECT_EQ(nic.carry_backlog(), 0) << context << ": nic " << n;
    EXPECT_EQ(nic.pending_eject_flits(), 0) << context << ": nic " << n;
    for (VcId v = 0; v < vcs; ++v) {
      EXPECT_EQ(nic.injection_credits(v), depth)
          << context << ": nic " << n << " vc " << v;
    }
    router::Router& r = net.router_at(n);
    router::RouterStatePool& pool = r.pool();
    const int slot = r.pool_slot();
    for (int p = 0; p < topo::kNumPorts; ++p) {
      if (!r.output(static_cast<topo::Port>(p)).attached()) continue;
      EXPECT_EQ(pool.carry_count_row(slot)[p], 0)
          << context << ": node " << n << " out port " << p;
      const router::FlitRef* staged = pool.stage_row(slot, p);
      EXPECT_EQ(std::count(staged, staged + topo::kNumPorts, router::kNoFlit), topo::kNumPorts)
          << context << ": node " << n << " out port " << p;
      for (VcId v = 0; v < vcs; ++v) {
        EXPECT_EQ(pool.credits(slot, p)[v], depth)
            << context << ": node " << n << " out port " << p << " vc " << v;
        EXPECT_EQ((pool.vc_allocated(slot, p) >> v) & 1, 0)
            << context << ": node " << n << " out port " << p << " vc " << v;
      }
    }
  }
}

TEST(Piggyback, CreditConservationAfterDrain) {
  Network net(piggyback_config());
  // One-directional bursts (credits return via credit-only flits on idle
  // reverse links) plus bidirectional pairs (credits ride real flits).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(15, i % 3, 1), net.now()));
    ASSERT_TRUE(net.nic(7).inject(core::make_word_packet(8, 0, 2), net.now()));
    ASSERT_TRUE(net.nic(8).inject(core::make_word_packet(7, 0, 3), net.now()));
    net.step();
  }
  ASSERT_TRUE(net.drain(20000));
  // idle() ignores in-flight credit-only carriers; let them flush.
  net.run(300);
  expect_credits_fully_restored(net, "clean piggyback drain");
}

TEST(Piggyback, CreditConservationSurvivesLinkDeath) {
  Config c = piggyback_config();
  c.fault_layer = true;
  Network net(c);
  const topo::Port victim = net.routes().port_path(0, 5).front();
  // Load crossing the soon-to-die link from both sides.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, i % 3, 1), net.now()));
    ASSERT_TRUE(net.nic(5).inject(core::make_word_packet(0, i % 3, 1), net.now()));
    net.step();
  }
  const auto report = chaos::kill_link(net, 0, victim);
  EXPECT_TRUE(report.committed);
  // Keep injecting after the kill: new packets take the rerouted paths while
  // in-flight flits still cross the dead (payload-inverting) link; credits
  // must keep flowing either way.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, i % 3, 1), net.now()));
    net.step();
  }
  ASSERT_TRUE(net.drain(20000));
  net.run(300);
  EXPECT_EQ(net.stats().packets_dropped, 0);
  EXPECT_EQ(net.stats().flits_injected, net.stats().flits_delivered);
  expect_credits_fully_restored(net, "piggyback + link death");
}

TEST(Piggyback, NoDoubleRestoreUnderArqRetransmissions) {
  Config c = piggyback_config();
  c.fault_layer = true;
  Network net(c);
  services::ReliableChannel channel(net, 0, 5, /*retry_timeout=*/128);
  for (std::uint64_t w = 0; w < 40; ++w) channel.send(0x1000 + w);
  net.run(100);
  // Kill the link mid-flow: in-flight data words get corrupted (CRC
  // rejects) and the ARQ layer retransmits them along the rerouted path.
  // Each retransmission re-runs the whole credit loop; a double restore
  // anywhere would push a counter past buffer_depth.
  const topo::Port victim = net.routes().port_path(0, 5).front();
  const auto report = chaos::kill_link(net, 0, victim);
  EXPECT_TRUE(report.committed);
  for (int i = 0; i < 60000 && !channel.all_acknowledged(); ++i) net.step();
  ASSERT_TRUE(channel.all_acknowledged());
  EXPECT_EQ(channel.received().size(), 40u);
  ASSERT_TRUE(net.drain(20000));
  net.run(300);
  expect_credits_fully_restored(net, "piggyback + ARQ over dead link");
}

TEST(Piggyback, WorksOnMesh) {
  Config c = piggyback_config();
  c.topology = core::TopologyKind::kMesh;
  Network net(c);
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) {
        ASSERT_TRUE(net.nic(s).inject(core::make_word_packet(d, 0, 1), net.now()));
      }
    }
  }
  ASSERT_TRUE(net.drain(100000));
  EXPECT_EQ(net.stats().packets_delivered, 16 * 15);
}

}  // namespace
}  // namespace ocn
