// NIC semantics: the section-2.1 port behaviour — ready mask, class
// priority, injection interruption/resume, queue backpressure, ejection
// stall credit loop.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/trace.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using core::Packet;

TEST(Nic, ReadyMaskReflectsCredits) {
  Network net(Config::paper_baseline());
  EXPECT_EQ(net.nic(0).ready_mask(), 0xff);  // all VCs ready at reset
}

TEST(Nic, QueueBackpressure) {
  Config c = Config::paper_baseline();
  c.nic_queue_packets = 2;
  Network net(c);
  EXPECT_TRUE(net.nic(0).inject(core::make_word_packet(1, 0, 1), 0));
  EXPECT_TRUE(net.nic(0).inject(core::make_word_packet(1, 0, 2), 0));
  EXPECT_FALSE(net.nic(0).inject(core::make_word_packet(1, 0, 3), 0));
  EXPECT_EQ(net.nic(0).injection_queue_rejects(), 1);
  // A different class has its own queue.
  EXPECT_TRUE(net.nic(0).inject(core::make_word_packet(1, 1, 4), 0));
  // Draining frees space.
  ASSERT_TRUE(net.drain(1000));
  EXPECT_TRUE(net.nic(0).inject(core::make_word_packet(1, 0, 5), net.now()));
}

TEST(Nic, HighPriorityPacketInterruptsLongInjection) {
  // Section 2.1: "the injection of a long, low priority packet may be
  // interrupted to inject a short, high-priority packet and then resumed."
  Network net(Config::paper_baseline());
  // A long (16-flit... max here: several flits) low-priority packet.
  Packet longp = core::make_packet(/*dst=*/5, /*service_class=*/0, /*num_flits=*/8);
  ASSERT_TRUE(net.nic(0).inject(std::move(longp), net.now()));
  net.run(2);  // its head has started injecting
  Packet shortp = core::make_word_packet(/*dst=*/5, /*service_class=*/2, 99);
  ASSERT_TRUE(net.nic(0).inject(std::move(shortp), net.now()));
  ASSERT_TRUE(net.drain(5000));
  auto& rx = net.nic(5).received();
  ASSERT_EQ(rx.size(), 2u);
  // The short high-priority packet arrives first despite being injected
  // second, and the long packet still completes intact.
  EXPECT_EQ(rx[0].num_flits(), 1);
  EXPECT_EQ(rx[0].service_class, 2);
  EXPECT_EQ(rx[1].num_flits(), 8);
  EXPECT_LT(rx[0].delivered, rx[1].delivered);
}

TEST(Nic, LowerClassIsNotStarvedForever) {
  Network net(Config::paper_baseline());
  // A steady stream of class-2 packets plus one class-0 packet: the class-0
  // packet is delayed but delivered once the stream pauses.
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 0, 7), net.now()));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 2, 100 + i), net.now()));
  }
  ASSERT_TRUE(net.drain(10000));
  EXPECT_EQ(net.nic(5).received().size(), 21u);
}

TEST(Nic, EjectionStallBacksUpTheCreditLoop) {
  Network net(Config::paper_baseline());
  // Class 0 ejects on VC 0 or 1 (the ejection port ignores dateline
  // parity); stall the whole pair.
  net.nic(5).set_ejection_stall(/*vc=*/0, true);
  net.nic(5).set_ejection_stall(/*vc=*/1, true);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 0, i), net.now()));
  }
  net.run(3000);
  EXPECT_EQ(net.nic(5).received().size(), 0u);
  net.nic(5).set_ejection_stall(0, false);
  net.nic(5).set_ejection_stall(1, false);
  ASSERT_TRUE(net.drain(5000));
  EXPECT_EQ(net.nic(5).received().size(), 6u);
}

TEST(Nic, DeliveryHandlerReceivesPackets) {
  Network net(Config::paper_baseline());
  int calls = 0;
  net.nic(3).set_delivery_handler([&](core::Packet&& p) {
    ++calls;
    EXPECT_EQ(p.dst, 3);
  });
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(3, 0, 1), net.now()));
  ASSERT_TRUE(net.drain(1000));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(net.nic(3).received().empty());
}

TEST(Nic, FiltersConsumeBeforeHandler) {
  Network net(Config::paper_baseline());
  int filtered = 0;
  int handled = 0;
  net.nic(3).add_filter([&](const core::Packet& p) {
    if (p.flit_payloads[0][0] == 111) {
      ++filtered;
      return true;
    }
    return false;
  });
  net.nic(3).set_delivery_handler([&](core::Packet&&) { ++handled; });
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(3, 0, 111), net.now()));
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(3, 0, 222), net.now()));
  ASSERT_TRUE(net.drain(1000));
  EXPECT_EQ(filtered, 1);
  EXPECT_EQ(handled, 1);
}

TEST(Nic, ScheduledClassReservedWhenExclusive) {
  // Regression: a dynamic class-3 packet on a torus with an exclusive
  // scheduled VC could never allocate the odd VC after a dateline crossing
  // and wedged its wormhole; the NIC now rejects the class outright.
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  Network net(c);
  EXPECT_THROW(net.nic(0).inject(core::make_word_packet(5, 3, 1), net.now()),
               std::logic_error);
  // Classes 0..2 remain usable.
  EXPECT_TRUE(net.nic(0).inject(core::make_word_packet(5, 2, 1), net.now()));
  ASSERT_TRUE(net.drain(1000));
}

TEST(Nic, PerClassLatencyTracked) {
  Network net(Config::paper_baseline());
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 0, 1), net.now()));
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 3, 2), net.now()));
  ASSERT_TRUE(net.drain(1000));
  EXPECT_EQ(net.nic(5).class_latency(0).count(), 1);
  EXPECT_EQ(net.nic(5).class_latency(3).count(), 1);
  EXPECT_EQ(net.nic(5).class_latency(1).count(), 0);
}

TEST(Nic, QueuedPacketKeepsTheRouteItWasQueuedWith) {
  // The source route is computed when a packet is queued, not when its head
  // leaves: a reroute commits to new packets only, as for packets in flight.
  Config c = Config::paper_baseline();
  c.fault_layer = true;
  Network net(c);
  core::TraceRecorder recorder;
  net.enable_tracing(&recorder);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(3, 0, i), net.now()));
  }
  net.run(2);
  ASSERT_EQ(net.nic(0).queued_flits(), 10);
  ASSERT_TRUE(chaos::kill_link(net, 0, topo::Port::kRowPos).committed);
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(3, 0, 12), net.now()));
  net.run(200);

  // The first link each packet takes out of router 0, in injection order
  // (one VC queue, one tile input buffer: no packet overtakes another).
  std::vector<PacketId> order;
  std::map<PacketId, topo::Port> first_hop;
  for (const core::TraceEvent& e : recorder.events()) {
    if (e.node != 0 || e.port == topo::Port::kTile) continue;
    if (first_hop.emplace(e.packet, e.port).second) order.push_back(e.packet);
  }
  ASSERT_EQ(order.size(), 13u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(first_hop[order[i]], topo::Port::kRowPos) << "queued packet " << i;
  }
  EXPECT_EQ(first_hop[order[12]], topo::Port::kRowNeg);
}

}  // namespace
}  // namespace ocn
