// Pre-scheduled traffic: reservation tables, phase arithmetic, the bypass
// path, zero jitter under load, and register-programmed setup (sections 2.1
// and 2.6).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/network.h"
#include "traffic/generator.h"
#include "traffic/scheduled.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;

Config scheduled_config() {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  c.router.reservation_frame = 32;
  return c;
}

TEST(Reservations, ReserveFlowClaimsEveryHop) {
  Network net(scheduled_config());
  const auto phase = net.reserve_flow(0, 5, /*phase_hint=*/3);
  ASSERT_TRUE(phase.has_value());
  EXPECT_EQ(*phase, 3);
  // Count reserved slots across all routers: one per hop (links + ejection).
  int reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      reserved += net.router_at(n).output(static_cast<topo::Port>(p)).reservations().reserved_count();
    }
  }
  const int expected = static_cast<int>(net.routes().port_path(0, 5).size());
  EXPECT_EQ(reserved, expected);
  net.release_flow(0, 5, *phase);
  reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      reserved += net.router_at(n).output(static_cast<topo::Port>(p)).reservations().reserved_count();
    }
  }
  EXPECT_EQ(reserved, 0);
}

TEST(Reservations, ConflictingFlowsGetDistinctPhases) {
  Network net(scheduled_config());
  // Same route -> same links; phases must differ.
  const auto p1 = net.reserve_flow(0, 5, 0);
  const auto p2 = net.reserve_flow(0, 5, 0);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(*p1, *p2);
}

TEST(Reservations, RequiresExclusiveScheduledVc) {
  Network net(Config::paper_baseline());
  EXPECT_THROW(net.reserve_flow(0, 5, 0), std::logic_error);
}

TEST(ScheduledFlow, DeliversWithZeroJitterWhenIdle) {
  Network net(scheduled_config());
  traffic::ScheduledFlow flow(net, 1, 11);
  flow.start();
  net.run(32 * 40);
  EXPECT_GE(flow.received(), 30);
  // Every inter-arrival is exactly one frame: zero jitter.
  EXPECT_EQ(flow.interarrival().min(), flow.interarrival().max());
  EXPECT_DOUBLE_EQ(flow.interarrival().mean(), 32.0);
  EXPECT_DOUBLE_EQ(flow.latency().stddev(), 0.0);
}

TEST(ScheduledFlow, UsesOnlyTheBypassPath) {
  Network net(scheduled_config());
  traffic::ScheduledFlow flow(net, 0, 3);
  flow.start();
  net.run(32 * 20);
  const auto s = net.stats();
  EXPECT_GT(s.bypass_flits, 0);
  // All scheduled link traversals are bypass traversals: no scheduled flit
  // ever sat in an output stage. Total flits sent == bypass + 0 dynamic.
  std::int64_t sent = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      sent += net.router_at(n).output(static_cast<topo::Port>(p)).flits_sent();
    }
  }
  EXPECT_EQ(sent, s.bypass_flits);
}

TEST(ScheduledFlow, OneCyclePerHopOnBypassPath) {
  Network net(scheduled_config());
  traffic::ScheduledFlow flow(net, 0, 2);  // one row hop in the folded torus
  const int hops = net.topology().min_hops(0, 2);
  flow.start();
  net.run(32 * 10);
  ASSERT_GT(flow.received(), 0);
  // Send at phase p: tile channel (1) + one bypass per hop (1 each) +
  // ejection channel (1) + NIC consume in the arrival cycle.
  EXPECT_LE(flow.latency().mean(), hops + 3 + 32);  // +frame for NIC hold
}

TEST(ScheduledFlow, ZeroJitterUnderHeavyDynamicLoad) {
  Config c = scheduled_config();
  Network net(c);
  traffic::ScheduledFlow flow(net, 1, 11);

  traffic::HarnessOptions opt;
  opt.injection_rate = 0.35;  // well into contention
  opt.warmup = 200;
  opt.measure = 3000;
  opt.drain_max = 60000;
  traffic::LoadHarness harness(net, opt);
  flow.start();
  harness.run();

  EXPECT_GE(flow.received(), 50);
  // The whole point of reservations: dynamic congestion cannot disturb the
  // scheduled flow.
  EXPECT_EQ(flow.interarrival().min(), flow.interarrival().max());
  EXPECT_DOUBLE_EQ(flow.latency().stddev(), 0.0);
}

TEST(Reservations, StrictSlotsWasteIdleCycles) {
  // Reserved but unused slots idle the link (paper's strict partitioning);
  // the reclaim option is measured in bench E6.
  Config c = scheduled_config();
  c.router.reclaim_idle_slots = false;
  Network net(c);
  const auto phase = net.reserve_flow(0, 5, 0);
  ASSERT_TRUE(phase.has_value());
  // No flow traffic at all: every reserved slot passes idle.
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.3;
  opt.warmup = 100;
  opt.measure = 2000;
  traffic::LoadHarness harness(net, opt);
  harness.run();
  EXPECT_GT(net.stats().idle_reserved_cycles, 0);
}

TEST(Registers, ProgramFlowOverTheNetwork) {
  Network net(scheduled_config());
  // Plan the phase first (pure computation), then program via packets from
  // a configuration master at node 15.
  const auto phase = net.reserve_flow(0, 5, 7);
  ASSERT_TRUE(phase.has_value());
  net.release_flow(0, 5, *phase);

  net.program_flow_registers(/*config_master=*/15, 0, 5, *phase);
  ASSERT_TRUE(net.drain(10000));
  const int expected_hops = static_cast<int>(net.routes().port_path(0, 5).size());
  EXPECT_EQ(net.register_writes_applied(), expected_hops);
  // The tables now match a directly-reserved flow.
  int reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      reserved += net.router_at(n).output(static_cast<topo::Port>(p)).reservations().reserved_count();
    }
  }
  EXPECT_EQ(reserved, expected_hops);
}

TEST(Registers, ClearFlowOverTheNetwork) {
  Network net(scheduled_config());
  const auto phase = net.reserve_flow(0, 5, 7);
  ASSERT_TRUE(phase.has_value());
  net.clear_flow_registers(/*config_master=*/15, 0, 5, *phase);
  ASSERT_TRUE(net.drain(10000));
  int reserved = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      reserved += net.router_at(n).output(static_cast<topo::Port>(p)).reservations().reserved_count();
    }
  }
  EXPECT_EQ(reserved, 0);
}

TEST(Registers, CodecRoundTrip) {
  core::RegisterWrite w;
  w.kind = core::RegisterWrite::Kind::kReserveSlot;
  w.output_port = topo::Port::kColNeg;
  w.slot = 123;
  w.input_port = 4;
  w.vc = 7;
  const auto p = core::encode_register_write(9, w);
  const auto back = core::decode_register_write(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, w.kind);
  EXPECT_EQ(back->output_port, w.output_port);
  EXPECT_EQ(back->slot, w.slot);
  EXPECT_EQ(back->input_port, w.input_port);
  EXPECT_EQ(back->vc, w.vc);
  // Non-register packets do not decode.
  EXPECT_FALSE(core::decode_register_write(core::make_word_packet(1, 0, 5)).has_value());
}

// Register packets come off the network, so a field out of range must be
// refused with an error naming the field and value — never applied to a
// port, slot or VC that does not exist, nor aliased modulo the frame.
TEST(Registers, OutOfRangeFieldsAreRefused) {
  using Write = core::RegisterWrite;
  using Read = core::RegisterRead;
  // Each row edits one field of a valid request (slot 3 of a 32-slot frame).
  const auto write = [](void (*edit)(Write&)) {
    Write w;
    w.slot = 3;
    w.input_port = static_cast<int>(topo::Port::kTile);
    w.vc = 7;
    edit(w);
    return core::encode_register_write(/*target=*/0, w);
  };
  const auto read = [](void (*edit)(Read&)) {
    Read r;
    r.slot = 3;
    edit(r);
    return core::encode_register_read(/*target=*/0, r);
  };
  struct Case {
    const char* expect;  ///< the "field = value" the error must name
    core::Packet packet;
  };
  const std::vector<Case> cases = {
      {"kind = 7", write([](Write& w) { w.kind = static_cast<Write::Kind>(7); })},
      {"output_port = 9", write([](Write& w) { w.output_port = static_cast<topo::Port>(9); })},
      {"input_port = 9", write([](Write& w) { w.input_port = 9; })},
      {"vc = 200", write([](Write& w) { w.vc = 200; })},
      {"slot = 32", write([](Write& w) { w.slot = 32; })},
      {"slot = 5000", write([](Write& w) { w.slot = 5000; })},
      {"output_port = 9", read([](Read& r) { r.output_port = static_cast<topo::Port>(9); })},
      {"slot = 5000", read([](Read& r) { r.slot = 5000; })},
  };

  {
    Network net(scheduled_config());  // the unedited write is applied
    ASSERT_TRUE(net.nic(15).inject(write([](Write&) {}), net.now()));
    ASSERT_TRUE(net.drain(5000));
    EXPECT_EQ(net.register_writes_applied(), 1);
  }
  for (const Case& c : cases) {
    Network net(scheduled_config());
    ASSERT_TRUE(net.nic(15).inject(c.packet, net.now()));
    try {
      net.drain(5000);
      ADD_FAILURE() << c.expect << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos) << e.what();
    }
    EXPECT_EQ(net.register_writes_applied(), 0) << c.expect;
  }
}

TEST(ScheduledFlow, MultiSlotFlowScalesBandwidth) {
  Network net(scheduled_config());  // frame 32
  traffic::ScheduledFlow flow(net, 0, 10, /*phase_hint=*/0, /*slots_per_frame=*/4);
  EXPECT_EQ(flow.slots_per_frame(), 4);
  flow.start();
  net.run(32 * 30);
  // 4 flits per 32-cycle frame = 1/8 of link bandwidth.
  EXPECT_GE(flow.received(), 4 * 28);
  // Network transit is identical for every slot (client-to-client latency
  // varies only by the NIC hold before each phase).
  EXPECT_DOUBLE_EQ(flow.network_latency().stddev(), 0.0);
  // Inter-arrival spacing is ~frame/slots on average.
  EXPECT_NEAR(flow.interarrival().mean(), 32.0 / 4.0, 0.01);
}

TEST(ScheduledFlow, MultiSlotSurvivesDynamicLoad) {
  Network net(scheduled_config());
  traffic::ScheduledFlow flow(net, 2, 13, 3, /*slots_per_frame=*/3);
  flow.start();
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.3;
  opt.warmup = 0;
  opt.measure = 4000;
  opt.drain_max = 1;
  traffic::LoadHarness harness(net, opt);
  harness.run();
  EXPECT_GE(flow.received(), 3 * 100);
  // Dynamic congestion cannot perturb the transit of any slot.
  EXPECT_DOUBLE_EQ(flow.network_latency().stddev(), 0.0);
}

TEST(Registers, ReadBackOverTheNetwork) {
  Network net(scheduled_config());
  const auto phase = net.reserve_flow(0, 5, 2);
  ASSERT_TRUE(phase.has_value());
  // Query the first hop's reservation from a master at node 15.
  const auto path = net.routes().port_path(0, 5);
  core::RegisterRead read;
  read.output_port = path.front();
  read.slot = static_cast<int>(*phase + 1);
  read.req_id = 77;
  core::RegisterReadResponse got{};
  bool answered = false;
  net.nic(15).add_filter([&](const core::Packet& p) {
    const auto rsp = core::decode_register_read_response(p);
    if (!rsp) return false;
    got = *rsp;
    answered = true;
    return true;
  });
  ASSERT_TRUE(net.nic(15).inject(core::encode_register_read(0, read), net.now()));
  ASSERT_TRUE(net.drain(5000));
  ASSERT_TRUE(answered);
  EXPECT_EQ(got.req_id, 77u);
  EXPECT_TRUE(got.reserved);
  EXPECT_EQ(got.input_port, static_cast<int>(topo::Port::kTile));
  EXPECT_EQ(got.vc, net.config().router.scheduled_vc());

  // An unreserved slot reads back empty.
  read.slot = static_cast<int>(*phase + 7);
  read.req_id = 78;
  answered = false;
  ASSERT_TRUE(net.nic(15).inject(core::encode_register_read(0, read), net.now()));
  ASSERT_TRUE(net.drain(5000));
  ASSERT_TRUE(answered);
  EXPECT_EQ(got.req_id, 78u);
  EXPECT_FALSE(got.reserved);
}

TEST(Registers, ReadCodecRoundTrip) {
  core::RegisterRead r;
  r.output_port = topo::Port::kColPos;
  r.slot = 19;
  r.req_id = 0xbeef;
  const auto back = core::decode_register_read(core::encode_register_read(4, r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->output_port, r.output_port);
  EXPECT_EQ(back->slot, r.slot);
  EXPECT_EQ(back->req_id, r.req_id);

  core::RegisterReadResponse rsp;
  rsp.req_id = 5;
  rsp.reserved = true;
  rsp.input_port = 4;
  rsp.vc = 7;
  const auto back2 =
      core::decode_register_read_response(core::encode_register_read_response(3, rsp));
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->req_id, 5u);
  EXPECT_TRUE(back2->reserved);
  EXPECT_EQ(back2->input_port, 4);
  EXPECT_EQ(back2->vc, 7);
}

TEST(Reservations, SlotTimesFollowHopPipeline) {
  Network net(scheduled_config());
  const auto times = net.flow_slot_times(0, 5, /*phase=*/4);
  const auto path = net.routes().port_path(0, 5);
  ASSERT_EQ(times.size(), path.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], 4 + 1 + static_cast<Cycle>(i));
  }
}

}  // namespace
}  // namespace ocn
