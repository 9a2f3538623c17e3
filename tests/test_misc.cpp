// Cross-cutting coverage: helpers, edge cases and smaller units not owned
// by another test file.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config_flags.h"
#include "core/deflection.h"
#include "core/interface.h"
#include "core/network.h"
#include "core/partition.h"
#include "ref/campaign.h"
#include "services/gateway.h"
#include "services/message.h"
#include "sim/log.h"
#include "topo/torus.h"

namespace ocn {
namespace {

TEST(Ports, NamesAndHelpers) {
  using topo::Port;
  EXPECT_STREQ(topo::port_name(Port::kRowPos), "row+");
  EXPECT_STREQ(topo::port_name(Port::kTile), "tile");
  EXPECT_TRUE(topo::is_row(Port::kRowNeg));
  EXPECT_FALSE(topo::is_row(Port::kColPos));
  EXPECT_TRUE(topo::is_positive(Port::kColPos));
  EXPECT_EQ(topo::dim_of(Port::kColNeg), 1);
  EXPECT_EQ(topo::reverse(Port::kRowPos), Port::kRowNeg);
  EXPECT_EQ(topo::reverse(Port::kColNeg), Port::kColPos);
  EXPECT_EQ(topo::reverse(Port::kTile), Port::kTile);
}

TEST(Interface, VcMaskPerClass) {
  EXPECT_EQ(core::vc_mask_for_class(0), 0b00000011);
  EXPECT_EQ(core::vc_mask_for_class(1), 0b00001100);
  EXPECT_EQ(core::vc_mask_for_class(2), 0b00110000);
  EXPECT_EQ(core::vc_mask_for_class(3), 0b11000000);
}

TEST(Interface, PacketHelpers) {
  const auto p = core::make_packet(7, 2, 3, 100);
  EXPECT_EQ(p.num_flits(), 3);
  EXPECT_EQ(p.payload_bits(), 2 * 256 + 100);
  const auto w = core::make_word_packet(4, 1, 0xdead, 16);
  EXPECT_EQ(w.num_flits(), 1);
  EXPECT_EQ(w.last_flit_bits, 16);
  EXPECT_EQ(w.flit_payloads[0][0], 0xdeadu);
}

TEST(Log, LevelGate) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Macro must compile and not crash at any level.
  OCN_ERROR("test error %d", 1);
  OCN_TRACE("suppressed %d", 2);
  set_log_level(before);
}

TEST(Gateway, MakeRemotePacketEncodesFields) {
  const auto p = services::make_remote_packet(3, 12, 1, 0xfeed, 32);
  EXPECT_EQ(p.dst, 3);  // addressed to the gateway tile
  EXPECT_EQ(p.service_class, 1);
  EXPECT_EQ(p.num_flits(), 1);
}

TEST(Deflection, UnfoldedTorusWorksToo) {
  const topo::Torus topo(4, 3.0);
  core::DeflectionNetwork net(topo, 11);
  for (NodeId s = 0; s < 16; ++s) net.inject(s, 15 - s == s ? (s + 1) % 16 : 15 - s, 0);
  ASSERT_TRUE(net.drain(5000));
  EXPECT_EQ(net.delivered(), net.injected());
  EXPECT_GT(net.total_flit_mm(), 0.0);
}

TEST(Message, HeaderOnlyMessage) {
  services::Message m;  // zero bytes
  m.tag = 9;
  const auto p = services::pack_message(2, 0, m);
  EXPECT_EQ(p.num_flits(), 1);
  const auto back = services::unpack_message(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, 9u);
  EXPECT_TRUE(back->bytes.empty());
}

TEST(Message, InconsistentLengthRejected) {
  services::Message m;
  m.bytes.assign(10, 1);
  auto p = services::pack_message(2, 0, m);
  // Corrupt the length field beyond the flit capacity.
  p.flit_payloads[0][0] = (p.flit_payloads[0][0] & ~0xffffffffull) | 10000;
  EXPECT_FALSE(services::unpack_message(p).has_value());
}

TEST(Partition, RejectsNothing_SmallestPayload) {
  core::PartitionedNetwork pn(core::Config::paper_baseline(), 2);
  ASSERT_TRUE(pn.send(1, 2, /*payload_bits=*/1));
  ASSERT_TRUE(pn.drain(2000));
  EXPECT_EQ(pn.messages_delivered(), 1);
}

TEST(Config, PaperBaselineIsThePaperNetwork) {
  const auto c = core::Config::paper_baseline();
  EXPECT_EQ(c.topology, core::TopologyKind::kFoldedTorus);
  EXPECT_EQ(c.radix, 4);
  EXPECT_EQ(c.router.vcs, 8);
  EXPECT_EQ(c.router.buffer_depth, 4);
  EXPECT_EQ(c.flit_data_bits, 256);
  EXPECT_TRUE(c.dateline_parity());
  EXPECT_EQ(c.router.scheduled_vc(), 7);
  EXPECT_TRUE(c.router.speculative);
  EXPECT_NO_THROW(c.validate());
}

// The dateline discipline and the scheduled VC are derived, not set: a
// bare Config (4x4 folded torus, 8 VCs) is the paper's network as it is.
TEST(Config, DefaultConfigValidatesAndDelivers) {
  const core::Config c{};
  EXPECT_NO_THROW(c.validate());
  EXPECT_TRUE(c.dateline_parity());
  core::Network net(c);
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(/*dst=*/5, 0, 0xbeef), net.now()));
  ASSERT_TRUE(net.drain(1000));
  ASSERT_EQ(net.nic(5).received().size(), 1u);
  EXPECT_EQ(net.nic(5).received().front().src, 0);
}

TEST(Config, PaperBaselineTakesAnyEvenVcCount) {
  core::Config c = core::Config::paper_baseline();
  c.router.vcs = 4;
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.router.scheduled_vc(), 3);
}

// {mesh, torus, folded torus} x {VC, dropping} x vcs {1, 2, 3, 4, 8}: the
// derived parity, the scheduled VC and whether validate() accepts. Only VC
// flow control on wraparound rings keeps parity, and parity pairs VCs, so
// only there is an odd count refused.
TEST(Config, DerivedParityScheduledVcAndValidity) {
  using core::TopologyKind;
  using router::FlowControl;
  struct Row {
    TopologyKind kind;
    FlowControl fc;
    bool parity;
    const char* valid;  ///< per vcs {1, 2, 3, 4, 8}: '+' accepted, '-' refused
  };
  const Row rows[] = {
      {TopologyKind::kMesh, FlowControl::kVirtualChannel, false, "+++++"},
      {TopologyKind::kMesh, FlowControl::kDropping, false, "+++++"},
      {TopologyKind::kTorus, FlowControl::kVirtualChannel, true, "-+-++"},
      {TopologyKind::kTorus, FlowControl::kDropping, false, "+++++"},
      {TopologyKind::kFoldedTorus, FlowControl::kVirtualChannel, true, "-+-++"},
      {TopologyKind::kFoldedTorus, FlowControl::kDropping, false, "+++++"},
  };
  const int vcs[] = {1, 2, 3, 4, 8};
  const VcId scheduled[] = {0, 1, 2, 3, 7};
  for (const Row& row : rows) {
    for (int i = 0; i < 5; ++i) {
      core::Config c;
      c.topology = row.kind;
      c.router.flow_control = row.fc;
      c.router.vcs = vcs[i];
      SCOPED_TRACE(c.summary());
      EXPECT_EQ(c.dateline_parity(), row.parity);
      EXPECT_EQ(c.router.scheduled_vc(), scheduled[i]);
      if (row.valid[i] == '+') {
        EXPECT_NO_THROW(c.validate());
      } else {
        EXPECT_THROW(c.validate(), std::invalid_argument);
      }
    }
  }
}

// The summaries of the paper baseline and of every ocn-diff quick-matrix
// cell, pinned as literals: the fingerprints and the committed baselines
// hash or embed them (the baseline's is the `config` string of
// bench/baselines/e13_quick.json).
TEST(Config, SummariesArePinned) {
  EXPECT_EQ(core::Config::paper_baseline().summary(),
            "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1");
  const std::vector<std::pair<std::string, std::string>> want = {
      {"baseline",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"mesh",
       "topology=mesh radix=4 vcs=8 depth=4 flow_control=0 vc_parity=0 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"torus",
       "topology=torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"piggyback",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=1 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"dropping",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=1 vc_parity=0 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"two-stage",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=0 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"rr-arb",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=0 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"shallow",
       "topology=folded_torus radix=4 vcs=8 depth=2 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"latency2",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=2 flit_bits=256 partitions=1 fault_layer=0 spare_bits=1 nic_queue=64 seed=1"},
      {"chaos-baseline",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=1 spare_bits=1 nic_queue=64 seed=1"},
      {"chaos-piggyback",
       "topology=folded_torus radix=4 vcs=8 depth=4 flow_control=0 vc_parity=1 priority_arb=1 piggyback=1 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=1 spare_bits=1 nic_queue=64 seed=1"},
      {"chaos-mesh",
       "topology=mesh radix=4 vcs=8 depth=4 flow_control=0 vc_parity=0 priority_arb=1 piggyback=0 speculative=1 frame=64 reclaim_idle=0 sched_vc=7 excl_sched=0 link_latency=1 flit_bits=256 partitions=1 fault_layer=1 spare_bits=1 nic_queue=64 seed=1"},
  };
  const std::vector<ref::CampaignCell> cells = ref::quick_matrix();
  ASSERT_EQ(cells.size(), want.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].name, want[i].first);
    EXPECT_EQ(cells[i].config.summary(), want[i].second) << cells[i].name;
  }
}

TEST(Config, TopologyKindNames) {
  EXPECT_STREQ(core::topology_kind_name(core::TopologyKind::kMesh), "mesh");
  EXPECT_STREQ(core::topology_kind_name(core::TopologyKind::kTorus), "torus");
  EXPECT_STREQ(core::topology_kind_name(core::TopologyKind::kFoldedTorus), "folded_torus");
}

// The configuration flags ocnsim, ocn-verify and ocn-analyze share, parsed
// by one function: each row is a command line and the change it makes to the
// paper baseline (or the message it is refused with).
TEST(ConfigFlags, ParsesTheFlagsEveryToolShares) {
  using core::Config;
  struct Row {
    std::vector<std::string> args;
    std::function<void(Config&)> edit;  ///< applied to the expected config
    std::string error;                  ///< non-empty: the refusal message
  };
  const std::vector<Row> rows = {
      {{"--topology", "mesh"}, [](Config& c) { c.topology = core::TopologyKind::kMesh; }, ""},
      {{"--topology", "torus"}, [](Config& c) { c.topology = core::TopologyKind::kTorus; }, ""},
      {{"--topology", "folded_torus"}, [](Config&) {}, ""},
      {{"--radix", "8"}, [](Config& c) { c.radix = 8; }, ""},
      {{"--vcs", "4"}, [](Config& c) { c.router.vcs = 4; }, ""},
      {{"--vcs", "2"}, [](Config& c) { c.router.vcs = 2; }, ""},
      {{"--depth", "2"}, [](Config& c) { c.router.buffer_depth = 2; }, ""},
      {{"--link-latency", "3"}, [](Config& c) { c.link_latency = 3; }, ""},
      {{"--dropping"},
       [](Config& c) { c.router.flow_control = router::FlowControl::kDropping; },
       ""},
      {{"--piggyback"}, [](Config& c) { c.router.piggyback_credits = true; }, ""},
      {{"--vcs", "4x"}, nullptr, "--vcs: expected an integer, got '4x'"},
      {{"--radix", "big"}, nullptr, "--radix: expected an integer, got 'big'"},
      {{"--depth"}, nullptr, "--depth: missing value"},
      {{"--topology", "ring"}, nullptr,
       "--topology: expected mesh, torus or folded_torus, got 'ring'"},
  };
  for (const Row& row : rows) {
    std::vector<std::string> args = {"tool"};
    args.insert(args.end(), row.args.begin(), row.args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    const std::string line = args[1] + (args.size() > 2 ? " " + args[2] : "");
    Config got = Config::paper_baseline();
    int i = 1;
    if (!row.error.empty()) {
      try {
        (void)core::parse_config_flag(got, argc, argv.data(), i);
        ADD_FAILURE() << "accepted " << line;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), row.error);
      }
      continue;
    }
    EXPECT_TRUE(core::parse_config_flag(got, argc, argv.data(), i)) << line;
    EXPECT_EQ(i, argc - 1) << line;  // left on the flag's last argument
    Config want = Config::paper_baseline();
    row.edit(want);
    EXPECT_EQ(got.summary(), want.summary()) << line;
    EXPECT_NO_THROW(got.validate()) << line;
  }
  // Any other flag is the tool's own: untouched, not consumed.
  for (const char* other : {"--rate", "--no-vc-parity", "--shards", "vcs"}) {
    std::string arg = other;
    char* argv[] = {arg.data(), arg.data()};
    Config got = Config::paper_baseline();
    int i = 1;
    EXPECT_FALSE(core::parse_config_flag(got, 2, argv, i)) << other;
    EXPECT_EQ(i, 1);
    EXPECT_EQ(got.summary(), Config::paper_baseline().summary());
  }
}

}  // namespace
}  // namespace ocn
