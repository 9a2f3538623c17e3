// Trace-driven replay: parsing, timing fidelity, backpressure deferral.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/shard_partition.h"
#include "core/trace.h"
#include "ref/diff.h"
#include "traffic/replay.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using traffic::parse_trace;
using traffic::TraceEntry;
using traffic::TraceReplay;

TEST(TraceParse, ParsesAndSorts) {
  const auto t = parse_trace(
      "# a comment\n"
      "20,1,2,64\n"
      "5,0,3,256,2\n"
      "\n"
      "5,4,5,8,1\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].cycle, 5);
  EXPECT_EQ(t[0].src, 0);
  EXPECT_EQ(t[0].service_class, 2);
  EXPECT_EQ(t[1].cycle, 5);
  EXPECT_EQ(t[1].service_class, 1);
  EXPECT_EQ(t[2].cycle, 20);
  EXPECT_EQ(t[2].payload_bits, 64);
  EXPECT_EQ(t[2].service_class, 0);  // default
}

TEST(TraceParse, RejectsMalformedLines) {
  for (const char* line : {
           "1,2\n",
           "1,2,3,0\n",     // bits < 1
           "nonsense\n",
           "-5,0,5,32\n",   // negative cycle
           "0,0,5,32,9\n",  // class above 3
           "0,0,5,32,4\n",
           "0,0,5,32,-1\n",
       }) {
    EXPECT_THROW(parse_trace(line), std::invalid_argument) << line;
  }
}

TEST(TraceParse, CsvRoundTrip) {
  const auto t = traffic::synthesize_soc_trace(16, 5, 3, 2, 50, 9);
  const auto back = parse_trace(traffic::trace_to_csv(t));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].cycle, t[i].cycle);
    EXPECT_EQ(back[i].src, t[i].src);
    EXPECT_EQ(back[i].dst, t[i].dst);
    EXPECT_EQ(back[i].payload_bits, t[i].payload_bits);
  }
}

TEST(TraceReplayTest, InjectsAtRecordedTimes) {
  Network net(Config::paper_baseline());
  std::vector<TraceEntry> trace{
      {10, 0, 5, 64, 0},
      {10, 3, 9, 256, 1},
      {40, 0, 5, 512, 0},  // two flits
  };
  TraceReplay replay(net, trace);
  net.run(5);  // idle before start
  replay.start();
  net.run(200);
  EXPECT_TRUE(replay.finished());
  EXPECT_EQ(replay.injected(), 3);
  ASSERT_EQ(net.nic(5).received().size(), 2u);
  ASSERT_EQ(net.nic(9).received().size(), 1u);
  // Injection happened at start+10 (packet.created records it).
  const auto& first = net.nic(5).received().front();
  EXPECT_EQ(first.created, 5 + 10);
  // The 512-bit event became a two-flit packet.
  EXPECT_EQ(net.nic(5).received().back().num_flits(), 2);
}

TEST(TraceReplayTest, SynthesizedSocTraceRunsToCompletion) {
  Network net(Config::paper_baseline());
  auto trace = traffic::synthesize_soc_trace(net.num_nodes(), /*flows=*/20,
                                             /*bursts=*/10, /*burst_len=*/4,
                                             /*period=*/40, /*seed=*/5);
  const auto total = static_cast<std::int64_t>(trace.size());
  TraceReplay replay(net, std::move(trace));
  replay.start();
  net.run(10 * 40 + 100);
  ASSERT_TRUE(net.drain(50000));
  EXPECT_TRUE(replay.finished());
  EXPECT_EQ(replay.injected(), total);
  EXPECT_EQ(net.stats().packets_delivered, total);
}

TEST(TraceReplayTest, BackpressureDefersNotDrops) {
  Config c = Config::paper_baseline();
  c.nic_queue_packets = 2;  // tiny queue forces deferral
  Network net(c);
  std::vector<TraceEntry> trace;
  for (int i = 0; i < 50; ++i) trace.push_back({0, 0, 15, 256, 0});  // all at once
  const auto total = static_cast<std::int64_t>(trace.size());
  TraceReplay replay(net, trace);
  replay.start();
  net.run(2000);
  ASSERT_TRUE(net.drain(20000));
  EXPECT_EQ(replay.injected(), total);
  EXPECT_GT(replay.deferred_injections(), 0);
  EXPECT_EQ(net.nic(15).received().size(), static_cast<std::size_t>(total));
}

// Entries that parse but name no node of the fabric, or a class with no VC
// pair on its routers, are refused when the replay is built — before any
// NIC is indexed or Nic::inject's asserts can fire.
TEST(TraceReplayTest, RefusesEntriesOutsideTheFabric) {
  struct Row {
    int vcs;
    TraceEntry entry;
    std::string message;
  };
  const std::vector<Row> rows = {
      {8, {3, 16, 5, 32, 0}, "cycle 3: src 16 is outside [0, 16)"},
      {8, {3, -1, 5, 32, 0}, "cycle 3: src -1 is outside [0, 16)"},
      {8, {7, 0, 16, 32, 0}, "cycle 7: dst 16 is outside [0, 16)"},
      {8, {7, 0, -2, 32, 0}, "cycle 7: dst -2 is outside [0, 16)"},
      {4, {9, 0, 5, 32, 2}, "cycle 9: service_class 2 has no VC pair on a 4-VC router"},
      {2, {9, 0, 5, 32, 1}, "cycle 9: service_class 1 has no VC pair on a 2-VC router"},
      {1, {9, 0, 5, 32, 1}, "cycle 9: service_class 1 has no VC pair on a 1-VC router"},
  };
  for (const Row& row : rows) {
    Config c = Config::paper_baseline();
    if (row.vcs < 8) {  // fewer VCs: a mesh, which needs no dateline pairs
      c.topology = core::TopologyKind::kMesh;
      c.router.vcs = row.vcs;
    }
    Network net(c);
    const std::vector<TraceEntry> trace{{0, 0, 5, 32, 0}, row.entry};
    try {
      TraceReplay replay(net, trace);
      ADD_FAILURE() << "accepted: " << row.message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.message), std::string::npos) << e.what();
    }
  }
  // The last VC pair of the router is in range.
  Network net(Config::paper_baseline());
  TraceReplay replay(net, {{0, 0, 15, 32, 3}, {0, 15, 0, 32, 0}});
  replay.start();
  net.run(200);
  EXPECT_EQ(replay.injected(), 2);
}

// --- Golden replay determinism -----------------------------------------
// A recorded run must be reproducible from its trace alone: serializing the
// injection trace through trace_to_csv/parse_trace and replaying it on a
// fresh network yields the identical delivery sequence (order AND cycles),
// the identical per-link flit event stream (core::TraceRecorder), and the
// same final cycle count. Checked clean and with a mid-run kill_link.

struct GoldenRun {
  std::vector<std::string> deliveries;  // "cycle:src->dst id payload"
  std::string link_events;              // TraceRecorder CSV, every traversal
  Cycle end_cycle = 0;
  std::int64_t delivered = 0;
};

GoldenRun run_recorded(const std::string& csv, bool chaos_kill) {
  Config c = Config::paper_baseline();
  if (chaos_kill) c.fault_layer = true;
  Network net(c);
  core::TraceRecorder recorder;
  net.enable_tracing(&recorder);
  GoldenRun out;
  net.set_delivery_observer([&](const core::Packet& p) {
    out.deliveries.push_back(
        std::to_string(net.now()) + ":" + std::to_string(p.src) + "->" +
        std::to_string(p.dst) + " id=" + std::to_string(p.id) +
        " pay=" + std::to_string(p.flit_payloads[0][0]));
  });
  TraceReplay replay(net, parse_trace(csv));
  replay.start();
  for (int t = 0; t < 20000; ++t) {
    if (chaos_kill && net.now() == 70) {
      const auto report = chaos::kill_link(net, 0, topo::Port::kRowPos);
      EXPECT_TRUE(report.committed);
    }
    net.step();
    if (replay.finished() && net.idle()) break;
  }
  EXPECT_TRUE(replay.finished());
  EXPECT_TRUE(net.idle());
  out.end_cycle = net.now();
  out.delivered = net.stats().packets_delivered;
  out.link_events = recorder.to_csv();
  return out;
}

void expect_identical(const GoldenRun& a, const GoldenRun& b) {
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    ASSERT_EQ(a.deliveries[i], b.deliveries[i]) << "delivery #" << i;
  }
  EXPECT_EQ(a.link_events, b.link_events);
}

TEST(GoldenReplay, CleanRunReproducesExactly) {
  const auto trace = traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/8, /*burst_len=*/3,
      /*period=*/40, /*seed=*/101);
  const std::string csv = traffic::trace_to_csv(trace);
  const GoldenRun first = run_recorded(csv, /*chaos_kill=*/false);
  ASSERT_GT(first.delivered, 0);
  ASSERT_FALSE(first.link_events.empty());
  // Round-trip the CSV once more before the second run: the serialized form
  // itself must carry everything needed to reproduce the run.
  const std::string csv2 = traffic::trace_to_csv(parse_trace(csv));
  EXPECT_EQ(csv, csv2);
  const GoldenRun second = run_recorded(csv2, /*chaos_kill=*/false);
  expect_identical(first, second);
}

TEST(GoldenReplay, KillLinkRunReproducesExactly) {
  const auto trace = traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/8, /*burst_len=*/3,
      /*period=*/40, /*seed=*/103);
  const std::string csv = traffic::trace_to_csv(trace);
  const GoldenRun first = run_recorded(csv, /*chaos_kill=*/true);
  ASSERT_GT(first.delivered, 0);
  const GoldenRun second =
      run_recorded(traffic::trace_to_csv(parse_trace(csv)), /*chaos_kill=*/true);
  expect_identical(first, second);
}

// --- shard-header directive (satellite: refuse over-clamp replays) ----------

TEST(TraceShardHeader, ParsesDirectiveAndIgnoresOtherComments) {
  EXPECT_EQ(traffic::trace_header_shards("# config: foo\n"
                                         "# shards: 4\n"
                                         "1,0,1,64\n"),
            4);
  EXPECT_EQ(traffic::trace_header_shards("  #  shards: 2\n1,0,1,64\n"), 2);
  EXPECT_EQ(traffic::trace_header_shards("# config: foo\n1,0,1,64\n"), 0);
  EXPECT_EQ(traffic::trace_header_shards(""), 0);
  // First directive wins.
  EXPECT_EQ(traffic::trace_header_shards("# shards: 2\n# shards: 4\n"), 2);
}

TEST(TraceShardHeader, MalformedDirectiveThrows) {
  EXPECT_THROW(traffic::trace_header_shards("# shards:\n"),
               std::invalid_argument);
  EXPECT_THROW(traffic::trace_header_shards("# shards: zero\n"),
               std::invalid_argument);
  EXPECT_THROW(traffic::trace_header_shards("# shards: -3\n"),
               std::invalid_argument);
}

TEST(TraceShardHeader, OverClampRequestIsRefusedNotClamped) {
  // resolve_shards clamps to the radix (row strips): a radix-4 fabric honors
  // at most 4 shards. A trace recorded at 8 shards must be refused.
  EXPECT_EQ(core::resolve_shards(8, 4), 4);  // the silent clamp being guarded
  const std::string err = ref::replay_shards_error(8, 4);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("8 shards"), std::string::npos);
  EXPECT_NE(err.find("radix-4"), std::string::npos);
  EXPECT_NE(err.find("at most 4"), std::string::npos);
  // Honorable requests pass.
  EXPECT_TRUE(ref::replay_shards_error(1, 4).empty());
  EXPECT_TRUE(ref::replay_shards_error(4, 4).empty());
  EXPECT_TRUE(ref::replay_shards_error(8, 16).empty());
}

TEST(TraceShardHeader, DivergenceReportRoundTripsShardCount) {
  Config config = Config::paper_baseline();
  ref::Scenario scenario;
  ref::DiffResult result;
  const std::vector<TraceEntry> trace{{1, 0, 5, 64, 0}};
  const std::string report =
      ref::divergence_report(config, scenario, trace, result, /*shards=*/4);
  EXPECT_EQ(traffic::trace_header_shards(report), 4);
  const auto back = parse_trace(report);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].dst, 5);
  // Reference-model reports (no shard referee) carry no directive.
  const std::string plain =
      ref::divergence_report(config, scenario, trace, result);
  EXPECT_EQ(traffic::trace_header_shards(plain), 0);
}

}  // namespace
}  // namespace ocn
