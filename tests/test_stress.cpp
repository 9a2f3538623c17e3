// Torture tests: prolonged saturation on adversarial configurations must
// never deadlock, lose, duplicate, or corrupt traffic.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/network.h"
#include "traffic/generator.h"
#include "traffic/scheduled.h"
#include "verify/monitor.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using traffic::HarnessOptions;
using traffic::LoadHarness;
using traffic::Pattern;

struct StressParam {
  core::TopologyKind topology;
  int depth;
  int link_latency;
  Pattern pattern;
  int flits;
};

class Stress : public ::testing::TestWithParam<int> {};

TEST_P(Stress, SaturatedNetworkDrainsLosslessly) {
  static const StressParam cases[] = {
      {core::TopologyKind::kFoldedTorus, 1, 1, Pattern::kUniform, 1},
      {core::TopologyKind::kFoldedTorus, 1, 2, Pattern::kTornado, 4},
      {core::TopologyKind::kFoldedTorus, 2, 1, Pattern::kBitComplement, 2},
      {core::TopologyKind::kTorus, 1, 1, Pattern::kTranspose, 4},
      {core::TopologyKind::kTorus, 4, 3, Pattern::kHotspot, 2},
      {core::TopologyKind::kMesh, 1, 1, Pattern::kHotspot, 4},
      {core::TopologyKind::kMesh, 2, 2, Pattern::kBitComplement, 1},
      {core::TopologyKind::kFoldedTorus, 4, 1, Pattern::kShuffle, 3},
  };
  const StressParam& sp = cases[GetParam()];

  Config c = Config::paper_baseline();
  c.topology = sp.topology;
  c.router.buffer_depth = sp.depth;
  c.link_latency = sp.link_latency;

  Network net(c);
  verify::RuntimeMonitor monitor(net);
  HarnessOptions opt;
  opt.pattern = sp.pattern;
  opt.injection_rate = 0.9 / sp.flits;  // far beyond saturation
  opt.packet_flits = sp.flits;
  opt.warmup = 0;
  opt.measure = 4000;
  opt.drain_max = 400000;
  opt.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  LoadHarness harness(net, opt);
  const auto r = harness.run();

  EXPECT_TRUE(r.drained) << "deadlock or livelock under saturation";
  const auto s = net.stats();
  EXPECT_EQ(s.packets_injected, s.packets_delivered);
  EXPECT_EQ(s.flits_injected, s.flits_delivered);
  EXPECT_EQ(s.packets_dropped, 0);
  EXPECT_TRUE(monitor.ok())
      << monitor.violation_count() << " protocol violations, first: "
      << (monitor.violations().empty() ? "" : monitor.violations().front());
  EXPECT_EQ(monitor.packets_in_flight(), 0u) << "tracked packets leaked";
}

INSTANTIATE_TEST_SUITE_P(Configs, Stress, ::testing::Range(0, 8));

TEST(StressMixed, ScheduledFlowsSurviveSaturatedDynamicTraffic) {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  c.router.reservation_frame = 20;
  Network net(c);
  verify::RuntimeMonitor monitor(net);

  std::vector<std::unique_ptr<traffic::ScheduledFlow>> flows;
  for (auto [s, d] : {std::pair<NodeId, NodeId>{0, 15}, {5, 10}, {12, 3}}) {
    flows.push_back(std::make_unique<traffic::ScheduledFlow>(net, s, d));
    flows.back()->start();
  }

  HarnessOptions opt;
  opt.injection_rate = 0.8;  // saturated dynamic background
  opt.warmup = 0;
  opt.measure = 8000;
  opt.drain_max = 1;
  opt.seed = 3;
  LoadHarness harness(net, opt);
  harness.run();

  for (const auto& f : flows) {
    EXPECT_GT(f->received(), 350);
    EXPECT_DOUBLE_EQ(f->interarrival().stddev(), 0.0)
        << f->src() << "->" << f->dst();
  }
  EXPECT_TRUE(monitor.ok())
      << monitor.violation_count() << " protocol violations, first: "
      << (monitor.violations().empty() ? "" : monitor.violations().front());
}

TEST(StressMixed, AllServicesConcurrently) {
  // Memory traffic + streams + logical wires + scheduled flows + background
  // load on one fabric, long run, everything must reconcile.
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  Network net(c);
  verify::RuntimeMonitor monitor(net);

  traffic::ScheduledFlow video(net, 1, 14);
  video.start();

  HarnessOptions opt;
  opt.injection_rate = 0.1;
  opt.warmup = 0;
  opt.measure = 6000;
  opt.drain_max = 1;  // the scheduled flow keeps the fabric live; drain below
  opt.seed = 9;
  LoadHarness harness(net, opt);
  harness.run();

  video.stop();
  EXPECT_TRUE(net.drain(100000));
  EXPECT_EQ(net.stats().packets_dropped, 0);
  const auto s = net.stats();
  EXPECT_EQ(s.flits_injected, s.flits_delivered);
  EXPECT_GT(video.received(), 50);
  EXPECT_DOUBLE_EQ(video.interarrival().stddev(), 0.0);
  EXPECT_TRUE(monitor.ok())
      << monitor.violation_count() << " protocol violations, first: "
      << (monitor.violations().empty() ? "" : monitor.violations().front());
}

TEST(StressDetermination, IdenticalSeedsIdenticalWorlds) {
  auto fingerprint = [](std::uint64_t seed) {
    Config c = Config::paper_baseline();
    Network net(c);
    HarnessOptions opt;
    opt.injection_rate = 0.45;
    opt.pattern = Pattern::kHotspot;
    opt.warmup = 200;
    opt.measure = 1500;
    opt.drain_max = 1;
    opt.seed = seed;
    LoadHarness harness(net, opt);
    harness.run();
    const auto s = net.stats();
    // Fingerprint includes fine-grained per-link counts.
    std::uint64_t fp = static_cast<std::uint64_t>(s.flits_delivered);
    for (const auto& u : net.link_usage()) {
      fp = fp * 1099511628211ull + static_cast<std::uint64_t>(u.flits);
    }
    return fp;
  };
  EXPECT_EQ(fingerprint(7), fingerprint(7));
  EXPECT_NE(fingerprint(7), fingerprint(8));
}

}  // namespace
}  // namespace ocn
