// Configuration fuzzing: random valid configurations must build, carry
// random traffic, conserve it, and drain — across topologies, buffer
// geometries, link latencies, flow-control variants and features.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sim/rng.h"
#include "traffic/generator.h"
#include "verify/monitor.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;

Config random_config(Rng& rng) {
  Config c = Config::paper_baseline();
  switch (rng.next_below(3)) {
    case 0:
      c.topology = core::TopologyKind::kMesh;
      break;
    case 1:
      c.topology = core::TopologyKind::kTorus;
      break;
    default:
      c.topology = core::TopologyKind::kFoldedTorus;
      break;
  }
  c.radix = 2 + static_cast<int>(rng.next_below(5));         // 2..6
  c.router.vcs = 2 * (1 + static_cast<int>(rng.next_below(4)));  // 2,4,6,8
  c.router.buffer_depth = 1 + static_cast<int>(rng.next_below(6));
  c.link_latency = 1 + static_cast<int>(rng.next_below(3));
  c.router.piggyback_credits = rng.bernoulli(0.3);
  c.router.speculative = rng.bernoulli(0.7);
  c.router.priority_arbitration = rng.bernoulli(0.7);
  c.fault_layer = rng.bernoulli(0.2);  // healthy links; layer exercised
  c.seed = rng.next_u64();
  return c;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, RandomConfigConservesRandomTraffic) {
  Rng rng(GetParam(), 0xf022);
  const Config c = random_config(rng);
  ASSERT_NO_THROW(c.validate());
  Network net(c);
  verify::RuntimeMonitor monitor(net);

  traffic::HarnessOptions opt;
  opt.pattern = static_cast<traffic::Pattern>(rng.next_below(2) == 0
                                                  ? 0   // uniform
                                                  : 7); // hotspot
  opt.injection_rate = 0.02 + 0.2 * rng.next_double();
  opt.packet_flits = 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(c.router.buffer_depth)));
  opt.warmup = 200;
  opt.measure = 1200;
  opt.drain_max = 300000;
  opt.seed = rng.next_u64();
  // The max class must exist for this VC count.
  opt.randomize_class = false;
  opt.service_class = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(std::max(1, c.router.vcs / 2 - 1))));

  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained) << "config: " << core::topology_kind_name(c.topology)
                         << " k=" << c.radix << " vcs=" << c.router.vcs
                         << " depth=" << c.router.buffer_depth
                         << " ll=" << c.link_latency
                         << " piggyback=" << c.router.piggyback_credits
                         << " spec=" << c.router.speculative;
  const auto s = net.stats();
  EXPECT_EQ(s.flits_injected, s.flits_delivered);
  EXPECT_EQ(s.packets_dropped, 0);
  EXPECT_TRUE(monitor.ok())
      << monitor.violation_count() << " protocol violations, first: "
      << (monitor.violations().empty() ? "" : monitor.violations().front());
  EXPECT_GT(monitor.hops_checked(), 0);
  EXPECT_EQ(monitor.packets_in_flight(), 0u) << "tracked packets leaked";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace ocn
