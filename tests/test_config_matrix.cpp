// Full-matrix delivery check: every combination of topology x credit
// return path x pipeline depth must deliver an all-pairs workload exactly
// once and drain. The 12 combinations are independent simulations, so they
// run sharded across the sweep engine's worker pool; all EXPECTs happen on
// the main thread over the collected outcomes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/network.h"
#include "sim/sweep/sweep.h"
#include "verify/monitor.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using core::TopologyKind;

struct MatrixCase {
  TopologyKind kind;
  bool piggyback;
  bool speculative;
};

std::string case_name(const MatrixCase& c) {
  return std::string(core::topology_kind_name(c.kind)) +
         (c.piggyback ? "_piggyback" : "_wire") +
         (c.speculative ? "_spec" : "_twostage");
}

struct MatrixOutcome {
  std::string name;
  bool injected_all = false;
  bool drained = false;
  std::int64_t delivered = 0;
  std::int64_t expected = 0;
  int nodes_with_wrong_count = 0;
  int wrong_payloads = 0;
  std::int64_t monitor_violations = 0;
  std::string first_violation;
};

MatrixOutcome run_case(const MatrixCase& mc) {
  MatrixOutcome out;
  out.name = case_name(mc);
  Config c = Config::paper_baseline();
  c.topology = mc.kind;
  c.router.piggyback_credits = mc.piggyback;
  c.router.speculative = mc.speculative;
  Network net(c);
  // One monitor per network per worker thread: each instance only touches
  // its own network, so the sweep pool stays race-free.
  verify::RuntimeMonitor monitor(net);
  const int n = net.num_nodes();
  out.expected = static_cast<std::int64_t>(n) * (n - 1);
  out.injected_all = true;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      if (!net.nic(s).inject(
              core::make_word_packet(d, (s + d) % 3,
                                     static_cast<std::uint64_t>(s * 100 + d)),
              net.now())) {
        out.injected_all = false;
      }
    }
  }
  out.drained = net.drain(100000);
  out.delivered = net.stats().packets_delivered;
  for (NodeId d = 0; d < n; ++d) {
    if (net.nic(d).received().size() != static_cast<std::size_t>(n - 1)) {
      ++out.nodes_with_wrong_count;
    }
    for (const auto& p : net.nic(d).received()) {
      if (p.flit_payloads[0][0] !=
          static_cast<std::uint64_t>(p.src * 100 + p.dst)) {
        ++out.wrong_payloads;
      }
    }
  }
  out.monitor_violations = monitor.violation_count();
  if (!monitor.violations().empty()) out.first_violation = monitor.violations().front();
  return out;
}

TEST(ConfigMatrix, AllPairsDeliverEverywhereAllCombos) {
  std::vector<MatrixCase> cases;
  for (TopologyKind kind : {TopologyKind::kMesh, TopologyKind::kTorus,
                            TopologyKind::kFoldedTorus}) {
    for (bool piggyback : {false, true}) {
      for (bool speculative : {false, true}) {
        cases.push_back({kind, piggyback, speculative});
      }
    }
  }

  sweep::SweepOptions opt;
  opt.threads = 4;  // exercise the pool even on small CI machines
  sweep::SweepRunner runner(opt);
  // The workload is deterministic all-pairs traffic; the derived seed is
  // unused on purpose — delivery must not depend on randomness.
  const auto outcomes = runner.map<MatrixOutcome>(
      cases.size(),
      [&](std::size_t i, std::uint64_t) { return run_case(cases[i]); });

  ASSERT_EQ(outcomes.size(), cases.size());
  for (const MatrixOutcome& out : outcomes) {
    SCOPED_TRACE(out.name);
    EXPECT_TRUE(out.injected_all);
    EXPECT_TRUE(out.drained) << "failed to drain";
    EXPECT_EQ(out.delivered, out.expected);
    EXPECT_EQ(out.nodes_with_wrong_count, 0);
    EXPECT_EQ(out.wrong_payloads, 0);
    EXPECT_EQ(out.monitor_violations, 0) << out.first_violation;
  }
}

}  // namespace
}  // namespace ocn
