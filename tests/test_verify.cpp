// Static verifier: the CDG deadlock proof on golden and known-bad configs,
// the route linter over a malformed-route corpus, credit arithmetic, the
// hardened Config::validate, and the runtime protocol monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/network.h"
#include "traffic/generator.h"
#include "verify/cdg.h"
#include "verify/monitor.h"
#include "verify/verifier.h"

namespace ocn {
namespace {

using core::Config;
using core::TopologyKind;
using routing::SourceRoute;
using routing::TurnCode;
using verify::Finding;
using verify::Report;
using verify::Severity;

bool has_code(const std::vector<Finding>& findings, const std::string& code,
              Severity severity) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.code == code && f.severity == severity;
  });
}

// A torus, analysed below with Datelines::kNone: the routers' dateline
// discipline left out of the dependency model.
Config torus(int radix) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kTorus;
  c.radix = radix;
  return c;
}

constexpr auto kNoDatelines = verify::Datelines::kNone;

// --- golden safe configurations ---------------------------------------------

TEST(Verifier, PaperBaselineProvedDeadlockFree) {
  const Report rep = verify::verify(Config::paper_baseline());
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.proof_ran);
  EXPECT_TRUE(rep.deadlock_free);
  EXPECT_TRUE(rep.cycle.empty());
  EXPECT_TRUE(has_code(rep.findings, "cdg-acyclic", Severity::kNote));
  EXPECT_TRUE(has_code(rep.findings, "credit-ok", Severity::kNote));
  EXPECT_EQ(rep.routes_linted, 16 * 15);
  EXPECT_LE(rep.max_route_bits, SourceRoute::kPaperRouteBits);
  EXPECT_GT(rep.channels, 0);
  EXPECT_GT(rep.edges, 0);
}

TEST(Verifier, MeshProvedDeadlockFree) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kMesh;
  const Report rep = verify::verify(c);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  // Dimension-ordered routing on a mesh needs no datelines at all.
  EXPECT_TRUE(rep.deadlock_free);
}

TEST(Verifier, Radix4TorusTieBreakIsSafeEvenWithoutDatelines) {
  // A radix-4 ring's longest minimal route is exactly half the ring, so
  // every 2-hop flow is an antipodal tie — and the route computer's
  // tie-break sends the {0,2} pair one way around and the {1,3} pair the
  // other. That alternation leaves each directed ring with only half of the
  // dependency edges a cycle would need, so this one radix is provably
  // deadlock-free even with the dateline discipline off. The proof is the
  // point: intuition ("torus without datelines deadlocks") is wrong here.
  const Report rep = verify::verify(torus(4), kNoDatelines);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.deadlock_free);
}

// --- the known-deadlocking configuration ------------------------------------

TEST(Verifier, DatelineDisabledTorusReportsTheCycle) {
  // Radix 6: distance-2 ring routes are direction-forced (2 < 4), so the
  // row+ dependency chain closes all the way around the ring.
  const Config c = torus(6);
  const Report rep = verify::verify(c, kNoDatelines);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.proof_ran);
  EXPECT_FALSE(rep.deadlock_free);
  EXPECT_TRUE(has_code(rep.findings, "cdg-cycle", Severity::kError));
  ASSERT_GE(rep.cycle.size(), 3u);
  // The report renders the cycle as readable channel descriptions.
  EXPECT_NE(rep.cycle.front().find("-->"), std::string::npos);
  EXPECT_NE(rep.to_string().find("DEADLOCK POSSIBLE"), std::string::npos);

  // Re-derive the CDG and check the reported cycle's structure directly:
  // consecutive edges exist, the last edge closes back to the first, and
  // the whole cycle stays within one dimension's rings (row-then-column
  // routing admits no column->row dependencies).
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes, kNoDatelines);
  const auto cycle = cdg.find_cycle();
  ASSERT_EQ(cycle.size(), rep.cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const int from = cycle[i];
    const int to = cycle[(i + 1) % cycle.size()];
    EXPECT_TRUE(cdg.has_edge(from, to))
        << cdg.describe(from) << " -> " << cdg.describe(to);
  }
  const int dim = topo::dim_of(cdg.channel(cycle.front()).port);
  for (const int id : cycle) {
    const auto& ch = cdg.channel(id);
    ASSERT_NE(ch.port, topo::Port::kTile);
    EXPECT_EQ(topo::dim_of(ch.port), dim) << "cycle crosses dimensions";
  }
}

TEST(Verifier, DatelineDisciplineBreaksTheCycle) {
  const Report rep = verify::verify(torus(6));
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.deadlock_free);
}

TEST(Verifier, DroppingDowngradesTheCycleToAWarning) {
  Config c = torus(6);
  c.router.flow_control = router::FlowControl::kDropping;
  const Report rep = verify::verify(c);
  // The cyclic dependency exists, but dropping resolves contention by
  // shedding packets instead of blocking, so it is not an error.
  EXPECT_FALSE(rep.deadlock_free);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(has_code(rep.findings, "cdg-cycle", Severity::kWarning));
}

TEST(Verifier, OddVcCountWithParityIsRejectedUpFront) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kTorus;
  c.router.vcs = 3;  // class 1 is the orphan {vc2} pair half
  const Report rep = verify::verify(c);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep.findings, "config-vc-parity", Severity::kError));
  // The orphan class cannot even be injected (its odd pair member does not
  // exist), so the producible-traffic model excludes it entirely.
  EXPECT_EQ(core::dynamic_classes(c.router), std::vector<int>{0});
}

TEST(Verifier, ExcludedVcLeavesAnEmptyAllocatableSet) {
  // The defensive reachability check in the expansion itself: force class
  // 3's odd member (vc7, the scheduled VC) out of the dynamic pool and
  // expand a route that crosses a dateline — the post-dateline hop has no
  // VC it may occupy.
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  bool saw_empty_set = false;
  for (NodeId s = 0; s < topology->num_nodes() && !saw_empty_set; ++s) {
    for (NodeId d = 0; d < topology->num_nodes() && !saw_empty_set; ++d) {
      if (s == d) continue;
      const auto e = verify::expand_route(c, routes, s, d, /*service_class=*/3);
      for (const auto& set : e.vc_sets) {
        if (set.empty()) saw_empty_set = true;
      }
    }
  }
  EXPECT_TRUE(saw_empty_set)
      << "no dateline-crossing route starved: exclusion model is inert";
}

// --- credit-loop arithmetic --------------------------------------------------

TEST(Verifier, CreditStarvedConfigurationFlagged) {
  Config c = Config::paper_baseline();
  c.router.buffer_depth = 1;
  c.link_latency = 3;
  c.router.vcs = 4;
  const Report rep = verify::verify(c);
  EXPECT_EQ(rep.credit_round_trip, 7);  // 2*3 link + 1 router
  EXPECT_NEAR(rep.per_vc_throughput_bound, 1.0 / 7.0, 1e-9);
  // 4 VCs x 1 slot < 7: even all VCs together cannot saturate the link.
  EXPECT_TRUE(has_code(rep.findings, "credit-starved", Severity::kWarning));
  EXPECT_TRUE(rep.ok()) << rep.to_string();  // degraded, not broken
}

TEST(Verifier, PiggybackAddsACycleToTheRoundTrip) {
  Config c = Config::paper_baseline();
  c.router.piggyback_credits = true;
  const Report rep = verify::verify(c);
  EXPECT_EQ(rep.credit_round_trip, 4);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- route linter corpus ------------------------------------------------------

class RouteLint : public ::testing::Test {
 protected:
  RouteLint()
      : config_(Config::paper_baseline()),
        topology_(config_.make_topology()),
        routes_(*topology_) {}

  std::vector<Finding> lint(NodeId src, NodeId dst, const SourceRoute& r) {
    return verify::lint_route(config_, routes_, src, dst, r);
  }
  static SourceRoute make(std::initializer_list<std::uint8_t> codes) {
    SourceRoute r;
    for (const auto c : codes) r.push(c);
    return r;
  }

  Config config_;
  std::unique_ptr<topo::Topology> topology_;
  routing::RouteComputer routes_;
};

TEST_F(RouteLint, EveryComputedRouteIsClean) {
  for (NodeId s = 0; s < topology_->num_nodes(); ++s) {
    for (NodeId d = 0; d < topology_->num_nodes(); ++d) {
      const auto findings = lint(s, d, routes_.compute(s, d));
      EXPECT_TRUE(findings.empty())
          << s << "->" << d << ": " << findings.front().message;
    }
  }
}

TEST_F(RouteLint, SelfRouteMustBeEmpty) {
  EXPECT_TRUE(lint(3, 3, SourceRoute{}).empty());
  const auto findings = lint(3, 3, routes_.compute(3, 5));
  EXPECT_TRUE(has_code(findings, "route-self", Severity::kError));
}

TEST_F(RouteLint, EmptyRouteForDistinctPair) {
  const auto findings = lint(0, 5, SourceRoute{});
  EXPECT_TRUE(has_code(findings, "route-empty", Severity::kError));
}

TEST_F(RouteLint, WrongDestinationCaught) {
  // A perfectly well-formed route... to somewhere else.
  const auto findings = lint(0, 5, routes_.compute(0, 1));
  EXPECT_TRUE(has_code(findings, "route-wrong-destination", Severity::kError));
}

TEST_F(RouteLint, RowAfterColumnViolatesDimensionOrder) {
  // Inject column-first, then turn left back into the row dimension.
  const auto r = make({routing::injection_code(topo::Port::kColPos),
                       static_cast<std::uint8_t>(TurnCode::kLeft),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = lint(0, 5, r);
  EXPECT_TRUE(has_code(findings, "route-dimension-order", Severity::kError));
}

TEST_F(RouteLint, MeshBoundaryHopIsOffTopology) {
  Config mesh = config_;
  mesh.topology = TopologyKind::kMesh;
  const auto topology = mesh.make_topology();
  const routing::RouteComputer routes(*topology);
  // Node 0 sits on the mesh corner: row- has no link.
  const auto r = make({routing::injection_code(topo::Port::kRowNeg),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = verify::lint_route(mesh, routes, 0, 5, r);
  EXPECT_TRUE(has_code(findings, "route-off-topology", Severity::kError));
}

TEST_F(RouteLint, RouteWithoutExtractCaught) {
  const auto r = make({routing::injection_code(topo::Port::kRowPos)});
  const auto findings = lint(0, 1, r);
  EXPECT_TRUE(has_code(findings, "route-no-extract", Severity::kError));
}

TEST_F(RouteLint, NonMinimalRouteIsAWarning) {
  // The long way around the row ring: 3 hops where 1 suffices.
  Config torus = config_;
  torus.topology = TopologyKind::kTorus;
  const auto topology = torus.make_topology();
  const routing::RouteComputer routes(*topology);
  const NodeId dst = topology->neighbor(0, topo::Port::kRowPos)->dst;
  const auto r = make({routing::injection_code(topo::Port::kRowNeg),
                       static_cast<std::uint8_t>(TurnCode::kStraight),
                       static_cast<std::uint8_t>(TurnCode::kStraight),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = verify::lint_route(torus, routes, 0, dst, r);
  EXPECT_TRUE(has_code(findings, "route-non-minimal", Severity::kWarning));
  EXPECT_FALSE(has_code(findings, "route-non-minimal", Severity::kError));
}

TEST_F(RouteLint, OversizedEncodingIsAWarningNotAnError) {
  // Radix-6 mesh corner to corner: 11 entries = 22 bits > the paper's 16.
  // The simulator carries it fine, so the linter warns instead of failing.
  Config mesh = config_;
  mesh.topology = TopologyKind::kMesh;
  mesh.radix = 6;
  const auto topology = mesh.make_topology();
  const routing::RouteComputer routes(*topology);
  const NodeId far = topology->num_nodes() - 1;
  const auto route = routes.compute(0, far);
  EXPECT_GT(route.bits_required(), SourceRoute::kPaperRouteBits);
  const auto findings = verify::lint_route(mesh, routes, 0, far, route);
  EXPECT_TRUE(has_code(findings, "route-overflow", Severity::kWarning));
  EXPECT_FALSE(std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  }));
}

// --- route expansion (the static model the monitor checks against) ----------

TEST(Expansion, DatelineDisciplineYieldsSingletonVcSets) {
  const Config c = Config::paper_baseline();
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  bool saw_odd_after_dateline = false;
  for (NodeId s = 0; s < topology->num_nodes(); ++s) {
    for (NodeId d = 0; d < topology->num_nodes(); ++d) {
      if (s == d) continue;
      const auto e = verify::expand_route(c, routes, s, d, /*service_class=*/1);
      ASSERT_FALSE(e.empty());
      bool crossed = false;
      for (std::size_t i = 0; i < e.hops(); ++i) {
        if (e.ports[i] == topo::Port::kTile) {
          // Ejection ignores parity: both pair members stay eligible.
          EXPECT_EQ(e.vc_sets[i], (std::vector<VcId>{2, 3}));
          continue;
        }
        ASSERT_EQ(e.vc_sets[i].size(), 1u);
        if (topology->crosses_dateline(e.nodes[i], e.ports[i])) crossed = true;
        if (crossed && e.vc_sets[i].front() == 3) saw_odd_after_dateline = true;
      }
      // Entry into the network starts on the even VC of the class — unless
      // the very first hop already crosses a dateline.
      if (e.ports[0] != topo::Port::kTile &&
          !topology->crosses_dateline(s, e.ports[0])) {
        EXPECT_EQ(e.vc_sets[0], (std::vector<VcId>{2}));
      }
    }
  }
  EXPECT_TRUE(saw_odd_after_dateline)
      << "no route ever switched to the odd VC: dateline model is inert";
}

TEST(Expansion, ScheduledRoutesRideTheDedicatedVc) {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const auto e = verify::expand_scheduled_route(c, routes, 0, 15);
  ASSERT_FALSE(e.empty());
  for (const auto& set : e.vc_sets) {
    EXPECT_EQ(set, std::vector<VcId>{c.router.scheduled_vc()});
  }
}

// --- hardened Config::validate ----------------------------------------------

TEST(ConfigValidate, RejectsRoutesWiderThanTheEncoder) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kMesh;
  c.radix = 64;  // worst route: 2*63+1 = 127 entries, still fits 128
  EXPECT_NO_THROW(c.validate());
  c.radix = 65;  // 129 entries
  try {
    c.validate();
    FAIL() << "radix-65 mesh must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("route entries"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidate, MessagesNameTheOffendingValue) {
  Config c = Config::paper_baseline();
  c.router.vcs = 9;
  try {
    c.validate();
    FAIL() << "vcs=9 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("9"), std::string::npos) << e.what();
  }
}

// --- runtime protocol monitor -------------------------------------------------

TEST(Monitor, CleanTrafficProducesNoViolations) {
  verify::VerifiedNetwork vnet(Config::paper_baseline());
  EXPECT_TRUE(vnet.report().deadlock_free);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.25;
  opt.warmup = 100;
  opt.measure = 1500;
  opt.seed = 11;
  traffic::LoadHarness harness(vnet.network(), opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained);
  const auto& mon = vnet.monitor();
  EXPECT_TRUE(mon.ok()) << mon.violations().front();
  EXPECT_GT(mon.hops_checked(), 0);
  EXPECT_GT(mon.credit_checks(), 0);
  EXPECT_EQ(mon.packets_in_flight(), 0u);
}

TEST(Monitor, VerifiedNetworkRefusesAnUnprovableConfig) {
  // Pre-scheduled traffic rides the scheduled VC end to end, across the
  // dateline, so on a radix-6 torus its chains close a ring cycle.
  Config c = torus(6);
  c.router.exclusive_scheduled_vc = true;
  try {
    verify::VerifiedNetwork vnet(c);
    FAIL() << "construction must throw on a failed proof";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DEADLOCK POSSIBLE"), std::string::npos) << what;
    EXPECT_NE(what.find("cdg-cycle"), std::string::npos) << what;
  }
}

TEST(Monitor, RogueFlitOnForbiddenVcIsFlagged) {
  core::Network net(Config::paper_baseline());
  verify::RuntimeMonitor monitor(net);
  ASSERT_TRUE(monitor.ok());

  // Hand-craft a class-0 flit occupying vc5 — a VC its mask forbids — and
  // drive it through a router output behind the allocator's back.
  const auto port = topo::Port::kRowPos;
  const auto link = net.topology().neighbor(0, port);
  ASSERT_TRUE(link.has_value());
  router::Flit f;
  f.type = router::FlitType::kHeadTail;
  f.vc = 5;
  f.vc_mask = core::vc_mask_for_class(0);
  f.src = 0;
  f.dst = link->dst;
  f.packet = 0x7e57;
  f.route.push(static_cast<std::uint8_t>(TurnCode::kExtract));
  // Stage it in output row+'s register for input 0, as a switch traversal
  // would: buffered through input 0's ring (the arena's one way in), popped
  // by handle and staged. The pool rows are the router's only copy of this
  // state.
  router::Router& r = net.router_at(0);
  router::RouterStatePool& pool = r.pool();
  const int slot = r.pool_slot();
  const int p = static_cast<int>(port);
  --pool.credits(slot, p)[5];  // keep the credit books balanced downstream
  ASSERT_EQ(pool.stage_row(slot, p)[0], router::kNoFlit);
  ASSERT_EQ(pool.buf_count_row(slot, 0)[5], 0);
  pool.buf_push(slot, 0, 5, f);
  pool.stage_put(slot, p, 0, pool.buf_pop(slot, 0, 5));
  net.run(4);

  EXPECT_FALSE(monitor.ok());
  EXPECT_GE(monitor.violation_count(), 1);
  ASSERT_FALSE(monitor.violations().empty());
}

TEST(Monitor, DetachesCleanly) {
  core::Network net(Config::paper_baseline());
  {
    verify::RuntimeMonitor monitor(net);
    EXPECT_EQ(monitor.cdg().find_cycle().size(), 0u);
  }
  // Monitor destroyed: the network must still simulate unobserved.
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 0, 0xabc), net.now()));
  EXPECT_TRUE(net.drain(1000));
  EXPECT_EQ(net.stats().packets_delivered, 1);
}

}  // namespace
}  // namespace ocn
