// Router-state gates: the summary-invariant check (incrementally maintained
// counters and caches against recomputation), the quiescence audit (the
// kernel's skip predicates recompute from occupancy — the stale-flag
// pattern Channel::take() once had), and arbiter rotation-pointer semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "ref/soa_check.h"
#include "router/arbiter.h"
#include "router/router.h"
#include "traffic/replay.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using core::Packet;

std::vector<traffic::TraceEntry> small_trace(const Config& config,
                                             std::uint64_t seed) {
  const int nodes = config.make_topology()->num_nodes();
  return traffic::synthesize_soc_trace(nodes, /*flows=*/6, /*bursts=*/6,
                                       /*burst_len=*/3, /*period=*/40, seed);
}

// --- summary invariants -----------------------------------------------------

// run_lockstep calls ref::soa_crosscheck after every production tick: each
// cell of the quick matrix therefore checks every incrementally-maintained
// summary (retry cache, allocated counts, NIC occupancy counters) against
// recomputation, every cycle of the run. Any drift diverges with kind "soa".
TEST(SoaEquivalence, QuickMatrixAgreesFieldByFieldEveryTick) {
  const std::vector<ref::CampaignCell> cells = ref::quick_matrix();
  ASSERT_GE(cells.size(), 12u);
  for (const auto& cell : cells) {
    const ref::DiffResult r = ref::run_lockstep(
        cell.config, cell.scenario, small_trace(cell.config, 29), 20000);
    EXPECT_FALSE(r.diverged)
        << cell.name << ": " << r.divergence.to_string();
    EXPECT_TRUE(r.drained) << cell.name;
  }
}

TEST(SoaEquivalence, CrosscheckCleanAtResetMidFlightAndAfterDrain) {
  Network net(Config::paper_baseline());
  EXPECT_TRUE(ref::soa_crosscheck(net).empty());
  ASSERT_TRUE(net.nic(0).inject(core::make_packet(/*dst=*/5,
                                                  /*service_class=*/0,
                                                  /*num_flits=*/4),
                                net.now()));
  for (int c = 0; c < 30; ++c) {
    net.step();
    const auto lines = ref::soa_crosscheck(net);
    EXPECT_TRUE(lines.empty()) << "cycle " << c << ": " << lines.front();
  }
  ASSERT_TRUE(net.drain(1000));
  EXPECT_TRUE(ref::soa_crosscheck(net).empty());
}

// Router state has one home, so a view cannot drift from its cell. What can
// drift are the incrementally-maintained summaries
// (VcAllocator::allocated_count_). Corrupt a pool flag behind the counter's
// back and the cross-check must notice the popcount mismatch.
TEST(SoaEquivalence, DetectsAllocatedCountDrift) {
  Network net(Config::paper_baseline());
  router::Router& r = net.router_at(0);
  const int p = static_cast<int>(topo::Port::kRowPos);
  r.pool().vc_allocated(r.pool_slot(), p)[0] = true;

  const std::vector<std::string> lines = ref::soa_crosscheck(net);
  ASSERT_FALSE(lines.empty());
  bool found = false;
  for (const auto& l : lines) {
    if (l.find(".allocated_count") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << lines.front();

  r.pool().vc_allocated(r.pool_slot(), p)[0] = false;
  EXPECT_TRUE(ref::soa_crosscheck(net).empty());
}

// --- quiescence audit -------------------------------------------------------

// The kernel's one skip predicate (step_component_if_due), for routers and
// NICs alike: every arrival byte in the wake row clear and no internal work.
template <typename Component>
bool component_idle(Component& c) {
  const std::atomic<std::uint8_t>* row = c.wake_row();
  for (int i = 0; i < Component::wake_width(); ++i) {
    if (row[i].load(std::memory_order_relaxed) != 0) return false;
  }
  return c.idle_internal();
}

bool all_components_idle(Network& net) {
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    if (!component_idle(net.router_at(n))) return false;
    if (!component_idle(net.nic(n))) return false;
  }
  return true;
}

// The stale-flag regression: a component the kernel's skip rule passed
// over while it still held work would strand its flits forever. Assert the
// converse invariant on every cycle of a real run — whenever ALL routers
// and NICs are idle, the network must actually have delivered everything
// injected.
TEST(Quiescence, AllQuiescentImpliesNothingInFlight) {
  Network net(Config::paper_baseline());
  EXPECT_TRUE(all_components_idle(net));

  const int kPackets = 6;
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(net.nic(static_cast<NodeId>(i)).inject(
        core::make_packet(/*dst=*/static_cast<NodeId>(15 - i),
                          /*service_class=*/i % 2, /*num_flits=*/3),
        net.now()));
  }
  EXPECT_FALSE(all_components_idle(net));

  auto delivered = [&net]() {
    std::int64_t d = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      d += net.nic(n).packets_delivered();
    }
    return d;
  };
  bool drained = false;
  for (int c = 0; c < 2000 && !drained; ++c) {
    net.step();
    if (all_components_idle(net)) {
      // Quiescence claims there is no work anywhere; hold it to that.
      EXPECT_EQ(delivered(), kPackets) << "at cycle " << c;
      drained = delivered() == kPackets;
    }
  }
  EXPECT_TRUE(drained);
  EXPECT_TRUE(all_components_idle(net));
}

// Drain each component mid-tick and check the skip predicate tracks the
// occupancy it recomputes from: the NIC with ejected flits parked behind a
// stalled client must stay active until the client drains them, then go
// idle.
TEST(Quiescence, NicStaysActiveWhilePendingEjectsDrain) {
  Network net(Config::paper_baseline());
  core::Nic& dst = net.nic(5);
  dst.set_ejection_stall(/*vc=*/0, true);
  ASSERT_TRUE(net.nic(0).inject(
      core::make_packet(/*dst=*/5, /*service_class=*/0, /*num_flits=*/4),
      net.now()));
  // Let the flits arrive and park in the ejection-pending queues.
  for (int c = 0; c < 200 && dst.pending_eject_flits() == 0; ++c) net.step();
  ASSERT_GT(dst.pending_eject_flits(), 0);
  EXPECT_EQ(dst.eject_pending_counter(), dst.pending_eject_flits());
  EXPECT_FALSE(component_idle(dst));

  // Mid-run, un-stall: the parked flits drain one per cycle; the predicate
  // must flip exactly when the recomputed occupancy reaches zero.
  dst.set_ejection_stall(/*vc=*/0, false);
  for (int c = 0; c < 200 && dst.packets_delivered() == 0; ++c) {
    EXPECT_EQ(dst.eject_pending_counter(), dst.pending_eject_flits());
    if (dst.pending_eject_flits() > 0) {
      EXPECT_FALSE(component_idle(dst));
    }
    net.step();
  }
  EXPECT_EQ(dst.packets_delivered(), 1);
  ASSERT_TRUE(net.drain(500));
  EXPECT_TRUE(component_idle(dst));
  EXPECT_EQ(dst.eject_pending_counter(), 0);
  EXPECT_EQ(dst.queued_flit_counter(), 0);
}

// The injection side of the same audit: queued flits keep the source NIC
// and then the routers on the path active; after the wormhole passes, each
// router must recompute back to idle.
TEST(Quiescence, RoutersAlongThePathFlipAndRecover) {
  Network net(Config::paper_baseline());
  ASSERT_TRUE(net.nic(0).inject(
      core::make_packet(/*dst=*/3, /*service_class=*/0, /*num_flits=*/6),
      net.now()));
  EXPECT_EQ(net.nic(0).queued_flit_counter(), net.nic(0).queued_flits());
  EXPECT_FALSE(component_idle(net.nic(0)));

  // Row route 0 -> 3 on the radix-4 torus: router 3 must wake up while the
  // wormhole transits it.
  bool router3_woke = false;
  for (int c = 0; c < 300 && net.nic(3).packets_delivered() == 0; ++c) {
    net.step();
    if (!component_idle(net.router_at(3))) router3_woke = true;
  }
  EXPECT_TRUE(router3_woke);
  EXPECT_EQ(net.nic(3).packets_delivered(), 1);
  ASSERT_TRUE(net.drain(500));
  // drain() returns at delivery parity; the tail flit's credits are still
  // returning upstream. They must settle within a bounded number of cycles,
  // after which every component recomputes to idle.
  for (int c = 0; c < 50 && !all_components_idle(net); ++c) net.step();
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(component_idle(net.router_at(n))) << "router " << n;
    EXPECT_TRUE(component_idle(net.nic(n))) << "nic " << n;
  }
}

// --- arbiter rotation-pointer semantics -------------------------------------

// One step of the table: a request bitmask (bit i = input i requesting) and
// the expected grant and post-call pointer. Zero-requester steps must leave
// the pointer frozen — it only ever advances past a winner.
struct ArbStep {
  std::uint8_t request_mask;
  int want_grant;
  int want_pointer;
};

void expand(std::uint8_t mask, int inputs, std::uint8_t* req) {
  for (int i = 0; i < inputs; ++i) req[i] = (mask >> i) & 1u;
}

TEST(ArbiterRotation, PointerFollowsTableOverIdleBusyMix) {
  constexpr int kInputs = 4;
  const std::vector<ArbStep> table = {
      {0b0000, -1, 0},  // idle from reset: frozen at 0
      {0b0110, 1, 2},   // scan from 0 -> input 1 wins, pointer past winner
      {0b0000, -1, 2},  // idle tick mid-sequence: frozen at 2
      {0b0000, -1, 2},  // consecutive idle ticks stay frozen
      {0b0110, 2, 3},   // resume from 2 -> input 2 wins
      {0b0001, 0, 1},   // wrap: scan 3,0 -> input 0 wins
      {0b0000, -1, 1},  // frozen again
      {0b1111, 1, 2},   // all requesting: pointer decides the tie
      {0b1000, 3, 0},   // single requester far from pointer, wraps to 0
  };

  router::RoundRobinArbiter arb(kInputs);
  std::uint8_t req[kInputs];
  for (std::size_t s = 0; s < table.size(); ++s) {
    expand(table[s].request_mask, kInputs, req);
    EXPECT_EQ(arb.arbitrate(req), table[s].want_grant) << "step " << s;
    EXPECT_EQ(arb.pointer(), table[s].want_pointer) << "step " << s;
  }
}

TEST(ArbiterRotation, PriorityFlatPathMatchesFullPathOnEqualPriorities) {
  constexpr int kInputs = 5;  // the switch/link arbiter width (ports)
  const std::vector<std::uint8_t> masks = {0b00000, 0b01010, 0b00000, 0b11111,
                                           0b00100, 0b00000, 0b10001, 0b01110};
  router::PriorityArbiter full(kInputs);
  router::PriorityArbiter flat(kInputs);

  std::uint8_t req[kInputs];
  const int prio[kInputs] = {0, 0, 0, 0, 0};
  for (std::size_t s = 0; s < masks.size(); ++s) {
    expand(masks[s], kInputs, req);
    // arbitrate_flat (priority_arbitration disabled) must be exactly the
    // priority path with a flat priority vector, idle ticks included.
    EXPECT_EQ(flat.arbitrate_flat(req), full.arbitrate(req, prio))
        << "step " << s;
    EXPECT_EQ(flat.pointer(), full.pointer()) << "step " << s;
  }
}

TEST(ArbiterRotation, ZeroRequesterTickNeverPerturbsNextGrant) {
  // For every pointer position, an idle call must not change which input
  // the next busy call grants.
  constexpr int kInputs = 4;
  for (std::uint8_t mask = 1; mask < (1u << kInputs); ++mask) {
    for (int spin = 0; spin < kInputs; ++spin) {
      router::RoundRobinArbiter a(kInputs);
      router::RoundRobinArbiter b(kInputs);
      // Rotate both pointers to the same position via granted calls.
      std::uint8_t all[kInputs] = {1, 1, 1, 1};
      for (int i = 0; i < spin; ++i) {
        a.arbitrate(all);
        b.arbitrate(all);
      }
      std::uint8_t none[kInputs] = {0, 0, 0, 0};
      EXPECT_EQ(b.arbitrate(none), -1);
      std::uint8_t req[kInputs];
      expand(mask, kInputs, req);
      EXPECT_EQ(a.arbitrate(req), b.arbitrate(req))
          << "mask " << int(mask) << " spin " << spin;
    }
  }
}

}  // namespace
}  // namespace ocn
