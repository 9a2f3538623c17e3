// Router building blocks: arbiters, VC allocator, reservation table,
// VC buffers, flit helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "router/arbiter.h"
#include "router/flit.h"
#include "router/params.h"
#include "router/reservation.h"
#include "router/soa.h"
#include "router/vc_allocator.h"
#include "router/vc_buffer.h"

namespace ocn::router {
namespace {

TEST(Flit, SizeCodes) {
  EXPECT_EQ(data_bits_for_code(0), 1);
  EXPECT_EQ(data_bits_for_code(4), 16);   // the logical-wire flit
  EXPECT_EQ(data_bits_for_code(8), 256);
  EXPECT_EQ(size_code_for_bits(1), 0);
  EXPECT_EQ(size_code_for_bits(16), 4);
  EXPECT_EQ(size_code_for_bits(17), 5);
  EXPECT_EQ(size_code_for_bits(256), 8);
}

TEST(Flit, HeadTailPredicates) {
  EXPECT_TRUE(is_head(FlitType::kHead));
  EXPECT_TRUE(is_head(FlitType::kHeadTail));
  EXPECT_FALSE(is_head(FlitType::kBody));
  EXPECT_TRUE(is_tail(FlitType::kTail));
  EXPECT_TRUE(is_tail(FlitType::kHeadTail));
  EXPECT_FALSE(is_tail(FlitType::kHead));
}

TEST(RoundRobin, RotatesGrants) {
  RoundRobinArbiter arb(4);
  const std::uint8_t all[] = {1, 1, 1, 1};
  EXPECT_EQ(arb.arbitrate(all), 0);
  EXPECT_EQ(arb.arbitrate(all), 1);
  EXPECT_EQ(arb.arbitrate(all), 2);
  EXPECT_EQ(arb.arbitrate(all), 3);
  EXPECT_EQ(arb.arbitrate(all), 0);
}

TEST(RoundRobin, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  const std::uint8_t only2[] = {0, 0, 1, 0};
  const std::uint8_t zero_and_2[] = {1, 0, 1, 0};
  const std::uint8_t none[] = {0, 0, 0, 0};
  EXPECT_EQ(arb.arbitrate(only2), 2);
  EXPECT_EQ(arb.arbitrate(zero_and_2), 0);  // pointer at 3 wraps
  EXPECT_EQ(arb.arbitrate(none), -1);
}

TEST(RoundRobin, FairUnderFullLoad) {
  RoundRobinArbiter arb(3);
  std::vector<int> grants(3, 0);
  const std::uint8_t all[] = {1, 1, 1};
  for (int i = 0; i < 300; ++i) ++grants[static_cast<std::size_t>(arb.arbitrate(all))];
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(PriorityArb, HighPriorityAlwaysWins) {
  PriorityArbiter arb(3);
  const std::uint8_t all[] = {1, 1, 1};
  const int prio[] = {0, 5, 1};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.arbitrate(all, prio), 1);
  }
}

TEST(PriorityArb, TiesRotate) {
  PriorityArbiter arb(3);
  std::vector<int> grants(3, 0);
  const std::uint8_t all[] = {1, 1, 1};
  const int prio[] = {2, 2, 2};
  for (int i = 0; i < 90; ++i) {
    ++grants[static_cast<std::size_t>(arb.arbitrate(all, prio))];
  }
  for (int g : grants) EXPECT_EQ(g, 30);
}

// Starvation audit: the rotation pointer must move only past a *consumed*
// grant. Production callers pre-filter requests by credit and stage
// availability, so every returned winner moves a flit — but a no-winner
// cycle (nothing eligible, e.g. a speculative VC allocation that failed
// this cycle) must leave the pointer frozen. If it rotated, a request that
// goes eligible/ineligible in phase with the arbitration could be skipped
// forever.
TEST(RoundRobin, PointerFrozenOnNoGrantCycles) {
  RoundRobinArbiter arb(4);
  const std::uint8_t first_two[] = {1, 1, 0, 0};
  const std::uint8_t none[] = {0, 0, 0, 0};
  EXPECT_EQ(arb.arbitrate(first_two), 0);
  EXPECT_EQ(arb.pointer(), 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(arb.arbitrate(none), -1);
    EXPECT_EQ(arb.pointer(), 1);  // unchanged across empty cycles
  }
  EXPECT_EQ(arb.arbitrate(first_two), 1);  // resumes in turn
}

TEST(PriorityArb, PointerFrozenOnNoGrantCycles) {
  PriorityArbiter arb(3);
  const std::uint8_t all[] = {1, 1, 1};
  const std::uint8_t none[] = {0, 0, 0};
  const int ones[] = {1, 1, 1};
  const int zeros[] = {0, 0, 0};
  EXPECT_EQ(arb.arbitrate(all, ones), 0);
  EXPECT_EQ(arb.pointer(), 1);
  EXPECT_EQ(arb.arbitrate(none, zeros), -1);
  EXPECT_EQ(arb.pointer(), 1);
  EXPECT_EQ(arb.arbitrate(all, ones), 1);
}

// Starvation regression for the squashed-speculation pattern: input 0 is
// only intermittently eligible (its credit returns every third cycle, as
// when a downstream buffer drains slowly) while inputs 1 and 2 request
// every cycle. The intermittent requester must still be granted every time
// its turn comes up while eligible — over any sustained window it makes
// proportional progress and is never starved.
TEST(RoundRobin, IntermittentRequesterIsNotStarved) {
  RoundRobinArbiter arb(3);
  std::vector<int> grants(3, 0);
  int waiting = 0;  // consecutive cycles input 0 requested without a grant
  for (int cycle = 0; cycle < 300; ++cycle) {
    const bool eligible0 = cycle % 3 == 0;
    const std::uint8_t req[] = {static_cast<std::uint8_t>(eligible0), 1, 1};
    const int winner = arb.arbitrate(req);
    ASSERT_GE(winner, 0);
    ++grants[static_cast<std::size_t>(winner)];
    if (eligible0 && winner != 0) {
      ++waiting;
      ASSERT_LE(waiting, 3) << "input 0 starved around cycle " << cycle;
    } else if (winner == 0) {
      waiting = 0;
    }
  }
  EXPECT_GT(grants[0], 0);
  EXPECT_GT(grants[1], 0);
  EXPECT_GT(grants[2], 0);
}

// The VC allocator, reservation table and VC buffer are views into a
// RouterStatePool; a standalone unit is a slice of a 1-router pool.
RouterParams unit_params(int vcs, int depth) {
  RouterParams p;
  p.vcs = vcs;
  p.buffer_depth = depth;
  return p;
}

TEST(VcAllocator, RespectsMask) {
  RouterStatePool pool(1, unit_params(8, 4));
  VcAllocator a(pool, 0, 0, /*enforce_parity=*/false);
  const VcId v = a.allocate(0b00001100, false);
  EXPECT_TRUE(v == 2 || v == 3);
  EXPECT_TRUE(a.is_allocated(v));
  EXPECT_EQ(a.allocate(0b00000001, false), 0);
  EXPECT_EQ(a.allocate(0b00000001, false), kInvalidVc);  // now busy
}

TEST(VcAllocator, ParityDiscipline) {
  RouterStatePool pool(1, unit_params(8, 4));
  VcAllocator a(pool, 0, 0, /*enforce_parity=*/true);
  // Even request on a both-parities class mask.
  const VcId even = a.allocate(0b00000011, /*want_odd=*/false);
  EXPECT_EQ(even, 0);
  const VcId odd = a.allocate(0b00000011, /*want_odd=*/true);
  EXPECT_EQ(odd, 1);
  // Parity exhausted.
  EXPECT_EQ(a.allocate(0b00000011, false), kInvalidVc);
  // ignore_parity (ejection port) may take anything free.
  a.release(1);
  EXPECT_EQ(a.allocate(0b00000011, /*want_odd=*/false, /*ignore_parity=*/true), 1);
}

TEST(VcAllocator, ExclusionBlocksScheduledVc) {
  RouterStatePool pool(1, unit_params(8, 4));
  VcAllocator a(pool, 0, 0, false);
  a.set_excluded(7, true);
  EXPECT_EQ(a.allocate(0b10000000, false), kInvalidVc);
  EXPECT_TRUE(a.allocate_exact(7));  // the scheduled path itself may claim it
  a.release(7);
}

TEST(VcAllocator, ReleaseMakesVcReusable) {
  RouterStatePool pool(1, unit_params(4, 4));
  VcAllocator a(pool, 0, 0, false);
  const VcId v = a.allocate(0b1111, false);
  a.release(v);
  EXPECT_FALSE(a.is_allocated(v));
  EXPECT_EQ(a.free_count(), 4);
}

TEST(Reservation, SlotLifecycle) {
  RouterStatePool pool(1, unit_params(8, 4));
  ReservationTable t(16, pool, 0, 0);
  EXPECT_FALSE(t.any());
  EXPECT_TRUE(t.reserve(3, /*input=*/1, /*vc=*/7));
  EXPECT_FALSE(t.reserve(3, 2, 7));  // occupied
  EXPECT_TRUE(t.reserved_at(3));
  EXPECT_TRUE(t.reserved_at(19));  // cyclic: 19 mod 16 = 3
  EXPECT_FALSE(t.reserved_at(4));
  EXPECT_EQ(t.at(3).input, 1);
  EXPECT_EQ(t.at(3).vc, 7);
  t.clear(3);
  EXPECT_FALSE(t.any());
}

TEST(Reservation, CountsSlots) {
  RouterStatePool pool(1, unit_params(8, 4));
  ReservationTable t(8, pool, 0, 0);
  t.reserve(0, 0, 7);
  t.reserve(4, 1, 7);
  EXPECT_EQ(t.reserved_count(), 2);
}

TEST(VcBuffer, FifoWithCapacity) {
  RouterStatePool pool(1, unit_params(2, 2));
  VcBuffer b(pool.vc_slice(0, 0, 0));
  EXPECT_TRUE(b.empty());
  Flit f;
  f.packet = 1;
  b.push(f);
  f.packet = 2;
  b.push(f);
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.pop().packet, 1);
  EXPECT_EQ(b.pop().packet, 2);
  EXPECT_TRUE(b.empty());
}

TEST(VcBuffer, PacketStateResets) {
  RouterStatePool pool(1, unit_params(2, 4));
  VcBuffer b(pool.vc_slice(0, 0, 0));
  b.routed = true;
  b.out_vc = 3;
  b.out_port = topo::Port::kColNeg;
  b.reset_packet_state();
  EXPECT_FALSE(b.routed);
  EXPECT_EQ(b.out_vc, kInvalidVc);
}

}  // namespace
}  // namespace ocn::router
