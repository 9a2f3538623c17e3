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
  const std::uint32_t all = 0b1111;
  EXPECT_EQ(arb.arbitrate(all), 0);
  EXPECT_EQ(arb.arbitrate(all), 1);
  EXPECT_EQ(arb.arbitrate(all), 2);
  EXPECT_EQ(arb.arbitrate(all), 3);
  EXPECT_EQ(arb.arbitrate(all), 0);
}

TEST(RoundRobin, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  const std::uint32_t only2 = 0b0100;
  const std::uint32_t zero_and_2 = 0b0101;
  const std::uint32_t none = 0;
  EXPECT_EQ(arb.arbitrate(only2), 2);
  EXPECT_EQ(arb.arbitrate(zero_and_2), 0);  // pointer at 3 wraps
  EXPECT_EQ(arb.arbitrate(none), -1);
}

TEST(RoundRobin, FairUnderFullLoad) {
  RoundRobinArbiter arb(3);
  std::vector<int> grants(3, 0);
  const std::uint32_t all = 0b111;
  for (int i = 0; i < 300; ++i) ++grants[static_cast<std::size_t>(arb.arbitrate(all))];
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(PriorityArb, HighPriorityAlwaysWins) {
  PriorityArbiter arb(3);
  const std::uint32_t all = 0b111;
  const int prio[] = {0, 5, 1};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.arbitrate(all, prio), 1);
  }
}

TEST(PriorityArb, TiesRotate) {
  PriorityArbiter arb(3);
  std::vector<int> grants(3, 0);
  const std::uint32_t all = 0b111;
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
  const std::uint32_t first_two = 0b0011;
  const std::uint32_t none = 0;
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
  const std::uint32_t all = 0b111;
  const std::uint32_t none = 0;
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
    const std::uint32_t req = (eligible0 ? 0b001u : 0u) | 0b110u;
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

// The VC allocator and reservation table are views into a RouterStatePool,
// and the VC buffer rings are pool functions; a standalone unit is a slice
// of a 1-router pool.
RouterParams unit_params(int vcs, int depth) {
  RouterParams p;
  p.vcs = vcs;
  p.buffer_depth = depth;
  return p;
}

TEST(VcAllocator, RespectsMask) {
  const RouterParams params = unit_params(8, 4);
  RouterStatePool pool(1, params);
  VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/false);
  const VcId v = a.allocate(0b00001100, false);
  EXPECT_TRUE(v == 2 || v == 3);
  EXPECT_TRUE(a.is_allocated(v));
  EXPECT_EQ(a.allocate(0b00000001, false), 0);
  EXPECT_EQ(a.allocate(0b00000001, false), kInvalidVc);  // now busy
}

TEST(VcAllocator, ParityDiscipline) {
  const RouterParams params = unit_params(8, 4);
  RouterStatePool pool(1, params);
  VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/true);
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
  RouterParams params = unit_params(8, 4);
  params.exclusive_scheduled_vc = true;
  RouterStatePool pool(1, params);
  VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/false);
  EXPECT_EQ(a.allocate(0b10000000, false), kInvalidVc);
  EXPECT_TRUE(a.allocate_exact(7));  // the scheduled path itself may claim it
  a.release(7);
}

TEST(VcAllocator, ReleaseMakesVcReusable) {
  const RouterParams params = unit_params(4, 4);
  RouterStatePool pool(1, params);
  VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/false);
  const VcId v = a.allocate(0b1111, false);
  a.release(v);
  EXPECT_FALSE(a.is_allocated(v));
  EXPECT_EQ(a.free_count(), 4);
}

// The fast-fail: when every VC the mask names is allocated or excluded,
// allocate() fails without moving the rotation pointer — what the full
// eligibility scan would have done (DESIGN.md §4h).
TEST(VcAllocator, FailedAllocateLeavesRotation) {
  RouterParams params = unit_params(8, 4);
  params.exclusive_scheduled_vc = true;
  RouterStatePool pool(1, params);
  VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/true);
  EXPECT_EQ(a.allocate(0b01000000, /*want_odd=*/false), 6);
  const int rotation = a.rotation();
  EXPECT_EQ(rotation, 7);
  // VC 6 allocated, VC 7 excluded: the class {6, 7} is covered for either
  // parity, while other classes' VCs sit free.
  EXPECT_EQ(a.allocate(0b11000000, /*want_odd=*/false), kInvalidVc);
  EXPECT_EQ(a.rotation(), rotation);
  EXPECT_EQ(a.allocate(0b11000000, /*want_odd=*/true), kInvalidVc);
  EXPECT_EQ(a.rotation(), rotation);
  EXPECT_EQ(a.allocate(0b11000000, false, /*ignore_parity=*/true), kInvalidVc);
  EXPECT_EQ(a.rotation(), rotation);
  EXPECT_EQ(a.allocated_count(), 1);
  EXPECT_EQ(a.free_count(), 6);
  // Uncovered again once the VC is released: the grant moves the pointer.
  a.release(6);
  EXPECT_EQ(a.allocate(0b11000000, false), 6);
  EXPECT_EQ(a.rotation(), 7);
}

// The precondition of retry-on-change (Router::vc_allocation): a VcWait VC
// skips its attempt while its output's allocated mask equals the one its
// last attempt failed against. That is exact when, with the request (mask,
// parity) fixed, success depends only on allocated | excluded, and a
// failure changes nothing. Checked exhaustively for 8 VCs: every allocated
// mask, both excluded masks (none, VC 7), every request mask, both parity
// wants, with parity ignored or not and enforced or not, and every
// rotation pointer.
TEST(VcAllocator, AllocateOutcomeDependsOnlyOnBusyMaskAndRequest) {
  for (const bool enforce : {false, true}) {
    for (const bool exclusive : {false, true}) {
      RouterParams params = unit_params(8, 4);
      params.exclusive_scheduled_vc = exclusive;
      const std::uint8_t excluded = params.excluded_vcs();
      RouterStatePool pool(1, params);
      // outcome[busy][mask][want_odd][ignore_parity]: -1 unseen, else 0/1.
      std::vector<int> outcome(256 * 256 * 4, -1);
      for (int allocated = 0; allocated < 256; ++allocated) {
        for (int mask = 0; mask < 256; ++mask) {
          for (int want = 0; want < 4; ++want) {
            const bool want_odd = (want & 1) != 0;
            const bool ignore_parity = (want & 2) != 0;
            const int busy = allocated | excluded;
            int& expect = outcome[static_cast<std::size_t>((busy * 256 + mask) * 4 + want)];
            for (int rotation = 0; rotation < 8; ++rotation) {
              pool.vc_allocated(0, 0) = static_cast<std::uint8_t>(allocated);
              *pool.vc_rotation(0, 0) = rotation;
              VcAllocator a(pool, 0, 0, params, enforce);
              const VcId v =
                  a.allocate(static_cast<std::uint8_t>(mask), want_odd, ignore_parity);
              const int ok = v != kInvalidVc ? 1 : 0;
              if (expect < 0) expect = ok;
              ASSERT_EQ(ok, expect) << "allocated " << allocated << " mask " << mask
                                    << " want " << want << " rotation " << rotation;
              if (ok == 0) {
                ASSERT_EQ(pool.vc_allocated(0, 0), allocated);
                ASSERT_EQ(a.rotation(), rotation);
              } else {
                // A grant takes one free VC the mask names.
                ASSERT_NE((mask >> v) & 1, 0);
                ASSERT_EQ((busy >> v) & 1, 0);
                ASSERT_EQ(pool.vc_allocated(0, 0), allocated | (1 << v));
              }
            }
          }
        }
      }
    }
  }
}

// The same for dropping mode's allocate_exact(v): success depends only on
// whether v is allocated, and a failure changes nothing.
TEST(VcAllocator, AllocateExactOutcomeDependsOnlyOnAllocatedMask) {
  for (const bool exclusive : {false, true}) {
    RouterParams params = unit_params(8, 4);
    params.exclusive_scheduled_vc = exclusive;
    RouterStatePool pool(1, params);
    for (int allocated = 0; allocated < 256; ++allocated) {
      for (VcId v = 0; v < 8; ++v) {
        for (int rotation = 0; rotation < 8; ++rotation) {
          pool.vc_allocated(0, 0) = static_cast<std::uint8_t>(allocated);
          *pool.vc_rotation(0, 0) = rotation;
          VcAllocator a(pool, 0, 0, params, /*dateline_parity=*/false);
          const bool ok = a.allocate_exact(v);
          ASSERT_EQ(ok, ((allocated >> v) & 1) == 0) << "allocated " << allocated << " vc " << v;
          ASSERT_EQ(a.rotation(), rotation);
          ASSERT_EQ(pool.vc_allocated(0, 0), ok ? allocated | (1 << v) : allocated);
        }
      }
    }
  }
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

TEST(RouterStatePool, RingFifoWithCapacity) {
  RouterStatePool pool(1, unit_params(2, 2));
  const int* count = pool.buf_count_row(0, 0);
  EXPECT_EQ(count[0], 0);
  Flit f;
  f.packet = 1;
  pool.buf_push(0, 0, 0, f);
  f.packet = 2;
  pool.buf_push(0, 0, 0, f);
  EXPECT_EQ(count[0], pool.depth());
  EXPECT_EQ(pool.flit(pool.buf_pop(0, 0, 0)).packet, 1);
  EXPECT_EQ(pool.flit(pool.buf_pop(0, 0, 0)).packet, 2);
  EXPECT_EQ(count[0], 0);
}

TEST(RouterStatePool, PacketStateResets) {
  RouterStatePool pool(1, unit_params(2, 4));
  Flit head;
  head.type = FlitType::kHead;
  Flit tail;
  tail.type = FlitType::kTail;
  pool.buf_push(0, 0, 0, head);
  pool.buf_push(0, 0, 0, tail);
  EXPECT_EQ(pool.vc_state_row(0, 0)[0], VcState::kRouting);
  pool.set_route(0, 0, 0, topo::Port::kColNeg, 0xff, false);
  pool.grant(0, 0, 0, 3);
  EXPECT_EQ(pool.vc_state_row(0, 0)[0], VcState::kActive);
  EXPECT_EQ(pool.out_vc_row(0, 0)[0], 3);
  pool.flit_free(pool.buf_pop(0, 0, 0));
  EXPECT_EQ(pool.vc_state_row(0, 0)[0], VcState::kActive);
  // The tail leaving ends the packet: no route, no VC, no work.
  pool.flit_free(pool.buf_pop(0, 0, 0));
  EXPECT_EQ(pool.vc_state_row(0, 0)[0], VcState::kIdle);
  EXPECT_EQ(pool.out_vc_row(0, 0)[0], kInvalidVc);
  EXPECT_EQ(pool.out_port_row(0, 0)[0], topo::Port::kTile);
  EXPECT_EQ(pool.masks(0).occupied | pool.masks(0).ready | pool.masks(0).vc_wait, 0u);
}

}  // namespace
}  // namespace ocn::router
