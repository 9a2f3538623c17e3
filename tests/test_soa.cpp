// Router-state gates: the lockstep quick matrix, the decoded VC request
// (written with the route, read by every allocation attempt), the mask
// referee (every VC state byte and router mask recomputed from the rows
// after every step — the stale-flag pattern Channel::take() once had), the
// arena referee (every flit handle held once or free, none leaked), the
// quiescence audit, and arbiter rotation-pointer semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/packet_arena.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "router/arbiter.h"
#include "router/router.h"
#include "router/vc_allocator.h"
#include "sim/rng.h"
#include "traffic/replay.h"
#include "traffic/scheduled.h"

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

// --- lockstep and router state ---------------------------------------------

// run_lockstep compares the production network's state vector (NIC
// occupancy, buffers, credits, every VC grant, every rotation pointer, the
// per-port flit counts) with the reference model's after every tick, so
// each cell of the quick matrix checks every field every cycle.
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

// Check every VC the allocation stage would consider (occupied, routed, no
// VC granted): its front must be the decoded head, and the request rows
// must be what that head asks for. Returns the first mismatch, or "".
std::string check_decoded_requests(Network& net, std::int64_t& candidates) {
  const int vcs = net.config().router.vcs;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    router::Router& r = net.router_at(n);
    router::RouterStatePool& pool = r.pool();
    const int slot = r.pool_slot();
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<topo::Port>(p);
      if (!r.input(port).attached()) continue;
      const int* count = pool.buf_count_row(slot, p);
      const router::VcState* state = pool.vc_state_row(slot, p);
      const topo::Port* out_port = pool.out_port_row(slot, p);
      const std::uint8_t* mask = pool.alloc_mask_row(slot, p);
      const bool* want_odd = pool.alloc_want_odd_row(slot, p);
      for (VcId v = 0; v < vcs; ++v) {
        if (state[v] != router::VcState::kVcWait) continue;
        if (count[v] == 0) return "VcWait VC with an empty buffer";
        ++candidates;
        const router::Flit& front = pool.buf_front(slot, p, v);
        std::ostringstream where;
        where << "node " << n << " " << topo::port_name(port) << " vc " << v << ": ";
        if (!router::is_head(front.type)) return where.str() + "front is not a head";
        if (mask[v] != front.vc_mask) {
          where << "mask row " << int(mask[v]) << ", head " << int(front.vc_mask);
          return where.str();
        }
        if (want_odd[v] != r.effective_dateline(front, port, out_port[v])) {
          return where.str() + "want-odd row disagrees with the head";
        }
      }
    }
  }
  return "";
}

// Allocation reads the request decode wrote and never the head itself, so
// the rows must be current from the decode cycle on — also in the two-stage
// pipeline, where the first attempt comes a cycle after decode. Saturated
// paper baseline (parity on), all four classes, packets of 1-5 flits.
TEST(RouterState, DecodedRequestMatchesHeadEveryCycle) {
  for (const bool speculative : {true, false}) {
    Config config = Config::paper_baseline();
    config.router.speculative = speculative;
    Network net(config);
    const int nodes = net.num_nodes();
    Rng rng(11, 0xdec0de);
    std::int64_t candidates = 0;
    for (int c = 0; c < 400; ++c) {
      for (NodeId src = 0; src < nodes; ++src) {
        auto dst = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(nodes - 1)));
        if (dst >= src) ++dst;
        net.nic(src).inject(
            core::make_packet(dst, static_cast<int>(rng.next_below(4)),
                              1 + static_cast<int>(rng.next_below(5))),
            net.now());
      }
      net.step();
      const std::string err = check_decoded_requests(net, candidates);
      ASSERT_EQ(err, "") << "speculative=" << speculative << " cycle " << c;
    }
    // Saturation keeps many heads blocked on allocation.
    EXPECT_GT(candidates, 10000) << "speculative=" << speculative;
  }
}

// --- the mask referee --------------------------------------------------------

// What the referee compares across one step: every VC state byte, in
// (node, port, vc) order, and, in (node, port) order, every input's
// buffer reads and every output's link cycles used (sends, credit-only
// fillers and idle reserved slots).
struct StepSnapshot {
  std::vector<router::VcState> states;
  std::vector<std::int64_t> reads;
  std::vector<std::int64_t> link_cycles;
};

std::int64_t link_cycles(const router::OutputController& o) {
  return o.flits_sent() + o.credit_only_flits() + o.idle_reserved_cycles();
}

StepSnapshot snapshot(Network& net) {
  StepSnapshot out;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const router::Router& r = net.router_at(n);
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const router::VcState* state = r.pool().vc_state_row(r.pool_slot(), p);
      out.states.insert(out.states.end(), state, state + r.params().vcs);
      out.reads.push_back(r.input(static_cast<topo::Port>(p)).buffer_reads());
      out.link_cycles.push_back(link_cycles(r.output(static_cast<topo::Port>(p))));
    }
  }
  return out;
}

// Recompute every VC state byte and every RouterMasks word of every router
// from the pool rows (buf_count, out_vc, out_port, the stage handles,
// carry_count, resv_count) and return the first disagreement, or "". Also
// check the retry-on-change rule: a VcWait VC skipping its attempt (its
// output's allocated mask equals the one it last failed against) must
// really fail against that mask, re-tried on a scratch copy of the
// output's cells.
// The per-cycle bits are clear after a step, so they are checked by their
// effect against `before`, taken before the step: no input forwards two
// flits in one step (popped), no output uses its link twice (link used),
// and in the two-stage pipeline no VC goes from Idle or Routing to Active
// in one step (decoded).
std::string check_router_masks(Network& net, const StepSnapshot& before) {
  using router::VcState;
  const router::RouterParams& params = net.config().router;
  const int vcs = params.vcs;
  router::RouterStatePool scratch(1, params);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    router::Router& r = net.router_at(n);
    router::RouterStatePool& pool = r.pool();
    const int slot = r.pool_slot();
    const std::size_t base = static_cast<std::size_t>(n) * topo::kNumPorts *
                             static_cast<std::size_t>(vcs);
    router::RouterMasks want;
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const int* count = pool.buf_count_row(slot, p);
      const VcState* state = pool.vc_state_row(slot, p);
      const VcId* out_vc = pool.out_vc_row(slot, p);
      const topo::Port* out_port = pool.out_port_row(slot, p);
      std::uint16_t* seen = pool.alloc_seen_row(slot, p);
      for (VcId v = 0; v < vcs; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << router::mask_bit(p, v);
        const VcState st = state[v];
        const auto fail = [&](const char* what) {
          std::ostringstream where;
          where << "node " << n << " port " << p << " vc " << v << " state "
                << static_cast<int>(st) << ": " << what;
          return where.str();
        };
        // The state byte against the rows: granted iff Active, empty and
        // ungranted iff Idle, a head at the front while Routing or VcWait.
        if ((out_vc[v] != kInvalidVc) != (st == VcState::kActive)) {
          return fail("out_vc disagrees with the state byte");
        }
        if ((st == VcState::kIdle) != (count[v] == 0 && out_vc[v] == kInvalidVc)) {
          return fail("Idle disagrees with the buffer count");
        }
        if ((st == VcState::kRouting || st == VcState::kVcWait) &&
            !router::is_head(pool.buf_front(slot, p, v).type)) {
          return fail("front of an undecoded or waiting VC is not a head");
        }
        if ((st == VcState::kIdle || st == VcState::kRouting) &&
            out_port[v] != topo::Port::kTile) {
          return fail("stale out_port");
        }
        const VcState was = before.states[base + static_cast<std::size_t>(p * vcs + v)];
        if (!params.speculative && st == VcState::kActive &&
            (was == VcState::kIdle || was == VcState::kRouting)) {
          return fail("decoded and granted in one step of the two-stage pipeline");
        }
        if (count[v] > 0) want.occupied |= bit;
        if (st == VcState::kVcWait) want.vc_wait |= bit;
        if (st == VcState::kActive && count[v] > 0) want.ready |= bit;
        if (st != VcState::kVcWait || seen[v] == router::RouterStatePool::kAllocUntried) {
          continue;
        }
        const int out = static_cast<int>(out_port[v]);
        if (seen[v] != pool.vc_allocated(slot, out)) continue;  // retries next step
        scratch.vc_allocated(0, 0) = pool.vc_allocated(slot, out);
        *scratch.vc_rotation(0, 0) = *pool.vc_rotation(slot, out);
        router::VcAllocator trial(scratch, 0, 0, params, net.config().dateline_parity());
        const bool granted =
            params.dropping()
                ? trial.allocate_exact(v)
                : trial.allocate(pool.alloc_mask_row(slot, p)[v],
                                 pool.alloc_want_odd_row(slot, p)[v],
                                 out_port[v] == topo::Port::kTile) != kInvalidVc;
        if (granted) return fail("skipped an allocation that would succeed");
      }
      const auto np = static_cast<std::size_t>(n * topo::kNumPorts + p);
      if (r.input(static_cast<topo::Port>(p)).buffer_reads() - before.reads[np] > 1) {
        return "node " + std::to_string(n) + " port " + std::to_string(p) +
               ": an input forwarded two flits in one step";
      }
      if (link_cycles(r.output(static_cast<topo::Port>(p))) - before.link_cycles[np] > 1) {
        return "node " + std::to_string(n) + " port " + std::to_string(p) +
               ": an output used its link twice in one step";
      }
      const router::FlitRef* staged = pool.stage_row(slot, p);
      for (int i = 0; i < topo::kNumPorts; ++i) {
        if (staged[i] != router::kNoFlit) {
          want.stage |= std::uint64_t{1} << router::mask_bit(p, i);
        }
      }
      if (pool.carry_count_row(slot)[p] > 0) want.carry |= static_cast<std::uint8_t>(1u << p);
      if (pool.resv_count(slot, p) > 0) want.resv |= static_cast<std::uint8_t>(1u << p);
    }
    const router::RouterMasks& got = pool.masks(slot);
    const std::pair<const char*, bool> words[] = {
        {"occupied", got.occupied == want.occupied},
        {"vc_wait", got.vc_wait == want.vc_wait},
        {"ready", got.ready == want.ready},
        {"stage", got.stage == want.stage},
        {"carry", got.carry == want.carry},
        {"resv", got.resv == want.resv},
        // The per-cycle bits are cleared at the end of every step.
        {"decoded", got.decoded == 0},
        {"popped", got.popped == 0},
        {"link_used", got.link_used == 0},
    };
    for (const auto& [name, ok] : words) {
      if (!ok) return "node " + std::to_string(n) + ": mask " + name + " disagrees with the rows";
    }
    const bool idle = (want.occupied | want.stage | want.carry | want.resv) == 0;
    if (r.idle_internal() != idle) {
      return "node " + std::to_string(n) + ": idle_internal disagrees with the rows";
    }
  }
  return "";
}

// Offer `rate` packets per node per cycle of 1..max_flits flits on the
// dynamic classes for `cycles` cycles, then step on for up to `drain`
// cycles until every router has been idle for 20. `step_and_check` makes
// each step and returns the referee's first disagreement, or "". Returns
// the first disagreement (with its cycle), or "".
std::string run_referee(Network& net, double rate, int max_flits, Cycle cycles, Cycle drain,
                        std::uint64_t seed,
                        const std::function<std::string()>& step_and_check,
                        std::int64_t* waiting = nullptr) {
  const std::vector<int> classes = core::dynamic_classes(net.config().router);
  const int nodes = net.num_nodes();
  Rng rng(seed, 0x3a5c);
  int idle_for = 0;
  for (Cycle c = 0; c < cycles + drain && idle_for < 20; ++c) {
    if (c < cycles) {
      for (NodeId src = 0; src < nodes; ++src) {
        if (rng.next_double() >= rate) continue;
        auto dst = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(nodes - 1)));
        if (dst >= src) ++dst;
        const int cls = classes[rng.next_below(classes.size())];
        net.nic(src).inject(
            core::make_packet(dst, cls,
                              1 + static_cast<int>(rng.next_below(
                                      static_cast<std::uint64_t>(max_flits)))),
            net.now());
      }
    }
    const std::string err = step_and_check();
    if (!err.empty()) return "cycle " + std::to_string(c) + ": " + err;
    bool idle = c >= cycles;
    for (NodeId n = 0; n < nodes && idle; ++n) idle = net.router_at(n).idle_internal();
    idle_for = idle ? idle_for + 1 : 0;
    if (waiting != nullptr) {
      for (NodeId n = 0; n < nodes; ++n) {
        const router::Router& r = net.router_at(n);
        *waiting += std::popcount(r.pool().masks(r.pool_slot()).vc_wait);
      }
    }
  }
  return "";
}

// The mask referee over run_referee: check_router_masks after every step.
std::string run_mask_referee(Network& net, double rate, int max_flits, Cycle cycles,
                             Cycle drain, std::uint64_t seed,
                             std::int64_t* waiting = nullptr) {
  return run_referee(
      net, rate, max_flits, cycles, drain, seed,
      [&net] {
        const StepSnapshot before = snapshot(net);
        net.step();
        return check_router_masks(net, before);
      },
      waiting);
}

// Every quick-matrix cell, the link-kill ones with their kill mid-load,
// at a load past saturation with packets of 1-5 flits.
TEST(RouterMasks, MatchRowsAfterEveryStepOverTheQuickMatrix) {
  for (const auto& cell : ref::quick_matrix()) {
    Network net(cell.config);
    if (cell.scenario.active()) {
      // Run up to the kill, then let the rest of the load reroute.
      const std::string before =
          run_mask_referee(net, 0.2, 5, cell.scenario.kill_cycle, /*drain=*/0, 7);
      ASSERT_EQ(before, "") << cell.name;
      chaos::kill_link(net, cell.scenario.kill_node, cell.scenario.kill_port);
    }
    EXPECT_EQ(run_mask_referee(net, 0.2, 5, 300, 3000, 7), "") << cell.name;
  }
}

// Past saturation on the simbench 16x16 shape: heads block on allocation
// for thousands of cycles, so retry-on-change skips most attempts.
TEST(RouterMasks, MatchRowsPastSaturationOn16x16) {
  Config config = Config::paper_baseline();
  config.radix = 16;
  Network net(config);
  std::int64_t waiting = 0;
  EXPECT_EQ(run_mask_referee(net, 0.9 / 4, 4, 500, 300, 3, &waiting), "");
  EXPECT_GT(waiting, 100000);
}

// Reservations written by register packets (the resv mask set and cleared
// mid-run), a four-slot scheduled flow riding the bypass path, and dynamic
// load heavy enough that a bypass and a switch traversal often want the
// same input in one cycle.
TEST(RouterMasks, MatchRowsWithRegisterProgrammedScheduledFlow) {
  Config config = Config::paper_baseline();
  config.router.exclusive_scheduled_vc = true;
  config.router.reservation_frame = 32;
  Network net(config);
  const auto phase = net.reserve_flow(0, 5, 7);
  ASSERT_TRUE(phase.has_value());
  net.release_flow(0, 5, *phase);
  net.program_flow_registers(/*config_master=*/15, 0, 5, *phase);
  traffic::ScheduledFlow flow(net, 2, 13, 3, /*slots_per_frame=*/4);
  flow.start();
  EXPECT_EQ(run_mask_referee(net, 0.25, 2, 400, 400, 5), "");
  EXPECT_GT(net.register_writes_applied(), 0);
  EXPECT_GT(flow.received(), 0);
  net.clear_flow_registers(/*config_master=*/15, 0, 5, *phase);
  EXPECT_EQ(run_mask_referee(net, 0.25, 2, 400, 400, 6), "");
  EXPECT_GT(net.stats().bypass_flits, 0);
}

// --- the arena referee -------------------------------------------------------

// Check every pool's flit arena against the handles its routers' input
// rings and stage registers and its NICs' eject queues hold: each held
// handle is in range and held once, none is on the free list (which itself
// names each slot once), held plus free is the arena's size, and the size
// is within the reserved capacity (in VC flow control). With `drained`, no
// handle may be held at all. Returns the first disagreement, or "".
std::string check_flit_arenas(Network& net, bool drained = false) {
  std::vector<std::pair<const router::RouterStatePool*, std::vector<router::FlitRef>>> held;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const router::Router& r = net.router_at(n);
    const router::RouterStatePool& pool = r.pool();
    const int slot = r.pool_slot();
    auto it = std::find_if(held.begin(), held.end(),
                           [&pool](const auto& e) { return e.first == &pool; });
    if (it == held.end()) it = held.insert(held.end(), {&pool, {}});
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const int* count = pool.buf_count_row(slot, p);
      for (VcId v = 0; v < pool.vcs(); ++v) {
        for (int k = 0; k < count[v]; ++k) it->second.push_back(pool.buf_ref(slot, p, v, k));
      }
      const router::FlitRef* staged = pool.stage_row(slot, p);
      for (int i = 0; i < topo::kNumPorts; ++i) {
        if (staged[i] != router::kNoFlit) it->second.push_back(staged[i]);
      }
    }
    // The flits the slot's NIC has parked on its eject queues.
    for (VcId v = 0; v < pool.vcs(); ++v) {
      std::size_t steps = 0;
      for (router::FlitRef ref = pool.nic_eject(slot, v).head; ref != router::kNoFlit;
           ref = pool.flit_next(ref)) {
        if (ref >= pool.arena_size()) {
          return "eject handle " + std::to_string(ref) + " out of range";
        }
        if (++steps > pool.arena_size()) return "nic " + std::to_string(n) + " eject queue loops";
        it->second.push_back(ref);
      }
    }
  }
  for (const auto& [pool, refs] : held) {
    const std::size_t size = pool->arena_size();
    // Only a dropping-mode NIC with a stalled client parks flits no credit
    // bounds, so only there may the arena run past its reserve.
    if (size > pool->arena_capacity() && !net.config().router.dropping()) {
      return "arena grew past its capacity";
    }
    if (drained && !refs.empty()) {
      return std::to_string(refs.size()) + " handles still held after drain";
    }
    enum : char { kUnseen, kHeld, kFree };
    std::vector<char> seen(size, kUnseen);
    for (const router::FlitRef ref : refs) {
      if (ref >= size) return "held handle " + std::to_string(ref) + " out of range";
      if (seen[ref] != kUnseen) return "handle " + std::to_string(ref) + " held twice";
      seen[ref] = kHeld;
    }
    for (const router::FlitRef ref : pool->free_list()) {
      if (ref >= size) return "free handle " + std::to_string(ref) + " out of range";
      if (seen[ref] == kHeld) return "held handle " + std::to_string(ref) + " is on the free list";
      if (seen[ref] == kFree) return "handle " + std::to_string(ref) + " freed twice";
      seen[ref] = kFree;
    }
    if (refs.size() + pool->free_list().size() != size) {
      return "held " + std::to_string(refs.size()) + " + free " +
             std::to_string(pool->free_list().size()) + " != arena size " +
             std::to_string(size) + " (a slot leaked)";
    }
  }
  return "";
}

// The arena referee over run_referee: check_flit_arenas after every step.
std::string run_arena_referee(Network& net, double rate, int max_flits, Cycle cycles,
                              Cycle drain, std::uint64_t seed) {
  return run_referee(net, rate, max_flits, cycles, drain, seed, [&net] {
    net.step();
    return check_flit_arenas(net);
  });
}

// Drain what is left and require every arena slot back on its free list.
std::string drain_and_check_arenas(Network& net) {
  if (!net.drain(5000)) return "network did not drain";
  return check_flit_arenas(net, /*drained=*/true);
}

// Every quick-matrix cell (dropping, piggyback credit-only fillers, the
// link-kill reroutes), past saturation with packets of 1-5 flits.
TEST(FlitArena, HandlesAccountedAfterEveryStepOverTheQuickMatrix) {
  for (const auto& cell : ref::quick_matrix()) {
    Network net(cell.config);
    if (cell.scenario.active()) {
      const std::string before =
          run_arena_referee(net, 0.2, 5, cell.scenario.kill_cycle, /*drain=*/0, 7);
      ASSERT_EQ(before, "") << cell.name;
      chaos::kill_link(net, cell.scenario.kill_node, cell.scenario.kill_port);
    }
    EXPECT_EQ(run_arena_referee(net, 0.2, 5, 300, 3000, 7), "") << cell.name;
    EXPECT_EQ(drain_and_check_arenas(net), "") << cell.name;
    EXPECT_GT(net.router_at(0).pool().arena_size(), 0u) << cell.name;
  }
}

// Past saturation on the simbench 16x16 shape, 4 shards (one arena each):
// rings and stage registers stay full for thousands of cycles.
TEST(FlitArena, HandlesAccountedPastSaturationOn16x16) {
  Config config = Config::paper_baseline();
  config.radix = 16;
  Network net(config, /*shards=*/4);
  ASSERT_EQ(net.shards(), 4);
  EXPECT_NE(&net.router_at(0).pool(), &net.router_at(config.radix * config.radix - 1).pool());
  EXPECT_EQ(run_arena_referee(net, 0.9 / 4, 4, 500, 300, 3), "");
  EXPECT_EQ(drain_and_check_arenas(net), "");
}

// A register-programmed scheduled flow: its flits leave by the bypass
// path (pop straight to the link), dynamic flits by the stage registers.
TEST(FlitArena, HandlesAccountedWithRegisterProgrammedScheduledFlow) {
  Config config = Config::paper_baseline();
  config.router.exclusive_scheduled_vc = true;
  config.router.reservation_frame = 32;
  Network net(config);
  const auto phase = net.reserve_flow(0, 5, 7);
  ASSERT_TRUE(phase.has_value());
  net.release_flow(0, 5, *phase);
  net.program_flow_registers(/*config_master=*/15, 0, 5, *phase);
  traffic::ScheduledFlow flow(net, 2, 13, 3, /*slots_per_frame=*/4);
  flow.start();
  EXPECT_EQ(run_arena_referee(net, 0.25, 2, 400, 400, 5), "");
  flow.stop();
  EXPECT_EQ(drain_and_check_arenas(net), "");
  EXPECT_GT(flow.received(), 0);
  EXPECT_GT(net.stats().bypass_flits, 0);
}

// --- the NIC-row referee ------------------------------------------------------

// Recount every NIC's counters from its handle structures and check each
// shard's packet arena: the unsent flits on the injection queues equal
// queued_flits(), the dynamic packets per class the class counts, the
// parked flits on the eject queues pending_eject_flits() (and the ejecting
// mask their non-empty VCs), the carry ring stays within vcs x depth (empty
// without piggybacking), and a reassembly slot names a record holding at
// least the head's payload. Every handle a queue or reassembly slot names
// is in range, held once and not free, held + free is the arena's size,
// and with `drained` nothing is held. Every walk is bounded by the arena
// size, so a queue linked into a loop is reported, not followed. Returns
// the first disagreement, or "".
std::string check_nic_rows(Network& net, bool drained = false) {
  std::vector<std::pair<const core::PacketArena*, std::vector<router::PacketRef>>> held;
  const int vcs = net.config().router.vcs;
  const int carry_cap = vcs * net.config().router.buffer_depth;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const core::Nic& nic = net.nic(n);
    const router::RouterStatePool& pool = nic.pool();
    const int slot = nic.pool_slot();
    const core::PacketArena& arena = nic.packet_arena();
    const router::NicRow& row = pool.nic(slot);
    auto it = std::find_if(held.begin(), held.end(),
                           [&arena](const auto& e) { return e.first == &arena; });
    if (it == held.end()) it = held.insert(held.end(), {&arena, {}});
    const std::string where = "nic " + std::to_string(n) + ": ";
    // Walk one packet queue, appending its handles; "" or the fault.
    const auto walk = [&](const router::HandleQueue& q, const auto& visit) -> std::string {
      router::PacketRef last = router::kNoPacket;
      std::size_t steps = 0;
      for (router::PacketRef ref = q.head; ref != router::kNoPacket; ref = arena[ref].next) {
        if (ref >= arena.size()) return "packet handle " + std::to_string(ref) + " out of range";
        if (++steps > arena.size()) return "packet queue loops";
        it->second.push_back(ref);
        visit(arena[ref]);
        last = ref;
      }
      if (q.tail != last) return "queue tail " + std::to_string(q.tail) + " is not its last record";
      return "";
    };

    int queued = 0;
    std::array<int, 4> per_class{};
    for (VcId v = 0; v < vcs; ++v) {
      const std::string err = walk(pool.nic_inject(slot)[v], [&](const core::PacketRecord& r) {
        queued += r.packet.num_flits() - r.next_flit;
        if (r.send_at < 0) ++per_class[static_cast<std::size_t>(r.packet.service_class)];
      });
      if (!err.empty()) return where + "injection VC " + std::to_string(v) + ": " + err;
    }
    if (queued != nic.queued_flits()) {
      return where + "injection queues hold " + std::to_string(queued) +
             " unsent flits, queued_flits() says " + std::to_string(nic.queued_flits());
    }
    if (per_class != row.class_packets) return where + "per-class packet counts disagree";
    const std::string loop_err = walk(row.loopback, [](const core::PacketRecord&) {});
    if (!loop_err.empty()) return where + "loopback: " + loop_err;

    int parked = 0;
    std::uint8_t ejecting = 0;
    for (VcId v = 0; v < vcs; ++v) {
      const router::HandleQueue& q = pool.nic_eject(slot, v);
      router::FlitRef last = router::kNoFlit;
      for (router::FlitRef ref = q.head; ref != router::kNoFlit; ref = pool.flit_next(ref)) {
        if (ref >= pool.arena_size() || parked > static_cast<int>(pool.arena_size())) {
          return where + "eject queue " + std::to_string(v) + " is broken";
        }
        ++parked;
        last = ref;
      }
      if (q.tail != last) return where + "eject queue " + std::to_string(v) + " tail disagrees";
      if (!q.empty()) ejecting |= static_cast<std::uint8_t>(1u << v);
    }
    if (parked != nic.pending_eject_flits()) {
      return where + "eject queues hold " + std::to_string(parked) +
             " flits, pending_eject_flits() says " + std::to_string(nic.pending_eject_flits());
    }
    if (ejecting != row.ejecting) return where + "ejecting mask disagrees with its queues";

    if (nic.carry_backlog() < 0 || nic.carry_backlog() > carry_cap ||
        (!net.config().router.piggyback_credits && nic.carry_backlog() != 0)) {
      return where + "carry backlog " + std::to_string(nic.carry_backlog()) + " out of bounds";
    }
    for (VcId v = 0; v < vcs; ++v) {
      const router::PacketRef ref = pool.nic_assembling(slot)[v];
      if (ref == router::kNoPacket) continue;
      if (ref >= arena.size()) return where + "reassembly handle out of range";
      if (arena[ref].packet.flit_payloads.empty()) {
        return where + "VC " + std::to_string(v) + " reassembles a packet with no head";
      }
      it->second.push_back(ref);
    }
    if (drained && !nic.idle_internal()) return where + "not idle after drain";
  }
  for (const auto& [arena, refs] : held) {
    const std::size_t size = arena->size();
    if (drained && !refs.empty()) {
      return std::to_string(refs.size()) + " packet handles still held after drain";
    }
    enum : char { kUnseen, kHeld, kFree };
    std::vector<char> seen(size, kUnseen);
    for (const router::PacketRef ref : refs) {
      if (seen[ref] != kUnseen) return "packet handle " + std::to_string(ref) + " held twice";
      seen[ref] = kHeld;
    }
    for (const router::PacketRef ref : arena->free_list()) {
      if (ref >= size) return "free packet handle " + std::to_string(ref) + " out of range";
      if (seen[ref] == kHeld) return "held packet handle " + std::to_string(ref) + " is free";
      if (seen[ref] == kFree) return "packet handle " + std::to_string(ref) + " freed twice";
      seen[ref] = kFree;
    }
    if (refs.size() + arena->free_list().size() != size) {
      return "packet arena: held " + std::to_string(refs.size()) + " + free " +
             std::to_string(arena->free_list().size()) + " != size " + std::to_string(size) +
             " (a record leaked)";
    }
  }
  return "";
}

// Both arena referees after a step: the NIC rows and packet arena, then
// the flit arena (which counts the NICs' parked flits).
std::string check_nic_and_flit_arenas(Network& net, bool drained = false) {
  std::string err = check_nic_rows(net, drained);
  if (err.empty()) err = check_flit_arenas(net, drained);
  return err;
}

std::string run_nic_referee(Network& net, double rate, int max_flits, Cycle cycles, Cycle drain,
                            std::uint64_t seed) {
  return run_referee(net, rate, max_flits, cycles, drain, seed, [&net] {
    net.step();
    return check_nic_and_flit_arenas(net);
  });
}

std::string drain_and_check_nics(Network& net) {
  if (!net.drain(5000)) return "network did not drain";
  // drain() returns at delivery parity; let the last credits settle.
  for (int c = 0; c < 50; ++c) net.step();
  return check_nic_and_flit_arenas(net, /*drained=*/true);
}

// Every quick-matrix cell (dropping, piggyback carry rings and credit-only
// fillers, the link-kill reroutes), past saturation with 1-5 flit packets.
TEST(NicRows, CountersMatchHandlesAfterEveryStepOverTheQuickMatrix) {
  for (const auto& cell : ref::quick_matrix()) {
    Network net(cell.config);
    if (cell.scenario.active()) {
      const std::string before =
          run_nic_referee(net, 0.2, 5, cell.scenario.kill_cycle, /*drain=*/0, 7);
      ASSERT_EQ(before, "") << cell.name;
      chaos::kill_link(net, cell.scenario.kill_node, cell.scenario.kill_port);
    }
    EXPECT_EQ(run_nic_referee(net, 0.2, 5, 300, 3000, 7), "") << cell.name;
    EXPECT_EQ(drain_and_check_nics(net), "") << cell.name;
    EXPECT_GT(net.nic(0).packet_arena().size(), 0u) << cell.name;
  }
}

// The simbench 16x16 shape past saturation: injection queues stay at the
// class cap for thousands of cycles. One shard, then four (an arena each).
TEST(NicRows, CountersMatchHandlesPastSaturationOn16x16) {
  Config config = Config::paper_baseline();
  config.radix = 16;
  for (const int shards : {1, 4}) {
    Network net(config, shards);
    ASSERT_EQ(net.shards(), shards);
    EXPECT_EQ(run_nic_referee(net, 0.9 / 4, 4, 500, 300, 3), "") << shards << " shards";
    EXPECT_EQ(drain_and_check_nics(net), "") << shards << " shards";
  }
}

// Scheduled packets (which bypass the class cap and wait for their phase
// on the scheduled VC's queue), register packets and their read-back
// replies, under dynamic load.
TEST(NicRows, CountersMatchHandlesWithRegisterProgrammedScheduledFlow) {
  Config config = Config::paper_baseline();
  config.router.exclusive_scheduled_vc = true;
  config.router.reservation_frame = 32;
  Network net(config);
  const auto phase = net.reserve_flow(0, 5, 7);
  ASSERT_TRUE(phase.has_value());
  net.release_flow(0, 5, *phase);
  net.program_flow_registers(/*config_master=*/15, 0, 5, *phase);
  traffic::ScheduledFlow flow(net, 2, 13, 3, /*slots_per_frame=*/4);
  flow.start();
  EXPECT_EQ(run_nic_referee(net, 0.25, 2, 400, 400, 5), "");
  flow.stop();
  EXPECT_EQ(drain_and_check_nics(net), "");
  EXPECT_GT(flow.received(), 0);
}

// Chaos stall_nic windows on several NICs under load, in VC flow control
// (the credit loop backs the router up behind the stalled NIC) and in
// dropping mode (no credit loop at the tile port, so a stalled NIC parks
// whatever arrives). Self-addressed packets add loopback records.
TEST(NicRows, CountersMatchHandlesThroughNicStalls) {
  for (const bool dropping : {false, true}) {
    SCOPED_TRACE(dropping ? "dropping" : "vc flow control");
    Config config = Config::paper_baseline();
    if (dropping) config.router.flow_control = router::FlowControl::kDropping;
    Network net(config);
    chaos::ChaosEngine engine(net);
    for (const NodeId node : {2, 5, 9}) {
      chaos::Event e;
      e.at = 20 + 10 * node;
      e.kind = chaos::EventKind::kNicStall;
      e.node = node;
      e.duration = 150;
      engine.schedule(e);
    }
    for (NodeId n = 0; n < net.num_nodes(); n += 3) {
      ASSERT_TRUE(net.nic(n).inject(core::make_packet(n, 0, 2), net.now()));
    }
    EXPECT_EQ(run_nic_referee(net, 0.2, 5, 400, 3000, 11), "");
    EXPECT_EQ(drain_and_check_nics(net), "");
    EXPECT_GT(net.nic(5).packets_delivered(), 0);
  }
}

// Dropping mode past the flit arena's reserve: a stalled NIC that every
// other node sends to parks more flits than its pool's reserve holds
// (one router per shard pool here), so the arena hands out overflow
// slots. Every flit is still accounted for, and all are delivered once
// the client drains.
TEST(NicRows, DroppingStallParksPastTheArenaReserve) {
  Config config = Config::paper_baseline();
  config.topology = core::TopologyKind::kMesh;
  config.radix = 2;
  config.router.flow_control = router::FlowControl::kDropping;
  Network net(config, /*shards=*/2);
  core::Nic& sink = net.nic(3);
  const router::RouterStatePool& pool = sink.pool();
  for (VcId v = 0; v < config.router.vcs; ++v) sink.set_ejection_stall(v, true);
  std::int64_t sent = 0;
  for (Cycle c = 0; c < 3000; ++c) {
    for (NodeId src = 0; src < 3; ++src) {
      if (net.nic(src).inject(core::make_packet(3, 0, 1), net.now())) ++sent;
    }
    net.step();
    const std::string err = check_nic_and_flit_arenas(net);
    ASSERT_EQ(err, "") << "cycle " << c;
  }
  EXPECT_GT(pool.arena_size(), pool.arena_capacity());
  EXPECT_GT(sink.pending_eject_flits(), static_cast<int>(pool.arena_capacity()) / 2);
  for (VcId v = 0; v < config.router.vcs; ++v) sink.set_ejection_stall(v, false);
  EXPECT_EQ(drain_and_check_nics(net), "");
  std::int64_t dropped = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    dropped += net.router_at(n).packets_dropped();
  }
  EXPECT_EQ(sink.packets_delivered() + dropped, sent);
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
// occupancy: the NIC with ejected flits parked behind a
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
  EXPECT_FALSE(component_idle(dst));

  // Mid-run, un-stall: the parked flits drain one per cycle; the predicate
  // must flip exactly when the occupancy reaches zero.
  dst.set_ejection_stall(/*vc=*/0, false);
  for (int c = 0; c < 200 && dst.packets_delivered() == 0; ++c) {
    if (dst.pending_eject_flits() > 0) {
      EXPECT_FALSE(component_idle(dst));
    }
    net.step();
  }
  EXPECT_EQ(dst.packets_delivered(), 1);
  ASSERT_TRUE(net.drain(500));
  EXPECT_TRUE(component_idle(dst));
  EXPECT_EQ(dst.pending_eject_flits(), 0);
  EXPECT_EQ(dst.queued_flits(), 0);
}

// The injection side of the same audit: queued flits keep the source NIC
// and then the routers on the path active; after the wormhole passes, each
// router must recompute back to idle.
TEST(Quiescence, RoutersAlongThePathFlipAndRecover) {
  Network net(Config::paper_baseline());
  ASSERT_TRUE(net.nic(0).inject(
      core::make_packet(/*dst=*/3, /*service_class=*/0, /*num_flits=*/6),
      net.now()));
  EXPECT_EQ(net.nic(0).queued_flits(), 6);
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
  for (std::size_t s = 0; s < table.size(); ++s) {
    EXPECT_EQ(arb.arbitrate(table[s].request_mask), table[s].want_grant) << "step " << s;
    EXPECT_EQ(arb.pointer(), table[s].want_pointer) << "step " << s;
  }
}

TEST(ArbiterRotation, PriorityFlatPathMatchesFullPathOnEqualPriorities) {
  constexpr int kInputs = 5;  // the switch/link arbiter width (ports)
  const std::vector<std::uint8_t> masks = {0b00000, 0b01010, 0b00000, 0b11111,
                                           0b00100, 0b00000, 0b10001, 0b01110};
  router::PriorityArbiter full(kInputs);
  router::PriorityArbiter flat(kInputs);

  const int prio[kInputs] = {0, 0, 0, 0, 0};
  for (std::size_t s = 0; s < masks.size(); ++s) {
    // arbitrate_flat (priority_arbitration disabled) must be exactly the
    // priority path with a flat priority vector, idle ticks included.
    EXPECT_EQ(flat.arbitrate_flat(masks[s]), full.arbitrate(masks[s], prio))
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
      const std::uint32_t all = 0b1111;
      for (int i = 0; i < spin; ++i) {
        a.arbitrate(all);
        b.arbitrate(all);
      }
      EXPECT_EQ(b.arbitrate(0), -1);
      EXPECT_EQ(a.arbitrate(mask), b.arbitrate(mask))
          << "mask " << int(mask) << " spin " << spin;
    }
  }
}

}  // namespace
}  // namespace ocn
