// Shard determinism: the kernel's contract is bit-identical execution for
// every shard count. The kernel-only tests at the top drive a 2-shard Kernel
// directly, without a Network: shard components step before the serial
// tail, step counts match one shard, boundary channels advance every cycle
// and the one skip predicate holds for width-0 rows. The matrix below
// replays the same recorded trace at shards 1, 2, 4 and the radix (one row
// per shard) and demands the identical delivery sequence (order AND
// cycles), identical per-link flit event stream, and identical final
// counters — the same golden-replay bar tests/test_replay.cpp sets for
// serialization round-trips. Registered under the `sweep` ctest label so
// the tsan preset races the shard workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/trace.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "one_link.h"
#include "sim/kernel.h"
#include "traffic/generator.h"
#include "traffic/replay.h"
#include "traffic/scheduled.h"

namespace ocn {
namespace {

using testkit::OneLink;

using core::Config;
using core::Network;
using traffic::parse_trace;
using traffic::TraceReplay;

// --- The kernel's shard lists, without a Network ---------------------------

// One node of a four-relay ring: forwards each token it receives (until the
// token has made kMaxHops hops) and injects a fresh token every `period`
// cycles. Arrivals wake it through a one-byte wake row. A relay with a
// period waits on time, which no arrival or mark_due() announces, so it
// keeps answering "not idle" (the Clockable::idle_internal contract).
struct Relay final : Clockable {
  static constexpr int kMaxHops = 3;
  OneLink<int>* in = nullptr;
  OneLink<int>* out = nullptr;
  std::atomic<std::uint8_t> wake[1] = {};
  int period = 0;  // 0 = never injects
  int steps = 0;
  int due = 0;  // steps on a multiple of `period`
  int injections = 0;
  Cycle last_step = -1;

  void step(Cycle now) override {
    ++steps;
    last_step = now;
    if (wake[0].load(std::memory_order_relaxed) != 0) {
      wake[0].store(0, std::memory_order_relaxed);
      if (auto hops = in->take(); hops && *hops < kMaxHops) out->send(*hops + 1);
    }
    if (period > 0 && now % period == 0) {
      ++due;
      // A token forwarded this cycle holds the link: that injection is lost.
      if (!out->send_pending()) {
        out->send(0);
        ++injections;
      }
    }
  }
  bool idle_internal() const override { return period == 0; }
};

// A serial-tail component stepped every cycle: counts the relays that have
// already stepped in the current cycle when the tail runs.
struct TailProbe final : Clockable {
  const std::vector<Relay>* relays = nullptr;
  std::vector<int> relays_stepped_before;  // per cycle
  void step(Cycle now) override {
    int n = 0;
    for (const Relay& r : *relays) n += r.last_step == now ? 1 : 0;
    relays_stepped_before.push_back(n);
  }
};

struct RingRun {
  std::vector<int> relay_steps;
  std::vector<int> relay_due;
  std::vector<int> relay_injections;
  std::vector<int> relays_stepped_before_tail;
  std::vector<int> last_tick_stepped;
  std::vector<std::int64_t> steps_per_cycle;  // kernel.component_steps deltas
};

// Relays 0,1 live in shard 0 and relays 2,3 in shard `shards - 1`; the
// channels 1->2 and 3->0 cross shards when shards == 2 and are filed as
// boundary channels under their receiver's shard.
RingRun run_ring(int shards, Cycle cycles) {
  Kernel k(shards);
  obs::CounterRegistry registry;
  k.attach_metrics(&registry);
  std::vector<Relay> relays(4);
  std::vector<std::unique_ptr<OneLink<int>>> links;
  const int periods[4] = {5, 0, 7, 0};
  const auto shard_of = [shards](int relay) { return relay < 2 ? 0 : shards - 1; };
  for (int i = 0; i < 4; ++i) {
    Relay& r = relays[static_cast<std::size_t>(i)];
    r.period = periods[i];
    k.add_to_shard(shard_of(i), &r, r.wake, 1);
  }
  // Link i runs relay i -> relay i+1, a row of a store on its receiver's
  // shard: interior when both relays share the shard, else boundary.
  for (int i = 0; i < 4; ++i) {
    const int receiver = (i + 1) % 4;
    Relay* to = &relays[static_cast<std::size_t>(receiver)];
    const bool boundary = shard_of(i) != shard_of(receiver);
    links.push_back(std::make_unique<OneLink<int>>(1, "", &to->wake[0], to, boundary));
    links.back()->follow(k);
    k.add_to_shard(shard_of(receiver), &links.back()->store());
  }
  for (int i = 0; i < 4; ++i) {
    relays[static_cast<std::size_t>(i)].out = links[static_cast<std::size_t>(i)].get();
    relays[static_cast<std::size_t>(i)].in = links[static_cast<std::size_t>((i + 3) % 4)].get();
  }
  TailProbe probe;
  probe.relays = &relays;
  k.add(&probe);

  RingRun out;
  const obs::Counter& steps = registry.counter("kernel.component_steps");
  for (Cycle c = 0; c < cycles; ++c) {
    const std::int64_t before = steps.value();
    k.tick();
    EXPECT_TRUE(k.due_but_unlisted().empty()) << "cycle " << c;
    out.last_tick_stepped.push_back(k.last_tick_stepped());
    out.steps_per_cycle.push_back(steps.value() - before);
  }
  for (const Relay& r : relays) {
    out.relay_steps.push_back(r.steps);
    out.relay_due.push_back(r.due);
    out.relay_injections.push_back(r.injections);
  }
  out.relays_stepped_before_tail = probe.relays_stepped_before;
  return out;
}

TEST(KernelShards, ShardComponentsStepBeforeTheTailWithOneShardCounts) {
  const RingRun one = run_ring(1, 60);
  const RingRun two = run_ring(2, 60);
  EXPECT_EQ(two.relay_steps, one.relay_steps);
  // Every relay step of a cycle has happened when the tail steps: the tail
  // sees all of them (last_tick_stepped counts them plus the probe).
  for (std::size_t c = 0; c < two.last_tick_stepped.size(); ++c) {
    EXPECT_EQ(two.relays_stepped_before_tail[c], two.last_tick_stepped[c] - 1)
        << "cycle " << c;
  }
  EXPECT_EQ(two.relays_stepped_before_tail, one.relays_stepped_before_tail);
  // The ring is idle on some cycles, so the skip predicate is exercised.
  EXPECT_LT(two.relay_steps[1], 60);
  // A relay with a period steps on every injection cycle: relay 0 on the
  // 12 multiples of 5 below 60, relay 2 on the 9 multiples of 7. A forward
  // in the same cycle takes the link on one of relay 0's and two of relay
  // 2's.
  for (const RingRun* run : {&one, &two}) {
    EXPECT_EQ(run->relay_due, (std::vector<int>{12, 0, 9, 0}));
    EXPECT_EQ(run->relay_injections, (std::vector<int>{11, 0, 7, 0}));
  }
}

TEST(KernelShards, LastTickSteppedSumsShardsAndTail) {
  const RingRun two = run_ring(2, 60);
  int relay_steps = 0;
  for (const int s : two.relay_steps) relay_steps += s;
  int total = 0;
  for (std::size_t c = 0; c < two.last_tick_stepped.size(); ++c) {
    EXPECT_EQ(two.last_tick_stepped[c], two.steps_per_cycle[c]) << "cycle " << c;
    total += two.last_tick_stepped[c];
  }
  EXPECT_EQ(total, relay_steps + 60);  // the probe steps every cycle
  EXPECT_EQ(two.last_tick_stepped, run_ring(1, 60).last_tick_stepped);
}

TEST(KernelShards, BoundaryChannelAdvancesEveryCycleIdleInteriorDoesNot) {
  Kernel k(2);
  obs::CounterRegistry registry;
  k.attach_metrics(&registry);
  OneLink<int> interior(1), boundary(1, "", nullptr, nullptr, /*boundary=*/true);
  k.add_to_shard(0, &interior.store());
  k.add_to_shard(1, &boundary.store());
  interior.follow(k);
  boundary.follow(k);
  k.run(10);
  EXPECT_EQ(registry.counter("kernel.channel_advances").value(), 10);
  EXPECT_FALSE(interior.active());
  // A value sent on the interior channel costs it advances only while in
  // flight or visible.
  interior.send(1);
  k.tick();
  EXPECT_TRUE(interior.receive() != nullptr);
  EXPECT_EQ(registry.counter("kernel.channel_advances").value(), 12);
  k.run(3);
  EXPECT_EQ(registry.counter("kernel.channel_advances").value(), 16);
}

struct Sleeper final : Clockable {
  bool asleep = false;
  int steps = 0;
  void step(Cycle) override { ++steps; }
  bool idle_internal() const override { return asleep; }
};

TEST(KernelShards, WidthZeroComponentSkippedExactlyWhileIdle) {
  Kernel k(2);
  Sleeper shard_sleeper, tail_sleeper;
  k.add_to_shard(1, &shard_sleeper);
  k.add(&tail_sleeper);
  k.run(10);
  EXPECT_EQ(shard_sleeper.steps, 10);
  EXPECT_EQ(tail_sleeper.steps, 10);
  EXPECT_EQ(k.last_tick_stepped(), 2);
  shard_sleeper.asleep = true;
  k.run(10);
  EXPECT_EQ(shard_sleeper.steps, 10);
  EXPECT_EQ(tail_sleeper.steps, 20);
  EXPECT_EQ(k.last_tick_stepped(), 1);
  shard_sleeper.asleep = false;
  tail_sleeper.asleep = true;
  k.run(5);
  EXPECT_EQ(shard_sleeper.steps, 15);
  EXPECT_EQ(tail_sleeper.steps, 20);
  EXPECT_EQ(k.last_tick_stepped(), 1);
}

struct Thrower final : Clockable {
  bool armed = true;
  void step(Cycle) override {
    if (armed) {
      armed = false;
      throw std::runtime_error("shard step failed");
    }
  }
};

// An exception on a shard worker is rethrown by the pool and ends the tick
// like any other: time stays put and a later remove() takes effect at once.
TEST(KernelShards, WorkerExceptionEndsTheTick) {
  Kernel k(2);
  Thrower thrower;
  Sleeper tail;
  k.add_to_shard(1, &thrower);
  k.add(&tail);
  EXPECT_THROW(k.tick(), std::runtime_error);
  EXPECT_EQ(k.now(), 0);
  EXPECT_EQ(tail.steps, 0);
  k.remove(&tail);
  k.run(3);
  EXPECT_EQ(tail.steps, 0);
  EXPECT_EQ(k.now(), 3);
  EXPECT_EQ(k.last_tick_stepped(), 1);
}

// --- Worklists --------------------------------------------------------------

// A component on a one-byte wake row, due while `pending`. Stepping on cycle
// `poke_at`, it hands work to `poke` through mark_due(), as a NIC's register
// filter does for its router.
struct Marker final : Clockable {
  std::atomic<std::uint8_t> wake[1] = {};
  bool pending = false;
  Marker* poke = nullptr;
  Cycle poke_at = -1;
  std::vector<Cycle> steps;
  void step(Cycle now) override {
    steps.push_back(now);
    pending = false;
    if (now == poke_at && poke != nullptr) {
      poke->pending = true;
      poke->mark_due();
    }
  }
  bool idle_internal() const override { return !pending; }
};

// A mark_due() during phase A reaches a higher index in the same cycle, the
// bit-63 -> bit-64 word boundary included, and a lower index on the next
// cycle: the cycles a linear scan of the list steps them on.
TEST(KernelWorklist, MarkDueDuringTheScanStepsWhereALinearScanWould) {
  struct Case {
    std::size_t from;
    std::size_t to;
    Cycle delay;  // cycles from the poke to the poked component's step
  };
  const Case cases[] = {{0, 1, 0},   {62, 63, 0}, {63, 64, 0}, {10, 127, 0},
                        {64, 129, 0}, {1, 0, 1},   {64, 63, 1}, {129, 5, 1}};
  for (const int shards : {1, 2}) {
    for (const Case& c : cases) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", " + std::to_string(c.from) +
                   " pokes " + std::to_string(c.to));
      Kernel k(shards);
      std::vector<Marker> markers(130);
      for (Marker& m : markers) k.add_to_shard(shards - 1, &m, m.wake, 1);
      k.run(2);  // every entry is listed on the first tick and found idle
      Marker& from = markers[c.from];
      Marker& to = markers[c.to];
      const Cycle poke = k.now();
      from.poke = &to;
      from.poke_at = poke;
      from.pending = true;
      from.mark_due();
      for (int i = 0; i < 3; ++i) {
        k.tick();
        EXPECT_TRUE(k.due_but_unlisted().empty()) << "cycle " << k.now() - 1;
      }
      EXPECT_EQ(from.steps, std::vector<Cycle>{poke});
      EXPECT_EQ(to.steps, std::vector<Cycle>{poke + c.delay});
      int steps = 0;
      for (const Marker& m : markers) steps += static_cast<int>(m.steps.size());
      EXPECT_EQ(steps, 2);
    }
  }
}

// Sends one value on each cycle of `sends`; width 0, so visited every cycle.
struct Source final : Clockable {
  OneLink<int>* out = nullptr;
  std::vector<Cycle> sends;
  void step(Cycle now) override {
    for (const Cycle c : sends) {
      if (c == now) out->send(static_cast<int>(now));
    }
  }
};

// Woken by its one inbound channel only; takes the arrival unless `expire`,
// in which case the value stays on the wire until the advance retires it.
struct Sink final : Clockable {
  OneLink<int>* in = nullptr;
  std::atomic<std::uint8_t> wake[1] = {};
  bool expire = false;
  int taken = 0;
  void step(Cycle) override {
    wake[0].store(0, std::memory_order_relaxed);
    if (!expire && in->take()) ++taken;
  }
  bool idle_internal() const override { return true; }
};

struct LiveRun {
  std::vector<int> stepped;            // last_tick_stepped per cycle
  std::vector<std::int64_t> advances;  // kernel.channel_advances per cycle
  int taken = 0;
};

// One source -> sink channel. On a shard list (`shard`) it runs on the
// worklists, and after every tick the channel's live bit must be set exactly
// when active(); in the serial tail the same system runs on the plain scan,
// the reference for the per-cycle counts.
LiveRun run_live(int latency, const std::vector<Cycle>& sends, bool expire, bool shard) {
  Kernel k(1);
  obs::CounterRegistry registry;
  k.attach_metrics(&registry);
  Sink sink;
  OneLink<int> ch(latency, "", &sink.wake[0], &sink);
  ch.follow(k);
  Source src;
  src.out = &ch;
  src.sends = sends;
  sink.in = &ch;
  sink.expire = expire;
  if (shard) {
    k.add_to_shard(0, &src);
    k.add_to_shard(0, &sink, sink.wake, 1);
    k.add_to_shard(0, &ch.store());
  } else {
    k.add(&src);
    k.add(&sink, sink.wake, 1);
    k.add(&ch.store());
  }
  LiveRun out;
  const obs::Counter& advances = registry.counter("kernel.channel_advances");
  for (Cycle c = 0; c < 16; ++c) {
    const std::int64_t before = advances.value();
    k.tick();
    out.stepped.push_back(k.last_tick_stepped());
    out.advances.push_back(advances.value() - before);
    if (shard) {
      EXPECT_EQ(k.listed_channels(), ch.active() ? 1 : 0) << "cycle " << c;
      EXPECT_TRUE(k.due_but_unlisted().empty()) << "cycle " << c;
    }
  }
  out.taken = sink.taken;
  return out;
}

TEST(KernelWorklist, LiveBitTracksActiveAfterEveryTick) {
  struct Case {
    const char* name;
    std::vector<Cycle> sends;
    bool expire;
  };
  const Case cases[] = {
      // take() of the last value deactivates the channel before phase B.
      {"one value taken", {0}, false},
      {"one value expires", {0}, true},
      {"back-to-back values taken", {0, 1, 2}, false},
      {"back-to-back values expire", {0, 1, 2}, true},
      {"gap of two taken", {0, 2, 9}, false},
      {"gap of five expires", {0, 5}, true},
  };
  for (const int latency : {1, 3}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + ", latency " + std::to_string(latency));
      const LiveRun worklist = run_live(latency, c.sends, c.expire, /*shard=*/true);
      const LiveRun scan = run_live(latency, c.sends, c.expire, /*shard=*/false);
      EXPECT_EQ(worklist.stepped, scan.stepped);
      EXPECT_EQ(worklist.advances, scan.advances);
      EXPECT_EQ(worklist.taken, scan.taken);
      EXPECT_EQ(worklist.taken, c.expire ? 0 : static_cast<int>(c.sends.size()));
    }
  }
}

// A channel filed under one shard that wakes a component of another would
// set a bit the other shard's worker owns; the first tick refuses it.
TEST(KernelWorklist, ChannelWakingAnotherShardIsRefused) {
  Kernel k(2);
  Sink sink;
  OneLink<int> ch(1, "misfiled", &sink.wake[0], &sink);
  sink.in = &ch;
  k.add_to_shard(1, &sink, sink.wake, 1);
  k.add_to_shard(0, &ch.store());
  try {
    k.tick();
    ADD_FAILURE() << "a mis-filed channel was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("misfiled"), std::string::npos) << e.what();
  }
}

// The kernel wakes the receiver a channel is registered with. A channel
// that stamps another component's wake byte would set the stated
// receiver's due bit while the byte it stamps wakes nobody; the first tick
// refuses it and names it.
TEST(KernelWorklist, ChannelWakingOutsideItsReceiverIsRefused) {
  Kernel k(1);
  Sink stated, stamped;
  OneLink<int> ch(1, "crossed", &stamped.wake[0], &stated);
  k.add_to_shard(0, &stated, stated.wake, 1);
  k.add_to_shard(0, &stamped, stamped.wake, 1);
  k.add_to_shard(0, &ch.store());
  try {
    k.tick();
    ADD_FAILURE() << "a channel waking outside its receiver was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("'crossed'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("outside its receiver's wake row"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(k.now(), 0);
}

// A channel with a wake byte and no stated receiver stamps a byte nobody is
// told about; one registered with the right receiver is accepted.
TEST(KernelWorklist, ChannelWithWakeNeedsItsReceiver) {
  Kernel k(1);
  Sink sink;
  OneLink<int> ch(1, "unowned", &sink.wake[0], nullptr, /*boundary=*/true);
  k.add_to_shard(0, &sink, sink.wake, 1);
  k.add_to_shard(0, &ch.store());
  EXPECT_THROW(k.tick(), std::logic_error);

  Kernel ok(1);
  OneLink<int> owned(1, "owned", &sink.wake[0], &sink, /*boundary=*/true);
  ok.add_to_shard(0, &sink, sink.wake, 1);
  ok.add_to_shard(0, &owned.store());
  EXPECT_NO_THROW(ok.run(2));
}

// --- The mark_due() referee --------------------------------------------------

// A synthesized SoC trace plus self-addressed packets, which the NIC
// delivers through its loopback queue without touching a channel.
std::vector<traffic::TraceEntry> referee_trace(int nodes, std::uint64_t seed) {
  std::vector<traffic::TraceEntry> trace = traffic::synthesize_soc_trace(
      nodes, /*flows=*/8, /*bursts=*/6, /*burst_len=*/3, /*period=*/40, seed);
  for (int i = 0; i < 6; ++i) {
    const auto node = static_cast<NodeId>((5 * i) % nodes);
    trace.push_back({static_cast<Cycle>(7 + 31 * i), node, node, 64, 0});
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  return trace;
}

// Referees the worklists in the middle of a tick, from the serial tail:
// once every shard component has stepped, a component another one gave
// work to in this phase (a NIC's register filter writing its router's
// table) must be listed, or it misses the step a linear scan would give it
// in this same cycle. Wake bytes are stamped only in phase B, so anything
// due here but unlisted lacks a mark_due().
struct MidTickReferee final : Clockable {
  const Kernel* kernel = nullptr;
  std::vector<Cycle> failures;
  void step(Cycle now) override {
    if (!kernel->due_but_unlisted().empty()) failures.push_back(now);
  }
};

// Ticks `net` `cycles` times, calling `before(now)` ahead of each tick, and
// demands after every tick, and from `referee` within it, that no shard
// component the skip predicate would step is missing from its worklist:
// work created outside a component's own step() must come with a
// mark_due(). Nothing is registered in between, since a registration lists
// every entry again and would hide a missing mark.
template <typename F>
void run_refereed(Network& net, const MidTickReferee& referee, Cycle cycles, const F& before) {
  for (Cycle t = 0; t < cycles; ++t) {
    before(net.now());
    net.step();
    const std::vector<const Clockable*> unlisted = net.kernel().due_but_unlisted();
    ASSERT_TRUE(unlisted.empty())
        << unlisted.size() << " due components unlisted after cycle " << net.now() - 1;
    ASSERT_TRUE(referee.failures.empty())
        << "due components unlisted within cycle " << referee.failures.front();
  }
}

void run_refereed(Network& net, const MidTickReferee& referee, Cycle cycles) {
  run_refereed(net, referee, cycles, [](Cycle) {});
}

TEST(KernelWorklist, QuickMatrixLeavesNoDueComponentUnlisted) {
  for (const ref::CampaignCell& cell : ref::quick_matrix()) {
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(cell.name + " at " + std::to_string(shards) + " shards");
      Network net(cell.config, shards);
      MidTickReferee referee;
      referee.kernel = &net.kernel();
      net.kernel().add(&referee);
      TraceReplay replay(net, referee_trace(net.num_nodes(), 11));
      replay.start();
      const ref::Scenario& kill = cell.scenario;
      run_refereed(net, referee, 600, [&](Cycle now) {
        if (kill.active() && now == kill.kill_cycle) {
          EXPECT_TRUE(chaos::kill_link(net, kill.kill_node, kill.kill_port).committed);
        }
      });
      EXPECT_TRUE(replay.finished());
      EXPECT_TRUE(net.idle());
    }
  }
}

// Reservations written by register packets (a NIC filter writing its
// router's table) and by Network::reserve_flow, and the scheduled packets a
// ScheduledFlow queues, all create work outside the receiver's step().
TEST(KernelWorklist, ReservationsAndScheduledFlowsLeaveNoDueComponentUnlisted) {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  c.router.reservation_frame = 32;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    Network net(c, shards);
    MidTickReferee referee;
    referee.kernel = &net.kernel();
    net.kernel().add(&referee);
    // Registered before the first tick; started below.
    traffic::ScheduledFlow flow(net, 3, 12);
    // The scheduled class is reserved, so the dynamic packets use class 0.
    std::vector<traffic::TraceEntry> trace = referee_trace(net.num_nodes(), 13);
    for (traffic::TraceEntry& e : trace) e.service_class = 0;
    TraceReplay replay(net, std::move(trace));

    const auto phase = net.reserve_flow(0, 5, 7);
    ASSERT_TRUE(phase.has_value());
    net.release_flow(0, 5, *phase);
    // Stalled ejection holds the register packets in their NICs until the
    // routers they program have gone idle and left the worklists.
    const auto stall_all = [&](bool stalled) {
      for (NodeId n = 0; n < net.num_nodes(); ++n) {
        for (VcId v = 0; v < c.router.vcs; ++v) net.nic(n).set_ejection_stall(v, stalled);
      }
    };
    stall_all(true);
    net.program_flow_registers(/*config_master=*/15, 0, 5, *phase);
    run_refereed(net, referee, 100);
    stall_all(false);
    run_refereed(net, referee, 100);
    EXPECT_EQ(net.register_writes_applied(),
              static_cast<std::int64_t>(net.routes().port_path(0, 5).size()));

    // A reservation written straight into idle routers.
    ASSERT_TRUE(net.reserve_flow(2, 9, 3).has_value());
    run_refereed(net, referee, 50);

    flow.start();
    replay.start();
    run_refereed(net, referee, 600);
    EXPECT_GT(flow.received(), 0);
    EXPECT_TRUE(replay.finished());
  }
}

// --- Golden replay at N shards -----------------------------------------
// Mirror of test_replay.cpp's run_recorded, parameterized on the shard
// count and the link latency. kernel.channel_advances is deliberately NOT
// compared: boundary channels advance unconditionally at the barrier, so
// that one diagnostic counter is shard-dependent.

struct GoldenRun {
  std::vector<std::string> deliveries;  // "cycle:src->dst id payload"
  std::string link_events;              // TraceRecorder CSV, every traversal
  Cycle end_cycle = 0;
  std::int64_t delivered = 0;
  std::int64_t flits_delivered = 0;
};

GoldenRun run_sharded(const std::string& csv, int shards, bool chaos_kill,
                      int link_latency = 1) {
  Config c = Config::paper_baseline();
  c.link_latency = link_latency;
  if (chaos_kill) c.fault_layer = true;
  Network net(c, shards);
  EXPECT_EQ(net.shards(), shards);
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
  out.flits_delivered = net.stats().flits_delivered;
  out.link_events = recorder.to_csv();
  return out;
}

void expect_identical(const GoldenRun& a, const GoldenRun& b, int shards) {
  EXPECT_EQ(a.end_cycle, b.end_cycle) << "shards=" << shards;
  EXPECT_EQ(a.delivered, b.delivered) << "shards=" << shards;
  EXPECT_EQ(a.flits_delivered, b.flits_delivered) << "shards=" << shards;
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << "shards=" << shards;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    ASSERT_EQ(a.deliveries[i], b.deliveries[i])
        << "delivery #" << i << " shards=" << shards;
  }
  EXPECT_EQ(a.link_events, b.link_events) << "shards=" << shards;
}

std::string matrix_csv(std::uint64_t seed) {
  return traffic::trace_to_csv(traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/8, /*burst_len=*/3,
      /*period=*/40, seed));
}

// Link latency 3 makes every boundary channel a 4-slot ring, so the shard
// workers also run sender and receiver on rings whose send and output slots
// are not adjacent.
TEST(ShardedDeterminism, MatrixMatchesSingleShardExactly) {
  const std::string csv = matrix_csv(101);
  for (const int latency : {1, 3}) {
    SCOPED_TRACE(latency);
    const GoldenRun base = run_sharded(csv, /*shards=*/1, /*chaos_kill=*/false, latency);
    ASSERT_GT(base.delivered, 0);
    ASSERT_FALSE(base.link_events.empty());
    // paper_baseline is radix 4: one row per shard at the top of the range.
    for (const int shards : {2, 4}) {
      const GoldenRun run = run_sharded(csv, shards, /*chaos_kill=*/false, latency);
      expect_identical(base, run, shards);
    }
  }
}

TEST(ShardedDeterminism, KillLinkMatrixMatchesSingleShardExactly) {
  const std::string csv = matrix_csv(103);
  const GoldenRun base = run_sharded(csv, /*shards=*/1, /*chaos_kill=*/true);
  ASSERT_GT(base.delivered, 0);
  for (const int shards : {2, 4}) {
    const GoldenRun run = run_sharded(csv, shards, /*chaos_kill=*/true);
    expect_identical(base, run, shards);
  }
}

// Shard counts above the row count clamp to the radix rather than creating
// empty shards; the env knob feeds the same resolver.
TEST(ShardedDeterminism, ShardCountClampsToRadix) {
  Config c = Config::paper_baseline();  // radix 4
  Network net(c, 64);
  EXPECT_EQ(net.shards(), 4);
  Network one(c, -3);
  EXPECT_EQ(one.shards(), 1);
}

// The row-strip partition: monotone in y, covers [0, shards), and tile
// channels never cross a boundary (a node's NIC and router share a shard by
// construction).
TEST(ShardedDeterminism, RowStripPartitionIsMonotoneAndComplete) {
  Config c = Config::paper_baseline();
  c.radix = 8;
  Network net(c, 4);
  ASSERT_EQ(net.shards(), 4);
  std::vector<int> rows_seen(4, 0);
  int prev = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const int s = net.shard_of(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++rows_seen[static_cast<std::size_t>(s)];
    // node ids are row-major, so the shard index never decreases.
    ASSERT_GE(s, prev);
    prev = s;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(rows_seen[static_cast<std::size_t>(s)], 16) << "shard " << s;
  }
}

// The open-loop load harness folds per-shard delivery statistics in shard
// order, so every derived number — including the floating-point latency
// moments — is bit-identical across shard counts.
TEST(ShardedDeterminism, LoadHarnessStatsAreBitIdentical) {
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.1;
  opt.warmup = 100;
  opt.measure = 400;
  opt.seed = 7;

  auto run_at = [&](int shards) {
    Network net(Config::paper_baseline(), shards);
    traffic::LoadHarness harness(net, opt);
    return harness.run();
  };
  const traffic::HarnessResult base = run_at(1);
  ASSERT_GT(base.measured_packets, 0);
  for (const int shards : {2, 4}) {
    const traffic::HarnessResult r = run_at(shards);
    EXPECT_EQ(r.measured_packets, base.measured_packets) << shards;
    EXPECT_EQ(r.offered_flits, base.offered_flits) << shards;
    EXPECT_EQ(r.accepted_flits, base.accepted_flits) << shards;
    EXPECT_EQ(r.avg_latency, base.avg_latency) << shards;
    EXPECT_EQ(r.stddev_latency, base.stddev_latency) << shards;
    EXPECT_EQ(r.p99_latency, base.p99_latency) << shards;
    EXPECT_EQ(r.avg_hops, base.avg_hops) << shards;
    EXPECT_TRUE(r.drained) << shards;
  }
}

// The OCN_SIM_SHARDS env default kicks in only when the constructor is not
// given an explicit count.
TEST(ShardedDeterminism, EnvKnobSetsDefaultShardCount) {
  ASSERT_EQ(setenv("OCN_SIM_SHARDS", "2", 1), 0);
  Network from_env(Config::paper_baseline());
  EXPECT_EQ(from_env.shards(), 2);
  Network explicit_count(Config::paper_baseline(), 4);
  EXPECT_EQ(explicit_count.shards(), 4);
  ASSERT_EQ(unsetenv("OCN_SIM_SHARDS"), 0);
  Network plain(Config::paper_baseline());
  EXPECT_EQ(plain.shards(), 1);
}

// The env knob is parsed strictly: anything but a whole integer >= 1 is
// refused with the variable and its value in the message, never run with a
// guessed shard count.
TEST(ShardedDeterminism, MalformedEnvKnobThrows) {
  for (const char* bad : {"2x", "abc", "", "0", "-1", "+2", " 2", "99999999999"}) {
    ASSERT_EQ(setenv("OCN_SIM_SHARDS", bad, 1), 0);
    try {
      Network net(Config::paper_baseline());
      ADD_FAILURE() << "accepted OCN_SIM_SHARDS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("OCN_SIM_SHARDS='") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // An explicit count never consults the variable.
  Network explicit_count(Config::paper_baseline(), 2);
  EXPECT_EQ(explicit_count.shards(), 2);
  ASSERT_EQ(unsetenv("OCN_SIM_SHARDS"), 0);
}

// End-to-end referee smoke: the shard-lockstep harness compares the full
// observable state vector every cycle and must report zero divergences on a
// clean baseline cell.
TEST(ShardedDeterminism, ShardLockstepSmoke) {
  const Config c = Config::paper_baseline();
  const auto trace = traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/4, /*burst_len=*/3,
      /*period=*/40, /*seed=*/11);
  const ref::DiffResult r =
      ref::run_shard_lockstep(c, ref::Scenario{}, trace, /*shards=*/4,
                              /*max_cycles=*/20000);
  EXPECT_FALSE(r.diverged) << r.divergence.to_string();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.deliveries, 0);
  EXPECT_THROW(
      ref::run_shard_lockstep(c, ref::Scenario{}, trace, 1, 100),
      std::invalid_argument);
}

// One campaign point per cell over the quick matrix keeps the referee wired
// into the same grid the CLI runs, without CI-visible runtime.
TEST(ShardedDeterminism, ShardCampaignQuickMatrixOneSeed) {
  ref::CampaignOptions co;
  co.seeds = 1;
  co.trace_cycles = 200;
  co.threads = 2;
  const ref::CampaignResult result =
      ref::run_shard_campaign(ref::quick_matrix(), co, /*shards=*/4);
  EXPECT_EQ(result.diverged, 0);
  EXPECT_GT(result.deliveries, 0);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f.cell << " seed " << f.seed << "\n"
                  << f.divergence.to_string();
  }
}

}  // namespace
}  // namespace ocn
