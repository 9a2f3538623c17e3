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

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/trace.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "sim/kernel.h"
#include "traffic/generator.h"
#include "traffic/replay.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using traffic::parse_trace;
using traffic::TraceReplay;

// --- The kernel's shard lists, without a Network ---------------------------

// One node of a four-relay ring: forwards each token it receives (until the
// token has made kMaxHops hops) and injects a fresh token every `period`
// cycles. Arrivals wake it through a one-byte wake row; injection cycles
// are its internal work.
struct Relay final : Clockable {
  static constexpr int kMaxHops = 3;
  const Kernel* kernel = nullptr;
  Channel<int>* in = nullptr;
  Channel<int>* out = nullptr;
  std::atomic<std::uint8_t> wake[1] = {};
  int period = 0;  // 0 = never injects
  int steps = 0;
  Cycle last_step = -1;

  void step(Cycle now) override {
    ++steps;
    last_step = now;
    if (wake[0].load(std::memory_order_relaxed) != 0) {
      wake[0].store(0, std::memory_order_relaxed);
      if (auto hops = in->take(); hops && *hops < kMaxHops) out->send(*hops + 1);
    }
    if (period > 0 && now % period == 0 && !out->send_pending()) out->send(0);
  }
  bool idle_internal() const override {
    return period == 0 || kernel->now() % period != 0;
  }
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
  std::vector<Channel<int>> links(4);
  const int periods[4] = {5, 0, 7, 0};
  const auto shard_of = [shards](int relay) { return relay < 2 ? 0 : shards - 1; };
  for (int i = 0; i < 4; ++i) {
    Relay& r = relays[static_cast<std::size_t>(i)];
    r.kernel = &k;
    r.period = periods[i];
    r.out = &links[static_cast<std::size_t>(i)];
    r.in = &links[static_cast<std::size_t>((i + 3) % 4)];
    r.in->set_wake(&r.wake[0]);
    k.add_to_shard(shard_of(i), &r, r.wake, 1);
  }
  for (int i = 0; i < 4; ++i) {
    const int receiver = (i + 1) % 4;
    ChannelBase* ch = &links[static_cast<std::size_t>(i)];
    if (shard_of(i) == shard_of(receiver)) {
      k.add_interior(shard_of(i), ch);
    } else {
      k.add_boundary(shard_of(receiver), ch);
    }
  }
  TailProbe probe;
  probe.relays = &relays;
  k.add(&probe);

  RingRun out;
  const obs::Counter& steps = registry.counter("kernel.component_steps");
  for (Cycle c = 0; c < cycles; ++c) {
    const std::int64_t before = steps.value();
    k.tick();
    out.last_tick_stepped.push_back(k.last_tick_stepped());
    out.steps_per_cycle.push_back(steps.value() - before);
  }
  for (const Relay& r : relays) out.relay_steps.push_back(r.steps);
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
  Channel<int> interior(1), boundary(1);
  k.add_interior(0, &interior);
  k.add_boundary(1, &boundary);
  k.run(10);
  EXPECT_EQ(registry.counter("kernel.channel_advances").value(), 10);
  EXPECT_FALSE(interior.active());
  // A value sent on the interior channel costs it advances only while in
  // flight or visible.
  interior.send(1);
  k.tick();
  EXPECT_TRUE(interior.receive().has_value());
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

// --- Golden replay at N shards -----------------------------------------
// Mirror of test_replay.cpp's run_recorded, parameterized on the shard
// count. kernel.channel_advances is deliberately NOT compared: boundary
// channels advance unconditionally at the barrier (their active flag is a
// racy transient), so that one diagnostic counter is shard-dependent.

struct GoldenRun {
  std::vector<std::string> deliveries;  // "cycle:src->dst id payload"
  std::string link_events;              // TraceRecorder CSV, every traversal
  Cycle end_cycle = 0;
  std::int64_t delivered = 0;
  std::int64_t flits_delivered = 0;
};

GoldenRun run_sharded(const std::string& csv, int shards, bool chaos_kill) {
  Config c = Config::paper_baseline();
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

TEST(ShardedDeterminism, MatrixMatchesSingleShardExactly) {
  const std::string csv = matrix_csv(101);
  const GoldenRun base = run_sharded(csv, /*shards=*/1, /*chaos_kill=*/false);
  ASSERT_GT(base.delivered, 0);
  ASSERT_FALSE(base.link_events.empty());
  // paper_baseline is radix 4: one row per shard at the top of the range.
  for (const int shards : {2, 4}) {
    const GoldenRun run = run_sharded(csv, shards, /*chaos_kill=*/false);
    expect_identical(base, run, shards);
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
