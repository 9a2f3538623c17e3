// Substrate: RNG, statistics, two-phase kernel / channels.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "sim/kernel.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "one_link.h"

namespace ocn {
namespace {

using testkit::OneLink;

TEST(Rng, DeterministicPerSeedAndStream) {
  Rng a(123, 0), b(123, 0), c(123, 1), d(124, 0);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
    EXPECT_NE(x, c.next_u64());
    EXPECT_NE(x, d.next_u64());
  }
}

TEST(Rng, BoundedValuesStayInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Rng r(5);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, MergeEqualsCombinedStream) {
  Accumulator a, b, all;
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, PercentilesAtBinResolution) {
  Histogram h(100, 1.0);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.percentile(1.0), 100.0, 1.0);
}

TEST(Histogram, OverflowBinCatchesOutliers) {
  Histogram h(10, 1.0);
  h.add(5.0);
  h.add(1e9);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.count(), 2);
}

// Regression: percentile(0.0) used to report bin_width (the upper edge of
// bin 0) instead of 0, biasing every "min latency" style query by one bin.
TEST(Histogram, PercentileZeroIsZero) {
  Histogram h(10, 4.0);
  for (double x : {1.0, 5.0, 9.0, 33.0}) h.add(x);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(-0.5), 0.0);  // clamped, still 0
}

TEST(Histogram, PercentileOneIsUpperEdgeOfLastOccupiedBin) {
  Histogram h(10, 4.0);
  for (double x : {1.0, 5.0, 9.0, 33.0}) h.add(x);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 36.0);  // 33.0 lives in [32, 36)
}

// Regression: a percentile landing in the overflow bin has no finite bin
// edge; it must report a distinguishable value (+infinity), never a
// plausible-looking finite latency.
TEST(Histogram, PercentileInOverflowBinIsInfinite) {
  Histogram h(10, 1.0);
  h.add(2.0);
  h.add(1e9);  // overflow
  EXPECT_NEAR(h.percentile(0.5), 3.0, 1.0);  // still in a real bin
  EXPECT_TRUE(std::isinf(h.percentile(1.0)));
  Histogram all_over(4, 1.0);
  all_over.add(100.0);
  EXPECT_TRUE(std::isinf(all_over.percentile(0.5)));
}

// Regression: the percentile rank was computed as ceil(fraction * count),
// and the product can overshoot an exact integer by an ulp (0.29 * 100 ==
// 29.000000000000004). A fraction landing exactly on a bucket boundary then
// reported the *next* bin's upper edge — one bin too high. Table-driven
// over boundary fractions, including after a shape-preserving merge (whose
// summed counts hit the same boundary ranks at different totals).
TEST(Histogram, PercentileExactBucketBoundaries) {
  Histogram h(100, 1.0);
  // 10 samples per bin in bins 0..9: rank r lives in bin (r - 1) / 10.
  for (int bin = 0; bin < 10; ++bin) {
    for (int i = 0; i < 10; ++i) h.add(bin + 0.5);
  }
  ASSERT_EQ(h.count(), 100);
  struct Case {
    double fraction;
    double want;  // upper edge of the containing bin
  };
  // Every .x0 fraction is an exact boundary: rank 10k is the last sample of
  // bin k-1, so the answer is k, not k+1.
  const Case cases[] = {
      {0.01, 1.0}, {0.10, 1.0}, {0.11, 2.0},  {0.20, 2.0}, {0.29, 3.0},
      {0.30, 3.0}, {0.31, 4.0}, {0.50, 5.0},  {0.57, 6.0}, {0.60, 6.0},
      {0.70, 7.0}, {0.90, 9.0}, {0.99, 10.0}, {1.00, 10.0},
  };
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(h.percentile(c.fraction), c.want)
        << "fraction " << c.fraction;
  }

  // Same boundaries after merging two shards (different per-shard totals,
  // same merged counts — merge must not re-introduce the off-by-one).
  Histogram a(100, 1.0), b(100, 1.0);
  for (int bin = 0; bin < 10; ++bin) {
    for (int i = 0; i < 10; ++i) (bin % 2 ? a : b).add(bin + 0.5);
  }
  a.merge(b);
  ASSERT_EQ(a.count(), 100);
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(a.percentile(c.fraction), c.want)
        << "merged, fraction " << c.fraction;
  }
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h(10, 1.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

// Regression: negative samples used to clamp into bin 0, masquerading as
// zero-latency traffic; they are now quarantined in a separate counter.
TEST(Histogram, NegativeSamplesQuarantinedNotClamped) {
  Histogram h(10, 1.0);
  h.add(-3.0);
  h.add(-0.001);
  h.add(0.5);
  EXPECT_EQ(h.negative_samples(), 2);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.bins()[0], 1);  // only the genuine 0.5 sample
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.0);
  h.clear();
  EXPECT_EQ(h.negative_samples(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(Channel, DelaysValueByLatency) {
  OneLink<int> ch(3);
  Kernel k;
  k.add(&ch.store());
  ch.follow(k);
  ch.send(42);
  for (int i = 0; i < 2; ++i) {
    k.tick();
    EXPECT_FALSE(ch.receive() != nullptr) << "cycle " << i;
  }
  k.tick();
  ASSERT_TRUE(ch.receive() != nullptr);
  EXPECT_EQ(*ch.receive(), 42);
  k.tick();
  EXPECT_FALSE(ch.receive() != nullptr);
}

TEST(Channel, LatencyOneIsNextCycle) {
  OneLink<int> ch(1);
  ch.send(7);
  ch.advance();
  ASSERT_TRUE(ch.receive() != nullptr);
  EXPECT_EQ(*ch.receive(), 7);
}

TEST(Channel, TakeConsumesValue) {
  OneLink<int> ch(1);
  ch.send(9);
  ch.advance();
  EXPECT_EQ(ch.take().value(), 9);
  EXPECT_FALSE(ch.receive() != nullptr);
}

TEST(Channel, BackToBackValuesFlowAtFullRate) {
  OneLink<int> ch(2);
  Kernel k;
  k.add(&ch.store());
  ch.follow(k);
  std::vector<int> got;
  for (int i = 0; i < 10; ++i) {
    ch.send(i);
    k.tick();
    if (auto v = ch.take()) got.push_back(*v);
  }
  k.tick();
  if (auto v = ch.take()) got.push_back(*v);
  k.tick();
  if (auto v = ch.take()) got.push_back(*v);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// Regression: double-send detection must fire in every build type — a lost
// in-flight flit corrupts credit accounting silently otherwise.
TEST(ChannelDeathTest, DoubleSendInOneCycleTerminates) {
  OneLink<int> ch(1, "rtr0.east.flit");
  ch.send(1);
  EXPECT_DEATH(ch.send(2), "double send on channel 'rtr0.east.flit'");
}

TEST(ChannelDeathTest, UnnamedChannelStillReportsDoubleSend) {
  OneLink<int> ch(1);
  ch.send(1);
  EXPECT_DEATH(ch.send(2), "double send on channel '<unnamed>'");
}

TEST(Channel, ActiveTracksValuesInFlightUnitLatency) {
  OneLink<int> ch(1);
  EXPECT_FALSE(ch.active());
  ch.send(5);
  EXPECT_TRUE(ch.active());
  ch.advance();
  EXPECT_TRUE(ch.active());  // value sitting on the output
  EXPECT_EQ(ch.take().value(), 5);
  ch.advance();  // output slot now verifiably empty
  EXPECT_FALSE(ch.active());
}

TEST(Channel, ActiveTracksValuesInFlightPipelined) {
  OneLink<int> ch(3);
  EXPECT_FALSE(ch.active());
  ch.send(5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ch.active()) << "advance " << i;
    ch.advance();
  }
  EXPECT_EQ(ch.take().value(), 5);
  ch.advance();
  EXPECT_FALSE(ch.active());
}

// Both expiry cases run on the unit ring and on a 4-slot ring, where the
// send slot is not the slot next to the output.
TEST(Channel, UnconsumedValueExpiresAndDeactivates) {
  for (const int latency : {1, 3}) {
    SCOPED_TRACE(latency);
    OneLink<int> ch(latency);
    ch.send(5);
    for (int i = 0; i < latency; ++i) ch.advance();  // arrives, never taken
    ch.advance();  // expires
    EXPECT_FALSE(ch.receive() != nullptr);
    EXPECT_FALSE(ch.active());
  }
}

// Regression: take() used to leave the active flag set until the next
// advance(), so consuming the last value still cost one wasted advance.
TEST(Channel, TakeOnLastValueDeactivatesImmediately) {
  for (const int latency : {1, 3}) {
    SCOPED_TRACE(latency);
    OneLink<int> ch(latency);
    ch.send(9);
    for (int i = 0; i < latency; ++i) ch.advance();
    EXPECT_EQ(ch.take().value(), 9);
    EXPECT_FALSE(ch.active());  // nothing left in flight, no advance needed
  }
}

// Latency 0 would couple a sender and a receiver within one cycle; it is
// refused in every build type, not just where asserts are compiled in.
TEST(Channel, LatencyBelowOneThrows) {
  EXPECT_THROW(OneLink<int>(0), std::invalid_argument);
  EXPECT_THROW(OneLink<int>(-2, "neg"), std::invalid_argument);
  EXPECT_EQ(OneLink<int>(3).latency(), 3);
}

TEST(Channel, TakeWithValuesStillInFlightStaysActive) {
  OneLink<int> ch(2);
  ch.send(1);
  ch.advance();
  ch.send(2);
  ch.advance();
  EXPECT_EQ(ch.take().value(), 1);
  EXPECT_TRUE(ch.active());  // the second value is still in the pipe
  ch.advance();
  EXPECT_EQ(ch.take().value(), 2);
  EXPECT_FALSE(ch.active());
}

TEST(Kernel, TakenEmptyChannelIsSkippedNextTick) {
  Kernel k;
  OneLink<int> ch(1);
  k.add(&ch.store());
  ch.follow(k);
  obs::CounterRegistry reg;
  k.attach_metrics(&reg);
  obs::Counter& advances = reg.counter("kernel.channel_advances");
  ch.send(3);
  k.tick();
  EXPECT_EQ(advances.value(), 1);
  EXPECT_EQ(ch.take().value(), 3);
  k.tick();  // channel is provably empty: the kernel must not advance it
  EXPECT_EQ(advances.value(), 1);
}

TEST(Kernel, SkipsInactiveChannels) {
  Kernel k;
  OneLink<int> busy(1), idle(1);
  k.add(&busy.store());
  k.add(&idle.store());
  busy.follow(k);
  idle.follow(k);
  busy.send(1);
  k.tick();
  EXPECT_TRUE(busy.receive() != nullptr);
  EXPECT_FALSE(idle.active());  // never woke up
}

struct Counter final : Clockable {
  Cycle last = -1;
  int steps = 0;
  void step(Cycle now) override {
    EXPECT_EQ(now, last + 1);  // strictly sequential cycles
    last = now;
    ++steps;
  }
};

TEST(Kernel, StepsComponentsEveryCycleInOrder) {
  Kernel k;
  Counter a, b;
  k.add(&a);
  k.add(&b);
  k.run(25);
  EXPECT_EQ(a.steps, 25);
  EXPECT_EQ(b.steps, 25);
  EXPECT_EQ(k.now(), 25);
}

struct Sleeper final : Clockable {
  bool asleep = false;
  int steps = 0;
  void step(Cycle) override { ++steps; }
  bool idle_internal() const override { return asleep; }
};

TEST(Kernel, SkipsIdleComponents) {
  Kernel k;
  Sleeper s;
  Counter always;
  k.add(&s);
  k.add(&always);
  k.run(10);
  EXPECT_EQ(s.steps, 10);
  EXPECT_EQ(k.last_tick_stepped(), 2);
  s.asleep = true;
  k.run(10);
  EXPECT_EQ(s.steps, 10);  // skipped while idle
  EXPECT_EQ(always.steps, 20);
  EXPECT_EQ(k.last_tick_stepped(), 1);
  s.asleep = false;
  k.run(5);
  EXPECT_EQ(s.steps, 15);  // back on the clock
  EXPECT_EQ(k.last_tick_stepped(), 2);
}

// A monitor-style component that unregisters a target (possibly itself)
// from inside step(). Removal must be deferred to the end of the tick so
// the component list is never mutated mid-iteration.
struct Detacher final : Clockable {
  Kernel* kernel = nullptr;
  Clockable* target = nullptr;
  Cycle when = 0;
  void step(Cycle now) override {
    if (now == when) kernel->remove(target);
  }
};

TEST(Kernel, RemoveFromInsideStepIsDeferredToEndOfTick) {
  Kernel k;
  Detacher d;
  Counter monitor;
  d.kernel = &k;
  d.target = &monitor;
  d.when = 2;
  k.add(&d);
  k.add(&monitor);  // after the detacher: iterated right after remove() fires
  k.run(5);
  // The monitor still ran on the cycle it was detached (cycles 0,1,2), then
  // never again.
  EXPECT_EQ(monitor.steps, 3);
  EXPECT_EQ(k.now(), 5);
}

TEST(Kernel, ComponentMayRemoveItselfDuringStep) {
  Kernel k;
  Detacher d;
  d.kernel = &k;
  d.target = &d;
  d.when = 1;
  Counter after;
  k.add(&d);
  k.add(&after);
  k.run(4);
  EXPECT_EQ(after.steps, 4);  // later components unaffected by the removal
  EXPECT_EQ(k.last_tick_stepped(), 1);  // only `after` remains on the clock
}

// Throws from step() once, on cycle `when` — as TraceReplay does when
// Nic::inject refuses a trace entry.
struct Thrower final : Clockable {
  Cycle when = 0;
  bool fired = false;
  void step(Cycle now) override {
    if (now == when && !fired) {
      fired = true;
      throw std::runtime_error("step failed");
    }
  }
};

// A tick that throws must end like any other tick except for time: the
// kernel is no longer in a tick, so a remove() made after the caller
// catches takes effect at once, and now() still names the failed cycle.
TEST(Kernel, ThrowingStepEndsTheTick) {
  Kernel k;
  Thrower thrower;
  thrower.when = 2;
  Counter removed;
  k.add(&thrower);
  k.add(&removed);
  k.run(2);
  EXPECT_THROW(k.tick(), std::runtime_error);
  EXPECT_EQ(k.now(), 2);
  EXPECT_EQ(removed.steps, 2);  // the throw came before its cycle-2 step
  k.remove(&removed);
  k.run(3);
  EXPECT_EQ(removed.steps, 2);  // never stepped after its removal
  EXPECT_EQ(k.now(), 5);
  EXPECT_EQ(k.last_tick_stepped(), 1);
}

// The same sequence with the removed component freed, as a traffic
// component removes itself in its destructor: a stale registration would
// step freed memory.
struct SelfRemoving final : Clockable {
  Kernel* kernel = nullptr;
  int* steps = nullptr;
  ~SelfRemoving() override { kernel->remove(this); }
  void step(Cycle) override { ++*steps; }
};

TEST(Kernel, ComponentDestroyedAfterThrowIsNeverStepped) {
  Kernel k;
  Thrower thrower;
  thrower.when = 0;
  int steps = 0;
  auto component = std::make_unique<SelfRemoving>();
  component->kernel = &k;
  component->steps = &steps;
  k.add(&thrower);
  k.add(component.get());
  EXPECT_THROW(k.tick(), std::runtime_error);
  component.reset();
  k.run(2);
  EXPECT_EQ(steps, 0);
  EXPECT_EQ(k.last_tick_stepped(), 1);
}

TEST(DutyCounter, ComputesAverageDuty) {
  DutyCounter d(4);
  d.record_toggle(0, 50);
  d.record_toggle(1, 100);
  // wires 2,3 idle
  EXPECT_DOUBLE_EQ(d.duty_factor(100), 150.0 / 400.0);
  EXPECT_EQ(d.total_toggles(), 150);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

}  // namespace
}  // namespace ocn
