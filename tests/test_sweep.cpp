// Tests for the parallel experiment-sweep engine: the ThreadPool primitive,
// SweepRunner's determinism contract (merged statistics bit-identical for
// any thread count), and the shard-merge properties of the statistics types
// it leans on.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "sim/parse.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/sweep/sweep.h"
#include "sim/sweep/thread_pool.h"

namespace ocn {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  sweep::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kN = 257;  // deliberately not a multiple of 4
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroIndicesIsANoop) {
  sweep::ThreadPool pool(2);
  bool ran = false;
  pool.for_each_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  sweep::ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_index(64,
                          [&](std::size_t i) {
                            if (i == 3) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must survive a failed range and run the next one normally.
  std::atomic<int> count{0};
  pool.for_each_index(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

// for_each_index is scatter-gather over one shared range; a nested call
// (from a worker callback or from another thread) would corrupt the range
// bookkeeping and deadlock the gather. The pool refuses loudly instead of
// hanging. Nested parallelism wants two pools — exactly how the sharded
// kernel composes with the sweep engine.
TEST(ThreadPool, NestedForEachIndexThrowsInsteadOfDeadlocking) {
  sweep::ThreadPool pool(2);
  EXPECT_THROW(pool.for_each_index(
                   4,
                   [&](std::size_t) {
                     pool.for_each_index(1, [](std::size_t) {});
                   }),
               std::logic_error);
  // The guard clears with the failed range: the pool stays usable.
  std::atomic<int> count{0};
  pool.for_each_index(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SingleThreadFloor) {
  sweep::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.for_each_index(5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

// OCN_SWEEP_THREADS goes through the same strict parser as OCN_SIM_SHARDS:
// a whole integer >= 1, otherwise an error naming the variable and value.
TEST(ThreadPool, DefaultThreadsParsesEnvStrictly) {
  ASSERT_EQ(setenv("OCN_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(sweep::default_threads(), 3);
  for (const char* bad : {"2x", "abc", "", "0", "-4", "1.5", "99999999999"}) {
    ASSERT_EQ(setenv("OCN_SWEEP_THREADS", bad, 1), 0);
    try {
      (void)sweep::default_threads();
      ADD_FAILURE() << "accepted OCN_SWEEP_THREADS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("OCN_SWEEP_THREADS='") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(unsetenv("OCN_SWEEP_THREADS"), 0);
  EXPECT_GE(sweep::default_threads(), 1);
}

// The helper every numeric command-line flag and positive_env_int parse
// through: the whole text must be one number of the target type.
TEST(StrictParse, WholeTextOrNothing) {
  struct IntRow {
    const char* text;
    std::optional<int> want;
  };
  const std::vector<IntRow> ints = {
      {"12", 12},         {"-3", -3},         {"0", 0},
      {"foo", {}},        {"1x", {}},         {"", {}},
      {" 1", {}},         {"1 ", {}},         {"+1", {}},
      {"1.5", {}},        {"99999999999", {}},
  };
  for (const IntRow& row : ints) {
    EXPECT_EQ(parse_number<int>(row.text), row.want) << "'" << row.text << "'";
  }
  EXPECT_EQ(parse_number<std::int64_t>("99999999999"), 99999999999);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_number<std::uint64_t>("-1"), std::nullopt);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e-3"), 1e-3);
  EXPECT_EQ(parse_number<double>("0.3x"), std::nullopt);
  EXPECT_EQ(parse_number<double>(""), std::nullopt);

  EXPECT_EQ(flag_value<int>("--seeds", "10"), 10);
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"foo", "--seeds: expected an integer, got 'foo'"},
      {"1x", "--seeds: expected an integer, got '1x'"},
  };
  for (const auto& [text, message] : refused) {
    try {
      (void)flag_value<int>("--seeds", text);
      ADD_FAILURE() << "accepted --seeds '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
  try {
    (void)flag_value<double>("--rate", "0.3x");
    ADD_FAILURE() << "accepted --rate '0.3x'";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--rate: expected a number, got '0.3x'");
  }
}

// ocnsim --sweep LO:HI:STEP: three whole numbers, LO <= HI and a STEP that
// moves the sweep past HI (a zero step used to loop forever).
TEST(StrictParse, RangeIsThreeNumbersThatEnd) {
  const NumberRange r = range_value("--sweep", "0.05:0.9:0.1");
  EXPECT_EQ(r.lo, 0.05);
  EXPECT_EQ(r.hi, 0.9);
  EXPECT_EQ(r.step, 0.1);
  const NumberRange point = range_value("--sweep", "0.3:0.3:1");
  EXPECT_EQ(point.lo, 0.3);
  EXPECT_EQ(point.hi, 0.3);
  for (const char* bad : {"0.1:0.2:0", "0.1:0.2:-0.05", "0.3:0.1:0.05", "0.1:0.2:0.05junk",
                          "0.1:0.2", "0.1:0.2:0.05:0.1", "", "::", "a:0.2:0.1",
                          "0.1:inf:0.1", "-inf:0.2:0.1", "nan:0.2:0.1", "0.1:0.2:inf", "1:1:1e-20",
                          " 0.1:0.2:0.1"}) {
    try {
      (void)range_value("--sweep", bad);
      ADD_FAILURE() << "accepted --sweep '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--sweep: expected LO:HI:STEP with LO <= HI and STEP > 0, got '") +
                    bad + "'");
    }
  }
}

TEST(SweepRunner, MapReturnsIndexOrderedDerivedSeeds) {
  sweep::SweepOptions opt;
  opt.threads = 3;
  opt.master_seed = 1234;
  sweep::SweepRunner runner(opt);
  const auto seeds = runner.map<std::uint64_t>(
      17, [](std::size_t, std::uint64_t seed) { return seed; });
  ASSERT_EQ(seeds.size(), 17u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], derive_seed(1234, i)) << "point " << i;
  }
}

// --- determinism contract ---------------------------------------------------

void expect_accumulator_identical(const Accumulator& a, const Accumulator& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_result_identical(const sweep::LoadResult& a,
                             const sweep::LoadResult& b) {
  EXPECT_EQ(a.harness.offered_flits, b.harness.offered_flits);
  EXPECT_EQ(a.harness.accepted_flits, b.harness.accepted_flits);
  EXPECT_EQ(a.harness.avg_latency, b.harness.avg_latency);
  EXPECT_EQ(a.harness.stddev_latency, b.harness.stddev_latency);
  EXPECT_EQ(a.harness.p99_latency, b.harness.p99_latency);
  EXPECT_EQ(a.harness.measured_packets, b.harness.measured_packets);
  EXPECT_EQ(a.harness.drained, b.harness.drained);
  expect_accumulator_identical(a.latency, b.latency);
  expect_accumulator_identical(a.network_latency, b.network_latency);
  expect_accumulator_identical(a.hops, b.hops);
  expect_accumulator_identical(a.link_mm, b.link_mm);
  EXPECT_EQ(a.latency_hist.bins(), b.latency_hist.bins());
}

std::vector<sweep::LoadPoint> small_grid() {
  core::Config cfg;
  cfg.radix = 2;  // 2x2 folded torus: smallest legal network
  traffic::HarnessOptions base;
  base.warmup = 100;
  base.measure = 400;
  base.drain_max = 20000;
  return sweep::SweepRunner::rate_grid(cfg, base, {0.05, 0.15, 0.25});
}

TEST(SweepRunner, ParallelRunBitMatchesSerialRun) {
  const auto points = small_grid();

  sweep::SweepOptions serial_opt;
  serial_opt.threads = 1;
  sweep::SweepRunner serial(serial_opt);
  const auto serial_results = serial.run(points);

  sweep::SweepOptions parallel_opt;
  parallel_opt.threads = 4;
  sweep::SweepRunner parallel(parallel_opt);
  const auto parallel_results = parallel.run(points);

  ASSERT_EQ(serial_results.size(), points.size());
  ASSERT_EQ(parallel_results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_result_identical(serial_results[i], parallel_results[i]);
    EXPECT_TRUE(serial_results[i].harness.drained);
    EXPECT_GT(serial_results[i].harness.measured_packets, 0);
  }

  const auto serial_merged = sweep::SweepRunner::merge(serial_results);
  const auto parallel_merged = sweep::SweepRunner::merge(parallel_results);
  expect_accumulator_identical(serial_merged.latency, parallel_merged.latency);
  expect_accumulator_identical(serial_merged.hops, parallel_merged.hops);
  EXPECT_EQ(serial_merged.latency_hist.bins(), parallel_merged.latency_hist.bins());
  EXPECT_EQ(serial_merged.measured_packets, parallel_merged.measured_packets);
  EXPECT_EQ(serial_merged.measured_packets, serial_merged.latency.count());
}

TEST(SweepRunner, PointsUseDistinctSeeds) {
  // Two points with identical config+options must still differ (different
  // derived seeds), otherwise the sweep is not actually sampling.
  core::Config cfg;
  cfg.radix = 2;
  traffic::HarnessOptions base;
  base.warmup = 100;
  base.measure = 400;
  base.injection_rate = 0.2;
  std::vector<sweep::LoadPoint> points(2, sweep::LoadPoint{cfg, base});

  sweep::SweepOptions opt;
  opt.threads = 1;
  sweep::SweepRunner runner(opt);
  const auto results = runner.run(points);
  ASSERT_EQ(results.size(), 2u);
  // Same offered load, different sample path.
  EXPECT_EQ(results[0].harness.offered_flits, results[1].harness.offered_flits);
  EXPECT_NE(results[0].latency.sum(), results[1].latency.sum());
}

// --- shard-merge properties -------------------------------------------------

TEST(AccumulatorMerge, ShardedMergeMatchesSinglePass) {
  Rng rng(7, 0);
  constexpr int kSamples = 10000;
  std::vector<double> xs;
  xs.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    xs.push_back(rng.next_double() * 1000.0);
  }

  Accumulator single;
  for (double x : xs) single.add(x);

  for (int shards : {2, 3, 7, 16}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<Accumulator> parts(static_cast<std::size_t>(shards));
    for (int i = 0; i < kSamples; ++i) {
      // Contiguous blocks, like sweep points each owning a slice.
      parts[static_cast<std::size_t>(i * shards / kSamples)].add(xs[static_cast<std::size_t>(i)]);
    }
    Accumulator merged;
    for (const Accumulator& p : parts) merged.merge(p);

    EXPECT_EQ(merged.count(), single.count());
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
    // Welford merge is not bit-identical to streaming insertion, but must
    // agree to near machine precision (observed ~1e-14 relative).
    EXPECT_NEAR(merged.mean(), single.mean(), 1e-11 * single.mean());
    EXPECT_NEAR(merged.variance(), single.variance(),
                1e-9 * single.variance());
  }
}

TEST(HistogramMerge, ShardedMergeMatchesSinglePass) {
  Rng rng(11, 0);
  Histogram single(100, 2.0);
  Histogram a(100, 2.0);
  Histogram b(100, 2.0);
  for (int i = 0; i < 5000; ++i) {
    // Include overflow (>200) and negative samples to cover all buckets.
    const double x = rng.next_double() * 260.0 - 10.0;
    single.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  Histogram merged(100, 2.0);
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.bins(), single.bins());
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.overflow(), single.overflow());
  EXPECT_EQ(merged.negative_samples(), single.negative_samples());
  EXPECT_EQ(merged.percentile(0.5), single.percentile(0.5));
}

TEST(HistogramMerge, IncompatibleLayoutThrows) {
  Histogram a(100, 2.0);
  Histogram bins_differ(50, 2.0);
  Histogram width_differs(100, 1.0);
  EXPECT_THROW(a.merge(bins_differ), std::invalid_argument);
  EXPECT_THROW(a.merge(width_differs), std::invalid_argument);
}

}  // namespace
}  // namespace ocn
