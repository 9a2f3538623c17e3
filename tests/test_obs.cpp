// Tests for the observability layer: the Json value type the reports are
// built from, the counter registry (owned counters + pull-model gauges),
// MetricsSnapshot merging across sweep worker threads (the scatter-gather
// shape the engine's determinism contract depends on — run under the
// `sweep` ctest label so the TSan preset covers it), the Report builder's
// schema, and a golden-file check that pins the serialized byte shape.
#include <clocale>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/network.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/report.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/sweep/sweep.h"
#include "sim/sweep/thread_pool.h"
#include "traffic/generator.h"

namespace ocn {
namespace {

// ---------------------------------------------------------------------------
// Json

TEST(Json, DumpParsesBackToEqualValue) {
  obs::Json j = obs::Json::object();
  j.set("null", nullptr);
  j.set("bool", true);
  j.set("int", std::int64_t{-42});
  j.set("double", 2.5);
  j.set("string", std::string("a \"quoted\" line\nwith control \x01 bytes"));
  obs::Json arr = obs::Json::array();
  arr.push(std::int64_t{1});
  arr.push(std::string("two"));
  j.set("array", std::move(arr));

  const std::string compact = j.dump();
  const std::string pretty = j.dump(2);
  EXPECT_EQ(obs::Json::parse(compact), j);
  EXPECT_EQ(obs::Json::parse(pretty), j);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  obs::Json j = obs::Json::object();
  j.set("zebra", std::int64_t{1});
  j.set("apple", std::int64_t{2});
  j.set("mango", std::int64_t{3});
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2,"mango":3})");
}

TEST(Json, ParsesEscapesAndSurrogatePairs) {
  const obs::Json j = obs::Json::parse(R"("é€😀\t")");
  EXPECT_EQ(j.as_string(), "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\t");
}

TEST(Json, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(obs::Json::parse("1"), obs::Json::parse("1.0"));
  EXPECT_NE(obs::Json::parse("1"), obs::Json::parse("1.5"));
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  EXPECT_THROW(obs::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("1 2"), std::runtime_error);
}

TEST(Json, NestingBeyondTheLimitIsRefused) {
  const auto levels = [](int n, const char* open, const char* close) {
    std::string doc;
    for (int i = 0; i < n; ++i) doc += open;
    for (int i = 0; i < n; ++i) doc += close;
    return doc;
  };
  EXPECT_NO_THROW(obs::Json::parse(levels(256, "[", "]")));
  EXPECT_NO_THROW(obs::Json::parse(levels(256, "{\"k\":", "}").replace(
      static_cast<std::size_t>(256 * 5), 0, "0")));
  for (const std::string& doc :
       {levels(257, "[", "]"), levels(257, "{\"k\":", "}"), std::string(1000000, '[')}) {
    try {
      obs::Json::parse(doc);
      ADD_FAILURE() << "accepted " << doc.size() << " bytes of nesting";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("json parse error at byte ", 0), 0u) << what;
      EXPECT_NE(what.find("nesting deeper than 256"), std::string::npos) << what;
    }
  }
}

TEST(Json, RoundTripsDoublesExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0}) {
    obs::Json j(v);
    EXPECT_EQ(obs::Json::parse(j.dump()).as_number(), v);
  }
}

// Regression: as_int() cast any double straight to int64 — undefined
// behaviour outside [-2^63, 2^63), which GCC's ubsan does not report
// (1e300 came back as INT64_MIN) — and leaked std::bad_variant_access for a
// non-number. Both are now std::runtime_error.
TEST(Json, AsIntRefusesNonNumbersAndOutOfRangeDoubles) {
  for (const char* doc : {"1e300", "-1e300", "9223372036854775808.0", "-9.3e18"}) {
    EXPECT_THROW(obs::Json::parse(doc).as_int(), std::runtime_error) << doc;
  }
  for (const char* doc : {"\"7\"", "null", "true", "[1]", "{}"}) {
    EXPECT_THROW(obs::Json::parse(doc).as_int(), std::runtime_error) << doc;
  }
  // In range a double truncates toward zero; -2^63 is the lowest value.
  EXPECT_EQ(obs::Json::parse("2.9").as_int(), 2);
  EXPECT_EQ(obs::Json::parse("-2.9").as_int(), -2);
  EXPECT_EQ(obs::Json::parse("-9223372036854775808.0").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(obs::Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
}

// Regression: "%g" printed -0.0 as "0", which parses back as the integer 0 —
// sign and doubleness both lost (and == can't catch it: -0.0 == 0.0).
TEST(Json, NegativeZeroKeepsItsSign) {
  EXPECT_EQ(obs::Json(-0.0).dump(), "-0.0");
  const obs::Json back = obs::Json::parse("-0.0");
  EXPECT_TRUE(std::signbit(back.as_number()));
}

// Regression: the writer used snprintf("%g") and the parser strtod-family
// conversions, both of which honour LC_NUMERIC — under a comma-decimal
// locale reports serialized "1,5" and refused to parse their own output.
// Both paths now use std::to_chars/std::from_chars, which are locale-free.
// Containers often install only the C locale; skip rather than vacuously
// pass when no comma-decimal locale exists to provoke the bug.
TEST(Json, NumberFormattingIsLocaleIndependent) {
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous ? previous : "C";
  const char* chosen = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "nl_NL.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name)) {
      chosen = name;
      break;
    }
  }
  if (!chosen) GTEST_SKIP() << "no comma-decimal locale installed";
  ASSERT_EQ(std::string(localeconv()->decimal_point), ",") << chosen;

  const std::string dumped = obs::Json(1.5).dump();
  const double parsed = obs::Json::parse("2.5").as_number();
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_EQ(dumped, "1.5");
  EXPECT_EQ(parsed, 2.5);
}

// ---------------------------------------------------------------------------
// CounterRegistry

TEST(CounterRegistry, CounterIsIdempotentByName) {
  obs::CounterRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(reg.snapshot().value("x"), 5);
  EXPECT_EQ(reg.instruments(), 1u);
}

TEST(CounterRegistry, CounterReferencesSurviveLaterRegistrations) {
  obs::CounterRegistry reg;
  obs::Counter& first = reg.counter("first");
  // Force reallocation pressure: many later registrations must not move it.
  for (int i = 0; i < 1000; ++i) reg.counter("c" + std::to_string(i));
  first.inc(7);
  EXPECT_EQ(reg.snapshot().value("first"), 7);
}

TEST(CounterRegistry, GaugeSamplesLiveStateOnlyAtSnapshot) {
  obs::CounterRegistry reg;
  std::int64_t live = 10;
  reg.gauge("live", [&] { return live; });
  live = 99;
  EXPECT_EQ(reg.snapshot().value("live"), 99);
}

TEST(CounterRegistry, DuplicateGaugeNameThrows) {
  obs::CounterRegistry reg;
  reg.gauge("g", [] { return std::int64_t{0}; });
  EXPECT_THROW(reg.gauge("g", [] { return std::int64_t{1}; }),
               std::invalid_argument);
  reg.counter("c");
  EXPECT_THROW(reg.gauge("c", [] { return std::int64_t{1}; }),
               std::invalid_argument);
  // The other direction: a counter may not take a gauge's name.
  EXPECT_THROW(reg.counter("g"), std::invalid_argument);
}

TEST(CounterRegistry, SnapshotListsCountersThenGaugesInRegistrationOrder) {
  obs::CounterRegistry reg;
  reg.counter("b_counter");
  reg.gauge("a_gauge", [] { return std::int64_t{1}; });
  reg.counter("a_counter");
  const auto snap = reg.snapshot(123);
  EXPECT_EQ(snap.cycle, 123);
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_EQ(snap.values[0].first, "b_counter");
  EXPECT_EQ(snap.values[1].first, "a_counter");
  EXPECT_EQ(snap.values[2].first, "a_gauge");
}

TEST(CounterRegistry, ResetCountersLeavesGaugesAlone) {
  obs::CounterRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g", [] { return std::int64_t{3}; });
  reg.reset_counters();
  EXPECT_EQ(reg.snapshot().value("c"), 0);
  EXPECT_EQ(reg.snapshot().value("g"), 3);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

TEST(MetricsSnapshot, MergeSumsMatchingAppendsNewTakesMaxCycle) {
  obs::MetricsSnapshot a;
  a.cycle = 10;
  a.values = {{"shared", 5}, {"only_a", 1}};
  obs::MetricsSnapshot b;
  b.cycle = 7;
  b.values = {{"shared", 3}, {"only_b", 2}};
  a.merge(b);
  EXPECT_EQ(a.cycle, 10);
  EXPECT_EQ(a.value("shared"), 8);
  EXPECT_EQ(a.value("only_a"), 1);
  EXPECT_EQ(a.value("only_b"), 2);
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.value("missing"), 0);
}

TEST(MetricsSnapshot, JsonRoundTrip) {
  obs::MetricsSnapshot s;
  s.cycle = 42;
  s.values = {{"net.packets", 1000}, {"router.0.flits", -3}};
  const obs::MetricsSnapshot back =
      obs::MetricsSnapshot::from_json(s.to_json());
  EXPECT_EQ(back.cycle, s.cycle);
  EXPECT_EQ(back.values, s.values);
}

TEST(MetricsSnapshot, FromJsonRefusesNonNumbersAndOutOfRangeValues) {
  struct Case {
    const char* doc;
    const char* names;  // the key the message must name
  };
  const Case refused[] = {
      {R"({"cycle": "500"})", "'cycle'"},
      {R"({"cycle": null})", "'cycle'"},
      {R"({"cycle": 9.3e18})", "'cycle'"},
      {R"({"cycle": -1e300})", "'cycle'"},
      {R"({"counters": {"net.packets": [1]}})", "'net.packets'"},
      {R"({"counters": {"a": 1, "net.flits": true}})", "'net.flits'"},
      {R"({"counters": {"net.flits": 1e19}})", "'net.flits'"},
  };
  for (const Case& c : refused) {
    try {
      obs::MetricsSnapshot::from_json(obs::Json::parse(c.doc));
      ADD_FAILURE() << "accepted " << c.doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos) << e.what();
    }
  }
  // In range: a double is truncated as before, -2^63 is the lowest value.
  const obs::MetricsSnapshot s = obs::MetricsSnapshot::from_json(
      obs::Json::parse(R"({"cycle": 2.0, "counters": {"a": -9223372036854775808.0}})"));
  EXPECT_EQ(s.cycle, 2);
  EXPECT_EQ(s.value("a"), std::numeric_limits<std::int64_t>::min());
}

// Worker threads each own a registry; snapshots merge on the calling thread
// in index order. Result must be identical to a serial pass — and the
// access pattern must be TSan-clean (this file carries the `sweep` label).
TEST(MetricsSnapshot, MergesAcrossSweepWorkerThreadsDeterministically) {
  constexpr std::size_t kShards = 16;
  auto run = [&](int threads) {
    std::vector<obs::MetricsSnapshot> snaps(kShards);
    sweep::ThreadPool pool(threads);
    pool.for_each_index(kShards, [&](std::size_t i) {
      obs::CounterRegistry reg;
      obs::Counter& c = reg.counter("work");
      for (std::size_t k = 0; k <= i; ++k) c.inc(static_cast<std::int64_t>(k));
      reg.gauge("shard_id", [i] { return static_cast<std::int64_t>(i); });
      snaps[i] = reg.snapshot(static_cast<std::int64_t>(i));
    });
    obs::MetricsSnapshot merged;
    for (const auto& s : snaps) merged.merge(s);
    return merged;
  };
  const obs::MetricsSnapshot serial = run(1);
  const obs::MetricsSnapshot parallel = run(4);
  EXPECT_EQ(serial.values, parallel.values);
  EXPECT_EQ(serial.cycle, kShards - 1);
  EXPECT_EQ(serial.value("shard_id"), (kShards - 1) * kShards / 2);
}

// The sweep engine itself attaches a registry per point; merged counter
// totals must be thread-count independent like every other statistic.
TEST(MetricsSnapshot, SweepRunnerMergedMetricsAreThreadCountIndependent) {
  traffic::HarnessOptions base;
  base.warmup = 20;
  base.measure = 100;
  base.drain_max = 1;
  const auto points = sweep::SweepRunner::rate_grid(
      core::Config::paper_baseline(), base, {0.05, 0.1, 0.2});
  sweep::SweepOptions one;
  one.threads = 1;
  sweep::SweepOptions many;
  many.threads = 3;
  const auto serial = sweep::SweepRunner(one).run(points);
  const auto parallel = sweep::SweepRunner(many).run(points);
  const auto ms = sweep::SweepRunner::merge(serial);
  const auto mp = sweep::SweepRunner::merge(parallel);
  EXPECT_EQ(ms.metrics.values, mp.metrics.values);
  EXPECT_GT(ms.metrics.value("net.packets_delivered"), 0);
  EXPECT_GT(ms.metrics.value("kernel.cycles"), 0);
}

// ---------------------------------------------------------------------------
// Kernel / Network integration

TEST(NetworkMetrics, RegistryTracksDeliveriesAndIntervalSampling) {
  core::Config cfg = core::Config::paper_baseline();
  core::Network net(cfg);
  obs::CounterRegistry reg;
  net.register_metrics(reg, /*sample_interval=*/50);
  net.nic(0).inject(core::make_word_packet(5, 0, 0xbeef), net.now());
  net.run(200);

  const obs::MetricsSnapshot snap = net.kernel().sample();
  EXPECT_EQ(snap.cycle, 200);
  EXPECT_EQ(snap.value("kernel.cycles"), 200);
  EXPECT_EQ(snap.value("net.packets_injected"), 1);
  EXPECT_EQ(snap.value("net.packets_delivered"), 1);
  EXPECT_GT(snap.value("net.flits_delivered"), 0);

  const auto& periodic = net.kernel().interval_snapshots();
  ASSERT_EQ(periodic.size(), 4u);  // cycles 50, 100, 150, 200
  EXPECT_EQ(periodic[0].cycle, 50);
  EXPECT_EQ(periodic[3].cycle, 200);
  // Monotone non-decreasing deliveries across samples.
  for (std::size_t i = 1; i < periodic.size(); ++i) {
    EXPECT_GE(periodic[i].value("net.packets_delivered"),
              periodic[i - 1].value("net.packets_delivered"));
  }
}

// ---------------------------------------------------------------------------
// Report

obs::Report make_reference_report() {
  obs::Report r("T1", "Golden report fixture",
                "serialized shape is stable across releases");
  r.set_quick(true);
  r.set_config_fingerprint(0x0123456789abcdefULL);
  r.add_verdict("latency near bound", "8 cyc", "8.3 cyc", true);
  r.add_verdict("saturation", ">0.6", "0.55", false);
  r.add_metric("latency.mean", 8.25);
  r.add_metric("accepted", 0.55);
  r.add_metric("count", 3);
  r.add_note("pattern", "uniform");
  r.add_table("loads", {"offered", "accepted"}, {{"0.2", "0.2"}, {"0.9", "0.55"}});
  Histogram h(4, 2.0);
  h.add(1.0);
  h.add(1.5);
  h.add(100.0);  // overflow
  r.add_histogram("latency", h.bin_width(), h.bins(), h.negative_samples());
  obs::MetricsSnapshot snap;
  snap.cycle = 500;
  snap.values = {{"kernel.cycles", 500}, {"net.packets_delivered", 93}};
  r.add_snapshot(snap);
  r.set_timing(1.5, 6000);
  r.set_exit_code(0);
  return r;
}

TEST(Report, SchemaFieldsAndAllOk) {
  const obs::Report r = make_reference_report();
  EXPECT_FALSE(r.all_ok());  // one failed verdict
  const obs::Json j = r.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), obs::kReportSchema);
  EXPECT_EQ(j.find("experiment")->find("id")->as_string(), "T1");
  EXPECT_EQ(j.find("config_fingerprint")->as_string(), "0x0123456789abcdef");
  EXPECT_TRUE(j.find("quick")->as_bool());
  EXPECT_EQ(j.find("verdicts")->size(), 2u);
  EXPECT_EQ(j.find("metrics")->find("count")->as_number(), 3.0);
  EXPECT_EQ(j.find("timing")->find("cycles_per_sec")->as_number(), 4000.0);
  EXPECT_EQ(j.find("exit_code")->as_int(), 0);
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const obs::Json j = make_reference_report().to_json();
  EXPECT_EQ(obs::Json::parse(j.dump(2)), j);
}

TEST(Report, MetricOverwriteTakesLastValue) {
  obs::Report r("T2", "t", "c");
  r.add_metric("x", 1.0);
  r.add_metric("x", 2.0);
  EXPECT_EQ(r.to_json().find("metrics")->find("x")->as_number(), 2.0);
  EXPECT_EQ(r.to_json().find("metrics")->size(), 1u);
}

// Byte-exact golden file: if this fails because of an intentional schema
// change, bump kReportSchema and regenerate (instructions in the golden
// file's sibling README and EXPERIMENTS.md).
TEST(Report, MatchesGoldenFile) {
  const std::string path = std::string(OCN_TEST_DATA_DIR) + "/golden_report.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(make_reference_report().to_json().dump(2) + "\n", golden.str());
}

TEST(Report, WriteProducesParseableFileAndFailsOnBadPath) {
  const obs::Report r = make_reference_report();
  const std::string path = ::testing::TempDir() + "/obs_report_test.json";
  ASSERT_TRUE(r.write(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_EQ(obs::Json::parse(body.str()), r.to_json());
  std::remove(path.c_str());
  EXPECT_FALSE(r.write("/nonexistent-dir/nope/report.json"));
}

// --- mutated reports ----------------------------------------------------------

// What a reader of a bench report does with it: parse the document and
// read back every counter snapshot.
void read_report(const std::string& text) {
  const obs::Json doc = obs::Json::parse(text);
  const obs::Json* snapshots = doc.find("counters");
  if (snapshots == nullptr || !snapshots->is_array()) return;
  for (const obs::Json& s : snapshots->as_array()) obs::MetricsSnapshot::from_json(s);
}

// Seeded byte flips, deletions, insertions, truncations and nesting bombs
// of a real ocn-bench-report/v1 document, plus targeted swaps of the
// snapshot values: each mutant must parse or throw std::runtime_error —
// never another exception, a crash, or (under the asan and ubsan legs) a
// sanitizer report.
TEST(ReportMutation, EveryMutantParsesOrThrowsRuntimeError) {
  const std::string path = std::string(OCN_TEST_DATA_DIR) + "/golden_report.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string original = buf.str();
  ASSERT_NE(original.find(obs::kReportSchema), std::string::npos);
  ASSERT_NO_THROW(read_report(original));

  std::vector<std::pair<std::string, std::string>> mutants;  // (what, text)
  const auto swap_value = [&](const std::string& from, const std::string& to) {
    std::string m = original;
    const std::size_t at = m.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    mutants.emplace_back("swap " + to, m.replace(at, from.size(), to));
  };
  swap_value("\"cycle\": 500", "\"cycle\": \"500\"");
  swap_value("\"cycle\": 500", "\"cycle\": 1e300");
  swap_value("\"kernel.cycles\": 500", "\"kernel.cycles\": [500]");
  swap_value("\"kernel.cycles\": 500", "\"kernel.cycles\": -9.3e18");

  Rng rng(2026, 0x6a50);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  const std::string significant = "{}[]:,\"\\-+.0123456789eEtfn \n";
  for (int i = 0; i < 1000; ++i) {
    std::string m = original;
    const int kind = static_cast<int>(below(5));
    const std::size_t at = below(m.size());
    std::string what;
    switch (kind) {
      case 0:
        m[at] = static_cast<char>(m[at] ^ (1 << below(8)));
        what = "flip";
        break;
      case 1:
        m.erase(at, 1 + below(16));
        what = "delete";
        break;
      case 2:
        m.insert(at, 1, below(2) == 0 ? significant[below(significant.size())]
                                      : static_cast<char>(below(256)));
        what = "insert";
        break;
      case 3:
        m.resize(at);
        what = "truncate";
        break;
      default: {
        const std::size_t depth = std::size_t{1} << (8 + below(13));  // 256 .. 1M
        m.insert(at, below(2) == 0 ? std::string(depth, '[') : [&] {
          std::string objects;
          for (std::size_t d = 0; d < depth && d < 100000; ++d) objects += "{\"a\":";
          return objects;
        }());
        what = "nest";
        break;
      }
    }
    mutants.emplace_back(what + " #" + std::to_string(i) + " at " + std::to_string(at),
                         std::move(m));
  }

  int parsed = 0;
  int refused = 0;
  for (const auto& [what, text] : mutants) {
    try {
      read_report(text);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
    }
  }
  // Both outcomes occur: the loop is not refusing (or accepting) everything.
  EXPECT_GT(parsed, 10);
  EXPECT_GT(refused, 500);
}

}  // namespace
}  // namespace ocn
