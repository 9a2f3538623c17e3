// Static concurrency-safety analyzer tests: the footprint model, the proof
// rules, the golden safe/broken pairs, the ocn-analyze/v1 schema pin, the
// VerifiedNetwork construction gate, and — both ways — the cross-validation
// against dynamic truth (the shard-lockstep campaign for the safe side,
// single-threaded order-dependence demos for the broken side).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/footprint.h"
#include "core/network.h"
#include "core/shard_partition.h"
#include "core/wiring.h"
#include "one_link.h"
#include "ref/campaign.h"
#include "sim/kernel.h"
#include "verify/monitor.h"

namespace ocn {
namespace {

core::Config baseline() { return core::Config::paper_baseline(); }

analyze::AnalysisReport analyze_broken(const core::Config& config, int shards,
                                       analyze::BreakKind kind) {
  const auto topo = config.make_topology();
  const auto partition = core::ShardPartition::row_strips(*topo, shards);
  analyze::FootprintModel model = analyze::build_footprint(config, partition);
  analyze::corrupt(model, kind);
  return analyze::analyze(model);
}

bool has_code(const analyze::AnalysisReport& r, const std::string& code) {
  for (const auto& f : r.findings) {
    if (f.code == code) return true;
  }
  return false;
}

const analyze::Obligation* obligation(const analyze::AnalysisReport& r,
                                      const std::string& name) {
  for (const auto& ob : r.obligations) {
    if (ob.name == name) return &ob;
  }
  return nullptr;
}

// --- partition ---------------------------------------------------------------

TEST(ShardPartition, RowStripsAssignWholeRows) {
  const auto topo = baseline().make_topology();  // radix 4
  const auto p = core::ShardPartition::row_strips(*topo, 2);
  EXPECT_EQ(p.shards(), 2);
  EXPECT_EQ(p.num_nodes(), 16);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(p.shard_of(n), topo->y_of(n) / 2) << "node " << n;
  }
  EXPECT_FALSE(core::file_channel(p, 0, 1).boundary);  // same row
  EXPECT_FALSE(core::file_channel(p, 0, 4).boundary);  // rows 0 and 1, both shard 0
  EXPECT_TRUE(core::file_channel(p, 4, 8).boundary);   // rows 1 and 2 straddle the cut
  EXPECT_EQ(p.nodes_per_shard(), (std::vector<int>{8, 8}));
}

TEST(ShardPartition, CustomPartitionValidates) {
  EXPECT_NO_THROW(core::ShardPartition({0, 1, 0, 1}, 2));
  // Out-of-range owner.
  EXPECT_THROW(core::ShardPartition({0, 2}, 2), std::invalid_argument);
  EXPECT_THROW(core::ShardPartition({0, -1}, 2), std::invalid_argument);
  // Empty shard 1.
  EXPECT_THROW(core::ShardPartition({0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(core::ShardPartition({0, 0}, 0), std::invalid_argument);
}

TEST(ShardPartition, ResolveShardsClampsToRadix) {
  EXPECT_EQ(core::resolve_shards(1, 4), 1);
  EXPECT_EQ(core::resolve_shards(3, 4), 3);
  EXPECT_EQ(core::resolve_shards(16, 4), 4);   // at most one strip per row
  EXPECT_EQ(core::resolve_shards(-5, 4), 1);
}

// --- the safe side: row strips are proven, everywhere we run them ------------

TEST(Analyzer, RowStripsProvenAcrossRadicesAndShardCounts) {
  for (const int radix : {4, 8, 16, 64}) {
    core::Config c = baseline();
    c.radix = radix;
    for (const int shards : {1, 2, 4}) {
      const analyze::AnalysisReport r = analyze::analyze_config(c, shards);
      EXPECT_TRUE(r.ok()) << "radix " << radix << " shards " << shards << "\n"
                          << r.to_string();
      EXPECT_TRUE(r.race_free);
      EXPECT_TRUE(r.deterministic);
      for (const auto& ob : r.obligations) {
        EXPECT_TRUE(ob.proven) << ob.name;
      }
      EXPECT_EQ(r.shards, shards);
      // Row strips split these radices evenly.
      EXPECT_DOUBLE_EQ(r.balance, 1.0);
      if (shards == 1) {
        EXPECT_EQ(r.cut_channels, 0);
      } else {
        EXPECT_GT(r.cut_channels, 0);  // column links cross the strips
      }
    }
  }
}

TEST(Analyzer, EveryQuickMatrixCellProven) {
  for (const auto& cell : ref::quick_matrix()) {
    for (const int shards : {2, 4}) {
      const analyze::AnalysisReport r =
          analyze::analyze_config(cell.config, shards);
      EXPECT_TRUE(r.ok()) << cell.name << " at " << shards << " shards\n"
                          << r.to_string();
    }
  }
}

TEST(Analyzer, SingleShardIsTriviallySafe) {
  const analyze::AnalysisReport r = analyze::analyze_config(baseline(), 1);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.partition, "single shard");
  EXPECT_EQ(r.cut_channels, 0);
}

// --- the broken side: corruptions are refused with readable witnesses --------

TEST(Analyzer, ZeroLatencyLinkConfigRefused) {
  // Config::validate rejects link_latency = 0, but the analyzer never calls
  // validate — it analyzes the unbuildable system to *explain* the failure,
  // the same stance verify() takes on dateline-free tori.
  core::Config c = baseline();
  c.link_latency = 0;
  const analyze::AnalysisReport r = analyze::analyze_config(c, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_FALSE(r.deterministic);
  EXPECT_TRUE(has_code(r, "cross-shard-race"));
  EXPECT_TRUE(has_code(r, "zero-latency-channel"));  // row links too

  // The witness is a readable producer -> state -> consumer path.
  bool witnessed = false;
  for (const auto& f : r.findings) {
    if (f.code != "cross-shard-race") continue;
    EXPECT_NE(f.message.find("--write[parallel step]-->"), std::string::npos);
    EXPECT_NE(f.message.find("--read[parallel step]-->"), std::string::npos);
    EXPECT_NE(f.message.find("latency 0"), std::string::npos);
    witnessed = true;
  }
  EXPECT_TRUE(witnessed);

  const auto* slack = obligation(r, "channel-barrier-slack");
  ASSERT_NE(slack, nullptr);
  EXPECT_FALSE(slack->proven);
  EXPECT_EQ(slack->proof, "refuted");
  EXPECT_FALSE(slack->witness.empty());
}

TEST(Analyzer, ZeroLatencyCrossCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kZeroLatencyCross);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "cross-shard-race"));
  // Only boundary channels were corrupted, so the interior rule stays quiet.
  EXPECT_FALSE(has_code(r, "zero-latency-channel"));
}

TEST(Analyzer, GlobalMutatorCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kGlobalMutator);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "shard-crossing-mutable-state"));
  bool named = false;
  for (const auto& f : r.findings) {
    if (f.message.find("global.mutable_stats") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
  const auto* stats = obligation(r, "stats-folding");
  ASSERT_NE(stats, nullptr);
  EXPECT_FALSE(stats->proven);
  ASSERT_FALSE(stats->witness.empty());
  EXPECT_NE(stats->witness.front().find("global.mutable_stats"),
            std::string::npos);
}

TEST(Analyzer, GatedBoundaryCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kGatedBoundary);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "gated-boundary-channel"));
}

TEST(Analyzer, CrossShardWorklistCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kCrossShardWorklist);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "shard-crossing-mutable-state"));
  const auto* worklists = obligation(r, "worklist-filing");
  ASSERT_NE(worklists, nullptr);
  EXPECT_FALSE(worklists->proven);
  ASSERT_FALSE(worklists->witness.empty());
  EXPECT_NE(worklists->witness.front().find("due_bits"), std::string::npos);
  // The honest model proves the same obligation at every shard count.
  for (const int shards : {1, 2, 4}) {
    const analyze::AnalysisReport honest = analyze::analyze_config(baseline(), shards);
    EXPECT_TRUE(honest.ok()) << shards << "\n" << honest.to_string();
    const auto* ob = obligation(honest, "worklist-filing");
    ASSERT_NE(ob, nullptr);
    EXPECT_TRUE(ob->proven) << shards;
  }
}

TEST(Analyzer, SharedFlitArenaCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kSharedFlitArena);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "shard-crossing-mutable-state"));
  bool named = false;
  for (const auto& f : r.findings) {
    if (f.message.find("global.flit_arena") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named);
  const auto* arenas = obligation(r, "flit-arena-ownership");
  ASSERT_NE(arenas, nullptr);
  EXPECT_FALSE(arenas->proven);
  ASSERT_FALSE(arenas->witness.empty());
  EXPECT_NE(arenas->witness.front().find("global.flit_arena"), std::string::npos);
  // The honest model, one arena per shard, is proven shard-local at every
  // shard count.
  for (const int shards : {1, 2, 4}) {
    const analyze::AnalysisReport honest = analyze::analyze_config(baseline(), shards);
    EXPECT_TRUE(honest.ok()) << shards << "\n" << honest.to_string();
    const auto* ob = obligation(honest, "flit-arena-ownership");
    ASSERT_NE(ob, nullptr);
    EXPECT_TRUE(ob->proven) << shards;
    EXPECT_EQ(ob->proof, "shard-local") << shards;
  }
}

// One packet arena for every shard's NICs: two shards' NICs link and free
// records in the same plain state in phase A.
TEST(Analyzer, SharedPacketArenaCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kSharedPacketArena);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "shard-crossing-mutable-state"));
  bool named = false;
  for (const auto& f : r.findings) {
    if (f.message.find("global.packet_arena") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named);
  const auto* arenas = obligation(r, "packet-arena-ownership");
  ASSERT_NE(arenas, nullptr);
  EXPECT_FALSE(arenas->proven);
  ASSERT_FALSE(arenas->witness.empty());
  EXPECT_NE(arenas->witness.front().find("global.packet_arena"), std::string::npos);
  // One arena per shard, written in phase A by its own NICs and serially
  // by the clients, is proven at every shard count.
  for (const int shards : {1, 2, 4}) {
    const analyze::AnalysisReport honest = analyze::analyze_config(baseline(), shards);
    EXPECT_TRUE(honest.ok()) << shards << "\n" << honest.to_string();
    const auto* ob = obligation(honest, "packet-arena-ownership");
    ASSERT_NE(ob, nullptr);
    EXPECT_TRUE(ob->proven) << shards;
    EXPECT_EQ(ob->proof, "shard-local") << shards;
  }
}

// Boundary rows advanced on their sender's shard: the advance's stamps of
// the receiver's arrival byte and due bit cross into the receiver's shard,
// where its own advancer stamps the same receiver for its interior links.
TEST(Analyzer, SenderAdvanceCorruptionRefused) {
  const analyze::AnalysisReport r =
      analyze_broken(baseline(), 2, analyze::BreakKind::kSenderAdvance);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.race_free);
  EXPECT_TRUE(has_code(r, "shard-crossing-mutable-state"));
  const auto* wake = obligation(r, "arrival-byte-filing");
  ASSERT_NE(wake, nullptr);
  EXPECT_FALSE(wake->proven);
  ASSERT_FALSE(wake->witness.empty());
  EXPECT_NE(wake->witness.front().find("wake"), std::string::npos);
  // The witness names the phase-B stamp from the wrong shard's advancer.
  bool witnessed = false;
  for (const auto& f : r.findings) {
    if (f.message.find("wake_row [plain state] --write[channel advance]--> shard.") !=
        std::string::npos) {
      witnessed = true;
    }
  }
  EXPECT_TRUE(witnessed);
  const auto* worklists = obligation(r, "worklist-filing");
  ASSERT_NE(worklists, nullptr);
  EXPECT_FALSE(worklists->proven);
  // The honest model files every boundary row under its receiver's shard.
  for (const int shards : {1, 2, 4}) {
    const analyze::AnalysisReport honest = analyze::analyze_config(baseline(), shards);
    EXPECT_TRUE(honest.ok()) << shards << "\n" << honest.to_string();
    const auto* ob = obligation(honest, "arrival-byte-filing");
    ASSERT_NE(ob, nullptr);
    EXPECT_TRUE(ob->proven) << shards;
  }
}

TEST(Analyzer, CorruptionsAreCleanAtOneShardExceptZeroLatency) {
  // The corruptions model *sharding* bugs: with one shard there is nothing
  // to race with, so the analyzer correctly accepts them (the sequential
  // kernel runs them deterministically).
  const auto topo = baseline().make_topology();
  const auto single = core::ShardPartition::single(topo->num_nodes());
  for (const auto kind : {analyze::BreakKind::kGlobalMutator,
                          analyze::BreakKind::kGatedBoundary,
                          analyze::BreakKind::kSharedFlitArena,
                          analyze::BreakKind::kSharedPacketArena,
                          analyze::BreakKind::kSenderAdvance}) {
    analyze::FootprintModel m = analyze::build_footprint(baseline(), single);
    analyze::corrupt(m, kind);
    const analyze::AnalysisReport r = analyze::analyze(m);
    EXPECT_TRUE(r.ok()) << analyze::break_kind_name(kind) << "\n"
                        << r.to_string();
  }
}

// --- schema pin --------------------------------------------------------------

std::string read_golden(const std::string& name) {
  const std::string path = std::string(OCN_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The exact document ocn-analyze --json writes for one run.
std::string document(const analyze::AnalysisReport& report,
                     const core::Config& config, const std::string& cell) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", std::string(analyze::kAnalyzeSchema));
  obs::Json runs = obs::Json::array();
  runs.push(analyze::report_json(report, config, cell));
  doc.set("runs", std::move(runs));
  return doc.dump(2) + "\n";
}

TEST(AnalyzeSchema, BaselineGoldenIsByteExact) {
  const analyze::AnalysisReport r = analyze::analyze_config(baseline(), 4);
  EXPECT_EQ(document(r, baseline(), "single"),
            read_golden("analyze_baseline_s4.json"));
}

TEST(AnalyzeSchema, BrokenGoldensAreByteExact) {
  {
    const analyze::AnalysisReport r = analyze_broken(
        baseline(), 2, analyze::BreakKind::kZeroLatencyCross);
    EXPECT_EQ(document(r, baseline(), "single-break-zero-latency-cross"),
              read_golden("analyze_break_zero_latency.json"));
  }
  {
    const analyze::AnalysisReport r =
        analyze_broken(baseline(), 2, analyze::BreakKind::kGlobalMutator);
    EXPECT_EQ(document(r, baseline(), "single-break-global-mutator"),
              read_golden("analyze_break_global_mutator.json"));
  }
}

TEST(AnalyzeSchema, GoldenVerdictsMatchTheReportObjects) {
  // Belt and braces: the committed goldens really do encode one accepted
  // and two refused partitions (guards against regenerating all three from
  // a broken analyzer that accepts everything).
  auto verdict = [](const obs::Json& doc, const char* key) {
    const obs::Json& run = doc.find("runs")->as_array().front();
    return run.find("verdicts")->find(key)->as_bool();
  };
  const obs::Json ok_doc =
      obs::Json::parse(read_golden("analyze_baseline_s4.json"));
  EXPECT_TRUE(verdict(ok_doc, "ok"));
  for (const char* name :
       {"analyze_break_zero_latency.json", "analyze_break_global_mutator.json"}) {
    const obs::Json doc = obs::Json::parse(read_golden(name));
    EXPECT_FALSE(verdict(doc, "ok")) << name;
    EXPECT_FALSE(verdict(doc, "race_free")) << name;
  }
}

// --- the construction gate ---------------------------------------------------

TEST(VerifiedNetworkGate, ShardedConstructionCarriesTheProof) {
  verify::VerifiedNetwork vnet(baseline(), 2);
  ASSERT_NE(vnet.partition_analysis(), nullptr);
  EXPECT_TRUE(vnet.partition_analysis()->ok());
  EXPECT_TRUE(vnet.partition_analysis()->deterministic);
  EXPECT_EQ(vnet.partition_analysis()->shards, 2);
  EXPECT_EQ(vnet.network().shards(), 2);
}

TEST(VerifiedNetworkGate, SequentialConstructionSkipsTheAnalyzer) {
  verify::VerifiedNetwork vnet(baseline(), 1);
  EXPECT_EQ(vnet.partition_analysis(), nullptr);
  EXPECT_EQ(vnet.network().shards(), 1);
}

// --- cross-validation against dynamic truth (safe side) ----------------------

TEST(AnalyzeCrossValidation, AnalyzerAgreesWithShardLockstepCampaign) {
  ref::CampaignOptions co;
  co.seeds = 2;
  co.trace_cycles = 120;
  co.max_cycles = 5000;
  co.minimize = false;
  co.analyze = true;
  const auto cells = ref::quick_matrix();
  const ref::CampaignResult r = ref::run_shard_campaign(cells, co, 2);
  EXPECT_EQ(r.diverged, 0);
  EXPECT_EQ(r.analyzer_cells, static_cast<int>(cells.size()));
  EXPECT_EQ(r.analyzer_mismatches, 0) << (r.analyzer_notes.empty()
                                              ? std::string()
                                              : r.analyzer_notes.front());
  EXPECT_TRUE(r.ok());
}

// --- dynamic demonstrations (broken side) ------------------------------------
//
// The two committed broken goldens are not straw men: each corruption's
// dynamic counterpart really does produce order-dependent results. Both
// demos run single-threaded on the sequential kernel — registration order
// stands in for shard interleaving, which is exactly the nondeterminism the
// barrier discipline exists to remove — so they are deterministic to run,
// sanitizer-clean, and still demonstrate the divergence.

/// Zero-latency coupling: producer and consumer share a plain int instead of
/// a latency >= 1 channel, so the consumer sees the producer's same-cycle
/// write iff the producer stepped first.
struct PlainProducer final : Clockable {
  int* shared;
  explicit PlainProducer(int* s) : shared(s) {}
  void step(Cycle now) override { *shared = static_cast<int>(now) + 1; }
};
struct PlainConsumer final : Clockable {
  const int* shared;
  long long sum = 0;
  explicit PlainConsumer(const int* s) : shared(s) {}
  void step(Cycle) override { sum += *shared; }
};

TEST(DynamicDivergence, ZeroLatencyCouplingDependsOnStepOrder) {
  auto run = [](bool producer_first) {
    int shared = 0;
    PlainProducer p(&shared);
    PlainConsumer c(&shared);
    Kernel k;
    if (producer_first) {
      k.add(&p);
      k.add(&c);
    } else {
      k.add(&c);
      k.add(&p);
    }
    k.run(10);
    return c.sum;
  };
  // The orders disagree: the zero-latency coupling leaks same-cycle writes.
  EXPECT_NE(run(true), run(false));
}

/// The fixed version of the same pair: a latency-1 channel restores one
/// barrier of slack, so step order no longer matters — the discipline the
/// analyzer's channel-barrier-slack obligation enforces.
struct ChanProducer final : Clockable {
  testkit::OneLink<int>* out;
  explicit ChanProducer(testkit::OneLink<int>* ch) : out(ch) {}
  void step(Cycle now) override { out->send(static_cast<int>(now) + 1); }
};
struct ChanConsumer final : Clockable {
  testkit::OneLink<int>* in;
  long long sum = 0;
  explicit ChanConsumer(testkit::OneLink<int>* ch) : in(ch) {}
  void step(Cycle) override {
    if (auto v = in->take()) sum += *v;
  }
};

TEST(DynamicDivergence, UnitLatencyChannelIsOrderInvariant) {
  auto run = [](bool producer_first) {
    testkit::OneLink<int> ch(1, "demo");
    ChanProducer p(&ch);
    ChanConsumer c(&ch);
    Kernel k;
    if (producer_first) {
      k.add(&p);
      k.add(&c);
    } else {
      k.add(&c);
      k.add(&p);
    }
    k.add(&ch.store());
    ch.follow(k);
    k.run(10);
    return c.sum;
  };
  EXPECT_EQ(run(true), run(false));
}

/// Global mutator: two "shards" fold into one plain accumulator with a
/// non-commutative update (the general case of unordered mutation). The
/// result depends on who folded first — which is shard interleaving once
/// the workers are real threads.
struct Folder final : Clockable {
  double* acc;
  double value;
  Folder(double* a, double v) : acc(a), value(v) {}
  void step(Cycle) override { *acc = *acc * 0.5 + value; }
};

TEST(DynamicDivergence, GlobalMutatorFoldDependsOnOrder) {
  auto run = [](bool a_first) {
    double acc = 0.0;
    Folder a(&acc, 1.0);
    Folder b(&acc, 2.0);
    Kernel k;
    if (a_first) {
      k.add(&a);
      k.add(&b);
    } else {
      k.add(&b);
      k.add(&a);
    }
    k.run(4);
    return acc;
  };
  EXPECT_NE(run(true), run(false));
}

/// And the analyzer-approved shape: commutative increments, read only after
/// the fold is complete (serial phase), are order-invariant.
struct Bumper final : Clockable {
  long long* acc;
  long long value;
  Bumper(long long* a, long long v) : acc(a), value(v) {}
  void step(Cycle) override { *acc += value; }
};

TEST(DynamicDivergence, CommutativeAccumulatorIsOrderInvariant) {
  auto run = [](bool a_first) {
    long long acc = 0;
    Bumper a(&acc, 3);
    Bumper b(&acc, 5);
    Kernel k;
    if (a_first) {
      k.add(&a);
      k.add(&b);
    } else {
      k.add(&b);
      k.add(&a);
    }
    k.run(4);
    return acc;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace ocn
