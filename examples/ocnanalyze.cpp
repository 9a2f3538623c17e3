// ocn-analyze — static concurrency-safety analyzer CLI.
//
// Builds the access-footprint graph of one sharded tick (every component,
// every piece of shared state, every read/write per tick phase) and proves —
// or refutes, with a readable witness path — that the shard partition is
// race-free and determinism-preserving, before a single cycle is simulated.
// The same proof gates verify::VerifiedNetwork, so this CLI is the analyzer's
// standalone face. Examples:
//
//   ocn-analyze --shards 4                 # paper baseline, 4 row strips
//   ocn-analyze --radix 16 --shards 4      # bigger fabric, same proof
//   ocn-analyze --matrix                   # ocn-diff quick matrix x shards
//                                          # {1,2,4} + radix sweep {8,16,64}
//   ocn-analyze --matrix --quick           # CI smoke: matrix only, no sweep
//   ocn-analyze --break zero-latency-cross # deliberately corrupted model:
//                                          # the proof must fail (exit 1)
//   ocn-analyze --json report.json         # ocn-analyze/v1 JSON document
//
// Exit status: 0 when every analyzed partition is proven safe, 1 when any
// proof is refused, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analyze/analyzer.h"
#include "core/config_flags.h"
#include "ref/campaign.h"
#include "sim/parse.h"

using namespace ocn;

namespace {

struct Options {
  core::Config config = core::Config::paper_baseline();
  int shards = 2;
  bool matrix = false;
  bool quick = false;
  bool quiet = false;
  std::string break_kind;  ///< empty: analyze the honest model
  std::string json_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --topology mesh|torus|folded_torus   (default folded_torus)\n"
      "  --radix K                            tiles per side (default 4)\n"
      "  --vcs N --depth N                    router buffers (default 8 x 4)\n"
      "  --link-latency N                     cycles per link (default 1)\n"
      "  --dropping                           dropping flow control\n"
      "  --piggyback                          piggyback credits on reverse flits\n"
      "  --shards N                           row-strip shard count (default 2)\n"
      "  --matrix                             analyze the ocn-diff quick matrix\n"
      "                                       at shards {1,2,4}, plus a radix\n"
      "                                       sweep {8,16,64} of the baseline\n"
      "  --quick                              with --matrix: skip the radix sweep\n"
      "  --break KIND                         corrupt the model before analysis:\n"
      "                                       zero-latency-cross | global-mutator\n"
      "                                       | gated-boundary\n"
      "                                       | cross-shard-worklist | shared-flit-arena\n"
      "                                       | shared-packet-arena | sender-advance\n"
      "                                       (proof must fail)\n"
      "  --json PATH                          write the runs as an\n"
      "                                       ocn-analyze/v1 JSON document\n"
      "  --quiet                              exit status only\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // Numeric values parse strictly: a malformed one throws (sim/parse.h).
  auto number = [&](int& i, auto& out) {
    const char* flag = argv[i];
    out = flag_value<std::decay_t<decltype(out)>>(flag, need(i));
  };
  for (int i = 1; i < argc; ++i) {
    if (core::parse_config_flag(o.config, argc, argv, i)) continue;
    const std::string a = argv[i];
    if (a == "--shards") {
      number(i, o.shards);
      if (o.shards < 1) usage(argv[0]);
    } else if (a == "--matrix") {
      o.matrix = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--break") {
      o.break_kind = need(i);
    } else if (a == "--json") {
      o.json_path = need(i);
    } else if (a == "--quiet") {
      o.quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

struct Run {
  std::string cell;
  core::Config config;
  analyze::AnalysisReport report;
};

/// Analyze `config` at `shards` row strips, optionally corrupting the model
/// first (--break). Uses the exact partition core::Network would execute.
analyze::AnalysisReport analyze_one(const core::Config& config, int shards,
                                    const std::string& break_kind,
                                    const char* argv0) {
  if (break_kind.empty()) return analyze::analyze_config(config, shards);

  analyze::BreakKind kind;
  if (break_kind == "zero-latency-cross") {
    kind = analyze::BreakKind::kZeroLatencyCross;
  } else if (break_kind == "global-mutator") {
    kind = analyze::BreakKind::kGlobalMutator;
  } else if (break_kind == "gated-boundary") {
    kind = analyze::BreakKind::kGatedBoundary;
  } else if (break_kind == "cross-shard-worklist") {
    kind = analyze::BreakKind::kCrossShardWorklist;
  } else if (break_kind == "shared-flit-arena") {
    kind = analyze::BreakKind::kSharedFlitArena;
  } else if (break_kind == "shared-packet-arena") {
    kind = analyze::BreakKind::kSharedPacketArena;
  } else if (break_kind == "sender-advance") {
    kind = analyze::BreakKind::kSenderAdvance;
  } else {
    std::fprintf(stderr, "unknown --break kind '%s'\n", break_kind.c_str());
    usage(argv0);
  }
  const auto topo = config.make_topology();
  const int resolved = core::resolve_shards(shards, config.radix);
  const auto partition =
      resolved > 1 ? core::ShardPartition::row_strips(*topo, resolved)
                   : core::ShardPartition::single(topo->num_nodes());
  analyze::FootprintModel model = analyze::build_footprint(config, partition);
  analyze::corrupt(model, kind);
  return analyze::analyze(model);
}

std::vector<Run> matrix_runs(const Options& o, const char* argv0) {
  std::vector<Run> runs;
  const std::vector<int> shard_list = {1, 2, 4};
  for (const ref::CampaignCell& cell : ref::quick_matrix()) {
    for (const int s : shard_list) {
      runs.push_back({cell.name + "@s" + std::to_string(s), cell.config,
                      analyze_one(cell.config, s, o.break_kind, argv0)});
    }
  }
  if (!o.quick) {
    // The paper's scaling claim: row strips stay provable as the fabric
    // grows. Baseline config, radices 8/16/64, shards {2,4}.
    for (const int radix : {8, 16, 64}) {
      core::Config c = core::Config::paper_baseline();
      c.radix = radix;
      for (const int s : {2, 4}) {
        runs.push_back({"baseline-r" + std::to_string(radix) + "@s" +
                            std::to_string(s),
                        c, analyze_one(c, s, o.break_kind, argv0)});
      }
    }
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ocn-analyze: %s\n", e.what());
    return 2;
  }

  std::vector<Run> runs;
  if (o.matrix) {
    runs = matrix_runs(o, argv[0]);
  } else {
    std::string cell = "single";
    if (!o.break_kind.empty()) cell += "-break-" + o.break_kind;
    runs.push_back({std::move(cell), o.config,
                    analyze_one(o.config, o.shards, o.break_kind, argv[0])});
  }

  int refused = 0;
  for (const Run& r : runs) {
    if (!r.report.ok()) ++refused;
    if (!o.quiet) {
      std::printf("=== %s (%s, %d shards)\n%s", r.cell.c_str(),
                  r.config.summary().c_str(), r.report.shards,
                  r.report.to_string().c_str());
    }
  }
  if (!o.quiet) {
    std::printf("ocn-analyze: %zu partitions analyzed, %d refused\n",
                runs.size(), refused);
  }

  const int code = refused == 0 ? 0 : 1;
  if (!o.json_path.empty()) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", std::string(analyze::kAnalyzeSchema));
    obs::Json arr = obs::Json::array();
    for (const Run& r : runs) {
      arr.push(analyze::report_json(r.report, r.config, r.cell));
    }
    doc.set("runs", std::move(arr));
    std::ofstream out(o.json_path);
    out << doc.dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "ocn-analyze: failed to write %s\n",
                   o.json_path.c_str());
      return code != 0 ? code : 1;
    }
    if (!o.quiet) std::printf("json report: %s\n", o.json_path.c_str());
  }
  return code;
}
