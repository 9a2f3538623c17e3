// ocn-diff — lockstep reference-model differential harness CLI.
//
// Runs the production core::Network and the deliberately-simple ref::
// RefNetwork on identical seeded traffic, comparing credit counts, buffer
// and allocation state, arbiter rotations, and the delivery log after every
// cycle. Examples:
//
//   ocn-diff                          # quick campaign: config matrix x seeds
//   ocn-diff --seeds 200             # longer campaign, same matrix
//   ocn-diff --cell piggyback        # restrict the matrix to one cell
//   ocn-diff --shards 4              # 1-shard vs 4-shard production lockstep
//   ocn-diff --shards 4 --radix 16   # same, on 16x16 fabrics
//   ocn-diff --replay failure.csv    # re-run a minimized divergence trace
//   ocn-diff --replay failure.csv --kill-node 0 --kill-port row+ --kill-cycle 60
//   ocn-diff --trace-out DIR         # write each failure's minimized trace
//
// A campaign synthesizes an independent bursty trace per (cell, seed) point
// and shards points over the sweep thread pool; any divergence is ddmin-
// minimized and printed as a replayable CSV. Exit status: 0 when every
// point agrees, 1 on any divergence, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ref/campaign.h"
#include "ref/diff.h"
#include "sim/parse.h"
#include "traffic/replay.h"

using namespace ocn;

namespace {

struct Options {
  int seeds = 50;
  Cycle trace_cycles = 400;
  Cycle max_cycles = 20000;
  int threads = 0;
  std::uint64_t master_seed = 42;
  bool minimize = true;
  bool quiet = false;
  std::string cell;       ///< restrict the matrix to cells containing this
  std::string replay;     ///< path of a divergence trace to re-run
  std::string trace_out;  ///< directory for failure traces
  int shards = 0;         ///< >= 2: shard-determinism referee instead of ref
  int radix = 0;          ///< > 0: override the matrix cells' radix
  // --replay scenario override (otherwise clean).
  ref::Scenario scenario;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds N            lockstep points per matrix cell (default 50)\n"
      "  --trace-cycles N     horizon of each synthesized trace (default 400)\n"
      "  --max-cycles N       per-point cycle bound (default 20000)\n"
      "  --threads N          sweep workers (default: hardware)\n"
      "  --seed S             campaign master seed (default 42)\n"
      "  --cell NAME          only matrix cells whose name contains NAME\n"
      "  --shards N           compare production 1-shard vs N-shard runs\n"
      "                       (sharded-kernel determinism referee) instead\n"
      "                       of production vs reference model\n"
      "  --radix R            override the matrix cells' radix (e.g. 16)\n"
      "  --no-minimize        skip ddmin on failures (faster)\n"
      "  --trace-out DIR      write each failure's minimized trace CSV there\n"
      "  --replay FILE        re-run one trace CSV in lockstep instead of a\n"
      "                       campaign (paper-baseline config; add chaos with\n"
      "                       --kill-node N --kill-port P --kill-cycle C).\n"
      "                       A '# shards: N' header (or --shards) replays as\n"
      "                       the 1-vs-N shard referee; a shard count above\n"
      "                       the radix clamp is refused, never clamped\n"
      "  --kill-node N --kill-port row+|row-|col+|col- --kill-cycle C\n"
      "  --quiet              summary line only\n",
      argv0);
  std::exit(2);
}

topo::Port parse_port(const std::string& s, const char* argv0) {
  if (s == "row+") return topo::Port::kRowPos;
  if (s == "row-") return topo::Port::kRowNeg;
  if (s == "col+") return topo::Port::kColPos;
  if (s == "col-") return topo::Port::kColNeg;
  std::fprintf(stderr, "unknown port '%s'\n", s.c_str());
  usage(argv0);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric values parse strictly: a malformed one throws (sim/parse.h).
    auto number = [&](auto& out) {
      out = flag_value<std::decay_t<decltype(out)>>(a, next());
    };
    if (a == "--seeds") {
      number(o.seeds);
    } else if (a == "--trace-cycles") {
      number(o.trace_cycles);
    } else if (a == "--max-cycles") {
      number(o.max_cycles);
    } else if (a == "--threads") {
      number(o.threads);
    } else if (a == "--seed") {
      number(o.master_seed);
    } else if (a == "--cell") {
      o.cell = next();
    } else if (a == "--shards") {
      number(o.shards);
      if (o.shards < 2) {
        std::fprintf(stderr, "--shards needs N >= 2\n");
        usage(argv[0]);
      }
    } else if (a == "--radix") {
      number(o.radix);
    } else if (a == "--no-minimize") {
      o.minimize = false;
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--replay") {
      o.replay = next();
    } else if (a == "--kill-node") {
      number(o.scenario.kill_node);
    } else if (a == "--kill-port") {
      o.scenario.kill_port = parse_port(next(), argv[0]);
    } else if (a == "--kill-cycle") {
      number(o.scenario.kill_cycle);
    } else if (a == "--quiet") {
      o.quiet = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      usage(argv[0]);
    }
  }
  return o;
}

int run_replay(const Options& o) {
  std::ifstream in(o.replay);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", o.replay.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::vector<traffic::TraceEntry> trace = traffic::parse_trace(buf.str());

  core::Config config = core::Config::paper_baseline();
  if (o.scenario.active()) config.fault_layer = true;
  const int nodes = config.make_topology()->num_nodes();
  if ((o.scenario.kill_cycle >= 0 || o.scenario.kill_node != kInvalidNode) &&
      (o.scenario.kill_node < 0 || o.scenario.kill_node >= nodes)) {
    std::fprintf(stderr, "ocn-diff: --kill-node: expected a node in [0, %d), got %d\n",
                 nodes, o.scenario.kill_node);
    return 2;
  }

  // Shard-determinism replays: a "# shards: N" header (written by the shard
  // campaigns' divergence reports) or an explicit --shards flag. A request
  // the row-strip partition cannot honor exactly is an error — silently
  // clamping would replay under a different partitioning than the one that
  // produced the trace.
  int shards = o.shards;
  try {
    const int header = traffic::trace_header_shards(buf.str());
    if (header >= 1 && o.shards == 0) shards = header;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", o.replay.c_str(), e.what());
    return 2;
  }
  if (shards >= 1) {
    const std::string err = ref::replay_shards_error(shards, config.radix);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: %s\n", o.replay.c_str(), err.c_str());
      return 2;
    }
  }

  const ref::DiffResult r =
      shards >= 2
          ? ref::run_shard_lockstep(config, o.scenario, trace, shards,
                                    o.max_cycles)
          : ref::run_lockstep(config, o.scenario, trace, o.max_cycles);
  const std::string mode =
      shards >= 2 ? "1 shard vs " + std::to_string(shards) + " shards"
                  : "production vs reference";
  if (r.diverged) {
    std::printf("DIVERGED replaying %s (%s, %s)\n%s\n", o.replay.c_str(),
                mode.c_str(), o.scenario.to_string().c_str(),
                r.divergence.to_string().c_str());
    return 1;
  }
  std::printf(
      "ok: %s agrees over %lld cycles (%lld deliveries, %s, %s, drained=%d)\n",
      o.replay.c_str(), static_cast<long long>(r.cycles_run),
      static_cast<long long>(r.deliveries), mode.c_str(),
      o.scenario.to_string().c_str(), r.drained ? 1 : 0);
  return 0;
}

int run_campaign(const Options& o) {
  std::vector<ref::CampaignCell> cells = ref::quick_matrix();
  if (!o.cell.empty()) {
    std::vector<ref::CampaignCell> kept;
    for (auto& c : cells) {
      if (c.name.find(o.cell) != std::string::npos) kept.push_back(c);
    }
    cells = std::move(kept);
    if (cells.empty()) {
      std::fprintf(stderr, "no matrix cell matches '%s'\n", o.cell.c_str());
      return 2;
    }
  }
  if (o.radix > 0) {
    for (auto& c : cells) c.config.radix = o.radix;
  }

  ref::CampaignOptions co;
  co.seeds = o.seeds;
  co.trace_cycles = o.trace_cycles;
  co.max_cycles = o.max_cycles;
  co.threads = o.threads;
  co.master_seed = o.master_seed;
  co.minimize = o.minimize;

  if (!o.quiet) {
    if (o.shards >= 2) {
      std::printf(
          "ocn-diff: %zu cells x %d seeds = %zu shard-lockstep points "
          "(1 shard vs %d shards)\n",
          cells.size(), co.seeds,
          cells.size() * static_cast<std::size_t>(co.seeds), o.shards);
    } else {
      std::printf("ocn-diff: %zu cells x %d seeds = %zu lockstep points\n",
                  cells.size(), co.seeds,
                  cells.size() * static_cast<std::size_t>(co.seeds));
    }
  }
  const ref::CampaignResult result =
      o.shards >= 2 ? ref::run_shard_campaign(cells, co, o.shards)
                    : ref::run_campaign(cells, co);

  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    const ref::PointResult& f = result.failures[i];
    std::printf("DIVERGED cell=%s seed=%llu\n%s\n", f.cell.c_str(),
                static_cast<unsigned long long>(f.seed),
                f.divergence.to_string().c_str());
    if (!o.trace_out.empty()) {
      const std::string path = o.trace_out + "/divergence-" + f.cell + "-" +
                               std::to_string(f.seed) + ".csv";
      std::ofstream out(path);
      out << f.report;
      std::printf("  minimized trace written to %s\n", path.c_str());
    } else if (!o.quiet) {
      std::printf("--- minimized trace ---\n%s---\n", f.report.c_str());
    }
  }
  for (const std::string& note : result.analyzer_notes) {
    std::printf("ANALYZER MISMATCH: %s\n", note.c_str());
  }
  std::printf("ocn-diff: %d points, %lld deliveries compared, %d divergence%s\n",
              result.points, static_cast<long long>(result.deliveries),
              result.diverged, result.diverged == 1 ? "" : "s");
  if (result.analyzer_cells > 0 && !o.quiet) {
    std::printf(
        "ocn-diff: static analyzer cross-validated on %d cells, "
        "%d mismatch%s\n",
        result.analyzer_cells, result.analyzer_mismatches,
        result.analyzer_mismatches == 1 ? "" : "es");
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!o.replay.empty()) return run_replay(o);
    return run_campaign(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ocn-diff: %s\n", e.what());
    return 2;
  }
}
