// ocnsim — command-line network simulator.
//
// Runs an open-loop load experiment on a configurable network and prints a
// result table (or CSV for plotting). Examples:
//
//   ocnsim                                     # paper baseline, rate sweep
//   ocnsim --topology mesh --radix 8 --rate 0.3
//   ocnsim --pattern bit_complement --sweep 0.05:0.9:0.05 --csv
//   ocnsim --vcs 4 --depth 2 --flits 4 --cycles 20000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config_flags.h"
#include "core/network.h"
#include "phys/power_model.h"
#include "sim/parse.h"
#include "traffic/generator.h"
#include "traffic/replay.h"
#include "traffic/saturation.h"

using namespace ocn;

namespace {

struct Options {
  core::Config config = core::Config::paper_baseline();
  traffic::Pattern pattern = traffic::Pattern::kUniform;
  double rate = -1.0;            // single point; <0 means sweep
  NumberRange sweep{0.05, 0.9, 0.1};
  int flits = 1;
  Cycle warmup = 1000, measure = 5000;
  bool csv = false;
  bool find_saturation = false;
  std::string trace_file;
  std::uint64_t seed = 42;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --topology mesh|torus|folded_torus   (default folded_torus)\n"
      "  --radix K                            tiles per side (default 4)\n"
      "  --vcs N --depth N                    router buffers (default 8 x 4)\n"
      "  --link-latency N                     cycles per link (default 1)\n"
      "  --pattern uniform|transpose|bit_complement|shuffle|bit_reverse|\n"
      "            tornado|neighbor|hotspot   (default uniform)\n"
      "  --rate R                             single offered load point\n"
      "  --sweep LO:HI:STEP                   load sweep (default 0.05:0.9:0.1)\n"
      "  --flits N                            flits per packet (default 1)\n"
      "  --warmup N --cycles N                measurement windows\n"
      "  --seed S                             RNG seed\n"
      "  --csv                                machine-readable output\n"
      "  --piggyback                          piggyback credits on reverse flits\n"
      "  --no-speculative                     two-stage router pipeline\n"
      "  --dropping                           dropping flow control\n"
      "  --find-saturation                    bisect for the saturation load\n"
      "  --trace FILE                         replay a CSV trace (cycle,src,dst,bits[,class])\n",
      argv0);
  std::exit(2);
}

std::optional<traffic::Pattern> parse_pattern(const std::string& s) {
  using traffic::Pattern;
  for (Pattern p : {Pattern::kUniform, Pattern::kTranspose, Pattern::kBitComplement,
                    Pattern::kShuffle, Pattern::kBitReverse, Pattern::kTornado,
                    Pattern::kNeighbor, Pattern::kHotspot}) {
    if (s == traffic::pattern_name(p)) return p;
  }
  return std::nullopt;
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
    if (a == "--pattern") {
      const auto p = parse_pattern(need(i));
      if (!p) usage(argv[0]);
      o.pattern = *p;
    } else if (a == "--rate") {
      number(i, o.rate);
    } else if (a == "--sweep") {
      o.sweep = range_value(a, need(i));
    } else if (a == "--flits") {
      number(i, o.flits);
    } else if (a == "--warmup") {
      number(i, o.warmup);
    } else if (a == "--cycles") {
      number(i, o.measure);
    } else if (a == "--seed") {
      number(i, o.seed);
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--no-speculative") {
      o.config.router.speculative = false;
    } else if (a == "--find-saturation") {
      o.find_saturation = true;
    } else if (a == "--trace") {
      o.trace_file = need(i);
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

void run_point(const Options& o, double rate, TablePrinter* table) {
  core::Network net(o.config);
  traffic::HarnessOptions opt;
  opt.pattern = o.pattern;
  opt.injection_rate = rate / o.flits;
  opt.packet_flits = o.flits;
  opt.warmup = o.warmup;
  opt.measure = o.measure;
  opt.drain_max = 1;
  opt.seed = o.seed;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  const auto e = net.energy(phys::PowerModel(o.config.tech));
  if (o.csv) {
    std::printf("%.4f,%.4f,%.2f,%.2f,%.2f,%.2f,%.2f\n", rate, r.accepted_flits,
                r.avg_latency, r.p99_latency, r.avg_hops, r.avg_link_mm,
                e.pj_per_delivered_flit);
  } else {
    table->add_row({TablePrinter::fmt(rate, 3), TablePrinter::fmt(r.accepted_flits, 3),
                    TablePrinter::fmt(r.avg_latency, 1), TablePrinter::fmt(r.p99_latency, 0),
                    TablePrinter::fmt(r.avg_hops, 2),
                    TablePrinter::fmt(e.pj_per_delivered_flit, 1)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ocnsim: %s\n", e.what());
    return 2;
  }
  try {
    o.config.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  if (!o.csv) {
    std::printf("ocnsim: %s radix=%d vcs=%d depth=%d pattern=%s flits=%d seed=%llu\n",
                core::topology_kind_name(o.config.topology), o.config.radix,
                o.config.router.vcs, o.config.router.buffer_depth,
                traffic::pattern_name(o.pattern), o.flits,
                static_cast<unsigned long long>(o.seed));
  } else {
    std::printf("offered,accepted,avg_latency,p99_latency,avg_hops,avg_mm,pj_per_flit\n");
  }

  if (!o.trace_file.empty()) {
    std::FILE* f = std::fopen(o.trace_file.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open trace file: %s\n", o.trace_file.c_str());
      return 2;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    try {
      core::Network net(o.config);
      traffic::TraceReplay replay(net, traffic::parse_trace(text));
      replay.start();
      while (!replay.finished()) net.step();
      net.drain(1000000);
      const auto s = net.stats();
      std::printf("replayed %lld messages (%lld deferred by backpressure); "
                  "mean latency %.1f cycles, %lld flits delivered\n",
                  static_cast<long long>(replay.injected()),
                  static_cast<long long>(replay.deferred_injections()),
                  s.latency.mean(), static_cast<long long>(s.flits_delivered));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace error: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  if (o.find_saturation) {
    traffic::SaturationOptions sopt;
    sopt.pattern = o.pattern;
    sopt.packet_flits = o.flits;
    sopt.seed = o.seed;
    const auto r = traffic::find_saturation(o.config, sopt);
    std::printf("saturation load: %.3f flits/node/cycle (peak accepted %.3f, %d probes)\n",
                r.saturation_load, r.peak_accepted, r.probes);
    return 0;
  }

  TablePrinter table({"offered", "accepted", "avg lat", "p99 lat", "hops", "pJ/flit"});
  if (o.rate >= 0) {
    run_point(o, o.rate, &table);
  } else {
    for (double r = o.sweep.lo; r <= o.sweep.hi + 1e-9; r += o.sweep.step) {
      run_point(o, r, &table);
    }
  }
  if (!o.csv) table.print();
  return 0;
}
