// ocn-verify — static network verifier CLI.
//
// Proves (or refutes) deadlock freedom of a configuration's routing by
// cycle detection over the channel-dependency graph, lints every producible
// source route, and checks the credit-loop arithmetic — all before a single
// cycle is simulated. Examples:
//
//   ocn-verify                                  # paper baseline: proof succeeds
//   ocn-verify --topology torus --radix 6 --no-vc-parity
//                                               # prints the dependency cycle
//                                               # datelines prevent
//   ocn-verify --radix 8 --depth 2 --link-latency 3   # credit-starved warning
//   ocn-verify --monitor-cycles 2000            # also run traffic under the
//                                               # live protocol monitor
//   ocn-verify --json report.json               # machine-readable verdicts in
//                                               # the ocn-bench-report schema
//
// Exit status: 0 when the report has no errors, 1 when it does (or the
// runtime monitor observes a violation), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/config_flags.h"
#include "obs/report.h"
#include "sim/parse.h"
#include "traffic/generator.h"
#include "verify/monitor.h"
#include "verify/verifier.h"

using namespace ocn;

namespace {

struct Options {
  core::Config config = core::Config::paper_baseline();
  verify::Datelines datelines = verify::Datelines::kDerived;
  Cycle monitor_cycles = 0;  ///< 0 = static analysis only
  double rate = 0.2;
  bool quiet = false;
  std::string json_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --topology mesh|torus|folded_torus   (default folded_torus)\n"
      "  --radix K                            tiles per side (default 4)\n"
      "  --vcs N --depth N                    router buffers (default 8 x 4)\n"
      "  --link-latency N                     cycles per link (default 1)\n"
      "  --no-vc-parity                       prove without the routers' dateline\n"
      "                                       VC discipline (static pass only)\n"
      "  --dropping                           dropping flow control\n"
      "  --piggyback                          piggyback credits on reverse flits\n"
      "  --exclusive-scheduled-vc             reserve the scheduled VC\n"
      "  --monitor-cycles N                   after the static pass, simulate N\n"
      "                                       cycles of uniform traffic under\n"
      "                                       the runtime protocol monitor\n"
      "  --rate R                             offered load for --monitor-cycles\n"
      "  --json PATH                          write the verification report as\n"
      "                                       ocn-bench-report/v1 JSON\n"
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
    if (a == "--no-vc-parity") {
      o.datelines = verify::Datelines::kNone;
    } else if (a == "--exclusive-scheduled-vc") {
      o.config.router.exclusive_scheduled_vc = true;
    } else if (a == "--monitor-cycles") {
      number(i, o.monitor_cycles);
    } else if (a == "--rate") {
      number(i, o.rate);
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

/// Serialize the verification outcome in the same schema the benches emit so
/// one comparison tool covers both. Returns the intended exit code.
int write_json(const Options& o, const verify::Report& report,
               const verify::RuntimeMonitor* mon, int code) {
  obs::Report out("VERIFY", "Static network verification",
                  "CDG deadlock proof, route lint, credit-loop arithmetic");
  out.set_config_fingerprint(o.config.fingerprint());
  out.add_note("config", o.config.summary());
  if (o.datelines == verify::Datelines::kNone) out.add_note("datelines", "none (--no-vc-parity)");

  int errors = 0, warnings = 0;
  for (const auto& f : report.findings) {
    if (f.severity == verify::Severity::kError) ++errors;
    if (f.severity == verify::Severity::kWarning) ++warnings;
    out.add_note(std::string(verify::severity_name(f.severity)) + "." + f.code,
                 f.message);
  }
  out.add_verdict("deadlock freedom (CDG proof)", "deadlock-free",
                  report.deadlock_free ? "deadlock-free"
                                       : "dependency cycle found",
                  report.proof_ran && report.deadlock_free);
  out.add_verdict("route lint", "0 errors",
                  std::to_string(errors) + " errors", errors == 0);
  out.add_metric("channels", report.channels);
  out.add_metric("edges", static_cast<double>(report.edges));
  out.add_metric("routes_linted", report.routes_linted);
  out.add_metric("max_route_bits", report.max_route_bits);
  out.add_metric("credit_round_trip", report.credit_round_trip);
  out.add_metric("per_vc_throughput_bound", report.per_vc_throughput_bound);
  out.add_metric("errors", errors);
  out.add_metric("warnings", warnings);
  if (mon != nullptr) {
    out.add_verdict("runtime protocol monitor", "0 violations",
                    std::to_string(mon->violation_count()) + " violations",
                    mon->ok());
    out.add_metric("monitor.hops_checked",
                   static_cast<double>(mon->hops_checked()));
    out.add_metric("monitor.credit_checks",
                   static_cast<double>(mon->credit_checks()));
    out.add_metric("monitor.violations",
                   static_cast<double>(mon->violation_count()));
  }
  out.set_timing(0.0, mon != nullptr ? o.monitor_cycles : 0);
  out.set_exit_code(code);
  if (!out.write(o.json_path)) {
    std::fprintf(stderr, "ocn-verify: failed to write %s\n",
                 o.json_path.c_str());
    return code != 0 ? code : 1;
  }
  if (!o.quiet) std::printf("\njson report: %s\n", o.json_path.c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ocn-verify: %s\n", e.what());
    return 2;
  }

  const verify::Report report = verify::verify(o.config, o.datelines);
  if (!o.quiet) {
    std::printf("%s", report.to_string().c_str());
  }
  if (!report.ok()) {
    return o.json_path.empty() ? 1 : write_json(o, report, nullptr, 1);
  }

  if (o.monitor_cycles > 0) {
    // The static pass was clean; cross-check it against a live simulation.
    verify::VerifiedNetwork vnet(o.config);
    traffic::HarnessOptions hopt;
    hopt.injection_rate = o.rate;
    hopt.warmup = 0;
    hopt.measure = o.monitor_cycles;
    traffic::LoadHarness harness(vnet.network(), hopt);
    harness.run();
    const auto& mon = vnet.monitor();
    if (!o.quiet) {
      std::printf(
          "\nmonitor: %lld cycles, %lld flit hops checked, %lld credit checks, "
          "%lld violations\n",
          static_cast<long long>(o.monitor_cycles),
          static_cast<long long>(mon.hops_checked()),
          static_cast<long long>(mon.credit_checks()),
          static_cast<long long>(mon.violation_count()));
      for (const auto& v : mon.violations()) {
        std::printf("  violation: %s\n", v.c_str());
      }
    }
    const int code = mon.ok() ? 0 : 1;
    return o.json_path.empty() ? code : write_json(o, report, &mon, code);
  }
  return o.json_path.empty() ? 0 : write_json(o, report, nullptr, 0);
}
