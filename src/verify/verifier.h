// Static network verifier: proves, before a single cycle is simulated, the
// properties the simulator otherwise only checks dynamically —
//
//   1. deadlock freedom, by cycle detection over the channel-dependency
//      graph (cdg.h) induced by all producible routes and the dateline VC
//      discipline; a failed proof reports the offending dependency cycle;
//   2. route well-formedness, by linting every producible source route
//      (stays on the topology, single row-then-column turn, extracts at the
//      destination, encoding fits the paper's 16-bit field) and checking
//      per-class VC reachability on every hop;
//   3. credit-loop arithmetic: round-trip credit latency vs per-VC buffer
//      depth, flagging configurations that cannot sustain full throughput.
//
// Unlike Config::validate(), verify() never throws: configurations the
// constructor would reject outright are still analysed so the failure can
// be *explained*. The dateline discipline is derived, not configured, but
// verify() can drop it (Datelines::kNone) to show the CDG cycle it prevents.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"
#include "routing/route_computer.h"
#include "verify/cdg.h"

namespace ocn::verify {

enum class Severity { kNote, kWarning, kError };

const char* severity_name(Severity s);

struct Finding {
  Severity severity = Severity::kNote;
  std::string code;     ///< stable machine-readable tag, e.g. "cdg-cycle"
  std::string message;  ///< human-readable explanation
};

struct Report {
  std::vector<Finding> findings;

  // --- CDG deadlock proof ---------------------------------------------------
  bool proof_ran = false;
  bool deadlock_free = false;
  /// Readable channel descriptions of one offending dependency cycle.
  std::vector<std::string> cycle;
  int channels = 0;
  std::int64_t edges = 0;

  // --- route lint -----------------------------------------------------------
  int routes_linted = 0;
  int max_route_bits = 0;

  // --- credit-loop arithmetic -----------------------------------------------
  int credit_round_trip = 0;
  /// min(1, buffer_depth / round_trip): the steady-state fraction of link
  /// rate one VC can sustain.
  double per_vc_throughput_bound = 0.0;

  bool has(Severity at_least) const;
  /// No error-severity findings (warnings allowed).
  bool ok() const { return !has(Severity::kError); }
  std::string to_string() const;
};

/// Run the full static analysis on a configuration. `datelines` kNone
/// analyses the routers without their dateline discipline, which no
/// network is built with: the counter-demonstration (ocn-verify
/// --no-vc-parity) that a torus then has a dependency cycle.
Report verify(const core::Config& config, Datelines datelines = Datelines::kDerived);

/// Lint one encoded source route from src against the topology. Returns the
/// empty vector for a clean route. Exposed separately so malformed-route
/// corpora (and the monitor's diagnostics) can exercise the linter directly.
std::vector<Finding> lint_route(const core::Config& config,
                                const routing::RouteComputer& routes,
                                NodeId src, NodeId dst,
                                const routing::SourceRoute& route);

}  // namespace ocn::verify
