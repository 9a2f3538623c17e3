#include "verify/verifier.h"

#include <algorithm>
#include <map>

#include "core/interface.h"
#include "verify/cdg.h"

namespace ocn::verify {

using topo::Port;

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

bool Report::has(Severity at_least) const {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return static_cast<int>(f.severity) >= static_cast<int>(at_least);
  });
}

std::string Report::to_string() const {
  std::string s;
  if (proof_ran) {
    s += "channel-dependency graph: " + std::to_string(channels) +
         " channels, " + std::to_string(edges) + " edges\n";
    if (deadlock_free) {
      s += "PROVED deadlock-free: the channel-dependency graph is acyclic\n";
    } else {
      s += "DEADLOCK POSSIBLE: dependency cycle of length " +
           std::to_string(cycle.size()) + ":\n";
      for (const auto& c : cycle) s += "  " + c + "\n";
      if (!cycle.empty()) s += "  -> closes back at " + cycle.front() + "\n";
    }
    s += "routes: " + std::to_string(routes_linted) +
         " linted, widest encoding " + std::to_string(max_route_bits) +
         " of " + std::to_string(routing::SourceRoute::kPaperRouteBits) +
         " route bits\n";
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "credit loop: round trip %d cycles, per-VC throughput bound "
                  "%.2f\n",
                  credit_round_trip, per_vc_throughput_bound);
    s += buf;
  }
  for (const auto& f : findings) {
    s += std::string(severity_name(f.severity)) + "[" + f.code +
         "]: " + f.message + "\n";
  }
  if (findings.empty()) s += "no findings\n";
  return s;
}

std::vector<Finding> lint_route(const core::Config& config,
                                const routing::RouteComputer& routes,
                                NodeId src, NodeId dst,
                                const routing::SourceRoute& route) {
  using routing::TurnCode;
  const topo::Topology& topo = routes.topology();
  std::vector<Finding> out;
  auto add = [&](Severity s, const char* code, std::string msg) {
    out.push_back({s, code, std::move(msg)});
  };
  const std::string pair =
      "route " + std::to_string(src) + "->" + std::to_string(dst);

  if (src == dst) {
    // Self-delivery never enters the network (the encoding has no zero-hop
    // form); any entries would be decoded as a real route.
    if (!route.empty()) {
      add(Severity::kError, "route-self",
          pair + ": self-addressed packets must carry an empty route");
    }
    return out;
  }
  if (route.empty()) {
    add(Severity::kError, "route-empty",
        pair + ": empty route for distinct source and destination");
    return out;
  }

  routing::SourceRoute r = route;
  Port heading = routing::injection_port(r.pop());
  NodeId node = src;
  int hops = 0;
  bool col_seen = false;
  bool extracted = false;
  while (true) {
    if (topo::dim_of(heading) == 1) {
      col_seen = true;
    } else if (col_seen) {
      add(Severity::kError, "route-dimension-order",
          pair + ": row move after a column move at node " +
              std::to_string(node) +
              " (violates the row-then-column turn model the deadlock proof "
              "assumes)");
      return out;
    }
    const auto link = topo.neighbor(node, heading);
    if (!link.has_value()) {
      add(Severity::kError, "route-off-topology",
          pair + ": hop " + std::to_string(hops) + " leaves node " +
              std::to_string(node) + " through " + topo::port_name(heading) +
              ", which has no link (mesh boundary)");
      return out;
    }
    node = link->dst;
    ++hops;
    if (r.empty()) {
      add(Severity::kError, "route-no-extract",
          pair + ": route exhausted after " + std::to_string(hops) +
              " hops without an extract entry (the packet would arrive with "
              "an empty route field)");
      return out;
    }
    const auto code = static_cast<TurnCode>(r.pop());
    if (code == TurnCode::kExtract) {
      extracted = true;
      break;
    }
    heading = routing::apply_turn(heading, code);
  }

  if (extracted && node != dst) {
    add(Severity::kError, "route-wrong-destination",
        pair + ": extracts at node " + std::to_string(node) +
            " instead of the destination");
  }
  if (extracted && node == dst) {
    const int min = topo.min_hops(src, dst);
    if (hops > min) {
      add(Severity::kWarning, "route-non-minimal",
          pair + ": " + std::to_string(hops) + " hops, minimum is " +
              std::to_string(min));
    }
  }
  if (!r.empty()) {
    add(Severity::kNote, "route-trailing-bits",
        pair + ": " + std::to_string(r.size()) +
            " entries after the extract (ignored by the decode, usable as "
            "data)");
  }
  if (route.bits_required() > routing::SourceRoute::kPaperRouteBits) {
    add(Severity::kWarning, "route-overflow",
        pair + ": needs " + std::to_string(route.bits_required()) +
            " bits, exceeding the paper's " +
            std::to_string(routing::SourceRoute::kPaperRouteBits) +
            "-bit route field (the simulator carries up to " +
            std::to_string(2 * routing::SourceRoute::kMaxEntries) + ")");
  }
  (void)config;
  return out;
}

namespace {

/// Cheap structural checks that must hold before a Topology/RouteComputer
/// can even be built. Mirrors (a subset of) Config::validate, but reports
/// instead of throwing. `parity`: the model keeps the dateline discipline.
bool precheck(const core::Config& c, bool parity, std::vector<Finding>& findings) {
  auto err = [&](const char* code, std::string msg) {
    findings.push_back({Severity::kError, code, std::move(msg)});
  };
  bool ok = true;
  if (c.radix < 2) {
    err("config-radix", "radix must be >= 2, got " + std::to_string(c.radix));
    ok = false;
  }
  if (c.router.vcs < 1 || c.router.vcs > 8) {
    err("config-vcs",
        "vcs must be in [1,8] (8-bit VC mask), got " +
            std::to_string(c.router.vcs));
    ok = false;
  }
  if (c.router.buffer_depth < 1) {
    err("config-depth", "buffer_depth must be >= 1, got " +
                            std::to_string(c.router.buffer_depth));
    ok = false;
  }
  if (c.link_latency < 1) {
    err("config-link-latency",
        "link_latency must be >= 1, got " + std::to_string(c.link_latency));
    ok = false;
  }
  if (parity && c.router.vcs % 2 != 0) {
    err("config-vc-parity",
        "a wraparound topology with VC flow control keeps the dateline "
        "discipline, which pairs VCs {2c, 2c+1}; the VC count must be even, "
        "got " +
            std::to_string(c.router.vcs));
    // Analysis can still proceed: the reachability lint below shows the
    // consequence (the orphan class wedges after a dateline crossing).
  }
  return ok;
}

/// Aggregate per-route findings so n^2 identical diagnostics collapse into
/// one finding carrying an affected-route count.
class FindingAggregator {
 public:
  void add(const Finding& f) {
    auto [it, inserted] = first_.try_emplace(f.code, f);
    ++count_[f.code];
    (void)it;
    (void)inserted;
  }
  void flush(std::vector<Finding>& out) const {
    for (const auto& [code, f] : first_) {
      Finding merged = f;
      const int n = count_.at(code);
      if (n > 1) {
        merged.message += " (and " + std::to_string(n - 1) + " more routes)";
      }
      out.push_back(std::move(merged));
    }
  }

 private:
  std::map<std::string, Finding> first_;
  std::map<std::string, int> count_;
};

}  // namespace

Report verify(const core::Config& config, Datelines datelines) {
  Report rep;
  auto add = [&](Severity s, const char* code, std::string msg) {
    rep.findings.push_back({s, code, std::move(msg)});
  };

  const bool parity = datelines == Datelines::kDerived && config.dateline_parity();
  if (!precheck(config, parity, rep.findings)) return rep;

  const auto topology = config.make_topology();
  const routing::RouteComputer routes(*topology);
  const int n = topology->num_nodes();

  // --- (1) channel-dependency-graph deadlock proof --------------------------
  const Cdg cdg(config, routes, datelines);
  rep.channels = cdg.num_channels();
  rep.edges = cdg.num_edges();
  rep.proof_ran = true;
  const auto cycle = cdg.find_cycle();
  rep.deadlock_free = cycle.empty();
  if (cycle.empty()) {
    add(Severity::kNote, "cdg-acyclic",
        "channel-dependency graph acyclic (" + std::to_string(rep.channels) +
            " channels, " + std::to_string(rep.edges) +
            " edges): deadlock-free for every packet the NIC can inject");
  } else {
    rep.cycle.reserve(cycle.size());
    for (const int id : cycle) rep.cycle.push_back(cdg.describe(id));
    const bool dropping = config.router.dropping();
    std::string msg = "channel-dependency cycle of length " +
                      std::to_string(cycle.size()) + ": " +
                      cdg.describe_cycle(cycle);
    if (dropping) {
      // Dropping flow control sheds arriving packets rather than blocking
      // them, so a cyclic hold-wait is unreachable in steady state — but
      // the static proof no longer holds unconditionally.
      add(Severity::kWarning, "cdg-cycle",
          msg + " — dropping flow control resolves contention by dropping, "
                "but deadlock freedom is not statically proven");
    } else {
      add(Severity::kError, "cdg-cycle", msg);
    }
  }

  // --- (2) route lint + per-class VC reachability ---------------------------
  FindingAggregator agg;
  const auto classes = core::dynamic_classes(config.router);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const auto route = routes.compute(s, d);
      rep.max_route_bits = std::max(rep.max_route_bits, route.bits_required());
      ++rep.routes_linted;
      for (const auto& f : lint_route(config, routes, s, d, route)) {
        agg.add(f);
      }
      for (const int c : classes) {
        const RouteExpansion e = expand_route(config, routes, s, d, c, datelines);
        for (std::size_t i = 0; i < e.hops(); ++i) {
          if (!e.vc_sets[i].empty()) continue;
          agg.add({Severity::kError, "vc-unreachable",
                   "class " + std::to_string(c) + " route " +
                       std::to_string(s) + "->" + std::to_string(d) +
                       ": no allocatable VC at hop " + std::to_string(i) +
                       " (node " + std::to_string(e.nodes[i]) + " port " +
                       topo::port_name(e.ports[i]) +
                       ") — the packet would wedge there forever"});
          break;
        }
      }
    }
  }
  agg.flush(rep.findings);

  // --- (3) credit-loop and buffer-sizing arithmetic -------------------------
  // A credit takes link_latency cycles back, the freed slot's next flit
  // link_latency forward, plus the one-cycle router traversal (docs/ROUTER.md
  // timing table). Piggybacked credits wait for a reverse-direction flit or
  // a credit-only filler, adding a cycle of queueing at best.
  rep.credit_round_trip =
      2 * config.link_latency + 1 + (config.router.piggyback_credits ? 1 : 0);
  const double depth = config.router.buffer_depth;
  rep.per_vc_throughput_bound =
      std::min(1.0, depth / static_cast<double>(rep.credit_round_trip));
  if (config.router.flow_control == router::FlowControl::kVirtualChannel) {
    if (config.router.buffer_depth < rep.credit_round_trip) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "buffer_depth %d < credit round trip %d: one VC sustains "
                    "at most %.0f%% of link rate; %d VCs together %s saturate "
                    "the link",
                    config.router.buffer_depth, rep.credit_round_trip,
                    100.0 * rep.per_vc_throughput_bound, config.router.vcs,
                    config.router.vcs * config.router.buffer_depth >=
                            rep.credit_round_trip
                        ? "can still"
                        : "cannot");
      add(config.router.vcs * config.router.buffer_depth >=
                  rep.credit_round_trip
              ? Severity::kNote
              : Severity::kWarning,
          "credit-starved", buf);
    } else {
      add(Severity::kNote, "credit-ok",
          "per-VC buffering (" + std::to_string(config.router.buffer_depth) +
              " flits) covers the " + std::to_string(rep.credit_round_trip) +
              "-cycle credit round trip: full per-VC throughput");
    }
  }

  return rep;
}

}  // namespace ocn::verify
