#include "ref/diff.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/shard_partition.h"

namespace ocn::ref {

namespace {

constexpr std::size_t kMaxDetailLines = 16;

/// Walk the production network in the exact order RefNetwork::snapshot
/// documents. Any new field added to one side must be added to the other
/// (a length mismatch is itself reported as a "shape" divergence).
void production_snapshot(core::Network& net, const traffic::TraceReplay& replay,
                         std::int64_t deliveries,
                         std::vector<std::int64_t>& out) {
  const int vcs = net.config().router.vcs;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    core::Nic& nic = net.nic(n);
    out.push_back(nic.packets_injected());
    out.push_back(nic.packets_delivered());
    out.push_back(nic.flits_injected());
    out.push_back(nic.flits_delivered());
    out.push_back(nic.injection_queue_rejects());
    out.push_back(nic.queued_flits());
    out.push_back(nic.pending_eject_flits());
    out.push_back(nic.carry_backlog());
    out.push_back(nic.inject_arbiter().pointer());
    out.push_back(nic.eject_arbiter().pointer());
    for (VcId v = 0; v < vcs; ++v) out.push_back(nic.injection_credits(v));

    router::Router& r = net.router_at(n);
    router::RouterStatePool& pool = r.pool();
    const int slot = r.pool_slot();
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<topo::Port>(p);
      const router::InputController& in = r.input(port);
      if (!in.attached()) continue;
      out.push_back(in.flits_arrived());
      out.push_back(in.flits_dropped());
      out.push_back(r.switch_arb(port).pointer());
      const int* count = pool.buf_count_row(slot, p);
      const router::VcState* state = pool.vc_state_row(slot, p);
      const topo::Port* out_port = pool.out_port_row(slot, p);
      const VcId* out_vc = pool.out_vc_row(slot, p);
      for (VcId v = 0; v < vcs; ++v) {
        out.push_back(count[v]);
        // "Routed": the head's route entry has been decoded.
        out.push_back(state[v] == router::VcState::kVcWait ||
                              state[v] == router::VcState::kActive
                          ? 1
                          : 0);
        out.push_back(static_cast<std::int64_t>(out_port[v]));
        out.push_back(out_vc[v]);
      }
    }
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const router::OutputController& o = r.output(static_cast<topo::Port>(p));
      if (!o.attached()) continue;
      out.push_back(o.flits_sent());
      out.push_back(o.credit_only_flits());
      out.push_back(pool.carry_count_row(slot)[p]);
      const bool* staged = pool.stage_full(slot, p);
      out.push_back(std::count(staged, staged + topo::kNumPorts, true));
      out.push_back(o.link_arb.pointer());
      out.push_back(*pool.vc_rotation(slot, p));
      const int* credits = pool.credits(slot, p);
      const std::uint8_t allocated = pool.vc_allocated(slot, p);
      for (VcId v = 0; v < vcs; ++v) {
        out.push_back(credits[v]);
        out.push_back((allocated >> v) & 1);
      }
    }
  }
  out.push_back(replay.injected());
  out.push_back(replay.deferred_injections());
  out.push_back(deliveries);
}

}  // namespace

std::string Scenario::to_string() const {
  if (!active()) return "clean";
  std::ostringstream out;
  out << "kill_link node=" << kill_node << " port="
      << topo::port_name(kill_port) << " cycle=" << kill_cycle;
  return out.str();
}

std::string Divergence::to_string() const {
  std::ostringstream out;
  out << kind << " divergence at cycle " << cycle;
  for (const auto& d : details) out << "\n  " << d;
  return out.str();
}

DiffResult run_lockstep(const core::Config& config, const Scenario& scenario,
                        const std::vector<traffic::TraceEntry>& trace,
                        Cycle max_cycles, const Perturbation* perturb) {
  core::Network net(config);
  traffic::TraceReplay replay(net, trace);
  std::vector<DeliveryRecord> prod_log;
  net.set_delivery_observer([&prod_log](const core::Packet& p) {
    prod_log.push_back(reduce_delivery(p));
  });
  replay.start();

  RefNetwork ref(config);
  ref.add_trace(trace);

  DiffResult result;
  std::vector<std::int64_t> prod_state;
  std::vector<std::int64_t> ref_state;
  std::size_t compared = 0;

  for (Cycle c = 0; c < max_cycles; ++c) {
    if (scenario.active() && c == scenario.kill_cycle) {
      const chaos::DegradeReport report =
          chaos::kill_link(net, scenario.kill_node, scenario.kill_port);
      ref.kill_link(scenario.kill_node, scenario.kill_port, report.committed);
    }
    if (perturb != nullptr && c == perturb->cycle) {
      ref.perturb_credit(perturb->node, perturb->port, perturb->vc,
                         perturb->delta);
    }
    net.step();
    ref.tick();
    ++result.cycles_run;

    // Delivery log first: a mismatched ejection gives a far better message
    // than the counter drift it also causes.
    const auto& ref_log = ref.deliveries();
    const std::size_t both = std::min(prod_log.size(), ref_log.size());
    for (std::size_t i = compared; i < both; ++i) {
      if (prod_log[i] == ref_log[i]) continue;
      result.diverged = true;
      result.divergence.cycle = c;
      result.divergence.kind = "delivery";
      result.divergence.details.push_back(
          "delivery[" + std::to_string(i) + "] production: " +
          prod_log[i].to_string());
      result.divergence.details.push_back(
          "delivery[" + std::to_string(i) + "] reference:  " +
          ref_log[i].to_string());
      result.deliveries = static_cast<std::int64_t>(prod_log.size());
      return result;
    }
    compared = both;

    prod_state.clear();
    ref_state.clear();
    production_snapshot(net, replay,
                        static_cast<std::int64_t>(prod_log.size()), prod_state);
    ref.snapshot(ref_state);
    if (prod_state != ref_state) {
      result.diverged = true;
      result.divergence.cycle = c;
      result.deliveries = static_cast<std::int64_t>(prod_log.size());
      if (prod_state.size() != ref_state.size()) {
        result.divergence.kind = "shape";
        result.divergence.details.push_back(
            "state vector length: production=" +
            std::to_string(prod_state.size()) +
            " reference=" + std::to_string(ref_state.size()));
        return result;
      }
      result.divergence.kind = "state";
      const std::vector<std::string> labels = ref.snapshot_labels();
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < prod_state.size(); ++i) {
        if (prod_state[i] == ref_state[i]) continue;
        ++mismatches;
        if (result.divergence.details.size() < kMaxDetailLines) {
          result.divergence.details.push_back(
              labels[i] + ": production=" + std::to_string(prod_state[i]) +
              " reference=" + std::to_string(ref_state[i]));
        }
      }
      if (mismatches > kMaxDetailLines) {
        result.divergence.details.push_back(
            "... and " + std::to_string(mismatches - kMaxDetailLines) +
            " more mismatching fields");
      }
      return result;
    }

    if (replay.finished() && net.idle() && ref.drained()) {
      result.drained = true;
      break;
    }
  }
  result.deliveries = static_cast<std::int64_t>(prod_log.size());
  return result;
}

DiffResult run_shard_lockstep(const core::Config& config,
                              const Scenario& scenario,
                              const std::vector<traffic::TraceEntry>& trace,
                              int shards, Cycle max_cycles) {
  if (shards < 2) {
    throw std::invalid_argument(
        "run_shard_lockstep needs shards >= 2 (1 vs 1 proves nothing)");
  }
  core::Network base(config, /*shards=*/1);
  core::Network split(config, shards);
  traffic::TraceReplay base_replay(base, trace);
  traffic::TraceReplay split_replay(split, trace);
  std::vector<DeliveryRecord> base_log;
  std::vector<DeliveryRecord> split_log;
  base.set_delivery_observer([&base_log](const core::Packet& p) {
    base_log.push_back(reduce_delivery(p));
  });
  split.set_delivery_observer([&split_log](const core::Packet& p) {
    split_log.push_back(reduce_delivery(p));
  });
  base_replay.start();
  split_replay.start();

  DiffResult result;
  std::vector<std::int64_t> base_state;
  std::vector<std::int64_t> split_state;
  std::size_t compared = 0;

  for (Cycle c = 0; c < max_cycles; ++c) {
    if (scenario.active() && c == scenario.kill_cycle) {
      chaos::kill_link(base, scenario.kill_node, scenario.kill_port);
      chaos::kill_link(split, scenario.kill_node, scenario.kill_port);
    }
    base.step();
    split.step();
    ++result.cycles_run;

    const std::size_t both = std::min(base_log.size(), split_log.size());
    for (std::size_t i = compared; i < both; ++i) {
      if (base_log[i] == split_log[i]) continue;
      result.diverged = true;
      result.divergence.cycle = c;
      result.divergence.kind = "delivery";
      result.divergence.details.push_back(
          "delivery[" + std::to_string(i) + "] 1-shard: " +
          base_log[i].to_string());
      result.divergence.details.push_back(
          "delivery[" + std::to_string(i) + "] " + std::to_string(shards) +
          "-shard: " + split_log[i].to_string());
      result.deliveries = static_cast<std::int64_t>(base_log.size());
      return result;
    }
    compared = both;

    base_state.clear();
    split_state.clear();
    production_snapshot(base, base_replay,
                        static_cast<std::int64_t>(base_log.size()), base_state);
    production_snapshot(split, split_replay,
                        static_cast<std::int64_t>(split_log.size()),
                        split_state);
    if (base_state != split_state) {
      result.diverged = true;
      result.divergence.cycle = c;
      result.deliveries = static_cast<std::int64_t>(base_log.size());
      if (base_state.size() != split_state.size()) {
        result.divergence.kind = "shape";
        result.divergence.details.push_back(
            "state vector length: 1-shard=" + std::to_string(base_state.size()) +
            " " + std::to_string(shards) + "-shard=" +
            std::to_string(split_state.size()));
        return result;
      }
      result.divergence.kind = "state";
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < base_state.size(); ++i) {
        if (base_state[i] == split_state[i]) continue;
        ++mismatches;
        if (result.divergence.details.size() < kMaxDetailLines) {
          result.divergence.details.push_back(
              "state[" + std::to_string(i) + "]: 1-shard=" +
              std::to_string(base_state[i]) + " " + std::to_string(shards) +
              "-shard=" + std::to_string(split_state[i]));
        }
      }
      if (mismatches > kMaxDetailLines) {
        result.divergence.details.push_back(
            "... and " + std::to_string(mismatches - kMaxDetailLines) +
            " more mismatching fields");
      }
      return result;
    }

    if (base_replay.finished() && base.idle() && split_replay.finished() &&
        split.idle()) {
      result.drained = true;
      break;
    }
  }
  result.deliveries = static_cast<std::int64_t>(base_log.size());
  return result;
}

MinimizeResult minimize_divergence(const core::Config& config,
                                   const Scenario& scenario,
                                   std::vector<traffic::TraceEntry> trace,
                                   Cycle max_cycles,
                                   const Perturbation* perturb) {
  MinimizeResult res;
  std::vector<traffic::TraceEntry> cur = std::move(trace);
  std::size_t granularity = 2;
  while (cur.size() >= 2) {
    const std::size_t chunk = (cur.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < cur.size(); start += chunk) {
      std::vector<traffic::TraceEntry> candidate;
      candidate.reserve(cur.size());
      for (std::size_t i = 0; i < cur.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(cur[i]);
      }
      ++res.probes;
      if (run_lockstep(config, scenario, candidate, max_cycles, perturb)
              .diverged) {
        cur = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= cur.size()) break;
      granularity = std::min(cur.size(), granularity * 2);
    }
  }
  res.trace = std::move(cur);
  return res;
}

std::string divergence_report(const core::Config& config,
                              const Scenario& scenario,
                              const std::vector<traffic::TraceEntry>& trace,
                              const DiffResult& result, int shards) {
  std::ostringstream out;
  out << "# ocn-diff divergence trace (replay: ocn-diff --replay <file>)\n";
  out << "# config: " << config.summary() << '\n';
  out << "# scenario: " << scenario.to_string() << '\n';
  if (shards >= 2) out << "# shards: " << shards << '\n';
  if (result.diverged) {
    std::istringstream lines(result.divergence.to_string());
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << '\n';
  }
  out << traffic::trace_to_csv(trace);
  return out.str();
}

std::string replay_shards_error(int shards, int radix) {
  const int resolved = core::resolve_shards(shards, radix);
  if (resolved == shards) return "";
  std::ostringstream out;
  out << "trace asks for " << shards
      << " shards, but the row-strip partition of a radix-" << radix
      << " fabric supports at most " << resolved
      << "; refusing to replay under a different partitioning than the one "
         "that produced the trace (regenerate the trace or lower the shard "
         "count)";
  return out.str();
}

}  // namespace ocn::ref
