#include "chaos/chaos.h"

#include <algorithm>
#include <cassert>

#include "sim/rng.h"
#include "verify/cdg.h"

namespace ocn::chaos {

using topo::Port;

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kLinkStuckAt: return "link_stuck_at";
    case EventKind::kLinkRepair: return "link_repair";
    case EventKind::kLinkDeath: return "link_death";
    case EventKind::kTransientFlips: return "transient_flips";
    case EventKind::kNicStall: return "nic_stall";
  }
  return "?";
}

namespace {

/// Shared reroute path for death and repair: flip the link's dead flag on a
/// trial copy of the live route table, re-prove deadlock freedom on the
/// resulting channel set, and commit only on a passing proof.
DegradeReport reroute_with(core::Network& net, NodeId node, Port port,
                           bool dead) {
  DegradeReport report;
  report.node = node;
  report.port = port;

  routing::RouteComputer trial = net.routes();
  trial.set_link_dead(node, port, dead);

  const int n = net.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d && !trial.path_live(s, d)) ++report.unreachable_pairs;
    }
  }

  const verify::Cdg cdg(net.config(), trial);
  const auto cycle = cdg.find_cycle();
  report.deadlock_free = cycle.empty();
  if (report.deadlock_free) {
    net.mutable_routes().set_link_dead(node, port, dead);
    report.committed = true;
  } else {
    report.cycle = cdg.describe_cycle(cycle);
  }
  return report;
}

}  // namespace

DegradeReport kill_link(core::Network& net, NodeId node, Port port) {
  auto* fault = net.link_fault(node, port);
  assert(fault && "kill_link needs a link that exists, on a config.fault_layer network");
  if (fault) fault->set_dead(true);
  return reroute_with(net, node, port, /*dead=*/true);
}

DegradeReport revive_link(core::Network& net, NodeId node, Port port) {
  auto* fault = net.link_fault(node, port);
  if (fault) {
    fault->set_dead(false);
    fault->link().clear_faults();
  }
  return reroute_with(net, node, port, /*dead=*/false);
}

ChaosEngine::ChaosEngine(core::Network& net, std::uint64_t seed)
    : net_(net), seed_(seed) {
  net_.kernel().add(this);
}

ChaosEngine::~ChaosEngine() { net_.kernel().remove(this); }

void ChaosEngine::schedule(Event e) {
  const auto pos = std::upper_bound(
      events_.begin() + static_cast<std::ptrdiff_t>(next_), events_.end(), e,
      [](const Event& a, const Event& b) { return a.at < b.at; });
  events_.insert(pos, e);
}

void ChaosEngine::schedule(const std::vector<Event>& events) {
  for (const Event& e : events) schedule(e);
}

void ChaosEngine::stall_nic(NodeId node, bool stalled) {
  for (VcId v = 0; v < net_.config().router.vcs; ++v) {
    net_.nic(node).set_ejection_stall(v, stalled);
  }
}

void ChaosEngine::apply(const Event& e) {
  ++applied_;
  switch (e.kind) {
    case EventKind::kLinkStuckAt: {
      auto* fault = net_.link_fault(e.node, e.port);
      assert(fault && "chaos events require config.fault_layer");
      if (fault) fault->link().inject_stuck_at(e.wire, e.stuck_value);
      break;
    }
    case EventKind::kLinkRepair:
      reports_.push_back(revive_link(net_, e.node, e.port));
      break;
    case EventKind::kLinkDeath:
      reports_.push_back(kill_link(net_, e.node, e.port));
      break;
    case EventKind::kTransientFlips: {
      auto* fault = net_.link_fault(e.node, e.port);
      assert(fault && "chaos events require config.fault_layer");
      if (fault) {
        fault->set_flip_probability(e.flip_probability,
                                    derive_seed(seed_, ++flip_streams_));
      }
      if (e.duration > 0 && e.flip_probability > 0.0) {
        Event off = e;
        off.at = e.at + e.duration;
        off.flip_probability = 0.0;
        off.duration = 0;
        expiries_.push_back(off);
      }
      break;
    }
    case EventKind::kNicStall: {
      stall_nic(e.node, true);
      if (e.duration > 0) {
        Event off = e;
        off.at = e.at + e.duration;
        off.duration = -1;  // marks the un-stall half
        expiries_.push_back(off);
      }
      break;
    }
  }
}

void ChaosEngine::step(Cycle now) {
  while (next_ < events_.size() && events_[next_].at <= now) {
    apply(events_[next_++]);
  }
  for (std::size_t i = 0; i < expiries_.size();) {
    if (expiries_[i].at > now) {
      ++i;
      continue;
    }
    const Event e = expiries_[i];
    expiries_.erase(expiries_.begin() + static_cast<std::ptrdiff_t>(i));
    if (e.kind == EventKind::kNicStall) {
      stall_nic(e.node, false);
    } else {
      auto* fault = net_.link_fault(e.node, e.port);
      if (fault) fault->set_flip_probability(0.0, 0);
    }
  }
}

}  // namespace ocn::chaos
