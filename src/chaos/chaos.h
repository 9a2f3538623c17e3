// Runtime fault injection (paper section 2.5, taken past manufacturing time).
//
// The static fault story — spare wires fused around stuck-at faults, an
// end-to-end check-and-retry service above the interface — assumes faults are
// known before the network carries traffic. This subsystem injects faults
// *into a live network*: wires that stick mid-run, links that die outright,
// windows of transient bit-flip noise, and NICs that stop ejecting. The
// machinery to survive them is split across the layers underneath:
//
//   * core::FaultyLinkTransform carries the runtime modes (dead links invert
//     every payload bit — flits are never dropped, so the simulator's flit
//     conservation and Network::idle() hold; transient noise flips one
//     random bit per afflicted flit);
//   * services::ReliableChannel recovers the data end to end (selective
//     repeat, CRC'd acks, backoff);
//   * routing::RouteComputer detours new routes around links marked dead.
//
// kill_link() ties the routing side together: it marks the link dead on a
// *trial* copy of the route table, re-runs the verify::Cdg deadlock proof on
// the degraded channel set, and only commits the new routes to the live
// network when the proof passes — routes never change without a proof.
//
// ChaosEngine is a Clockable that replays a scenario's event schedule in
// lockstep with the network, so campaigns are deterministic for a fixed
// seed and event list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.h"
#include "sim/kernel.h"
#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::chaos {

enum class EventKind {
  kLinkStuckAt,    ///< one wire sticks mid-run (no fuses blown for it)
  kLinkRepair,     ///< clear all fault state on a link; routes may use it again
  kLinkDeath,      ///< whole link dies; reroute + CDG re-proof via kill_link()
  kTransientFlips, ///< window of per-flit single-bit noise on a link
  kNicStall,       ///< a NIC stops ejecting (all VCs) for `duration` cycles
};

const char* event_kind_name(EventKind k);

/// One scheduled fault event. Fields beyond (at, kind, node, port) are
/// interpreted per kind; see the comments.
struct Event {
  Cycle at = 0;
  EventKind kind = EventKind::kLinkDeath;
  NodeId node = 0;
  topo::Port port = topo::Port::kRowPos;  ///< link events: the link out of `node`
  int wire = 0;                           ///< kLinkStuckAt: physical wire index
  bool stuck_value = true;                ///< kLinkStuckAt
  double flip_probability = 0.0;          ///< kTransientFlips
  Cycle duration = 0;  ///< kTransientFlips / kNicStall: window length; 0 = permanent
};

/// What happened when a link died (or was repaired): did the degraded route
/// set pass the CDG deadlock proof, and was it committed to the live network?
struct DegradeReport {
  NodeId node = kInvalidNode;
  topo::Port port = topo::Port::kTile;
  bool committed = false;      ///< new routes are live
  bool deadlock_free = false;  ///< CDG proof on the trial route set passed
  int unreachable_pairs = 0;   ///< (src,dst) pairs still crossing a dead link
  std::string cycle;           ///< CDG cycle description when the proof failed
};

/// Kill the link out of `node` through `port`: the fault transform starts
/// inverting every crossing flit, and — if the CDG proof passes on a trial
/// route table with the link marked dead — new packets route around it.
/// Packets already in flight keep their routes (and get corrupted if they
/// cross the dead link; the reliable service retransmits them along the new
/// route). Requires config.fault_layer.
DegradeReport kill_link(core::Network& net, NodeId node, topo::Port port);

/// Undo kill_link: clear the transform's fault state and, after re-proving
/// the shrunken dead set, let new routes use the link again.
DegradeReport revive_link(core::Network& net, NodeId node, topo::Port port);

/// Replays an event schedule against a live network, in cycle lockstep.
class ChaosEngine final : public Clockable {
 public:
  /// Registers itself in the network's kernel; `seed` feeds the transient
  /// bit-flip streams (one derived stream per afflicted link).
  explicit ChaosEngine(core::Network& net, std::uint64_t seed = 0);
  ~ChaosEngine() override;
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Add one event (any order; the schedule is kept sorted by cycle).
  void schedule(Event e);
  void schedule(const std::vector<Event>& events);

  void step(Cycle now) override;
  bool idle_internal() const override {
    return next_ >= events_.size() && expiries_.empty();
  }

  std::int64_t events_applied() const { return applied_; }
  /// One report per kLinkDeath / kLinkRepair event applied, in order.
  const std::vector<DegradeReport>& degrade_reports() const { return reports_; }

 private:
  void apply(const Event& e);
  void stall_nic(NodeId node, bool stalled);

  core::Network& net_;
  std::uint64_t seed_;
  std::vector<Event> events_;  ///< sorted by `at`
  std::size_t next_ = 0;
  std::vector<Event> expiries_;  ///< auto-generated undo events for windows
  std::vector<DegradeReport> reports_;
  std::int64_t applied_ = 0;
  std::uint64_t flip_streams_ = 0;  ///< distinct transient windows started
};

}  // namespace ocn::chaos
