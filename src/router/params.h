// Microarchitectural parameters shared by all routers in a network.
// Defaults describe the paper's example network (section 2).
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace ocn::router {

enum class FlowControl {
  kVirtualChannel,  ///< credit-based VC flow control (the paper's network)
  kDropping,        ///< drop packets on contention (section 3.2 alternative)
};

struct RouterParams {
  int vcs = 8;             ///< virtual channels per input controller
  int buffer_depth = 4;    ///< flits of buffering per VC
  FlowControl flow_control = FlowControl::kVirtualChannel;

  /// Arbitration considers VC-class priority (section 2.1 classes of
  /// service); when false, plain round-robin.
  bool priority_arbitration = true;

  /// Carry credits on reverse-direction flits (the paper's piggybacking,
  /// section 2.3) instead of a dedicated credit wire. Idle reverse links
  /// send credit-only flits.
  bool piggyback_credits = false;

  /// The paper's aggressive single-cycle router: route strip, VC allocation
  /// and switch arbitration overlap in the arrival cycle (section 2.3).
  /// false models a conservative two-stage pipeline: a head flit decoded in
  /// cycle t becomes eligible for VC allocation and the switch in t+1.
  bool speculative = true;

  /// Cyclic reservation frame length (slots); see ReservationTable.
  int reservation_frame = 64;

  /// If true, dynamic traffic may use a reserved slot whose flit is absent.
  /// The paper's text implies strictly partitioned slots (default); the
  /// reclaiming variant is an ablation (bench E6).
  bool reclaim_idle_slots = false;

  /// Exclude scheduled_vc() from dynamic VC allocation. Must be true
  /// whenever any reservations exist; the Network enables it on flow setup.
  bool exclusive_scheduled_vc = false;

  /// VC dedicated to pre-scheduled traffic (section 2.6): the top one, the
  /// odd member of the highest class.
  VcId scheduled_vc() const { return static_cast<VcId>(vcs - 1); }

  /// VCs no output port may grant dynamically (bit v = VC v).
  std::uint8_t excluded_vcs() const {
    return static_cast<std::uint8_t>(exclusive_scheduled_vc ? 1u << scheduled_vc() : 0u);
  }

  bool dropping() const { return flow_control == FlowControl::kDropping; }

  /// The dateline VC-parity discipline (DESIGN.md, deadlock freedom): kept
  /// on a topology with wraparound rings unless flow control drops, which
  /// keeps a packet's injection VC on every hop and never blocks on a
  /// cyclic hold-wait. The one statement of the rule; the referee
  /// (ref::RefNetwork) keeps its own copy.
  bool dateline_parity(bool wraparound) const { return wraparound && !dropping(); }
};

}  // namespace ocn::router
