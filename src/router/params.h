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

  /// Enforce the dateline VC-parity discipline (required on wraparound
  /// topologies; harmless elsewhere).
  bool enforce_vc_parity = false;

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

  /// VC dedicated to pre-scheduled traffic when reservations are in use.
  VcId scheduled_vc = 7;
  /// Exclude scheduled_vc from dynamic VC allocation. Must be true whenever
  /// any reservations exist; the Network enables it on flow setup.
  bool exclusive_scheduled_vc = false;

  /// Sets the VC count and keeps the scheduled VC on the top one.
  void set_vcs(int n) {
    vcs = n;
    scheduled_vc = n - 1;
  }

  /// VCs no output port may grant dynamically (bit v = VC v).
  std::uint8_t excluded_vcs() const {
    return static_cast<std::uint8_t>(exclusive_scheduled_vc ? 1u << scheduled_vc : 0u);
  }

  bool dropping() const { return flow_control == FlowControl::kDropping; }
};

}  // namespace ocn::router
