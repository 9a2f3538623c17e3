// Output controller: one per router port (paper Figure 3, bottom).
//
// Provides a single stage of buffering for each input-port connection; the
// flits in those stage buffers arbitrate for the outgoing link. Tracks
// downstream credits per VC and the downstream VC allocation, and holds the
// cyclic reservation table for pre-scheduled traffic.
//
// This class is the port's record: wiring, the reservation slot table,
// the link arbiter, the observer hooks and statistics. Credits, the
// VC-allocated mask, the stage registers and the piggyback carry ring live
// in the owning router's state pool rows (router/soa.h); Router's pipeline
// phases do the work and advance these counters in place. The accessors are
// the read interface for statistics and harnesses. The link itself is a
// row of the downstream shard's link store, reached through the pool's
// LinkRef for this port.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "router/arbiter.h"
#include "router/flit.h"
#include "router/reservation.h"
#include "topo/topology.h"

namespace ocn::router {

class OutputController {
 public:
  struct Stats {
    std::int64_t bypass_flits = 0;
    std::int64_t idle_reserved_cycles = 0;
    std::int64_t contention_cycles = 0;
    std::int64_t active_bits_sent = 0;
    double active_bit_mm = 0.0;
    std::int64_t credit_only_flits = 0;
    std::int64_t toggled_bits = 0;
    double toggled_bit_mm = 0.0;
    Payload last_sent{};  ///< previous frame's data field, for toggle counting
    bool has_last_sent = false;
    /// Every send on the link, credit-only fillers included.
    std::int64_t link_sends = 0;
  };

  OutputController(topo::Port p, ReservationTable table)
      : port(p), link_arb(topo::kNumPorts), reservations_(std::move(table)) {}

  const topo::Port port;
  /// Set by Router::attach_output; a disabled port (mesh boundary) sends
  /// nothing.
  bool wired = false;
  double length_mm = 0.0;  ///< physical wire length, for energy/duty accounting
  PriorityArbiter link_arb;
  Stats stats;

  bool attached() const { return wired; }
  ReservationTable& reservations() { return reservations_; }
  const ReservationTable& reservations() const { return reservations_; }

  /// Install a per-link transform (fault layer). Not owned.
  void set_transform(LinkTransform* t) { transform_ = t; }
  const LinkTransform* transform() const { return transform_; }

  /// Observer invoked for every flit driven onto the link (tracing);
  /// second argument is true for pre-scheduled bypass traversals.
  using Tracer = std::function<void(const Flit&, bool)>;
  void set_tracer(Tracer t) { tracer_ = std::move(t); }

  /// Second observer slot, reserved for the protocol monitor
  /// (verify::RuntimeMonitor) so monitoring composes with client tracing.
  void set_monitor(Tracer t) { monitor_ = std::move(t); }

  /// Run the installed hooks on a flit about to be driven onto the link:
  /// the transform first, then the tracer and the monitor see the result.
  void apply_hooks(Flit& f, bool bypass) {
    if (transform_ != nullptr) transform_->apply(f);
    if (tracer_) tracer_(f, bypass);
    if (monitor_) monitor_(f, bypass);
  }

  // --- statistics -----------------------------------------------------------
  /// Flits driven onto the link: every send but the credit-only fillers
  /// (0 on a disabled port).
  std::int64_t flits_sent() const { return stats.link_sends - stats.credit_only_flits; }
  /// Every send on the link (the link.SRC.PORT.flits gauge).
  std::int64_t link_sends() const { return stats.link_sends; }
  std::int64_t bypass_flits() const { return stats.bypass_flits; }
  std::int64_t idle_reserved_cycles() const { return stats.idle_reserved_cycles; }
  /// Cycles in which a ready stage flit lost the link (contention measure).
  std::int64_t contention_cycles() const { return stats.contention_cycles; }
  /// Active (size-gated) bits sent: control + 2^size_code data bits per
  /// flit. The size field keeps unused data wires from toggling (sec 2.1).
  std::int64_t active_bits_sent() const { return stats.active_bits_sent; }
  /// Sum over flits of active bits x link mm (inter-router links only).
  double active_bit_mm() const { return stats.active_bit_mm; }
  std::int64_t credit_only_flits() const { return stats.credit_only_flits; }
  /// Data-dependent switching activity: bits that actually toggled on the
  /// link, i.e. the Hamming distance between consecutive frames (the
  /// "toggles" of paper section 4.4). Upper-bounded by active_bits_sent().
  std::int64_t toggled_bits() const { return stats.toggled_bits; }
  double toggled_bit_mm() const { return stats.toggled_bit_mm; }

 private:
  ReservationTable reservations_;
  LinkTransform* transform_ = nullptr;
  Tracer tracer_;
  Tracer monitor_;
};

}  // namespace ocn::router
