// Input controller: one per router port (paper Figure 3, top).
//
// Holds an input buffer and routing state per virtual channel. When a head
// flit reaches the front of its VC buffer, the controller strips the next
// two-bit entry off the route field to select the output port. Forwarding a
// flit frees a buffer slot, which is signalled upstream with a credit.
//
// All per-VC buffer and routing state, the discarding flags and the
// per-cycle popped flag live in the owning router's RouterStatePool slot;
// the VcBuffer members are views into it. The controller itself keeps only
// wiring and statistics.
#pragma once

#include <vector>

#include "router/flit.h"
#include "router/params.h"
#include "router/soa.h"
#include "router/vc_buffer.h"
#include "sim/kernel.h"
#include "topo/topology.h"

namespace ocn::router {

class OutputController;

class InputController {
 public:
  InputController(topo::Port port, const RouterParams& params,
                  RouterStatePool& pool, int slot);

  InputController(InputController&&) = default;
  InputController(const InputController&) = delete;
  InputController& operator=(const InputController&) = delete;
  InputController& operator=(InputController&&) = delete;

  /// Wire up the incoming flit channel and the upstream credit channel.
  /// Either may be null for disabled ports (mesh boundary).
  void attach(Channel<Flit>* in, Channel<Credit>* credit_upstream);

  /// Piggyback mode: the co-located output controller driving the reverse
  /// direction. Harvested credits are delivered to it; generated credits
  /// are queued on it for carriage (paper section 2.3).
  void set_reverse_output(OutputController* out) { reverse_out_ = out; }

  bool attached() const { return in_ != nullptr; }
  topo::Port port() const { return port_; }

  /// Phase 1: consume an arriving flit into its VC buffer (or apply the
  /// dropping policy).
  void accept_arrival();

  /// Phase 2: decode the route of the head flit at the front of each VC.
  void decode_fronts(Cycle now);

  VcBuffer& vc(VcId v) { return vcs_[static_cast<std::size_t>(v)]; }
  const VcBuffer& vc(VcId v) const { return vcs_[static_cast<std::size_t>(v)]; }
  int num_vcs() const { return static_cast<int>(vcs_.size()); }

  /// True if this input already forwarded a flit this cycle (one flit per
  /// input port per cycle crosses the switch).
  bool popped_this_cycle() const { return *popped_; }

  /// Remove the front flit of `v`, emitting the upstream credit.
  Flit pop(VcId v);

  // --- statistics -----------------------------------------------------------
  std::int64_t flits_arrived() const { return flits_arrived_; }
  std::int64_t packets_dropped() const { return packets_dropped_; }
  std::int64_t flits_dropped() const { return flits_dropped_; }
  std::int64_t buffer_writes() const { return buffer_writes_; }
  std::int64_t buffer_reads() const { return buffer_reads_; }
  /// Flits buffered on one virtual channel (per-VC load distribution; the
  /// dateline discipline and class spreading are visible here).
  std::int64_t vc_flits(VcId v) const { return vc_flits_[static_cast<std::size_t>(v)]; }

 private:
  void decode(VcBuffer& buf, Cycle now);

  topo::Port port_;
  const RouterParams& params_;
  std::vector<VcBuffer> vcs_;  ///< views into the pool slot
  /// Dropping flow control: per-VC "currently discarding an arriving
  /// packet" flags (pool slice, `vcs` wide).
  bool* discarding_;
  /// Contiguous pool rows for this port (decode_fronts scans these to skip
  /// VCs with nothing to decode without touching the view objects).
  const int* count_row_;
  const bool* routed_row_;
  /// Allocation-retry cache invalidation (see RouterStatePool::
  /// alloc_primed_row): decode of a new head flit clears the primed bit.
  bool* alloc_primed_row_;
  /// This port's flit-arrival byte in the pool's wake row. The feeding
  /// channel stamps it as it advances (attach() wires set_wake);
  /// accept_arrival probes the channel object only when it is set, and
  /// clears it as it consumes.
  std::atomic<std::uint8_t>* arrive_flit_;
  /// Per-cycle transient (one switch traversal per input port), cleared by
  /// RouterStatePool::clear_cycle_flags at the end of the router's step.
  bool* popped_;
  Channel<Flit>* in_ = nullptr;
  Channel<Credit>* credit_upstream_ = nullptr;
  OutputController* reverse_out_ = nullptr;

  std::int64_t flits_arrived_ = 0;
  std::int64_t packets_dropped_ = 0;
  std::int64_t flits_dropped_ = 0;
  std::int64_t buffer_writes_ = 0;
  std::int64_t buffer_reads_ = 0;
  std::vector<std::int64_t> vc_flits_;
};

}  // namespace ocn::router
