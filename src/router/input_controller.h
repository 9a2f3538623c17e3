// Input controller: one per router port (paper Figure 3, top).
//
// Holds an input buffer and routing state per virtual channel. When a head
// flit reaches the front of its VC buffer, the next two-bit entry of its
// route field selects the output port. Forwarding a flit frees a buffer
// slot, which is signalled upstream with a credit.
//
// This struct is the port's record: wiring and statistics. The per-VC
// buffers and routing state live in the owning router's state pool rows
// (router/soa.h); Router's pipeline phases do the work and advance these
// counters in place. The accessors are the read interface for statistics and harnesses.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "router/flit.h"
#include "sim/kernel.h"
#include "topo/topology.h"

namespace ocn::router {

struct InputController {
  struct Stats {
    std::int64_t packets_dropped = 0;
    std::int64_t flits_dropped = 0;
    std::int64_t buffer_reads = 0;
    /// Flits buffered per VC (per-VC load distribution; the dateline
    /// discipline and class spreading are visible here).
    std::vector<std::int64_t> vc_flits;
  };

  InputController(topo::Port p, int vcs) : port(p) {
    stats.vc_flits.assign(static_cast<std::size_t>(vcs), 0);
  }

  const topo::Port port;
  /// Incoming flit channel and upstream credit return, wired by
  /// Router::attach_input; null on disabled ports (mesh boundary).
  Channel<Flit>* in = nullptr;
  Channel<Credit>* credit_upstream = nullptr;
  Stats stats;

  bool attached() const { return in != nullptr; }
  int num_vcs() const { return static_cast<int>(stats.vc_flits.size()); }

  // --- statistics -----------------------------------------------------------
  std::int64_t buffer_writes() const {
    return std::accumulate(stats.vc_flits.begin(), stats.vc_flits.end(), std::int64_t{0});
  }
  /// Flits that arrived to be buffered (credit-only flits excluded): each
  /// was either written to a buffer or dropped.
  std::int64_t flits_arrived() const { return buffer_writes() + stats.flits_dropped; }
  std::int64_t packets_dropped() const { return stats.packets_dropped; }
  std::int64_t flits_dropped() const { return stats.flits_dropped; }
  std::int64_t buffer_reads() const { return stats.buffer_reads; }
  std::int64_t vc_flits(VcId v) const { return stats.vc_flits[static_cast<std::size_t>(v)]; }
};

}  // namespace ocn::router
