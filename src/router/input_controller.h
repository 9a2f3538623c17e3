// Input controller: one per router port (paper Figure 3, top).
//
// Holds an input buffer and routing state per virtual channel. When a head
// flit reaches the front of its VC buffer, the next two-bit entry of its
// route field selects the output port. Forwarding a flit frees a buffer
// slot, which is signalled upstream with a credit.
//
// This struct is the port's record: whether it is wired, and statistics.
// The per-VC buffers and routing state live in the owning router's state
// pool rows (router/soa.h), and so do the port's links (the inbound flit
// row in the shard's link store, the credit return as a LinkRef); Router's
// pipeline phases do the work and advance these counters in place. The
// record is held inline in the Router, and its per-VC counts are a fixed
// array, so an arrival touches no heap block of its own. The accessors are
// the read interface for statistics and harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>

#include "router/flit.h"
#include "topo/topology.h"

namespace ocn::router {

struct InputController {
  struct Stats {
    std::int64_t packets_dropped = 0;
    std::int64_t flits_dropped = 0;
    std::int64_t buffer_reads = 0;
    /// Flits buffered per VC (per-VC load distribution; the dateline
    /// discipline and class spreading are visible here). Entries at and
    /// above the router's VC count stay 0.
    std::array<std::int64_t, 8> vc_flits{};
  };

  InputController(topo::Port p, int vcs) : port(p), vcs_(vcs) {}

  const topo::Port port;
  /// Set by Router::attach_input; a disabled port (mesh boundary) receives
  /// nothing.
  bool wired = false;
  Stats stats;

  bool attached() const { return wired; }
  int num_vcs() const { return vcs_; }

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

 private:
  int vcs_;
};

}  // namespace ocn::router
