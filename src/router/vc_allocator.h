// Virtual-channel allocation policy for one output port.
//
// A packet's head flit must acquire a downstream virtual channel before its
// flits may cross the link (virtual-channel flow control, Dally '92, cited
// as [2][6] in the paper). The VC is held until the tail flit passes.
//
// The allocator honours the packet's 8-bit VC mask (class of service) and,
// on wraparound topologies, the dateline parity discipline: classes are VC
// pairs {2c, 2c+1}; a packet uses the even member before crossing its ring's
// dateline and the odd member after (see DESIGN.md on deadlock freedom).
//
// An allocator is a short-lived view that Router constructs wherever it
// grants or releases a VC. Its state is two (router, port) cells of a
// RouterStatePool: the allocated mask (bit v = VC v held by a packet) and
// the rotation pointer. A VC is busy when allocated or excluded, and the
// excluded mask is a constant of RouterParams (the scheduled VC when it is
// exclusive), and whether parity applies is a constant of the router's
// topology (RouterParams::dateline_parity). A standalone allocator views a
// `RouterStatePool(1, params)`.
#pragma once

#include <bit>
#include <cstdint>

#include "router/params.h"
#include "router/soa.h"
#include "sim/types.h"

namespace ocn::router {

class VcAllocator {
 public:
  /// Views the (slot, port) cells of `pool`; the pool must outlive the
  /// allocator. `dateline_parity` is the router's
  /// RouterParams::dateline_parity.
  VcAllocator(RouterStatePool& pool, int slot, int port, const RouterParams& params,
              bool dateline_parity)
      : vcs_(pool.vcs()),
        enforce_parity_(dateline_parity),
        excluded_(params.excluded_vcs()),
        allocated_(pool.vc_allocated(slot, port)),
        rr_(*pool.vc_rotation(slot, port)) {}

  /// Grant a free VC allowed by `mask` with parity matching `want_odd`
  /// (when parity is enforced and not suppressed via `ignore_parity`, e.g.
  /// on the ejection port where the dateline discipline does not apply).
  /// Rotates among eligible VCs for fairness. Returns kInvalidVc when none
  /// is free.
  VcId allocate(std::uint8_t mask, bool want_odd, bool ignore_parity = false);

  /// Grant a specific VC (used by the scheduled-traffic path and by
  /// same-VC allocation in dropping mode). Returns false if allocated.
  bool allocate_exact(VcId vc);

  void release(VcId vc);
  bool is_allocated(VcId vc) const { return ((allocated_ >> vc) & 1u) != 0; }
  int vcs() const { return vcs_; }
  int free_count() const {
    return vcs_ - std::popcount(static_cast<unsigned>(busy() & ((1u << vcs_) - 1u)));
  }
  int allocated_count() const { return std::popcount(allocated_); }
  /// Fairness-rotation pointer: the VC scanned first on the next allocate().
  /// Exposed for the differential harness's state comparison.
  int rotation() const { return rr_; }

 private:
  /// Bit v set when VC v is allocated or excluded — ineligible regardless
  /// of parity.
  std::uint8_t busy() const { return allocated_ | excluded_; }
  bool eligible(VcId vc, std::uint8_t mask, bool want_odd, bool ignore_parity) const;

  int vcs_;
  bool enforce_parity_;
  std::uint8_t excluded_;
  std::uint8_t& allocated_;
  int& rr_;
};

}  // namespace ocn::router
