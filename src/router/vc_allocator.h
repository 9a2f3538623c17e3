// Virtual-channel allocation state for one output controller.
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
// The allocated/excluded flags and the rotation pointer live in one
// (router, port) row of a RouterStatePool; the allocator holds pointers into
// it plus two summaries only it maintains (allocated count, busy mask). A
// standalone allocator is a row of a `RouterStatePool(1, params)`.
#pragma once

#include <cstdint>

#include "router/soa.h"
#include "sim/types.h"

namespace ocn::router {

class VcAllocator {
 public:
  /// Binds the (slot, port) row of `pool`; the pool must outlive the
  /// allocator.
  VcAllocator(RouterStatePool& pool, int slot, int port, bool enforce_parity)
      : vcs_(pool.vcs()),
        enforce_parity_(enforce_parity),
        allocated_(pool.vc_allocated(slot, port)),
        excluded_(pool.vc_excluded(slot, port)),
        rr_(pool.vc_rotation(slot, port)) {}

  // A copy would share the pool row but not the summaries below.
  VcAllocator(VcAllocator&&) = default;
  VcAllocator(const VcAllocator&) = delete;
  VcAllocator& operator=(const VcAllocator&) = delete;
  VcAllocator& operator=(VcAllocator&&) = delete;

  /// Grant a free VC allowed by `mask` with parity matching `want_odd`
  /// (when parity is enforced and not suppressed via `ignore_parity`, e.g.
  /// on the ejection port where the dateline discipline does not apply).
  /// Rotates among eligible VCs for fairness. Returns kInvalidVc when none
  /// is free.
  VcId allocate(std::uint8_t mask, bool want_odd, bool ignore_parity = false);

  /// Grant a specific VC (used by the scheduled-traffic path and by
  /// same-VC allocation in dropping mode). Returns false if busy.
  bool allocate_exact(VcId vc);

  void release(VcId vc);
  bool is_allocated(VcId vc) const { return allocated_[vc]; }
  int vcs() const { return vcs_; }
  int free_count() const;
  /// VCs currently allocated (maintained incrementally; equals the popcount
  /// of the allocated flags — ref::soa_crosscheck asserts this).
  int allocated_count() const { return allocated_count_; }
  /// Fairness-rotation pointer: the VC scanned first on the next allocate().
  /// Exposed for the differential harness's state comparison.
  int rotation() const { return *rr_; }

  /// Exclude a VC from dynamic allocation (reserved for scheduled traffic).
  void set_excluded(VcId vc, bool excluded);

 private:
  bool eligible(VcId vc, std::uint8_t mask, bool want_odd, bool ignore_parity) const;

  /// Recompute `vc`'s bit in busy_mask_ after an allocated_/excluded_ edit.
  void update_busy_bit(VcId vc) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << vc);
    if (allocated_[vc] || excluded_[vc]) {
      busy_mask_ |= bit;
    } else {
      busy_mask_ &= static_cast<std::uint8_t>(~bit);
    }
  }

  int vcs_;
  bool enforce_parity_;
  bool* allocated_;
  bool* excluded_;
  int* rr_;
  int allocated_count_ = 0;
  /// Bit v set when VC v is allocated or excluded — i.e. ineligible
  /// regardless of parity. allocate() fast-fails when the request mask is
  /// covered by this, which at saturation is the usual outcome even when
  /// other classes' VCs sit free.
  std::uint8_t busy_mask_ = 0;
};

}  // namespace ocn::router
