#include "router/vc_allocator.h"

#include <cassert>

namespace ocn::router {

bool VcAllocator::eligible(VcId vc, std::uint8_t mask, bool want_odd,
                           bool ignore_parity) const {
  if (((busy() >> vc) & 1u) != 0) return false;
  if ((mask & (1u << vc)) == 0) return false;
  if (enforce_parity_ && !ignore_parity && (vc % 2 == 1) != want_odd) return false;
  return true;
}

VcId VcAllocator::allocate(std::uint8_t mask, bool want_odd, bool ignore_parity) {
  // Fast-fail: when every VC named by the mask is busy, eligible() is false
  // for all of them regardless of parity, so the scan would return
  // kInvalidVc with the rotation pointer untouched — exactly what this
  // early return does. At saturation this is the common outcome (ownership
  // persists while the link is credit-starved) even when other classes'
  // VCs sit free.
  if ((mask & static_cast<std::uint8_t>(~busy())) == 0) return kInvalidVc;
  const int n = vcs_;
  for (int i = 0; i < n; ++i) {
    const VcId vc = (rr_ + i) % n;
    if (eligible(vc, mask, want_odd, ignore_parity)) {
      allocated_ = static_cast<std::uint8_t>(allocated_ | (1u << vc));
      rr_ = (vc + 1) % n;
      return vc;
    }
  }
  return kInvalidVc;
}

bool VcAllocator::allocate_exact(VcId vc) {
  if (is_allocated(vc)) return false;
  allocated_ = static_cast<std::uint8_t>(allocated_ | (1u << vc));
  return true;
}

void VcAllocator::release(VcId vc) {
  assert(is_allocated(vc) && "releasing a VC that was never allocated");
  allocated_ = static_cast<std::uint8_t>(allocated_ & ~(1u << vc));
}

}  // namespace ocn::router
