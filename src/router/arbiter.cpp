#include "router/arbiter.h"

namespace ocn::router {

int PriorityArbiter::arbitrate(std::uint32_t requests, const int* priority) {
  if (requests == 0) return -1;
  int best = priority[std::countr_zero(requests)];
  for (std::uint32_t r = requests & (requests - 1); r != 0; r &= r - 1) {
    const int level = priority[std::countr_zero(r)];
    if (level > best) best = level;
  }
  // Round-robin among the highest-priority requesters.
  std::uint32_t at_best = 0;
  for (std::uint32_t r = requests; r != 0; r &= r - 1) {
    const int i = std::countr_zero(r);
    if (priority[i] == best) at_best |= std::uint32_t{1} << i;
  }
  return rr_.arbitrate(at_best);
}

}  // namespace ocn::router
