#include "router/arbiter.h"

namespace ocn::router {

int RoundRobinArbiter::arbitrate(const std::uint8_t* requests) {
  for (int i = 0; i < inputs_; ++i) {
    const int candidate = (next_ + i) % inputs_;
    if (requests[candidate]) {
      next_ = (candidate + 1) % inputs_;
      return candidate;
    }
  }
  return -1;
}

int RoundRobinArbiter::arbitrate_at_level(const std::uint8_t* requests,
                                          const int* priority, int level) {
  for (int i = 0; i < inputs_; ++i) {
    const int candidate = (next_ + i) % inputs_;
    if (requests[candidate] && priority[candidate] == level) {
      next_ = (candidate + 1) % inputs_;
      return candidate;
    }
  }
  return -1;
}

int PriorityArbiter::arbitrate(const std::uint8_t* requests,
                               const int* priority) {
  bool any = false;
  int best = 0;
  for (int i = 0; i < rr_.inputs(); ++i) {
    if (requests[i] && (!any || priority[i] > best)) {
      best = priority[i];
      any = true;
    }
  }
  if (!any) return -1;
  // Round-robin among the highest-priority requesters, without building a
  // filtered request vector (this runs per input port per cycle).
  return rr_.arbitrate_at_level(requests, priority, best);
}

}  // namespace ocn::router
