// Arbiters used for switch and link allocation.
//
// RoundRobinArbiter rotates a grant pointer for fairness; the priority-aware
// variant first filters to the highest requested priority level, then breaks
// ties round-robin. Priority levels come from VC classes so that, per the
// paper (section 2.1), a short high-priority packet overtakes long
// low-priority traffic at every arbitration point.
//
// The grant pointer is a plain member: only the arbiter reads or writes it,
// and arbiters also run outside any router (the NIC's injection and
// ejection arbiters), so it has no RouterStatePool row. Requests are a
// bitmask (bit i set = input i requesting), the form the router's masks
// already have; a grant is the first set bit at or after the pointer.
// Rotation semantics under zero-requester calls (the pointer freezes; it
// only advances past a winner) are pinned by tests/test_router_units.cpp
// and tests/test_soa.cpp.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace ocn::router {

/// Widest arbiter instantiated anywhere (ports or VCs): one request bit per
/// input in a 32-bit mask.
inline constexpr int kMaxArbiterInputs = 32;

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int inputs) : inputs_(inputs) {
    assert(inputs >= 1 && inputs <= kMaxArbiterInputs);
  }

  /// Grant one of the requesting inputs (bit i of `requests`), or -1 if
  /// none: the first requester at or after the pointer, wrapping. Advances
  /// the pointer past the winner so grants rotate; with zero requesters the
  /// pointer is left untouched.
  int arbitrate(std::uint32_t requests) {
    assert(inputs_ == kMaxArbiterInputs || (requests >> inputs_) == 0);
    if (requests == 0) return -1;
    const std::uint32_t from = requests & (~std::uint32_t{0} << next_);
    const int winner = std::countr_zero(from != 0 ? from : requests);
    next_ = winner + 1 == inputs_ ? 0 : winner + 1;
    return winner;
  }

  int inputs() const { return inputs_; }

  /// Grant pointer: the input that wins the next all-request tie. Exposed so
  /// the differential harness can compare arbiter state between the
  /// production router and the reference model before a mis-grant becomes
  /// externally visible.
  int pointer() const { return next_; }

 private:
  int inputs_;
  int next_ = 0;
};

class PriorityArbiter {
 public:
  explicit PriorityArbiter(int inputs) : rr_(inputs) {}

  /// Grant among the highest-priority requesters; ties rotate.
  /// `priority[i]` is only inspected where bit i of `requests` is set.
  int arbitrate(std::uint32_t requests, const int* priority);

  /// Fast path for callers that know every requester carries the same
  /// priority (priority_arbitration disabled): skips the max-level pass.
  /// Exactly equivalent to arbitrate() with a flat priority vector — the
  /// level filter then passes every requester and the round-robin scan from
  /// the shared pointer picks the same winner.
  int arbitrate_flat(std::uint32_t requests) { return rr_.arbitrate(requests); }

  /// See RoundRobinArbiter::pointer().
  int pointer() const { return rr_.pointer(); }

 private:
  RoundRobinArbiter rr_;
};

}  // namespace ocn::router
