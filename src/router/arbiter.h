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
// ejection arbiters), so it has no RouterStatePool row. Requests are raw
// byte arrays (requests[i] != 0), which every caller fills on the stack.
// Rotation semantics under zero-requester calls (the pointer freezes; it
// only advances past a winner) are pinned by tests/test_router_units.cpp
// and tests/test_soa.cpp.
#pragma once

#include <cstdint>

namespace ocn::router {

/// Widest arbiter instantiated anywhere (ports or VCs); bounds the stack
/// request arrays callers build.
inline constexpr int kMaxArbiterInputs = 32;

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int inputs) : inputs_(inputs) {}

  /// Grant one of the requesting inputs (requests[i] != 0), or -1 if none.
  /// Advances the pointer past the winner so grants rotate; with zero
  /// requesters the pointer is left untouched.
  int arbitrate(const std::uint8_t* requests);

  /// As arbitrate(), but only inputs whose priority equals `level` compete.
  /// Equivalent to filtering the request vector first, without the per-call
  /// allocation that filtering would cost.
  int arbitrate_at_level(const std::uint8_t* requests, const int* priority,
                         int level);

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
  /// `priority[i]` is only inspected where requests[i] is nonzero.
  int arbitrate(const std::uint8_t* requests, const int* priority);

  /// Fast path for callers that know every requester carries the same
  /// priority (priority_arbitration disabled): skips the max-level pass.
  /// Exactly equivalent to arbitrate() with a flat priority vector — the
  /// level filter then passes every requester and the round-robin scan from
  /// the shared pointer picks the same winner.
  int arbitrate_flat(const std::uint8_t* requests) { return rr_.arbitrate(requests); }

  /// See RoundRobinArbiter::pointer().
  int pointer() const { return rr_.pointer(); }

 private:
  RoundRobinArbiter rr_;
};

}  // namespace ocn::router
