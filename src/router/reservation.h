// Cyclic reservation registers (paper sections 2.1 and 2.6).
//
// Each output controller owns a slot table of `frame` entries addressed by
// cycle mod frame. When the system is configured, routes are laid out for
// all static traffic and reservations are made for each link of each route.
// At run time a pre-scheduled flit moves from link to link without
// arbitration or delay by riding its reserved slots; dynamic traffic
// arbitrates for the remaining cycles.
//
// The slot table is cold (touched only at configuration time and on the
// reserved cycles) and read by nothing else, so the table owns it as a
// vector, allocated by the first reserve(): until then every slot reads as
// unreserved, so a router that carries no scheduled traffic holds no table.
// The reserved-slot *count* lives in the (router, port) cell of a
// RouterStatePool, whose resv_adjust also keeps the router's reserved-
// outputs mask (the bypass and link-arbitration phases and the skip
// predicate read the mask). A standalone table binds a cell of a
// `RouterStatePool(1, params)`.
#pragma once

#include <vector>

#include "router/soa.h"
#include "sim/types.h"

namespace ocn::router {

class ReservationTable {
 public:
  struct Slot {
    int input = -1;           ///< input port holding the reserved flit
    VcId vc = kInvalidVc;     ///< its (scheduled) virtual channel
    bool reserved() const { return input >= 0; }
  };

  /// Binds the reserved-slot count of (slot, port) in `pool`; the pool
  /// must outlive the table.
  ReservationTable(int frame, RouterStatePool& pool, int slot, int port)
      : frame_(frame > 0 ? frame : 1), pool_(&pool), slot_(slot), port_(port) {}

  int frame() const { return frame_; }

  /// Claim a slot. Returns false if the slot is already taken (the caller —
  /// reservation setup — must then choose a different phase).
  bool reserve(int slot, int input, VcId vc);
  void clear(int slot);

  const Slot& at(Cycle now) const {
    static constexpr Slot kUnreserved{};
    return slots_.empty() ? kUnreserved : slots_[index(now)];
  }
  bool reserved_at(Cycle now) const { return at(now).reserved(); }

  /// Number of reserved slots; maintained incrementally.
  int reserved_count() const { return pool_->resv_count(slot_, port_); }
  bool any() const { return reserved_count() > 0; }

 private:
  std::size_t index(Cycle now) const {
    const auto f = static_cast<Cycle>(frame_);
    return static_cast<std::size_t>(((now % f) + f) % f);
  }
  int frame_;
  std::vector<Slot> slots_;  ///< `frame_` slots once reserve() has run, else empty
  RouterStatePool* pool_;
  int slot_;
  int port_;
};

}  // namespace ocn::router
