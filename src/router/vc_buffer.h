// Per-virtual-channel input buffer and routing state (paper Figure 3: each
// input controller holds an input buffer and input state logic per VC).
//
// A VcBuffer is a view: the ring storage and every routing-state field live
// in RouterStatePool's contiguous arrays, and the constructor binds
// references to one (router, port, vc) slice of them. A standalone buffer
// is a slice of a `RouterStatePool(1, params)`.
#pragma once

#include <cassert>
#include <utility>

#include "router/flit.h"
#include "router/soa.h"
#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::router {

/// One VC's buffer plus the state the input controller keeps for the packet
/// currently occupying it.
class VcBuffer {
 public:
  explicit VcBuffer(const VcBufferSlice& s)
      : routed(*s.routed),
        routed_at(*s.routed_at),
        out_port(*s.out_port),
        out_vc(*s.out_vc),
        dropping(*s.dropping),
        capacity_(s.capacity),
        slab_(s.slab),
        head_(s.head),
        count_(s.count) {}

  bool empty() const { return *count_ == 0; }
  bool full() const { return *count_ >= capacity_; }
  int size() const { return *count_; }
  int capacity() const { return capacity_; }

  void push(Flit&& f) {
    assert(!full() && "credit protocol violated: buffer overflow");
    slab_[slot(*count_)] = std::move(f);
    ++*count_;
  }

  /// Copy-push straight from the caller's storage into the ring slab (the
  /// arrival hot path copies from the channel output in place — one copy
  /// total instead of a move through a temporary).
  void push(const Flit& f) {
    assert(!full() && "credit protocol violated: buffer overflow");
    slab_[slot(*count_)] = f;
    ++*count_;
  }

  const Flit& front() const { return slab_[*head_]; }
  Flit& front() { return slab_[*head_]; }
  /// Most recently pushed flit (for post-push fixups on the stored copy).
  Flit& back() {
    assert(!empty());
    return slab_[slot(*count_ - 1)];
  }

  Flit pop() {
    assert(!empty());
    Flit f = std::move(slab_[*head_]);
    *head_ = (*head_ + 1) % capacity_;
    --*count_;
    return f;
  }

  // --- per-packet routing state -------------------------------------------
  /// True once the head of the resident packet has been route-decoded.
  bool& routed;
  /// Cycle the decode happened (non-speculative pipeline gating).
  Cycle& routed_at;
  /// Output port selected by the route field.
  topo::Port& out_port;
  /// Downstream VC granted by the output controller; kInvalidVc until then.
  VcId& out_vc;
  /// Set when the packet in this buffer is being dropped (dropping flow
  /// control): remaining flits through the tail are discarded on arrival.
  bool& dropping;

  void reset_packet_state() {
    routed = false;
    routed_at = -1;
    out_port = topo::Port::kTile;
    out_vc = kInvalidVc;
    dropping = false;
  }

 private:
  int slot(int offset) const { return (*head_ + offset) % capacity_; }

  int capacity_;
  Flit* slab_;
  int* head_;
  int* count_;
};

}  // namespace ocn::router
