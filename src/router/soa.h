// Structure-of-arrays store for router state: the single home of every
// per-VC and per-port field of the router datapath.
//
// Input-buffer rings and occupancy, per-packet routing state (output port,
// decoded VC request, granted VC), downstream credits, the VC-allocated
// masks and rotation, reservation-slot counts, the output stage registers,
// the piggyback carry rings and the per-cycle transients each live in one
// contiguous array per field, indexed (router, port, vc). Router's pipeline
// phases address them by (slot, port, vc), and the pool's ring functions
// hide the ring formats.
// The per-port records (Input/OutputController) own only wiring, the
// reservation slot table, the link arbiter and statistics (DESIGN.md §4h).
//
// Layout notes:
//   * one pool per shard (core::Network), so a shard's routers occupy a
//     contiguous slab and phase-A workers never share cache lines for hot
//     state across shards;
//   * a standalone router or unit is a 1-router pool: the three-argument
//     `Router(node, topo, params)` constructor owns a `RouterStatePool(1,
//     params)`, and unit tests slice one the same way;
//   * the arrival flags are the event-skip machinery of the kernel, one
//     byte per inbound channel (5 flit + 5 credit per router): a channel
//     stamps its receiver's byte as it delivers a value, the kernel steps a
//     router only when some byte is set or the occupancy scan
//     (has_internal_work) finds work, and each pipeline phase probes a
//     channel object only when its byte is set (clearing it as it consumes).
//     The bytes are stamped-on-delivery work presence — set iff the channel
//     output is engaged — never a cached "busy" bit; see the
//     Channel::take() lesson (DESIGN.md §4h).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "router/flit.h"
#include "router/params.h"
#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::router {

class RouterStatePool {
 public:
  RouterStatePool(int routers, const RouterParams& params)
      : routers_(routers),
        vcs_(params.vcs),
        depth_(params.buffer_depth),
        carry_cap_(params.vcs * params.buffer_depth),
        credits_(make_ints(n_rpv(), params.buffer_depth)),
        vc_allocated_(new std::uint8_t[n_rp()]()),
        vc_rr_(make_ints(n_rp(), 0)),
        resv_count_(make_ints(n_rp(), 0)),
        buf_head_(make_ints(n_rpv(), 0)),
        buf_count_(make_ints(n_rpv(), 0)),
        buf_slab_(new Flit[n_rpv() * static_cast<std::size_t>(depth_)]),
        routed_(make_bools(n_rpv())),
        routed_at_(new Cycle[n_rpv()]),
        out_port_(new topo::Port[n_rpv()]),
        out_vc_(new VcId[n_rpv()]),
        discarding_(make_bools(n_rpv())),
        stage_flit_(new Flit[n_rp() * static_cast<std::size_t>(topo::kNumPorts)]),
        stage_full_(make_bools(n_rp() * static_cast<std::size_t>(topo::kNumPorts))),
        stage_fresh_(make_bools(n_rp() * static_cast<std::size_t>(topo::kNumPorts))),
        carry_ring_(new VcId[n_rp() * static_cast<std::size_t>(carry_cap_)]),
        carry_head_(make_ints(n_rp(), 0)),
        carry_count_(make_ints(n_rp(), 0)),
        popped_(make_bools(n_rp())),
        link_used_(make_bools(n_rp())),
        alloc_mask_(new std::uint8_t[n_rpv()]()),
        alloc_want_odd_(make_bools(n_rpv())),
        arrive_(new std::atomic<std::uint8_t>[n_rp() * 2]) {
    assert(vcs_ >= 1 && vcs_ <= 8 && "the VC-allocated mask is one byte per port");
    for (std::size_t i = 0; i < n_rpv(); ++i) {
      routed_at_[i] = -1;
      out_port_[i] = topo::Port::kTile;
      out_vc_[i] = kInvalidVc;
    }
    for (std::size_t i = 0; i < n_rp() * 2; ++i) {
      arrive_[i].store(0, std::memory_order_relaxed);
    }
  }

  int routers() const { return routers_; }
  int vcs() const { return vcs_; }
  int depth() const { return depth_; }

  // --- input-buffer rings (router, port, vc) --------------------------------
  // One ring of `depth()` flit slots per VC. Router's arrival phase pushes,
  // its switch and bypass phases pop; the head/count format stays here.

  /// Copy-push straight from the caller's storage (the arrival hot path
  /// copies from the channel output in place — one copy, no temporary).
  void buf_push(int r, int p, VcId v, const Flit& f) {
    const std::size_t i = rpv(r, p, v);
    assert(buf_count_[i] < depth_ && "credit protocol violated: buffer overflow");
    buf_slab_[slab_slot(i, buf_count_[i])] = f;
    ++buf_count_[i];
  }
  Flit& buf_front(int r, int p, VcId v) {
    return buf_slab_[slab_slot(rpv(r, p, v), 0)];
  }
  /// Most recently pushed flit (for post-push fixups on the stored copy).
  Flit& buf_back(int r, int p, VcId v) {
    const std::size_t i = rpv(r, p, v);
    assert(buf_count_[i] > 0);
    return buf_slab_[slab_slot(i, buf_count_[i] - 1)];
  }
  Flit buf_pop(int r, int p, VcId v) {
    const std::size_t i = rpv(r, p, v);
    assert(buf_count_[i] > 0);
    Flit f = std::move(buf_slab_[slab_slot(i, 0)]);
    buf_head_[i] = (buf_head_[i] + 1) % depth_;
    --buf_count_[i];
    return f;
  }
  /// Forget the routing state of the packet whose tail just left the VC.
  void reset_packet_state(int r, int p, VcId v) {
    const std::size_t i = rpv(r, p, v);
    routed_[i] = false;
    routed_at_[i] = -1;
    out_port_[i] = topo::Port::kTile;
    out_vc_[i] = kInvalidVc;
  }

  // --- contiguous per-(router,port) rows, `vcs` wide ------------------------
  // The phase loops scan these to reject idle VCs with sequential loads;
  // only surviving candidates touch the wide flit slab.
  const int* buf_count_row(int r, int p) const { return &buf_count_[rpv(r, p, 0)]; }
  /// Per-packet routing state: the head has been route-decoded, the cycle
  /// it was (non-speculative pipeline gating), the output port its route
  /// selected, and the downstream VC granted (kInvalidVc until then).
  bool* routed_row(int r, int p) { return &routed_[rpv(r, p, 0)]; }
  Cycle* routed_at_row(int r, int p) { return &routed_at_[rpv(r, p, 0)]; }
  topo::Port* out_port_row(int r, int p) { return &out_port_[rpv(r, p, 0)]; }
  VcId* out_vc_row(int r, int p) { return &out_vc_[rpv(r, p, 0)]; }
  /// Dropping flow control: "currently discarding an arriving packet".
  bool* discarding_row(int r, int p) { return &discarding_[rpv(r, p, 0)]; }

  /// The decoded VC request of the packet at the front: its class's VC
  /// mask and whether it needs an odd (post-dateline) downstream VC. Written
  /// by decode_fronts with the route, read by every allocation attempt until
  /// the grant; like out_port, per-packet routing state.
  std::uint8_t* alloc_mask_row(int r, int p) { return &alloc_mask_[rpv(r, p, 0)]; }
  bool* alloc_want_odd_row(int r, int p) { return &alloc_want_odd_[rpv(r, p, 0)]; }
  const int* resv_count_row(int r) const { return &resv_count_[rp(r, 0)]; }
  const int* carry_count_row(int r) const { return &carry_count_[rp(r, 0)]; }
  /// All kNumPorts * kNumPorts stage-occupancy flags of one router slot.
  const bool* stage_full_block(int r) const {
    return &stage_full_[rp(r, 0) * static_cast<std::size_t>(topo::kNumPorts)];
  }

  // --- output-port state (router, port) -------------------------------------
  /// Downstream credits, `vcs` wide.
  int* credits(int r, int p) { return &credits_[rpv(r, p, 0)]; }
  /// Downstream VCs held by a packet: bit v set from grant to tail.
  std::uint8_t& vc_allocated(int r, int p) { return vc_allocated_[rp(r, p)]; }
  int* vc_rotation(int r, int p) { return &vc_rr_[rp(r, p)]; }
  int* resv_count(int r, int p) { return &resv_count_[rp(r, p)]; }

  /// Output stage registers: `kNumPorts` slots (one per input port).
  Flit* stage(int r, int p) {
    return &stage_flit_[rp(r, p) * static_cast<std::size_t>(topo::kNumPorts)];
  }
  bool* stage_full(int r, int p) {
    return &stage_full_[rp(r, p) * static_cast<std::size_t>(topo::kNumPorts)];
  }
  bool* stage_fresh(int r, int p) {
    return &stage_fresh_[rp(r, p) * static_cast<std::size_t>(topo::kNumPorts)];
  }

  /// Piggyback carry queue: a ring of vcs * depth slots per output port.
  /// Bounded by credit conservation — an entry is a freed buffer slot not
  /// yet signalled upstream, and there are only vcs * depth slots to free.
  void carry_push(int r, int p, VcId v) {
    const std::size_t i = rp(r, p);
    assert(carry_count_[i] < carry_cap_ &&
           "carry ring overflow: credit conservation violated");
    carry_ring_[carry_slot(i, carry_count_[i])] = v;
    ++carry_count_[i];
  }
  VcId carry_pop(int r, int p) {
    const std::size_t i = rp(r, p);
    const VcId v = carry_ring_[carry_slot(i, 0)];
    carry_head_[i] = (carry_head_[i] + 1) % carry_cap_;
    --carry_count_[i];
    return v;
  }

  // --- per-cycle transients -------------------------------------------------
  /// "This input forwarded a flit this cycle" / "this output's link sent this
  /// cycle" flags; batch-cleared by clear_cycle_flags at end of step.
  bool* popped(int r, int p) { return &popped_[rp(r, p)]; }
  bool* link_used(int r, int p) { return &link_used_[rp(r, p)]; }

  /// End-of-step batch clear of the per-cycle transients: popped and
  /// link_used rows plus the whole stage_fresh block, all contiguous.
  void clear_cycle_flags(int r) {
    const std::size_t rp0 = rp(r, 0);
    const auto np = static_cast<std::size_t>(topo::kNumPorts);
    for (std::size_t i = 0; i < np; ++i) {
      popped_[rp0 + i] = false;
      link_used_[rp0 + i] = false;
    }
    bool* fresh = &stage_fresh_[rp0 * np];
    for (std::size_t i = 0; i < np * np; ++i) fresh[i] = false;
  }

  // --- event-skip -----------------------------------------------------------
  /// Arrival-flag kinds: one byte per inbound channel of a router.
  static constexpr int kArriveFlit = 0;
  static constexpr int kArriveCredit = 1;
  /// Bytes per router in the arrival row (5 flit + 5 credit channels).
  static constexpr int kWakeWidth = 2 * topo::kNumPorts;

  /// The arrival byte channel (port, kind) stamps: set by the channel's
  /// advance whenever its output is engaged, cleared by the pipeline phase
  /// that consumes that channel. Invariant: byte != 0 iff the channel
  /// output is engaged (both flag owner and channel are stepped/advanced by
  /// the receiver's shard, so no other shard ever touches the byte).
  std::atomic<std::uint8_t>* arrival(int r, int p, int kind) {
    return &arrive_[(rp(r, p) << 1) + static_cast<std::size_t>(kind)];
  }
  /// The kWakeWidth contiguous arrival bytes of router `r` — the kernel's
  /// skip predicate scans this row (any byte set => arrivals pending).
  std::atomic<std::uint8_t>* wake_row(int r) { return &arrive_[rp(r, 0) << 1]; }

  /// True when router slot `r` has internal work pending: any buffered flit,
  /// staged flit, queued carry credit, or reservation slot. Recomputed from
  /// occupancy on every call — deliberately *not* a cached busy flag (the
  /// stale-flag pattern Channel::take() once had). Together with an
  /// all-zero wake row (no arrivals) it is the kernel's whole skip rule for
  /// a router: stepping such a router would change nothing.
  bool has_internal_work(int r) const {
    const std::size_t pv = rpv(r, 0, 0);
    const auto npv = static_cast<std::size_t>(topo::kNumPorts * vcs_);
    for (std::size_t i = 0; i < npv; ++i) {
      if (buf_count_[pv + i] != 0) return true;
    }
    const std::size_t rp0 = rp(r, 0);
    const auto np = static_cast<std::size_t>(topo::kNumPorts);
    for (std::size_t i = 0; i < np; ++i) {
      if (resv_count_[rp0 + i] != 0 || carry_count_[rp0 + i] != 0) return true;
    }
    const std::size_t st = rp0 * np;
    for (std::size_t i = 0; i < np * np; ++i) {
      if (stage_full_[st + i]) return true;
    }
    return false;
  }

 private:
  std::size_t n_rp() const {
    return static_cast<std::size_t>(routers_) * static_cast<std::size_t>(topo::kNumPorts);
  }
  std::size_t n_rpv() const { return n_rp() * static_cast<std::size_t>(vcs_); }
  std::size_t rp(int r, int p) const {
    assert(r >= 0 && r < routers_ && p >= 0 && p < topo::kNumPorts);
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(topo::kNumPorts) +
           static_cast<std::size_t>(p);
  }
  std::size_t rpv(int r, int p, VcId v) const {
    assert(v >= 0 && v < vcs_);
    return rp(r, p) * static_cast<std::size_t>(vcs_) + static_cast<std::size_t>(v);
  }
  /// Slab index of the flit `offset` places behind the front of ring `i`.
  std::size_t slab_slot(std::size_t i, int offset) const {
    return i * static_cast<std::size_t>(depth_) +
           static_cast<std::size_t>((buf_head_[i] + offset) % depth_);
  }
  /// Ring index of the carry entry `offset` places behind the front of `i`.
  std::size_t carry_slot(std::size_t i, int offset) const {
    return i * static_cast<std::size_t>(carry_cap_) +
           static_cast<std::size_t>((carry_head_[i] + offset) % carry_cap_);
  }

  static std::unique_ptr<int[]> make_ints(std::size_t n, int fill) {
    auto a = std::make_unique<int[]>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = fill;
    return a;
  }
  static std::unique_ptr<bool[]> make_bools(std::size_t n) {
    return std::make_unique<bool[]>(n);  // value-initialized: all false
  }

  int routers_;
  int vcs_;
  int depth_;
  int carry_cap_;

  std::unique_ptr<int[]> credits_;
  std::unique_ptr<std::uint8_t[]> vc_allocated_;
  std::unique_ptr<int[]> vc_rr_;
  std::unique_ptr<int[]> resv_count_;
  std::unique_ptr<int[]> buf_head_;
  std::unique_ptr<int[]> buf_count_;
  std::unique_ptr<Flit[]> buf_slab_;
  std::unique_ptr<bool[]> routed_;
  std::unique_ptr<Cycle[]> routed_at_;
  std::unique_ptr<topo::Port[]> out_port_;
  std::unique_ptr<VcId[]> out_vc_;
  std::unique_ptr<bool[]> discarding_;
  std::unique_ptr<Flit[]> stage_flit_;
  std::unique_ptr<bool[]> stage_full_;
  std::unique_ptr<bool[]> stage_fresh_;
  std::unique_ptr<VcId[]> carry_ring_;
  std::unique_ptr<int[]> carry_head_;
  std::unique_ptr<int[]> carry_count_;
  std::unique_ptr<bool[]> popped_;
  std::unique_ptr<bool[]> link_used_;
  std::unique_ptr<std::uint8_t[]> alloc_mask_;
  std::unique_ptr<bool[]> alloc_want_odd_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> arrive_;
};

}  // namespace ocn::router
