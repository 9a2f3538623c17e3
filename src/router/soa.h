// Structure-of-arrays store for router state: the single home of every
// per-VC and per-port field of the router datapath.
//
// Input-buffer rings and occupancy, per-packet routing state (VC state
// byte, output port, decoded VC request, granted VC), downstream credits,
// the VC-allocated masks and rotation, reservation-slot counts, the output
// stage registers, the piggyback carry rings and the per-cycle transients
// each live in one contiguous array per field, indexed (router, port, vc).
// Router's pipeline phases address them by (slot, port, vc), and the pool's
// transition functions hide the ring formats and keep the masks.
// The per-port records (Input/OutputController) own only wiring, the
// reservation slot table, the link arbiter and statistics (DESIGN.md §4h).
//
// Flit arena. The flits themselves live in one arena per pool, and the
// input rings and stage registers hold 4-byte FlitRef handles into it:
//   * one copy in, one copy out: buf_push copies an arriving flit from
//     the channel slot into a fresh arena slot; pop, take_flit, the stage
//     registers and the bypass move only the handle, and the router edits
//     the flit in place (VC, dateline, hops, carried credit, link hooks)
//     until send_on_link copies it into the link ring and frees the slot;
//   * the arena is a std::vector<Flit> reserved once to the pool's
//     capacity, routers x ports x (vcs x depth + ports) — every ring slot
//     and every stage slot full at once — so it never reallocates and a
//     Flit& stays valid across an allocation;
//   * slots are handed out from a LIFO free list (a just-freed, cache-warm
//     slot is reused first) and the arena grows only when the list is
//     empty, so pages above its high-water mark are never written and
//     never become resident: RSS follows the flits in flight, not the
//     buffer slots that could hold one;
//   * an empty stage slot holds kNoFlit, so the handle is also the
//     "stage full" record;
//   * a pool's arena is touched only by its own routers, i.e. by one
//     shard's worker in phase A (shard.S.flit_arena in src/analyze).
//
// Layout notes:
//   * one pool per shard (core::Network), so a shard's routers occupy a
//     contiguous slab and phase-A workers never share cache lines for hot
//     state across shards;
//   * every router lives in a pool; a standalone router or unit (the
//     isolated-router and unit tests) is slot 0 of a `RouterStatePool(1,
//     params)` its test owns;
//   * each (router, port, VC) has one state byte (VcState, netsim's
//     InputUnit::State::GlobalState): Idle (no packet), Routing (a head at
//     the front, route not yet decoded), VcWait (decoded, no downstream VC),
//     Active (VC granted, until the tail leaves). It is the only record of
//     "decoded" and "granted"; out_vc is valid exactly while Active;
//   * each router has one RouterMasks record: occupied VCs, VcWait VCs,
//     Active-and-occupied VCs, full stage registers, outputs with queued
//     carry credits or reservation slots, and the per-cycle bits (decoded
//     this cycle, input popped, link used). The pipeline phases walk set
//     bits only, and Router::idle_internal() is "no work bit set". Each
//     mask is written only by the pool function that makes its transition
//     (buf_push, buf_pop, set_route, grant, stage_put/stage_take,
//     carry_push/carry_pop, resv_adjust) and is derived state, so no phase
//     writes one directly. RouterMasks.* in tests/test_soa.cpp recomputes
//     every state byte and mask from the rows (buf_count, out_vc, the
//     stage handles, carry_count, resv_count) after every step — a test
//     referee for the Channel::take() cached-bit lesson (DESIGN.md §4h),
//     not a second runtime path;
//   * the arrival flags are the kernel's wake bytes, one per inbound
//     channel (5 flit + 5 credit per router): a channel stamps its
//     receiver's byte as it delivers a value, the kernel steps a router
//     only when some byte is set or a work bit is, and each pipeline phase
//     probes a channel object only when its byte is set (clearing it as it
//     consumes). The bytes are stamped-on-delivery work presence — set iff
//     the channel output is engaged.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "router/flit.h"
#include "router/params.h"
#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::router {

/// Handle of a flit in its pool's arena (see the header notes).
using FlitRef = std::uint32_t;
/// The handle of no flit: an empty stage register.
inline constexpr FlitRef kNoFlit = 0xffffffffu;

/// Per-VC packet state of an input VC (see the header notes).
enum class VcState : std::uint8_t { kIdle, kRouting, kVcWait, kActive };

/// Bit of (lane, index) in a RouterMasks word: one 8-bit lane per port, so
/// a port's VCs (or an output's stage slots, one per input) are one byte.
constexpr int mask_bit(int lane, int index) { return lane * 8 + index; }
/// The 8-bit lane of port `lane` in a 40-bit mask word.
constexpr unsigned mask_lane(std::uint64_t word, int lane) {
  return static_cast<unsigned>(word >> (lane * 8)) & 0xffu;
}

/// One router's masks, each kept by the pool transition that changes it.
struct RouterMasks {
  std::uint64_t occupied = 0;  ///< (port, vc) with buf_count > 0
  std::uint64_t vc_wait = 0;   ///< (port, vc) in VcState::kVcWait
  std::uint64_t ready = 0;     ///< (port, vc) Active with buf_count > 0
  std::uint64_t stage = 0;     ///< (output, input) stage register full
  std::uint64_t decoded = 0;   ///< (port, vc) decoded this cycle
  std::uint8_t carry = 0;      ///< outputs with carry_count > 0
  std::uint8_t resv = 0;       ///< outputs with resv_count > 0
  std::uint8_t popped = 0;     ///< inputs that forwarded a flit this cycle
  std::uint8_t link_used = 0;  ///< outputs whose link sent this cycle
};

class RouterStatePool {
 public:
  /// alloc_seen value of a VcWait VC that has not attempted allocation yet
  /// (never equal to an 8-bit allocated mask).
  static constexpr std::uint16_t kAllocUntried = 0x100;

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
        arena_cap_(n_rp() * static_cast<std::size_t>(vcs_ * depth_ + topo::kNumPorts)),
        buf_slab_(new FlitRef[n_rpv() * static_cast<std::size_t>(depth_)]),
        vc_state_(new VcState[n_rpv()]()),
        out_port_(new topo::Port[n_rpv()]),
        out_vc_(new VcId[n_rpv()]),
        discarding_(make_bools(n_rpv())),
        stage_flit_(new FlitRef[n_stage()]),
        carry_ring_(new VcId[n_rp() * static_cast<std::size_t>(carry_cap_)]),
        carry_head_(make_ints(n_rp(), 0)),
        carry_count_(make_ints(n_rp(), 0)),
        alloc_mask_(new std::uint8_t[n_rpv()]()),
        alloc_want_odd_(make_bools(n_rpv())),
        alloc_seen_(new std::uint16_t[n_rpv()]),
        masks_(new RouterMasks[static_cast<std::size_t>(routers)]),
        arrive_(new std::atomic<std::uint8_t>[n_rp() * 2]) {
    assert(vcs_ >= 1 && vcs_ <= 8 && "the VC-allocated mask is one byte per port");
    assert(arena_cap_ < kNoFlit && "arena handles are 32-bit");
    // Reserved, not filled: pages above the high-water mark stay untouched.
    arena_.reserve(arena_cap_);
    free_.reserve(arena_cap_);
    for (std::size_t i = 0; i < n_stage(); ++i) stage_flit_[i] = kNoFlit;
    for (std::size_t i = 0; i < n_rpv(); ++i) {
      out_port_[i] = topo::Port::kTile;
      out_vc_[i] = kInvalidVc;
      alloc_seen_[i] = kAllocUntried;
    }
    for (std::size_t i = 0; i < n_rp() * 2; ++i) {
      arrive_[i].store(0, std::memory_order_relaxed);
    }
  }

  int routers() const { return routers_; }
  int vcs() const { return vcs_; }
  int depth() const { return depth_; }

  /// Router `r`'s masks, read-only: every write is a transition below.
  const RouterMasks& masks(int r) const { return masks_[slot(r)]; }

  // --- flit arena -------------------------------------------------------------
  // The flits the rings and stage registers hold by handle (header notes).

  Flit& flit(FlitRef ref) {
    assert(ref < arena_.size());
    return arena_[ref];
  }
  /// Return a slot to the free list: the router calls this once the flit
  /// has been copied onto its link.
  void flit_free(FlitRef ref) {
    assert(ref < arena_.size());
    free_.push_back(ref);
  }
  /// Slots ever handed out (the high-water mark), the reserved bound, and
  /// the free slots among them, for tests.
  std::size_t arena_size() const { return arena_.size(); }
  std::size_t arena_capacity() const { return arena_cap_; }
  const std::vector<FlitRef>& free_list() const { return free_; }

  // --- input-buffer rings (router, port, vc) --------------------------------
  // One ring of `depth()` handles per VC. Router's arrival phase pushes,
  // its switch and bypass phases pop; the head/count format stays here.

  /// Copy the arriving flit straight from the caller's storage (the
  /// channel output slot) into a fresh arena slot — the hop's one copy in.
  /// An empty VC becomes occupied: Idle -> Routing (a new head), or an
  /// Active VC waiting for its next body flit becomes ready again.
  void buf_push(int r, int p, VcId v, const Flit& f) {
    const std::size_t i = rpv(r, p, v);
    assert(buf_count_[i] < depth_ && "credit protocol violated: buffer overflow");
    buf_slab_[slab_slot(i, buf_count_[i])] = flit_alloc(f);
    if (buf_count_[i]++ == 0) {
      RouterMasks& m = masks_[slot(r)];
      const std::uint64_t bit = std::uint64_t{1} << mask_bit(p, v);
      m.occupied |= bit;
      if (vc_state_[i] == VcState::kIdle) {
        vc_state_[i] = VcState::kRouting;
      } else if (vc_state_[i] == VcState::kActive) {
        m.ready |= bit;
      }
    }
  }
  /// Handle of the flit `offset` places behind the front (offset <
  /// buf_count), for tests.
  FlitRef buf_ref(int r, int p, VcId v, int offset) const {
    const std::size_t i = rpv(r, p, v);
    assert(offset >= 0 && offset < buf_count_[i]);
    return buf_slab_[slab_slot(i, offset)];
  }
  Flit& buf_front(int r, int p, VcId v) { return arena_[buf_ref(r, p, v, 0)]; }
  /// Most recently pushed flit (for post-push fixups on the stored copy).
  Flit& buf_back(int r, int p, VcId v) {
    return arena_[buf_ref(r, p, v, buf_count_[rpv(r, p, v)] - 1)];
  }
  /// Remove the front flit and hand over its handle. A tail ends the
  /// packet: its routing state is forgotten and the VC goes to Routing
  /// (the next head is already buffered) or Idle. A body flit leaving the
  /// last buffered slot leaves the VC Active but no longer ready.
  FlitRef buf_pop(int r, int p, VcId v) {
    const std::size_t i = rpv(r, p, v);
    assert(buf_count_[i] > 0);
    const FlitRef ref = buf_slab_[slab_slot(i, 0)];
    buf_head_[i] = (buf_head_[i] + 1) % depth_;
    const int left = --buf_count_[i];
    RouterMasks& m = masks_[slot(r)];
    const std::uint64_t bit = std::uint64_t{1} << mask_bit(p, v);
    if (is_tail(arena_[ref].type)) {
      vc_state_[i] = left > 0 ? VcState::kRouting : VcState::kIdle;
      out_port_[i] = topo::Port::kTile;
      out_vc_[i] = kInvalidVc;
      m.ready &= ~bit;
    } else if (left == 0) {
      m.ready &= ~bit;
    }
    if (left == 0) m.occupied &= ~bit;
    return ref;
  }

  // --- per-packet routing state ---------------------------------------------
  /// Routing -> VcWait: the head at the front has stripped its route entry,
  /// selecting `out`, and asks for a downstream VC of class `mask` with
  /// dateline parity `want_odd`.
  void set_route(int r, int p, VcId v, topo::Port out, std::uint8_t mask, bool want_odd) {
    const std::size_t i = rpv(r, p, v);
    assert(vc_state_[i] == VcState::kRouting);
    vc_state_[i] = VcState::kVcWait;
    out_port_[i] = out;
    alloc_mask_[i] = mask;
    alloc_want_odd_[i] = want_odd;
    alloc_seen_[i] = kAllocUntried;
    RouterMasks& m = masks_[slot(r)];
    const std::uint64_t bit = std::uint64_t{1} << mask_bit(p, v);
    m.vc_wait |= bit;
    m.decoded |= bit;
  }
  /// VcWait -> Active: the packet holds downstream VC `out_vc`.
  void grant(int r, int p, VcId v, VcId out_vc) {
    const std::size_t i = rpv(r, p, v);
    assert(vc_state_[i] == VcState::kVcWait && buf_count_[i] > 0);
    vc_state_[i] = VcState::kActive;
    out_vc_[i] = out_vc;
    RouterMasks& m = masks_[slot(r)];
    const std::uint64_t bit = std::uint64_t{1} << mask_bit(p, v);
    m.vc_wait &= ~bit;
    m.ready |= bit;
  }

  // --- contiguous per-(router,port) rows, `vcs` wide ------------------------
  const int* buf_count_row(int r, int p) const { return &buf_count_[rpv(r, p, 0)]; }
  const VcState* vc_state_row(int r, int p) const { return &vc_state_[rpv(r, p, 0)]; }
  /// The output port the decoded route selected (kTile unless decoded) and
  /// the downstream VC granted (kInvalidVc unless Active).
  const topo::Port* out_port_row(int r, int p) const { return &out_port_[rpv(r, p, 0)]; }
  const VcId* out_vc_row(int r, int p) const { return &out_vc_[rpv(r, p, 0)]; }
  /// Dropping flow control: "currently discarding an arriving packet".
  bool* discarding_row(int r, int p) { return &discarding_[rpv(r, p, 0)]; }

  /// The decoded VC request of the packet at the front: its class's VC
  /// mask and whether it needs an odd (post-dateline) downstream VC.
  /// Written by set_route, read by every allocation attempt until the grant.
  const std::uint8_t* alloc_mask_row(int r, int p) const { return &alloc_mask_[rpv(r, p, 0)]; }
  const bool* alloc_want_odd_row(int r, int p) const { return &alloc_want_odd_[rpv(r, p, 0)]; }
  /// Retry-on-change: the output's allocated mask at this VcWait VC's last
  /// failed attempt (kAllocUntried before the first). With the request
  /// fixed, whether an attempt succeeds depends only on that mask, so an
  /// attempt against the same mask would fail again and is skipped.
  std::uint16_t* alloc_seen_row(int r, int p) { return &alloc_seen_[rpv(r, p, 0)]; }
  const int* carry_count_row(int r) const { return &carry_count_[rp(r, 0)]; }

  // --- output-port state (router, port) -------------------------------------
  /// Downstream credits, `vcs` wide.
  int* credits(int r, int p) { return &credits_[rpv(r, p, 0)]; }
  /// Downstream VCs held by a packet: bit v set from grant to tail.
  std::uint8_t& vc_allocated(int r, int p) { return vc_allocated_[rp(r, p)]; }
  int* vc_rotation(int r, int p) { return &vc_rr_[rp(r, p)]; }
  /// Reserved slots in output p's table (ReservationTable adjusts it).
  int resv_count(int r, int p) const { return resv_count_[rp(r, p)]; }
  void resv_adjust(int r, int p, int delta) {
    const std::size_t i = rp(r, p);
    resv_count_[i] += delta;
    assert(resv_count_[i] >= 0);
    RouterMasks& m = masks_[slot(r)];
    const auto bit = static_cast<std::uint8_t>(1u << p);
    m.resv = static_cast<std::uint8_t>(resv_count_[i] > 0 ? m.resv | bit : m.resv & ~bit);
  }

  /// Output stage registers: `kNumPorts` handle slots (one per input
  /// port), kNoFlit when empty.
  const FlitRef* stage_row(int r, int p) const { return &stage_flit_[stage_slot(r, p, 0)]; }
  /// Fill output `out`'s stage register for `input` (empty until now).
  void stage_put(int r, int out, int input, FlitRef ref) {
    const std::size_t i = stage_slot(r, out, input);
    assert(stage_flit_[i] == kNoFlit && "output stage slot occupied");
    assert(ref != kNoFlit);
    stage_flit_[i] = ref;
    masks_[slot(r)].stage |= std::uint64_t{1} << mask_bit(out, input);
  }
  FlitRef stage_take(int r, int out, int input) {
    const std::size_t i = stage_slot(r, out, input);
    const FlitRef ref = stage_flit_[i];
    assert(ref != kNoFlit);
    stage_flit_[i] = kNoFlit;
    masks_[slot(r)].stage &= ~(std::uint64_t{1} << mask_bit(out, input));
    return ref;
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
    masks_[slot(r)].carry |= static_cast<std::uint8_t>(1u << p);
  }
  VcId carry_pop(int r, int p) {
    const std::size_t i = rp(r, p);
    assert(carry_count_[i] > 0);
    const VcId v = carry_ring_[carry_slot(i, 0)];
    carry_head_[i] = (carry_head_[i] + 1) % carry_cap_;
    if (--carry_count_[i] == 0) {
      masks_[slot(r)].carry &= static_cast<std::uint8_t>(~(1u << p));
    }
    return v;
  }

  // --- per-cycle transients -------------------------------------------------
  /// "This input forwarded a flit this cycle" / "this output's link sent
  /// this cycle"; cleared by clear_cycle_flags at the end of the step.
  bool popped(int r, int p) const { return ((masks_[slot(r)].popped >> p) & 1u) != 0; }
  void set_popped(int r, int p) { masks_[slot(r)].popped |= static_cast<std::uint8_t>(1u << p); }
  bool link_used(int r, int p) const {
    return ((masks_[slot(r)].link_used >> p) & 1u) != 0;
  }
  void set_link_used(int r, int p) {
    masks_[slot(r)].link_used |= static_cast<std::uint8_t>(1u << p);
  }

  /// End-of-step clear of the per-cycle bits (popped, link used, decoded
  /// this cycle).
  void clear_cycle_flags(int r) {
    RouterMasks& m = masks_[slot(r)];
    m.decoded = 0;
    m.popped = 0;
    m.link_used = 0;
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

 private:
  std::size_t slot(int r) const {
    assert(r >= 0 && r < routers_);
    return static_cast<std::size_t>(r);
  }
  std::size_t n_rp() const {
    return static_cast<std::size_t>(routers_) * static_cast<std::size_t>(topo::kNumPorts);
  }
  std::size_t n_rpv() const { return n_rp() * static_cast<std::size_t>(vcs_); }
  std::size_t n_stage() const { return n_rp() * static_cast<std::size_t>(topo::kNumPorts); }
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
  /// Stage slot of output `out`'s register for `input`.
  std::size_t stage_slot(int r, int out, int input) const {
    assert(input >= 0 && input < topo::kNumPorts);
    return rp(r, out) * static_cast<std::size_t>(topo::kNumPorts) +
           static_cast<std::size_t>(input);
  }
  /// A free arena slot holding a copy of `f`: the last freed one, else the
  /// next never-used one (the reserve bounds the arena, so no reallocation).
  FlitRef flit_alloc(const Flit& f) {
    if (!free_.empty()) {
      const FlitRef ref = free_.back();
      free_.pop_back();
      arena_[ref] = f;
      return ref;
    }
    assert(arena_.size() < arena_cap_ && "flit arena exhausted: a slot leaked");
    arena_.push_back(f);
    return static_cast<FlitRef>(arena_.size() - 1);
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
  std::size_t arena_cap_;
  std::vector<Flit> arena_;
  std::vector<FlitRef> free_;
  std::unique_ptr<FlitRef[]> buf_slab_;
  std::unique_ptr<VcState[]> vc_state_;
  std::unique_ptr<topo::Port[]> out_port_;
  std::unique_ptr<VcId[]> out_vc_;
  std::unique_ptr<bool[]> discarding_;
  std::unique_ptr<FlitRef[]> stage_flit_;
  std::unique_ptr<VcId[]> carry_ring_;
  std::unique_ptr<int[]> carry_head_;
  std::unique_ptr<int[]> carry_count_;
  std::unique_ptr<std::uint8_t[]> alloc_mask_;
  std::unique_ptr<bool[]> alloc_want_odd_;
  std::unique_ptr<std::uint16_t[]> alloc_seen_;
  std::unique_ptr<RouterMasks[]> masks_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> arrive_;
};

}  // namespace ocn::router
