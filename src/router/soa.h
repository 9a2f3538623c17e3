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
// The per-port records (Input/OutputController) own only the wired flag,
// the reservation slot table, the link arbiter and statistics (DESIGN.md
// §4h).
//
// Links and slab. The pool also holds its shard's link store
// (sim/link_store.h): one block per router slot, holding every link that
// delivers into the slot's router and NIC, so a receiver computes its
// arrival's address from (slot, port, cycle). The senders' handles
// (LinkRef) are rows here, per (router, output port) for the flit link and
// per (router, input port) for the credit return. Every field and the
// store are carved from one slab (sim/slab.h) that construction writes in
// full; its whole 2 MB extents are advised as huge pages, so the advice
// costs no memory. rows() lists the fields once, for carving and sizing.
//
// Flit arena. The flits themselves live in one arena per pool, and the
// input rings and stage registers hold 4-byte FlitRef handles into it:
//   * one copy in, one copy out: buf_push copies an arriving flit from
//     the link slot into a fresh arena slot; pop, take_flit, the stage
//     registers and the bypass move only the handle, and the router edits
//     the flit in place (VC, dateline, hops, carried credit, link hooks)
//     until send_on_link copies it into the next link's slot and frees
//     the arena slot;
//   * the arena is a std::vector<Flit> reserved once to the pool's
//     capacity, routers x (ports x (vcs x depth + ports) + vcs x depth) —
//     every ring slot, every stage slot and every NIC's credit-bounded
//     eject share full at once — so it never reallocates and a Flit& stays
//     valid across an allocation (see NIC rows for the one holder the
//     credits do not bound);
//   * slots are handed out from a LIFO free list (a just-freed, cache-warm
//     slot is reused first) and the arena grows only when the list is
//     empty, so pages above its high-water mark are never written and
//     never become resident: RSS follows the flits in flight, not the
//     buffer slots that could hold one;
//   * an empty stage slot holds kNoFlit, so the handle is also the
//     "stage full" record;
//   * a pool's arena is touched only by its own routers and NICs, i.e. by
//     one shard's worker in phase A (shard.S.flit_arena in src/analyze).
//     It is not in the slab: it fills only up to its high-water mark, so a
//     huge page there could raise RSS.
//
// NIC rows. The pool also holds the per-node state of each slot's NIC
// (core::Nic, DESIGN.md §4h), so an idle NIC owns no heap:
//   * one NicRow per slot (queued-flit, pending-ejection and per-class
//     counts, the stall and ejecting masks, the piggyback carry ring's
//     head and count, the loopback queue), and per (slot, VC) the
//     injection credits, the injection queue, the eject queue and the
//     reassembly slot; the carry ring is vcs x depth entries, bounded by
//     credit conservation like the router's carry rows;
//   * a queue is a HandleQueue, a head/tail handle pair threaded through
//     its elements' successor handles, so it needs no capacity of its own
//     and holds nothing while empty. The injection and loopback queues and
//     the reassembly slot name records of the shard's packet arena
//     (core/packet_arena.h), which holds the packets' successors;
//   * an ejected flit is copied once, from the eject link slot into this
//     arena (eject_push), and the eject queue threads its handles through
//     the arena's successor row (flit_next_); the NIC reads the flit in
//     place and frees the slot once it has consumed it. The credit loop
//     bounds a NIC's parked flits at vcs x depth, so the arena's reserve
//     grows by that share per slot. Dropping flow control has no credit
//     loop at the tile port, so a NIC whose client stalls ejection parks
//     flits without bound; past the reserve the arena hands out slots from
//     stable overflow chunks, so no flit ever moves.
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
//   * the arrival flags are the kernel's wake bytes, one per inbound link
//     (5 flit + 5 credit per router): a row's advance stamps its
//     receiver's byte as it delivers a value, the kernel steps a router
//     only when some byte is set or a work bit is, and each pipeline phase
//     reads a link's slot only when its byte is set (clearing it as it
//     consumes). The bytes are stamped-on-delivery work presence — set iff
//     the link output is engaged (LinkStore.* referees it).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "router/flit.h"
#include "router/params.h"
#include "sim/link_store.h"
#include "sim/slab.h"
#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::router {

/// Handle of a flit in its pool's arena (see the header notes).
using FlitRef = std::uint32_t;
/// The handle of no flit: an empty stage register.
inline constexpr FlitRef kNoFlit = 0xffffffffu;

/// Handle of a packet record in its shard's packet arena
/// (core/packet_arena.h), and the handle of none.
using PacketRef = std::uint32_t;
inline constexpr PacketRef kNoPacket = 0xffffffffu;

/// A FIFO of flit or packet handles threaded through its elements'
/// successor handles: the first and the last, both kNoFlit (== kNoPacket)
/// while empty.
struct HandleQueue {
  std::uint32_t head = kNoFlit;
  std::uint32_t tail = kNoFlit;
  bool empty() const { return head == kNoFlit; }
};

/// One NIC's scalars (see the header notes).
struct NicRow {
  int queued_flits = 0;    ///< unsent flits of the packets in the injection queues
  int pending_ejects = 0;  ///< ejected flits parked on the eject queues
  int carry_head = 0;      ///< piggyback carry ring: front entry
  int carry_count = 0;     ///< piggyback carry ring: entries queued
  /// Dynamic packets queued per service class (the nic_queue_packets gate).
  std::array<int, 4> class_packets{};
  HandleQueue loopback;        ///< self-addressed packets, in delivery order
  std::uint8_t stalled = 0;    ///< VCs whose client refuses delivery
  std::uint8_t ejecting = 0;   ///< VCs with a parked ejected flit
};

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

  /// `routers` router slots whose topology links have latency
  /// `link_latency` (tile links have latency 1). The pool's rows and its
  /// link store are carved from one slab (sim/slab.h).
  RouterStatePool(int routers, const RouterParams& params, int link_latency = 1)
      : routers_(routers),
        vcs_(params.vcs),
        depth_(params.buffer_depth),
        carry_cap_(params.vcs * params.buffer_depth),
        arena_cap_(n_rp() * static_cast<std::size_t>(vcs_ * depth_ + topo::kNumPorts) +
                   static_cast<std::size_t>(routers) * static_cast<std::size_t>(carry_cap_)),
        slab_(slab_bytes(routers, params, link_latency)),
        links_(routers, node_rows(link_latency), &slab_) {
    assert(vcs_ >= 1 && vcs_ <= 8 && "the VC-allocated mask is one byte per port");
    assert(arena_cap_ < kNoFlit && "arena handles are 32-bit");
    rows(Dims(routers, params), [this](auto field, std::size_t n, const auto& fill) {
      this->*field = slab_.take<decltype(element_of(field))>(n, fill);
    });
    // Reserved, not filled: pages above the high-water mark stay untouched.
    arena_.reserve(arena_cap_);
    flit_next_.reserve(arena_cap_);
    free_.reserve(arena_cap_);
  }
  RouterStatePool(const RouterStatePool&) = delete;  // routers hold its address
  RouterStatePool& operator=(const RouterStatePool&) = delete;

  int routers() const { return routers_; }
  int vcs() const { return vcs_; }
  int depth() const { return depth_; }

  /// Router `r`'s masks, read-only: every write is a transition below.
  const RouterMasks& masks(int r) const { return masks_[slot(r)]; }

  // --- flit arena -------------------------------------------------------------
  // The flits the rings and stage registers hold by handle (header notes).

  Flit& flit(FlitRef ref) {
    assert(ref < flit_next_.size());
    if (ref < arena_cap_) [[likely]] return arena_[ref];
    return overflow_[(ref - arena_cap_) / kOverflowChunk][(ref - arena_cap_) % kOverflowChunk];
  }
  /// Return a slot to the free list: the router calls this once the flit
  /// has been copied onto its link, the NIC once it has consumed it.
  void flit_free(FlitRef ref) {
    assert(ref < flit_next_.size());
    free_.push_back(ref);
  }
  /// Slots ever handed out (the high-water mark), the reserved bound (past
  /// it only a dropping-mode NIC's stalled ejections reach, see the header
  /// notes), and the free slots among them, for tests.
  std::size_t arena_size() const { return flit_next_.size(); }
  std::size_t arena_capacity() const { return arena_cap_; }
  const std::vector<FlitRef>& free_list() const { return free_; }
  /// The successor of a flit on an eject queue (kNoFlit at the tail).
  FlitRef flit_next(FlitRef ref) const { return flit_next_[ref]; }

  // --- input-buffer rings (router, port, vc) --------------------------------
  // One ring of `depth()` handles per VC. Router's arrival phase pushes,
  // its switch and bypass phases pop; the head/count format stays here.

  /// Copy the arriving flit straight from the caller's storage (the link
  /// output slot) into a fresh arena slot — the hop's one copy in.
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
  Flit& buf_front(int r, int p, VcId v) { return flit(buf_ref(r, p, v, 0)); }
  /// Most recently pushed flit (for post-push fixups on the stored copy).
  Flit& buf_back(int r, int p, VcId v) {
    return flit(buf_ref(r, p, v, buf_count_[rpv(r, p, v)] - 1));
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
    if (is_tail(flit(ref).type)) {
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

  // --- NIC rows (slot r's NIC) -------------------------------------------
  NicRow& nic(int r) { return nic_[slot(r)]; }
  const NicRow& nic(int r) const { return nic_[slot(r)]; }
  /// Credits toward the router's tile input buffer, `vcs` wide.
  int* nic_credits(int r) { return &nic_credits_[rv(r, 0)]; }
  const int* nic_credits(int r) const { return &nic_credits_[rv(r, 0)]; }
  /// Injection queues of packet handles, `vcs` wide.
  HandleQueue* nic_inject(int r) { return &nic_inject_[rv(r, 0)]; }
  const HandleQueue* nic_inject(int r) const { return &nic_inject_[rv(r, 0)]; }
  /// The packet each VC is reassembling (kNoPacket between packets), `vcs`
  /// wide.
  PacketRef* nic_assembling(int r) { return &nic_assembling_[rv(r, 0)]; }
  const PacketRef* nic_assembling(int r) const { return &nic_assembling_[rv(r, 0)]; }
  /// Eject queue of VC v, for tests (eject_push and eject_pop keep it).
  const HandleQueue& nic_eject(int r, VcId v) const { return nic_eject_[rv(r, v)]; }

  /// Park an ejected flit on VC v's eject queue: copy it straight from the
  /// caller's storage (the eject link slot) into a fresh arena slot, the
  /// NIC's one copy in. Returns the slot for post-push fixups.
  Flit& eject_push(int r, VcId v, const Flit& f) {
    const FlitRef ref = flit_alloc(f);
    HandleQueue& q = nic_eject_[rv(r, v)];
    flit_next_[ref] = kNoFlit;
    if (q.empty()) {
      q.head = ref;
    } else {
      flit_next_[q.tail] = ref;
    }
    q.tail = ref;
    NicRow& row = nic_[slot(r)];
    ++row.pending_ejects;
    row.ejecting |= static_cast<std::uint8_t>(1u << v);
    return flit(ref);
  }
  /// Unlink the front of VC v's eject queue and hand over its handle; the
  /// caller frees it once the flit is consumed.
  FlitRef eject_pop(int r, VcId v) {
    HandleQueue& q = nic_eject_[rv(r, v)];
    assert(!q.empty());
    const FlitRef ref = q.head;
    q.head = flit_next_[ref];
    NicRow& row = nic_[slot(r)];
    --row.pending_ejects;
    if (q.head == kNoFlit) {
      q.tail = kNoFlit;
      row.ejecting &= static_cast<std::uint8_t>(~(1u << v));
    }
    return ref;
  }

  /// The NIC's piggyback carry ring: credits for the router's tile output
  /// (reassembly slots freed), carried on injected flits. vcs * depth
  /// entries, bounded by credit conservation like carry_push.
  void nic_carry_push(int r, VcId v) {
    NicRow& row = nic_[slot(r)];
    assert(row.carry_count < carry_cap_ && "NIC carry ring overflow: credit conservation violated");
    nic_carry_ring_[nic_carry_slot(r, row.carry_count)] = v;
    ++row.carry_count;
  }
  VcId nic_carry_pop(int r) {
    NicRow& row = nic_[slot(r)];
    assert(row.carry_count > 0);
    const VcId v = nic_carry_ring_[nic_carry_slot(r, 0)];
    row.carry_head = (row.carry_head + 1) % carry_cap_;
    --row.carry_count;
    return v;
  }

  // --- links -------------------------------------------------------------
  // The shard's link store (sim/link_store.h): one block per router slot,
  // holding every link that delivers into the slot's router and NIC. A
  // receiver computes its row from (slot, port) and its slot from the
  // cycle; a sender reaches its outbound row through a LinkRef kept here
  // per (router, port), written once by the wiring.
  /// Row kinds of a block: the router's inbound flit link at input port p
  /// (kFlitIn + p), its inbound credit link at output port p (kCreditIn +
  /// p), then the NIC's eject link and its inject-credit link.
  static constexpr int kFlitIn = 0;
  static constexpr int kCreditIn = topo::kNumPorts;
  static constexpr int kNicEject = 2 * topo::kNumPorts;
  static constexpr int kNicCredit = kNicEject + 1;
  /// Row kinds of a block, in kind order: topology links have latency
  /// `link_latency` and tile links latency 1. A flit row's slot is a Flit,
  /// a credit row's one byte (the VC).
  static std::vector<LinkStore::RowSpec> node_rows(int link_latency) {
    std::vector<LinkStore::RowSpec> kinds;
    for (int p = 0; p < topo::kNumPorts; ++p) {
      kinds.push_back(LinkStore::RowSpec::of<Flit>(tile_port(p) ? 1 : link_latency));
    }
    for (int p = 0; p < topo::kNumPorts; ++p) {
      kinds.push_back(LinkStore::RowSpec::of<std::int8_t>(tile_port(p) ? 1 : link_latency));
    }
    kinds.push_back(LinkStore::RowSpec::of<Flit>(1));
    kinds.push_back(LinkStore::RowSpec::of<std::int8_t>(1));
    return kinds;
  }
  static std::uint32_t flit_in_row(int r, int p) { return LinkStore::row_id(r, kFlitIn + p); }
  static std::uint32_t credit_in_row(int r, int p) {
    return LinkStore::row_id(r, kCreditIn + p);
  }
  static std::uint32_t nic_eject_row(int r) { return LinkStore::row_id(r, kNicEject); }
  static std::uint32_t nic_credit_row(int r) { return LinkStore::row_id(r, kNicCredit); }

  LinkStore& links() { return links_; }
  const LinkStore& links() const { return links_; }
  /// Router `r`'s outbound flit link at output `p` and its credit return
  /// upstream at input `p` (null until wired: a mesh edge stays null).
  LinkRef& out_link(int r, int p) { return out_link_[rp(r, p)]; }
  LinkRef& up_link(int r, int p) { return up_link_[rp(r, p)]; }
  const LinkRef& out_link(int r, int p) const { return out_link_[rp(r, p)]; }
  /// The slab's huge-page extent in bytes (sim/slab.h), for tests.
  std::size_t slab_advised() const { return slab_.advised(); }

  // --- event-skip -----------------------------------------------------------
  /// Arrival-flag kinds: one byte per inbound link of a router.
  static constexpr int kArriveFlit = 0;
  static constexpr int kArriveCredit = 1;
  /// Bytes per router in the arrival row (5 flit + 5 credit links).
  static constexpr int kWakeWidth = 2 * topo::kNumPorts;

  /// The arrival byte link (port, kind) stamps: set by the row's advance
  /// whenever its output is engaged, cleared by the pipeline phase that
  /// consumes that link. Invariant: byte != 0 iff the link output is
  /// engaged (the flag's owner and the row are stepped/advanced by the
  /// receiver's shard, so no other shard ever touches the byte).
  std::atomic<std::uint8_t>* arrival(int r, int p, int kind) {
    return &arrive_[(rp(r, p) << 1) + static_cast<std::size_t>(kind)];
  }
  /// The kWakeWidth contiguous arrival bytes of router `r` — the kernel's
  /// skip predicate scans this row (any byte set => arrivals pending).
  std::atomic<std::uint8_t>* wake_row(int r) { return &arrive_[rp(r, 0) << 1]; }

 private:
  static bool tile_port(int p) { return p == static_cast<int>(topo::Port::kTile); }
  std::size_t slot(int r) const {
    assert(r >= 0 && r < routers_);
    return static_cast<std::size_t>(r);
  }
  std::size_t n_rp() const {
    return static_cast<std::size_t>(routers_) * static_cast<std::size_t>(topo::kNumPorts);
  }
  std::size_t rp(int r, int p) const {
    assert(r >= 0 && r < routers_ && p >= 0 && p < topo::kNumPorts);
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(topo::kNumPorts) +
           static_cast<std::size_t>(p);
  }
  /// Index of (router, vc) in a per-NIC row `vcs` wide.
  std::size_t rv(int r, VcId v) const {
    assert(v >= 0 && v < vcs_);
    return slot(r) * static_cast<std::size_t>(vcs_) + static_cast<std::size_t>(v);
  }
  std::size_t nic_carry_slot(int r, int offset) const {
    return slot(r) * static_cast<std::size_t>(carry_cap_) +
           static_cast<std::size_t>((nic_[slot(r)].carry_head + offset) % carry_cap_);
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
  /// next never-used one — within the reserve (so no reallocation), then
  /// in the overflow chunks.
  FlitRef flit_alloc(const Flit& f) {
    if (!free_.empty()) {
      const FlitRef ref = free_.back();
      free_.pop_back();
      flit(ref) = f;
      return ref;
    }
    const auto ref = static_cast<FlitRef>(flit_next_.size());
    assert(ref != kNoFlit && "arena handles are 32-bit");
    flit_next_.push_back(kNoFlit);
    if (ref < arena_cap_) [[likely]] {
      arena_.push_back(f);
    } else {
      if ((ref - arena_cap_) % kOverflowChunk == 0) {
        overflow_.push_back(std::make_unique<Flit[]>(kOverflowChunk));
      }
      flit(ref) = f;
    }
    return ref;
  }
  /// Flits per overflow chunk.
  static constexpr std::size_t kOverflowChunk = 256;
  /// Ring index of the carry entry `offset` places behind the front of `i`.
  std::size_t carry_slot(std::size_t i, int offset) const {
    return i * static_cast<std::size_t>(carry_cap_) +
           static_cast<std::size_t>((carry_head_[i] + offset) % carry_cap_);
  }

  /// The sizes the per-field rows are counted in.
  struct Dims {
    std::size_t routers, rp, rpv, rv, stage;
    int depth, carry_cap;
    Dims(int r, const RouterParams& p)
        : routers(static_cast<std::size_t>(r)),
          rp(routers * static_cast<std::size_t>(topo::kNumPorts)),
          rpv(rp * static_cast<std::size_t>(p.vcs)),
          rv(routers * static_cast<std::size_t>(p.vcs)),
          stage(rp * static_cast<std::size_t>(topo::kNumPorts)),
          depth(p.buffer_depth),
          carry_cap(p.vcs * p.buffer_depth) {}
  };
  /// Visit every per-field row as (member, count, initial value), in
  /// carving order: the constructor carves them from the slab, slab_bytes
  /// measures them, so the two cannot disagree.
  template <typename Visit>
  static void rows(const Dims& d, Visit&& v) {
    using P = RouterStatePool;
    const auto depth = static_cast<std::size_t>(d.depth);
    v(&P::masks_, d.routers, RouterMasks{});
    v(&P::arrive_, d.rp * 2, std::uint8_t{0});
    v(&P::credits_, d.rpv, d.depth);
    v(&P::vc_allocated_, d.rp, std::uint8_t{0});
    v(&P::vc_rr_, d.rp, 0);
    v(&P::resv_count_, d.rp, 0);
    v(&P::buf_head_, d.rpv, 0);
    v(&P::buf_count_, d.rpv, 0);
    v(&P::buf_slab_, d.rpv * depth, kNoFlit);
    v(&P::vc_state_, d.rpv, VcState::kIdle);
    v(&P::out_port_, d.rpv, topo::Port::kTile);
    v(&P::out_vc_, d.rpv, kInvalidVc);
    v(&P::discarding_, d.rpv, false);
    v(&P::stage_flit_, d.stage, kNoFlit);
    v(&P::carry_ring_, d.rp * static_cast<std::size_t>(d.carry_cap), kInvalidVc);
    v(&P::carry_head_, d.rp, 0);
    v(&P::carry_count_, d.rp, 0);
    v(&P::alloc_mask_, d.rpv, std::uint8_t{0});
    v(&P::alloc_want_odd_, d.rpv, false);
    v(&P::alloc_seen_, d.rpv, kAllocUntried);
    v(&P::out_link_, d.rp, LinkRef{});
    v(&P::up_link_, d.rp, LinkRef{});
    v(&P::nic_, d.routers, NicRow{});
    v(&P::nic_credits_, d.rv, d.depth);
    v(&P::nic_inject_, d.rv, HandleQueue{});
    v(&P::nic_eject_, d.rv, HandleQueue{});
    v(&P::nic_assembling_, d.rv, kNoPacket);
    v(&P::nic_carry_ring_, d.routers * static_cast<std::size_t>(d.carry_cap), kInvalidVc);
  }
  /// The element type of a pointer member.
  template <typename T>
  static T element_of(T* RouterStatePool::*);
  /// The slab a pool of this shape takes: its link store, then its rows.
  static std::size_t slab_bytes(int routers, const RouterParams& params, int link_latency) {
    Slab measure;
    measure.take_bytes(LinkStore::bytes(routers, node_rows(link_latency)), 64);
    rows(Dims(routers, params), [&measure](auto field, std::size_t n, const auto&) {
      using T = decltype(element_of(field));
      measure.take_bytes(n * sizeof(T), alignof(T));
    });
    return measure.used();
  }

  int routers_;
  int vcs_;
  int depth_;
  int carry_cap_;
  std::size_t arena_cap_;

  // Declared before every pointer into it: the slab outlives the rows.
  Slab slab_;
  LinkStore links_;
  RouterMasks* masks_ = nullptr;
  std::atomic<std::uint8_t>* arrive_ = nullptr;
  int* credits_ = nullptr;
  std::uint8_t* vc_allocated_ = nullptr;
  int* vc_rr_ = nullptr;
  int* resv_count_ = nullptr;
  int* buf_head_ = nullptr;
  int* buf_count_ = nullptr;
  FlitRef* buf_slab_ = nullptr;
  VcState* vc_state_ = nullptr;
  topo::Port* out_port_ = nullptr;
  VcId* out_vc_ = nullptr;
  bool* discarding_ = nullptr;
  FlitRef* stage_flit_ = nullptr;
  VcId* carry_ring_ = nullptr;
  int* carry_head_ = nullptr;
  int* carry_count_ = nullptr;
  std::uint8_t* alloc_mask_ = nullptr;
  bool* alloc_want_odd_ = nullptr;
  std::uint16_t* alloc_seen_ = nullptr;
  LinkRef* out_link_ = nullptr;
  LinkRef* up_link_ = nullptr;
  NicRow* nic_ = nullptr;
  int* nic_credits_ = nullptr;
  HandleQueue* nic_inject_ = nullptr;
  HandleQueue* nic_eject_ = nullptr;
  PacketRef* nic_assembling_ = nullptr;
  VcId* nic_carry_ring_ = nullptr;
  std::vector<Flit> arena_;
  /// Stable chunks past the reserve (header notes).
  std::vector<std::unique_ptr<Flit[]>> overflow_;
  /// One successor handle per slot handed out (eject queues); its size is
  /// the arena's high-water mark.
  std::vector<FlitRef> flit_next_;
  std::vector<FlitRef> free_;
};

}  // namespace ocn::router
