// The virtual-channel router of paper section 2.3.
//
// Five input controllers (one per direction plus one from the tile) and
// five output controllers, distributed around the tile edges. Each cycle:
//
//   1. credits returned from downstream are absorbed;
//   2. arriving flits enter their per-VC input buffers;
//   3. head flits at buffer fronts strip a route entry to pick an output;
//   4. heads needing a downstream VC arbitrate for one — in parallel with
//      switch arbitration (the paper's speculative overlap: route strip,
//      VC allocation and forwarding all complete in one cycle);
//   5. reserved slots move pre-scheduled flits straight from input buffer
//      to link, skipping the stage and all arbitration (section 2.6);
//   6. stage buffers filled on earlier cycles arbitrate for the link;
//   7. each input forwards at most one winning flit across the switch into
//      the output stage, consuming a credit and returning one upstream.
//
// A flit therefore spends one cycle in the router (input buffer -> stage)
// and one on the link when uncontended; the pre-scheduled bypass path takes
// a single cycle per hop.
//
// Router is the one place those phases live: each is a private member that
// addresses its RouterStatePool slot by (slot, port, vc). The per-port
// records (InputController, OutputController) hold only the wired flag, the
// reservation slot table, the link arbiter and statistics, and the switch
// arbiters own their rotation pointers; all three are arrays inside the
// Router, not heap blocks of their own.
// Links are rows of the shard's link store (sim/link_store.h), which lives
// in the pool: an arrival on input p is read at the row (slot, p) in the
// slot the cycle selects, and a send goes through the pool's LinkRef for
// the port.
// core::Network constructs routers against one pool per shard (consecutive
// slots) so a shard's state is contiguous. Every router lives in a pool: a
// standalone router (the isolated-router tests) is slot 0 of a
// RouterStatePool(1, params) its harness owns, so it runs the same code on
// the same layout.
//
// A router is registered with its wake row (`kernel.add(r, r->wake_row(),
// Router::wake_width())`): the kernel skips it while every arrival byte is
// zero and idle_internal() holds.
#pragma once

#include <array>
#include <utility>

#include "router/input_controller.h"
#include "router/output_controller.h"
#include "router/params.h"
#include "router/soa.h"
#include "router/vc_allocator.h"
#include "sim/kernel.h"
#include "topo/topology.h"

namespace ocn::router {

class Router final : public Clockable {
 public:
  /// State lives in `pool` slot `slot` (pool outlives router).
  Router(NodeId node, const topo::Topology& topology, const RouterParams& params,
         RouterStatePool& pool, int slot);

  NodeId node() const { return node_; }
  const RouterParams& params() const { return params_; }
  RouterStatePool& pool() { return *pool_; }
  const RouterStatePool& pool() const { return *pool_; }
  int pool_slot() const { return slot_; }

  InputController& input(topo::Port p) { return inputs_[static_cast<std::size_t>(p)]; }
  OutputController& output(topo::Port p) { return outputs_[static_cast<std::size_t>(p)]; }
  const InputController& input(topo::Port p) const { return inputs_[static_cast<std::size_t>(p)]; }
  const OutputController& output(topo::Port p) const { return outputs_[static_cast<std::size_t>(p)]; }

  /// Wire input port `p`: its flit link arrives at the pool store's row
  /// RouterStatePool::flit_in_row(slot, p), attached with
  /// arrival(p, kArriveFlit); `credit_upstream` returns its credits. A port
  /// never attached (a mesh edge) receives nothing.
  void attach_input(topo::Port p, LinkRef credit_upstream);
  /// Wire output port `p`: the outgoing link; its credits arrive at the row
  /// RouterStatePool::credit_in_row(slot, p), attached with
  /// arrival(p, kArriveCredit). length_mm is the physical wire length for
  /// energy/duty accounting.
  void attach_output(topo::Port p, LinkRef link, double length_mm);
  /// The arrival byte the link into (p, kind) stamps, kind being
  /// RouterStatePool::kArriveFlit or kArriveCredit.
  std::atomic<std::uint8_t>* arrival(topo::Port p, int kind) {
    return pool_->arrival(slot_, static_cast<int>(p), kind);
  }

  void step(Cycle now) override;

  /// Skip predicate, internal half: no buffered or staged flits, queued
  /// carry credits or reservation slots, i.e. no work bit set in the
  /// router's masks (RouterMasks, kept at the transitions; see soa.h).
  /// Arrivals are the wake row's half — a channel delivering into this
  /// router stamps its per-port arrival byte as it advances. When both are
  /// clear, a step would change nothing: the per-cycle state a skipped step
  /// would touch (allocation rotation) is derived from the cycle counter.
  /// Every phase of a step likewise walks set mask bits only, and a VcWait
  /// VC retries allocation only once its output's allocated mask differs
  /// from the one its last attempt failed against: with its request fixed,
  /// success depends only on that mask (the excluded VCs are constant),
  /// and a failed attempt moves no pointer, so the skipped attempts are
  /// exactly the ones that would fail.
  bool idle_internal() const override {
    const RouterMasks& m = pool_->masks(slot_);
    return (m.occupied | m.stage | m.carry | m.resv) == 0;
  }

  /// The per-port arrival bytes channels stamp and the kernel scans; see
  /// idle_internal(). Contiguous, wake_width() bytes wide.
  std::atomic<std::uint8_t>* wake_row() { return pool_->wake_row(slot_); }
  static constexpr int wake_width() { return RouterStatePool::kWakeWidth; }

  /// Dateline state the packet will have after leaving through out_port
  /// (see DESIGN.md on deadlock freedom). Exposed for tests.
  bool effective_dateline(const Flit& head, topo::Port in_port, topo::Port out_port) const;

  /// Per-input switch arbiter (over VCs); exposed read-only so the
  /// differential harness can compare rotation state against the reference
  /// model before a mis-grant becomes externally visible.
  const PriorityArbiter& switch_arb(topo::Port in) const {
    return switch_arbs_[static_cast<std::size_t>(in)];
  }

  // Aggregated statistics.
  std::int64_t buffer_writes() const;
  std::int64_t buffer_reads() const;
  std::int64_t packets_dropped() const;

  /// Register this router's statistics as gauges under
  /// `<prefix>.<statistic>` (aggregates) and `<prefix>.in.<port>.vc<N>.flits`
  /// (per-VC buffered-flit counts). Pure pull model: the router keeps
  /// counting exactly as before and the registry samples these accessors in
  /// bulk, so registration adds zero hot-path cost.
  void register_metrics(obs::CounterRegistry& registry, const std::string& prefix) const;

 private:
  /// Start the loads of this step's link slots (router.cpp).
  void prefetch_links();
  /// The outputs arbitrate_link can act on: an occupied stage register, a
  /// queued piggyback credit (credit-only filler) or a reservation (idle
  /// reserved slots are accounted every cycle).
  unsigned sending_outputs() const;
  // Pipeline phases, in step() order. `p` is a port index into the pool
  // slot and the per-port records.
  void process_credits(int p);
  void accept_arrival(int p);
  void decode_fronts();
  void vc_allocation(Cycle now);
  void reservation_bypass(Cycle now);
  void link_arbitration(Cycle now);
  void arbitrate_link(int p, Cycle now);
  void switch_traversal();

  // Datapath steps the phases share.
  bool has_credit(int out, VcId vc) const;
  void consume_credit(int out, VcId vc);
  /// A credit for output `out`'s downstream (out, vc) buffer arrived: on
  /// the credit wire (process_credits) or piggybacked on a flit of the
  /// reverse link (accept_arrival).
  void receive_credit(int out, VcId vc);
  // The flit moves by handle (FlitRef, soa.h) from its input ring to the
  // link and is edited in place in the pool's arena.
  /// Remove the front flit of (in, vc), returning its credit upstream.
  FlitRef pop(int in, VcId vc);
  /// Prepare a flit popped from (in, vc) for transmission on out_vc.
  FlitRef take_flit(int in, VcId vc, topo::Port out_port, VcId out_vc);
  /// Drive a flit onto output `out`'s link: copy it into the link ring and
  /// free its arena slot.
  void send_on_link(int out, FlitRef ref, bool bypass);
  VcAllocator vc_allocator(int out) {
    return VcAllocator(*pool_, slot_, out, params_, dateline_parity_);
  }
  /// One record per port, built from `make(port)`.
  template <typename T, typename F, std::size_t... I>
  static std::array<T, sizeof...(I)> per_port(const F& make, std::index_sequence<I...>) {
    return {make(static_cast<topo::Port>(I))...};
  }

  NodeId node_;
  const topo::Topology& topo_;
  RouterParams params_;
  // params_.dateline_parity(topology has wraparound), fixed at construction.
  bool dateline_parity_;
  RouterStatePool* pool_;
  int slot_;
  /// The cycle being stepped: it selects every link slot the step touches.
  Cycle now_ = 0;
  std::array<InputController, topo::kNumPorts> inputs_;
  std::array<OutputController, topo::kNumPorts> outputs_;
  std::array<PriorityArbiter, topo::kNumPorts> switch_arbs_;  // one per input, over VCs
  // Per-cycle switch-arbitration priorities, indexed by VC (no allocation).
  int prio_scratch_[kMaxArbiterInputs];
  // crosses_dateline(node_, port) is a pure function of construction-time
  // topology; cached so effective_dateline (VC allocation, every candidate
  // head, every cycle) costs an array read instead of a virtual call.
  bool dateline_cache_[topo::kNumPorts];
};

}  // namespace ocn::router
