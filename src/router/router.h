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
// Router state lives in a RouterStatePool slot; the controllers hold views
// into it, and the switch arbiters own their rotation pointers.
// core::Network constructs routers against one pool per shard (consecutive
// slots) so a shard's state is contiguous; the three-argument constructor
// owns a RouterStatePool(1, params), so a standalone router runs the same
// code on the same layout.
//
// A router is registered with its wake row (`kernel.add(r, r->wake_row(),
// Router::wake_width())`): the kernel skips it while every arrival byte is
// zero and idle_internal() holds.
#pragma once

#include <memory>
#include <vector>

#include "router/input_controller.h"
#include "router/output_controller.h"
#include "router/params.h"
#include "router/soa.h"
#include "sim/kernel.h"
#include "topo/topology.h"

namespace ocn::router {

class Router final : public Clockable {
 public:
  /// Standalone: owns a RouterStatePool(1, params).
  Router(NodeId node, const topo::Topology& topology, const RouterParams& params);
  /// Pool-backed: state lives in `pool` slot `slot` (pool outlives router).
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

  void step(Cycle now) override;

  /// Skip predicate, internal half: no buffered or staged flits, queued
  /// carry credits or reservation slots (one contiguous pool scan). Arrivals
  /// are the wake row's half — a channel delivering into this router stamps
  /// its per-port arrival byte as it advances. When both are clear, a step
  /// would change nothing: the per-cycle state a skipped step would touch
  /// (allocation rotation) is derived from the cycle counter.
  bool idle_internal() const override { return !pool_->has_internal_work(slot_); }

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
  void init_controllers();
  void vc_allocation(Cycle now);
  void reservation_bypass(Cycle now);
  void link_arbitration(Cycle now);
  void switch_traversal(Cycle now);
  /// Prepare a flit popped from (in_port, vc) for transmission on out_vc.
  Flit take_flit(InputController& in, VcId vc, topo::Port out_port, VcId out_vc);

  NodeId node_;
  const topo::Topology& topo_;
  RouterParams params_;
  std::unique_ptr<RouterStatePool> own_pool_;  ///< standalone ctor only
  RouterStatePool* pool_;
  int slot_;
  std::vector<InputController> inputs_;
  std::vector<OutputController> outputs_;
  std::vector<PriorityArbiter> switch_arbs_;  // one per input, over VCs
  // Per-cycle switch-arbitration scratch (stack-resident, no allocation).
  std::uint8_t req_scratch_[kMaxArbiterInputs];
  int prio_scratch_[kMaxArbiterInputs];
  // crosses_dateline(node_, port) is a pure function of construction-time
  // topology; cached so effective_dateline (VC allocation, every candidate
  // head, every cycle) costs an array read instead of a virtual call.
  bool dateline_cache_[topo::kNumPorts];
};

}  // namespace ocn::router
