// The on-chip interconnection network: topology + routers + NICs + channels,
// assembled from a Config. This is the library's main entry point.
//
//   core::Network net(core::Config::paper_baseline());
//   net.nic(0).inject(core::make_word_packet(5, 0, 0xbeef), net.now());
//   net.run(100);
//   // net.nic(5).received() now holds the datagram.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/fault.h"
#include "core/nic.h"
#include "core/registers.h"
#include "core/shard_partition.h"
#include "core/trace.h"
#include "phys/power_model.h"
#include "router/router.h"
#include "routing/route_computer.h"
#include "sim/kernel.h"

namespace ocn::core {

/// Aggregated network statistics (see also per-NIC / per-router accessors).
struct NetworkStats {
  std::int64_t packets_injected = 0;
  std::int64_t packets_delivered = 0;
  std::int64_t flits_injected = 0;
  std::int64_t flits_delivered = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t injection_queue_rejects = 0;
  std::int64_t bypass_flits = 0;
  std::int64_t idle_reserved_cycles = 0;
  std::int64_t buffer_reads = 0;
  std::int64_t buffer_writes = 0;
  Accumulator latency;          ///< client-to-client, cycles
  Accumulator network_latency;  ///< injection-to-delivery, cycles
  Accumulator hops;             ///< links traversed per packet
  Accumulator link_mm;          ///< wire mm per packet
};

/// Energy accounting derived from simulation event counts and the paper's
/// power decomposition (phys::PowerModel).
struct EnergyReport {
  std::int64_t hop_events = 0;     ///< flit-link traversals (router to router)
  double flit_mm = 0.0;            ///< sum over flits of link mm traversed
  double hop_energy_pj = 0.0;
  double wire_energy_pj = 0.0;
  double total_pj = 0.0;
  double pj_per_delivered_flit = 0.0;
  /// Data-dependent variant: wire energy charged only for bits that
  /// actually toggled between consecutive frames (section 4.4's "toggles").
  /// Random payloads toggle ~half their bits, so this is typically ~half
  /// the (worst-case) wire_energy_pj.
  double activity_wire_energy_pj = 0.0;
};

/// Per-link occupancy for duty-factor analysis (section 4.4).
struct LinkUsage {
  NodeId src;
  topo::Port port;
  double length_mm;
  std::int64_t flits;
};

class Network {
 public:
  /// `shards` partitions the fabric into that many row strips, one kernel
  /// shard each, stepped concurrently (bit-identical at every shard count;
  /// see src/sim/kernel.h for the argument). 0 means "use the
  /// OCN_SIM_SHARDS environment variable, default 1" (a malformed value
  /// throws std::invalid_argument); values are clamped to [1, radix]. Sharding is an execution strategy, not a model
  /// parameter: it is deliberately NOT part of Config, so fingerprints and
  /// committed baselines are unaffected by it.
  explicit Network(Config config, int shards = 0);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Config& config() const { return config_; }
  const topo::Topology& topology() const { return *topology_; }
  const routing::RouteComputer& routes() const { return routes_; }

  /// Mutable route table, for fault-aware rerouting (chaos::kill_link):
  /// marking links dead here changes the route every subsequently injected
  /// packet is stamped with. Packets already in flight keep their routes.
  routing::RouteComputer& mutable_routes() { return routes_; }

  Nic& nic(NodeId n) { return *nics_[static_cast<std::size_t>(n)]; }
  router::Router& router_at(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }
  int num_nodes() const { return topology_->num_nodes(); }

  Cycle now() const { return kernel_.now(); }
  void step();
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) step();
  }

  /// Number of spatial shards stepping concurrently (1 = one thread).
  int shards() const { return shards_; }
  /// The explicit node -> shard assignment the kernel executes — the same
  /// description the static concurrency analyzer (src/analyze) proves safe.
  const ShardPartition& partition() const { return partition_; }
  /// The shard owning node `n`.
  int shard_of(NodeId n) const { return partition_.shard_of(n); }

  /// The cycle kernel; traffic sources register themselves here so they
  /// advance in lockstep with the network.
  Kernel& kernel() { return kernel_; }

  /// True when no flits are queued or in flight anywhere.
  bool idle() const;
  /// Run until idle (or max_cycles). Returns true if drained.
  bool drain(Cycle max_cycles);

  // --- pre-scheduled traffic (sections 2.1 / 2.6) ---------------------------
  /// Reserve one slot per frame along the route src->dst for the scheduled
  /// VC, trying frame phases starting from `phase_hint`. Returns the send
  /// phase the source NIC must use (send cycles satisfy
  /// cycle % frame == phase), or nullopt if no conflict-free phase exists.
  /// Requires config.router.exclusive_scheduled_vc.
  std::optional<Cycle> reserve_flow(NodeId src, NodeId dst, Cycle phase_hint = 0);

  /// Release all reservations made for the given flow phase.
  void release_flow(NodeId src, NodeId dst, Cycle phase);

  /// Program the same reservations over the network itself via
  /// register-write packets injected at `config_master` (section 2.1's
  /// internal network registers). The writes take effect as the packets
  /// arrive; call drain() before starting the flow.
  void program_flow_registers(NodeId config_master, NodeId src, NodeId dst, Cycle phase);

  /// Tear the same reservations down over the network (clear-slot writes).
  void clear_flow_registers(NodeId config_master, NodeId src, NodeId dst, Cycle phase);

  /// Slot times along a flow's path, for one frame period (exposed for
  /// tests to validate phase arithmetic).
  std::vector<Cycle> flow_slot_times(NodeId src, NodeId dst, Cycle phase) const;

  // --- fault layer (section 2.5) --------------------------------------------
  /// The fault transform for the link out of `node` through `port`;
  /// null unless config.fault_layer. Tile ports have no fault layer.
  FaultyLinkTransform* link_fault(NodeId node, topo::Port port);

  /// Record every link traversal into `recorder` (nullptr disables).
  /// Costs one branch per link send while enabled.
  void enable_tracing(TraceRecorder* recorder);

  /// Install `observer` on every NIC (see Nic::set_delivery_observer); the
  /// differential harness uses this to log network-wide ejection order.
  /// Deliveries are buffered per node during the component phase and the
  /// observer runs on the stepping thread in node order at the end of each
  /// cycle, before time advances — the same order at every shard count.
  void set_delivery_observer(Nic::DeliveryObserver observer);

  // --- statistics ------------------------------------------------------------
  /// Register the whole network in `registry`: aggregate gauges
  /// (`net.packets_injected`, ...), per-NIC (`nic.N.*`), per-router
  /// (`router.N.*` including per-port/per-VC, see Router::register_metrics)
  /// and per-link (`link.SRC.PORT.flits`) instruments, plus the kernel's own
  /// counters, sampled in bulk every `sample_interval` cycles (0 = on
  /// demand via kernel().sample()). Pull model throughout: nothing on the
  /// simulation hot path changes. The registry must outlive the network's
  /// last tick.
  void register_metrics(obs::CounterRegistry& registry, Cycle sample_interval = 0);

  NetworkStats stats() const;
  EnergyReport energy(const phys::PowerModel& power) const;
  std::vector<LinkUsage> link_usage() const;
  std::int64_t register_writes_applied() const {
    return register_writes_applied_.load(std::memory_order_relaxed);
  }

 private:
  /// The channels of one wiring-plan link (core/wiring.h).
  struct LinkChannels {
    std::unique_ptr<Channel<router::Flit>> flits;
    std::unique_ptr<Channel<router::Credit>> credits;
    NodeId src = kInvalidNode;
    topo::Port port = topo::Port::kTile;
    double length_mm = 0.0;
  };

  void build();
  /// The topology-channel links (the first entries of links_).
  std::span<const LinkChannels> router_links() const { return {links_.data(), router_links_}; }
  void install_register_filters();
  void flush_observer_buffers();
  std::int64_t stats_packets_injected() const;
  std::int64_t stats_packets_delivered() const;

  Config config_;
  std::unique_ptr<topo::Topology> topology_;
  routing::RouteComputer routes_;
  int shards_ = 1;
  ShardPartition partition_;
  Kernel kernel_;

  /// One RouterStatePool per shard: a shard's routers occupy consecutive
  /// slots of one contiguous allocation, so the phase-A workers touch
  /// disjoint slabs (see src/router/soa.h). Declared before routers_ so the
  /// pools outlive the router views bound into them.
  std::vector<std::unique_ptr<router::RouterStatePool>> pools_;
  std::vector<std::unique_ptr<router::Router>> routers_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<LinkChannels> links_;  // every wiring-plan link, in plan order
  std::size_t router_links_ = 0;
  /// Each topology link's fault layer at fault_slot(node, direction port),
  /// null at a mesh edge; empty unless config.fault_layer.
  std::vector<std::unique_ptr<FaultyLinkTransform>> link_faults_;
  static std::size_t fault_slot(NodeId node, topo::Port port) {
    return static_cast<std::size_t>(node) * topo::kNumDirPorts + static_cast<std::size_t>(port);
  }

  // Observer plumbing: callbacks fired during the component phase land in
  // per-node buffers, replayed in node order at the end of the cycle.
  Nic::DeliveryObserver delivery_observer_;
  TraceRecorder* trace_recorder_ = nullptr;
  std::vector<std::vector<Packet>> delivery_buffers_;
  std::vector<std::vector<TraceEvent>> trace_buffers_;

  // Written from NIC register-write filters, which run concurrently across
  // shards in the parallel phase.
  std::atomic<std::int64_t> register_writes_applied_{0};

  // Per-flit active-bit totals for size-gated energy accounting.
  friend class EnergyProbe;
};

}  // namespace ocn::core
