// Reference model for the differential harness (see DESIGN.md).
//
// A deliberately simple, obviously-correct single-threaded re-implementation
// of the 5-port VC router, NIC and network: plain per-flit semantics written
// with ordinary containers, no active-set skipping, no devirtualized
// channels, no scratch-buffer reuse — every cycle every component does its
// work in the order the production `core::Network` documents. The point is
// not speed (this model is several times slower) but independence: the only
// things shared with the production stack are the pieces that are *not*
// under test here — topology geometry, route computation, the fault-layer
// bit steering, and the flit/packet value types.
//
// The observable contract the differential harness checks every cycle:
// per-(port,VC) credit counts and allocation state, input buffer occupancy
// and routing state, arbiter rotation pointers, per-port flits sent, per-NIC
// injection/delivery counters, and the full delivery log (cycle, src, dst,
// id, class, payload). See RefNetwork::snapshot for the canonical order.
//
// Deliberately unsupported (the harness rejects such configs rather than
// silently diverging): pre-scheduled traffic / exclusive scheduled VCs
// (reservation tables), interface partitioning, and network-register
// packets. Everything else in core::Config — both flow controls, piggyback
// credits, speculative and two-stage pipelines, priority arbitration on or
// off, any topology/radix/link latency, and dead links — is modelled.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fault.h"
#include "core/interface.h"
#include "router/flit.h"
#include "routing/route_computer.h"
#include "topo/topology.h"
#include "traffic/replay.h"

namespace ocn::ref {

/// Plain reimplementation of a kernel link (a LinkStore row): send(v) during cycle t
/// is visible via take() during cycle t + latency. One value per cycle.
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(int latency = 1)
      : slots_(static_cast<std::size_t>(latency)) {}

  void send(T v) {
    auto& tail = slots_.back();
    assert(!tail.has_value() && "double send on reference delay line");
    tail = std::move(v);
  }

  const std::optional<T>& receive() const { return out_; }

  std::optional<T> take() {
    std::optional<T> v = std::move(out_);
    out_.reset();
    return v;
  }

  void advance() {
    out_ = std::move(slots_.front());
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      slots_[i - 1] = std::move(slots_[i]);
    }
    slots_.back().reset();
  }

 private:
  std::vector<std::optional<T>> slots_;  ///< slots_[0] arrives next cycle
  std::optional<T> out_;                 ///< visible this cycle
};

/// One delivered packet, in the shape both the reference model and the
/// production delivery observer reduce a core::Packet to.
struct DeliveryRecord {
  Cycle cycle = 0;  ///< delivery cycle
  NodeId node = kInvalidNode;  ///< delivering NIC
  NodeId src = kInvalidNode;
  PacketId id = 0;
  int service_class = 0;
  int flits = 0;
  std::uint64_t payload0 = 0;  ///< first payload word (the trace cycle stamp)

  bool operator==(const DeliveryRecord& o) const {
    return cycle == o.cycle && node == o.node && src == o.src && id == o.id &&
           service_class == o.service_class && flits == o.flits &&
           payload0 == o.payload0;
  }
  std::string to_string() const;
};

/// Reduce a delivered core::Packet to the comparison shape (shared by the
/// production observer and the reference NIC so both sides agree by
/// construction on the reduction, not on the semantics being compared).
DeliveryRecord reduce_delivery(const core::Packet& p);

// --- round-robin arbitration helpers ---------------------------------------
// Same grant rule as router::RoundRobinArbiter / PriorityArbiter, written as
// free functions over an explicit pointer.
int rr_arbitrate(const std::vector<bool>& requests, int& ptr);
int prio_arbitrate(const std::vector<bool>& requests,
                   const std::vector<int>& priority, int& ptr);

class RefNetwork {
 public:
  explicit RefNetwork(const core::Config& config);

  const core::Config& config() const { return config_; }
  Cycle now() const { return now_; }
  int num_nodes() const { return topo_->num_nodes(); }

  /// Install the traffic to replay (entries sorted by cycle, relative to
  /// cycle 0). Mirrors traffic::TraceReplay started before the first tick.
  void add_trace(std::vector<traffic::TraceEntry> entries);

  /// Advance one cycle: step NICs and routers, run the replay source, then
  /// advance every delay line — the same phase structure as Kernel::tick.
  void tick();

  /// Mirror chaos::kill_link applied to the production network between
  /// ticks: the link's fault transform starts inverting payloads, and when
  /// the production side committed the reroute (CDG proof passed) the
  /// reference route table marks the link dead too.
  void kill_link(NodeId node, topo::Port port, bool reroute_committed);

  /// Test hook: skew one output's credit count by `delta` (used to prove
  /// the harness detects and minimizes a seeded divergence).
  void perturb_credit(NodeId node, topo::Port port, VcId vc, int delta);

  // --- observable state ------------------------------------------------------
  /// Append the canonical state vector for the current cycle. Order (must
  /// match the production walker in ref/diff.cpp and snapshot_labels):
  /// for each node:
  ///   nic: packets_injected, packets_delivered, flits_injected,
  ///        flits_delivered, queue_rejects, queued_flits,
  ///        pending_eject_flits, carry_backlog, inject_arb_ptr,
  ///        eject_arb_ptr, credits[vc]...
  ///   for each port with an attached input:
  ///     in: flits_arrived, flits_dropped, switch_arb_ptr,
  ///         per vc: size, routed, out_port (-1 unrouted), out_vc
  ///   for each port with an attached output:
  ///     out: flits_sent, credit_only_flits, carry_backlog, staged_flits,
  ///          link_arb_ptr, vc_alloc_rotation,
  ///          per vc: credits, allocated
  /// then: replay_injected, replay_deferred_total, deliveries_total.
  void snapshot(std::vector<std::int64_t>& out) const;
  /// Labels for the snapshot order above (one per value).
  std::vector<std::string> snapshot_labels() const;

  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  std::int64_t replay_injected() const { return replay_injected_; }
  std::int64_t replay_deferred_total() const { return replay_deferred_total_; }
  /// All trace entries injected and every packet delivered.
  bool drained() const;

  const topo::Topology& topology() const { return *topo_; }
  const routing::RouteComputer& routes() const { return routes_; }

 private:
  using Flit = router::Flit;
  using Credit = router::Credit;
  using Port = topo::Port;

  struct RefVcState {
    std::deque<Flit> q;
    bool routed = false;
    Cycle routed_at = -1;
    Port out_port = Port::kTile;
    VcId out_vc = kInvalidVc;
    void reset_packet_state() {
      routed = false;
      routed_at = -1;
      out_port = Port::kTile;
      out_vc = kInvalidVc;
    }
  };

  struct RefInput {
    DelayLine<Flit>* in = nullptr;
    DelayLine<Credit>* credit_upstream = nullptr;
    std::vector<RefVcState> vcs;
    std::vector<bool> discarding;
    bool popped_this_cycle = false;
    std::int64_t flits_arrived = 0;
    std::int64_t flits_dropped = 0;
    std::int64_t packets_dropped = 0;
    bool attached() const { return in != nullptr; }
  };

  struct RefOutput {
    DelayLine<Flit>* link = nullptr;
    DelayLine<Credit>* credit_downstream = nullptr;
    core::FaultyLinkTransform* transform = nullptr;
    std::vector<int> credits;
    std::vector<bool> vc_allocated;
    int vc_rr = 0;
    std::deque<VcId> carry_queue;
    std::array<std::optional<Flit>, topo::kNumPorts> stage{};
    std::array<bool, topo::kNumPorts> fresh{};
    int link_arb_ptr = 0;
    bool link_used = false;
    std::int64_t flits_sent = 0;
    std::int64_t credit_only_flits = 0;
    bool attached() const { return link != nullptr; }
  };

  struct RefRouter {
    NodeId node = kInvalidNode;
    std::array<RefInput, topo::kNumPorts> in;
    std::array<RefOutput, topo::kNumPorts> out;
    std::array<int, topo::kNumPorts> switch_arb_ptr{};
  };

  struct Reassembly {
    bool active = false;
    Flit head;
    std::vector<router::Payload> payloads;
  };

  struct RefNic {
    NodeId node = kInvalidNode;
    DelayLine<Flit>* inject = nullptr;
    DelayLine<Credit>* inject_credit = nullptr;
    DelayLine<Flit>* eject = nullptr;
    DelayLine<Credit>* eject_credit = nullptr;
    std::vector<std::deque<Flit>> vc_queues;
    std::vector<int> queued_packets_per_class;
    std::vector<int> credits;
    int inject_arb_ptr = 0;
    std::vector<std::deque<Flit>> eject_pending;
    int eject_arb_ptr = 0;
    std::vector<Reassembly> reassembly;
    std::deque<VcId> carry_to_router;
    std::deque<std::pair<core::Packet, Cycle>> loopback;
    PacketId next_packet_id = 0;
    std::int64_t packets_injected = 0;
    std::int64_t packets_delivered = 0;
    std::int64_t flits_injected = 0;
    std::int64_t flits_delivered = 0;
    std::int64_t queue_rejects = 0;
    int queued_flits() const {
      int n = 0;
      for (const auto& q : vc_queues) n += static_cast<int>(q.size());
      return n;
    }
    int pending_eject_flits() const {
      int n = 0;
      for (const auto& q : eject_pending) n += static_cast<int>(q.size());
      return n;
    }
  };

  struct RefLink {
    NodeId src = kInvalidNode;
    Port port = Port::kTile;
    DelayLine<Flit> flits;
    DelayLine<Credit> credits;
    std::unique_ptr<core::FaultyLinkTransform> fault;
    RefLink(int latency) : flits(latency), credits(latency) {}
  };

  struct RefTilePorts {
    DelayLine<Flit> inject{1};
    DelayLine<Credit> inject_credit{1};
    DelayLine<Flit> eject{1};
    DelayLine<Credit> eject_credit{1};
  };

  void build();
  // NIC phases (mirrors core::Nic).
  void nic_step(RefNic& nic, Cycle now);
  void nic_process_ejection(RefNic& nic, Cycle now);
  void nic_consume_flit(RefNic& nic, Flit flit, Cycle now);
  void nic_do_injection(RefNic& nic, Cycle now);
  bool nic_inject(RefNic& nic, core::Packet packet, Cycle now);
  void nic_enqueue_packet_flits(RefNic& nic, core::Packet& packet, Cycle now);
  void deliver(RefNic& nic, core::Packet&& packet);
  // Router phases (mirrors router::Router).
  void router_step(RefRouter& r, Cycle now);
  void input_accept_arrival(RefRouter& r, int port);
  void input_decode_fronts(RefInput& in, Port port, Cycle now);
  Flit input_pop(RefRouter& r, int port, VcId v);
  void vc_allocation(RefRouter& r, Cycle now);
  void link_arbitration(RefRouter& r, Cycle now);
  void switch_traversal(RefRouter& r, Cycle now);
  void send_on_link(RefOutput& out, Flit f);
  Flit take_flit(RefRouter& r, int in_port, VcId vc, Port out_port, VcId out_vc);
  bool effective_dateline(const RefRouter& r, const Flit& head, Port in_port,
                          Port out_port) const;
  VcId vc_allocate(RefOutput& out, std::uint8_t mask, bool want_odd,
                   bool ignore_parity);
  // Replay source (mirrors traffic::TraceReplay, stepped after NICs/routers).
  void replay_step(Cycle now);
  bool replay_try_inject(const traffic::TraceEntry& e, Cycle now);

  core::Config config_;
  std::unique_ptr<topo::Topology> topo_;
  routing::RouteComputer routes_;
  // The dateline VC-parity discipline, stated here independently of
  // RouterParams::dateline_parity: kept on wraparound rings unless
  // dropping.
  bool dateline_parity_;
  Cycle now_ = 0;

  std::vector<RefRouter> routers_;
  std::vector<RefNic> nics_;
  std::vector<std::unique_ptr<RefLink>> links_;
  std::vector<std::unique_ptr<RefTilePorts>> tiles_;

  std::vector<traffic::TraceEntry> entries_;
  std::size_t next_entry_ = 0;
  std::vector<traffic::TraceEntry> deferred_;
  std::int64_t replay_injected_ = 0;
  std::int64_t replay_deferred_total_ = 0;

  std::vector<DeliveryRecord> deliveries_;
};

}  // namespace ocn::ref
