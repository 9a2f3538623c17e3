// Network interface controller: the "local logic" of paper section 2.2.
//
// Converts client datagrams (Packet) into flit streams and back. Implements
// the section-2.1 port semantics: per-VC ready (credit) state toward the
// tile input controller, class-of-service selection via the VC mask, and
// priority interleaving — injection of a long low-priority packet is
// interrupted to inject a short high-priority packet and then resumed,
// because injection arbitration runs per flit across VC queues.
//
// Each datagram is held once, as its Packet. inject() and schedule_packet()
// stamp it (src, id, created), compute its source route and queue it on its
// VC; a chaos reroute after that leaves the queued route alone. Each cycle
// the injection arbiter picks a VC and cut_flit() builds that queue's next
// flit from the packet as it leaves for the wire; the packet is popped once
// its tail has left. On ejection, each VC assembles one Packet: the head flit
// writes its identity, every flit appends its payload, and the tail writes
// the rest and hands it to deliver(), which records the statistics for
// network and loopback deliveries alike.
//
// Queue occupancy is counted once: counters kept at every push and pop are
// the only record of it, read by idle_internal(), the injection and
// ejection gates and the queued_flits()/pending_eject_flits() accessors.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/interface.h"
#include "router/arbiter.h"
#include "routing/route_computer.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace ocn::core {

class Nic final : public Clockable {
 public:
  using DeliveryHandler = std::function<void(Packet&&)>;

  Nic(NodeId node, const Config& config, const routing::RouteComputer& routes);

  /// Wire the tile ports (Network::build does, before the first step); the
  /// inbound channels stamp the NIC's wake row.
  void attach_inject(Channel<router::Flit>* inject, Channel<router::Credit>* inject_credit);
  void attach_eject(Channel<router::Flit>* eject, Channel<router::Credit>* eject_credit);

  NodeId node() const { return node_; }

  // --- client API -----------------------------------------------------------
  /// Queue a datagram for injection. Returns false when the class queue is
  /// full (client backpressure). Self-addressed packets are delivered
  /// locally without entering the network.
  bool inject(Packet packet, Cycle now);

  /// Packets for which no delivery handler is installed accumulate here.
  std::deque<Packet>& received() { return received_; }
  void set_delivery_handler(DeliveryHandler handler) { handler_ = std::move(handler); }

  /// Pre-delivery filters (first match consumes the packet); used by the
  /// network-register decoder and by services that snoop their own message
  /// types without disturbing the client handler.
  using Filter = std::function<bool(const Packet&)>;
  void add_filter(Filter filter) { filters_.push_back(std::move(filter)); }

  /// Observer invoked for every packet this NIC delivers, before filters run
  /// and regardless of handler installation. Non-consuming: the packet is
  /// still filtered/handled/queued exactly as without an observer. Used by
  /// the differential harness to log ejection order without perturbing the
  /// client-visible path.
  using DeliveryObserver = std::function<void(const Packet&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    delivery_observer_ = std::move(observer);
  }

  /// The section-2.1 "ready" field: bit v set when the network can accept a
  /// flit on VC v.
  std::uint8_t ready_mask() const;

  /// Test hook: client refuses delivery on a VC (exercises the ejection
  /// credit loop).
  void set_ejection_stall(VcId vc, bool stalled);

  // --- scheduled traffic ----------------------------------------------------
  /// Queue a single-flit scheduled packet to leave the NIC at exactly
  /// `send_at` (its reservation phase). Used by traffic::ScheduledFlow.
  void schedule_packet(Packet packet, Cycle send_at, Cycle now);

  void step(Cycle now) override;

  /// The arrival bytes of the two channels delivering INTO this NIC
  /// (ejected flits, returned injection credits), as one contiguous row for
  /// the kernel's skip predicate: attach() wires them, the channel stamps on
  /// delivery, and step() probes a channel object only when its byte is set,
  /// clearing it as it consumes.
  std::atomic<std::uint8_t>* wake_row() { return arrive_; }
  static constexpr int wake_width() { return kWakeWidth; }

  /// No queued injection flits, no pending ejections, no piggyback credits
  /// to carry and no loopback deliveries; with the wake row clear the
  /// kernel skips the NIC.
  bool idle_internal() const override;

  // --- statistics -----------------------------------------------------------
  std::int64_t packets_injected() const { return packets_injected_; }
  std::int64_t packets_delivered() const { return packets_delivered_; }
  std::int64_t flits_injected() const { return flits_injected_; }
  std::int64_t flits_delivered() const { return flits_delivered_; }
  std::int64_t injection_queue_rejects() const { return queue_rejects_; }
  const Accumulator& latency() const { return latency_; }
  const Accumulator& network_latency() const { return network_latency_; }
  const Accumulator& hops() const { return hops_; }
  const Accumulator& link_mm() const { return link_mm_; }
  const Accumulator& class_latency(int service_class) const {
    return class_latency_[static_cast<std::size_t>(service_class)];
  }
  /// Flits of queued packets not yet sent (all VCs).
  int queued_flits() const { return queued_flit_count_; }

  // --- state inspection (differential harness) ------------------------------
  /// Credits held toward the router's tile input buffer for VC v.
  int injection_credits(VcId vc) const { return credits_[static_cast<std::size_t>(vc)]; }
  /// Ejected flits parked awaiting the one-flit-per-cycle consume port.
  int pending_eject_flits() const { return eject_pending_count_; }
  /// Piggyback credits queued to ride on the next injected flit.
  int carry_backlog() const { return static_cast<int>(carry_to_router_.size()); }
  const router::PriorityArbiter& inject_arbiter() const { return inject_arb_; }
  const router::RoundRobinArbiter& eject_arbiter() const { return eject_arb_; }

 private:
  /// A datagram waiting on its injection VC: the packet, the route it was
  /// queued with, and how many of its flits have already left.
  struct Queued {
    Packet packet;
    routing::SourceRoute route;
    Cycle send_at = -1;  ///< exact departure cycle for scheduled packets
    int next_flit = 0;
    /// Scheduled packets outrank every service class at the injection
    /// arbiter.
    int priority() const { return send_at >= 0 ? 1000 : packet.service_class; }
  };

  void enqueue(Packet& packet, Cycle now, Cycle send_at);
  router::Flit cut_flit(const Queued& queued, VcId vc, Cycle now) const;
  void process_ejection(Cycle now);
  void consume_flit(router::Flit flit, Cycle now);
  void do_injection(Cycle now);
  void deliver(Packet&& packet);

  NodeId node_;
  const Config& config_;
  const routing::RouteComputer& routes_;

  Channel<router::Flit>* inject_ = nullptr;
  Channel<router::Credit>* inject_credit_ = nullptr;
  Channel<router::Flit>* eject_ = nullptr;
  Channel<router::Credit>* eject_credit_ = nullptr;
  /// The wake row (see wake_row()), indexed by kEjectArrive /
  /// kCreditArrive.
  static constexpr int kEjectArrive = 0;
  static constexpr int kCreditArrive = 1;
  static constexpr int kWakeWidth = 2;
  std::atomic<std::uint8_t> arrive_[kWakeWidth] = {};

  std::vector<std::deque<Queued>> vc_queues_;
  /// Piggyback mode: credits for the router's tile output controller
  /// (reassembly slots freed here), carried on injected flits.
  std::deque<VcId> carry_to_router_;
  std::vector<int> queued_packets_per_class_;
  /// Dropping mode neither consumes nor returns any: they stay at depth.
  std::vector<int> credits_;
  router::PriorityArbiter inject_arb_;

  std::vector<std::deque<router::Flit>> eject_pending_;
  /// Unsent flits of the packets in vc_queues_ and flits in eject_pending_,
  /// kept at every push, send and pop, so idle_internal(), the accessors and
  /// the ejection gate never walk the deques. ocn-diff compares both against
  /// the reference model every tick.
  int queued_flit_count_ = 0;
  int eject_pending_count_ = 0;
  std::vector<bool> eject_stalled_;
  router::RoundRobinArbiter eject_arb_;
  /// The packet each VC is assembling; no payloads between packets.
  std::vector<Packet> assembling_;
  // Per-cycle arbitration scratch, reused to keep allocations off the hot
  // path.
  std::vector<int> prio_scratch_;

  std::deque<std::pair<Packet, Cycle>> loopback_;  ///< self-addressed, (packet, deliver_at)

  DeliveryHandler handler_;
  DeliveryObserver delivery_observer_;
  std::vector<Filter> filters_;
  std::deque<Packet> received_;

  PacketId next_packet_id_;
  std::int64_t packets_injected_ = 0;
  std::int64_t packets_delivered_ = 0;
  std::int64_t flits_injected_ = 0;
  std::int64_t flits_delivered_ = 0;
  std::int64_t queue_rejects_ = 0;
  Accumulator latency_;
  Accumulator network_latency_;
  Accumulator hops_;
  Accumulator link_mm_;
  std::vector<Accumulator> class_latency_;
};

}  // namespace ocn::core
