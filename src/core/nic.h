// Network interface controller: the "local logic" of paper section 2.2.
//
// Converts client datagrams (Packet) into flit streams and back. Implements
// the section-2.1 port semantics: per-VC ready (credit) state toward the
// tile input controller, class-of-service selection via the VC mask, and
// priority interleaving — injection of a long low-priority packet is
// interrupted to inject a short high-priority packet and then resumed,
// because injection arbitration runs per flit across VC queues.
//
// The NIC's per-node state lives on its shard's rows (DESIGN.md §4h): the
// credits, counts, stall bits, carry ring and queue heads are NIC rows of
// its router's RouterStatePool slot, the ejected flits sit in that pool's
// flit arena, and the packets in the shard's PacketArena
// (core/packet_arena.h). Every queue is a head/tail handle pair
// (router::HandleQueue), so a NIC with nothing queued owns no heap; this
// object keeps only its wiring, its arbiters, the client hooks and the
// statistics.
//
// Each datagram is held once, as its Packet in a packet record. inject() and
// schedule_packet() stamp it (src, id, created), compute its source route
// and queue its record on its VC; a chaos reroute after that leaves the
// queued route alone. Each cycle the injection arbiter picks a VC and
// cut_flit() builds that queue's next flit from the record as it leaves for
// the wire; the record is freed once its tail has left. On ejection an
// arriving flit is copied once, from the eject link slot into the flit
// arena, and its handle queued on its VC; the one-flit-wide consume port
// reads it there. Each VC reassembles into one packet record: the head flit
// allocates it and writes the identity, every flit appends its payload, and
// the tail writes the rest and hands the packet to deliver(), which records
// the statistics for network and loopback deliveries alike.
//
// Queue occupancy is counted once: the row counters kept at every push and
// pop are the only record of it, read by idle_internal(), the injection and
// ejection gates and the queued_flits()/pending_eject_flits() accessors.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/interface.h"
#include "core/packet_arena.h"
#include "router/arbiter.h"
#include "router/soa.h"
#include "routing/route_computer.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace ocn::core {

class Nic final : public Clockable {
 public:
  using DeliveryHandler = std::function<void(Packet&&)>;

  /// The NIC's state is the NIC rows of `pool` at `slot`, its router's
  /// pool slot, and its inbound links are rows of the pool's link store at
  /// that block (RouterStatePool::nic_eject_row and nic_credit_row). Its
  /// packets are records of `packets`, its shard's arena.
  Nic(NodeId node, const Config& config, const routing::RouteComputer& routes,
      router::RouterStatePool& pool, PacketArena& packets, int slot);

  /// Wire the outbound tile links (Network::build does, before the first
  /// step): the inject link and the eject link's credit return. The
  /// inbound rows are attached to the store with arrival().
  void attach_inject(LinkRef inject) { inject_ = inject; }
  void attach_eject(LinkRef eject_credit) { eject_credit_ = eject_credit; }
  /// The arrival byte the eject link (kEjectArrive) or the inject-credit
  /// link (kCreditArrive) stamps.
  static constexpr int kEjectArrive = 0;
  static constexpr int kCreditArrive = 1;
  std::atomic<std::uint8_t>* arrival(int kind) { return &arrive_[kind]; }

  NodeId node() const { return node_; }

  // --- client API -----------------------------------------------------------
  /// Queue a datagram for injection. Returns false when the class queue is
  /// full (client backpressure). Self-addressed packets are delivered
  /// locally without entering the network.
  bool inject(Packet packet, Cycle now);

  /// Packets for which no delivery handler is installed accumulate here,
  /// up to kMaxReceived: a client that never drains them would grow the
  /// queue without bound, so the delivery past the cap throws
  /// std::length_error naming the node and the count. The queue is
  /// created on first use.
  std::deque<Packet>& received();
  static constexpr std::size_t kMaxReceived = std::size_t{1} << 16;
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

  /// The arrival bytes of the two links delivering INTO this NIC (ejected
  /// flits, returned injection credits), as one contiguous row for the
  /// kernel's skip predicate: the link stamps on delivery, and step() reads
  /// the link's slot only when its byte is set, clearing it as it consumes.
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
  int queued_flits() const { return row().queued_flits; }

  // --- state inspection (differential harness) ------------------------------
  /// Credits held toward the router's tile input buffer for VC v.
  int injection_credits(VcId vc) const { return pool_->nic_credits(slot_)[vc]; }
  /// Ejected flits parked awaiting the one-flit-per-cycle consume port.
  int pending_eject_flits() const { return row().pending_ejects; }
  /// Piggyback credits queued to ride on the next injected flit.
  int carry_backlog() const { return row().carry_count; }
  const router::PriorityArbiter& inject_arbiter() const { return inject_arb_; }
  const router::RoundRobinArbiter& eject_arbiter() const { return eject_arb_; }
  /// The NIC's rows (its slot of `pool()`) and its shard's packet arena,
  /// for the NicRows referee.
  const router::RouterStatePool& pool() const { return *pool_; }
  int pool_slot() const { return slot_; }
  const PacketArena& packet_arena() const { return *packets_; }

 private:
  const router::NicRow& row() const { return pool_->nic(slot_); }
  router::NicRow& row() { return pool_->nic(slot_); }
  void enqueue(Packet& packet, Cycle now, Cycle send_at);
  router::Flit cut_flit(const PacketRecord& queued, VcId vc, Cycle now) const;
  void process_ejection(Cycle now);
  void consume_flit(const router::Flit& flit, Cycle now);
  void do_injection(Cycle now);
  void deliver(Packet&& packet);

  NodeId node_;
  const Config& config_;
  const routing::RouteComputer& routes_;

  /// The NIC rows' pool and slot (also the inbound rows' store and block),
  /// the packet arena, and the outbound links.
  router::RouterStatePool* pool_;
  PacketArena* packets_;
  int slot_ = 0;
  LinkRef inject_;
  LinkRef eject_credit_;
  /// The wake row (see wake_row()), indexed by kEjectArrive /
  /// kCreditArrive.
  static constexpr int kWakeWidth = 2;
  std::atomic<std::uint8_t> arrive_[kWakeWidth] = {};

  router::PriorityArbiter inject_arb_;
  router::RoundRobinArbiter eject_arb_;

  DeliveryHandler handler_;
  DeliveryObserver delivery_observer_;
  std::vector<Filter> filters_;
  std::unique_ptr<std::deque<Packet>> received_;

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
  std::array<Accumulator, 4> class_latency_;
};

}  // namespace ocn::core
