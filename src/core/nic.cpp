#include "core/nic.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/log.h"

namespace ocn::core {

using router::Flit;
using router::FlitType;

Nic::Nic(NodeId node, const Config& config, const routing::RouteComputer& routes,
         router::RouterStatePool& pool, PacketArena& packets, int slot)
    : node_(node),
      config_(config),
      routes_(routes),
      pool_(&pool),
      packets_(&packets),
      slot_(slot),
      inject_arb_(config.router.vcs),
      eject_arb_(config.router.vcs),
      next_packet_id_(static_cast<PacketId>(node) << 40) {}

std::deque<Packet>& Nic::received() {
  if (!received_) received_ = std::make_unique<std::deque<Packet>>();
  return *received_;
}

bool Nic::idle_internal() const {
  const router::NicRow& r = row();
  if (!r.loopback.empty() || r.carry_count != 0) return false;
  return r.queued_flits == 0 && r.pending_ejects == 0;
}

std::uint8_t Nic::ready_mask() const {
  const int* credits = pool_->nic_credits(slot_);
  std::uint8_t mask = 0;
  for (VcId v = 0; v < config_.router.vcs; ++v) {
    if (credits[v] > 0) mask |= static_cast<std::uint8_t>(1u << v);
  }
  return mask;
}

void Nic::set_ejection_stall(VcId vc, bool stalled) {
  std::uint8_t& bits = row().stalled;
  const auto bit = static_cast<std::uint8_t>(1u << vc);
  bits = static_cast<std::uint8_t>(stalled ? bits | bit : bits & ~bit);
}

void Nic::enqueue(Packet& packet, Cycle now, Cycle send_at) {
  const VcId vc = send_at >= 0 ? config_.router.scheduled_vc()
                               : static_cast<VcId>(2 * packet.service_class);
  assert(vc < config_.router.vcs);
  packet.src = node_;
  packet.id = ++next_packet_id_;
  packet.created = now;
  row().queued_flits += packet.num_flits();
  const routing::SourceRoute route = routes_.compute(node_, packet.dst);
  packets_->push(pool_->nic_inject(slot_)[vc], packets_->alloc(std::move(packet), route, send_at));
  mark_due();
}

Flit Nic::cut_flit(const PacketRecord& q, VcId vc, Cycle now) const {
  const Packet& p = q.packet;
  const int n = p.num_flits();
  const int i = q.next_flit;
  const bool head = i == 0;
  const bool tail = i == n - 1;
  Flit f;
  f.type = head ? (tail ? FlitType::kHeadTail : FlitType::kHead)
                : (tail ? FlitType::kTail : FlitType::kBody);
  f.vc = vc;
  f.vc_mask = vc_mask_for_class(p.service_class);
  f.size_code = tail ? static_cast<std::uint8_t>(router::size_code_for_bits(p.last_flit_bits))
                     : static_cast<std::uint8_t>(router::kMaxSizeCode);
  if (head) f.route = q.route;
  f.data = p.flit_payloads[static_cast<std::size_t>(i)];
  f.packet = p.id;
  f.src = node_;
  f.dst = p.dst;
  f.flit_index = i;
  f.packet_flits = n;
  f.created = p.created;
  f.injected = now;
  f.priority = q.priority();
  return f;
}

bool Nic::inject(Packet packet, Cycle now) {
  assert(packet.dst >= 0 && packet.dst < routes_.topology().num_nodes());
  assert(packet.service_class < 4 &&
         class_has_vc_pair(packet.service_class, config_.router.vcs));
  if (config_.router.exclusive_scheduled_vc &&
      packet.service_class == config_.router.scheduled_vc() / 2) {
    // The scheduled VC pair belongs to pre-scheduled traffic: a dynamic
    // packet of this class could never allocate the excluded odd VC after
    // a dateline crossing and would wedge its wormhole forever.
    throw std::logic_error(
        "Nic::inject: the scheduled service class is reserved for "
        "pre-scheduled traffic when exclusive_scheduled_vc is set");
  }

  if (packet.dst == node_) {
    // Self-delivery short-circuits the network (the route encoding has no
    // zero-hop form; see routing/source_route.h).
    packet.src = node_;
    packet.id = ++next_packet_id_;
    packet.created = now;
    packet.injected = now;
    packet.hops = 0;
    packet.link_mm = 0.0;
    ++packets_injected_;
    flits_injected_ += packet.num_flits();
    packets_->push(row().loopback, packets_->alloc(std::move(packet), {}, /*deliver at*/ now + 1));
    mark_due();
    return true;
  }

  int& count = row().class_packets[static_cast<std::size_t>(packet.service_class)];
  if (count >= config_.nic_queue_packets) {
    ++queue_rejects_;
    return false;
  }
  ++count;
  enqueue(packet, now, /*send_at=*/-1);
  return true;
}

void Nic::schedule_packet(Packet packet, Cycle send_at, Cycle now) {
  assert(packet.num_flits() == 1 && "scheduled traffic uses single-flit packets");
  assert(packet.dst != node_);
  packet.scheduled = true;
  enqueue(packet, now, send_at);
}

void Nic::step(Cycle now) {
  // Credits returned by the tile input controller (arrival-byte gated; see
  // wake_row()).
  if (arrive_[kCreditArrive].load(std::memory_order_relaxed) != 0) {
    arrive_[kCreditArrive].store(0, std::memory_order_relaxed);
    const std::uint32_t credit_row = router::RouterStatePool::nic_credit_row(slot_);
    if (auto credit = pool_->links().take<std::int8_t>(credit_row, now)) {
      int& c = pool_->nic_credits(slot_)[*credit];
      ++c;
      assert(c <= config_.router.buffer_depth);
    }
  }
  process_ejection(now);
  do_injection(now);
  router::HandleQueue& loopback = row().loopback;
  while (!loopback.empty() && (*packets_)[loopback.head].send_at <= now) {
    const PacketRef ref = packets_->pop(loopback);
    Packet p = std::move((*packets_)[ref].packet);
    packets_->free(ref);
    p.delivered = now;
    flits_delivered_ += p.num_flits();
    deliver(std::move(p));
  }
}

void Nic::process_ejection(Cycle now) {
  // Arrival-byte gated, in-place arrival handling (receive + consume): the
  // flit goes straight from the link slot into the flit arena, skipping the
  // take() temporary.
  if (arrive_[kEjectArrive].load(std::memory_order_relaxed) != 0) {
    arrive_[kEjectArrive].store(0, std::memory_order_relaxed);
    const std::uint32_t link_row = router::RouterStatePool::nic_eject_row(slot_);
    const Flit* arriving = pool_->links().receive<Flit>(link_row, now);
    if (arriving != nullptr) {
      const Flit& fl = *arriving;
      // Harvest a piggybacked credit for the tile input buffers upstream.
      const std::int8_t carried = fl.carried_credit_vc;
      if (carried >= 0) {
        int& c = pool_->nic_credits(slot_)[carried];
        ++c;
        assert(c <= config_.router.buffer_depth);
      }
      if (fl.type != router::FlitType::kCreditOnly) {
        Flit& parked = pool_->eject_push(slot_, fl.vc, fl);
        if (carried >= 0) parked.carried_credit_vc = -1;
      }
      pool_->links().consume(link_row, now);
    }
  }
  const router::NicRow& r = row();
  // Nothing parked: with every request bit zero the arbiter would return -1
  // and leave its pointer frozen, so skipping it is identical.
  if (r.pending_ejects == 0) return;
  // Consume at most one flit per cycle (the physical port is one flit wide)
  // from a non-stalled VC, returning its credit.
  const int vc = eject_arb_.arbitrate(static_cast<std::uint32_t>(r.ejecting & ~r.stalled));
  if (vc < 0) return;
  const router::FlitRef ref = pool_->eject_pop(slot_, vc);
  if (!config_.router.dropping()) {
    if (config_.router.piggyback_credits) {
      pool_->nic_carry_push(slot_, vc);
    } else {
      eject_credit_.store->send(eject_credit_, now, static_cast<std::int8_t>(vc));
    }
  }
  consume_flit(pool_->flit(ref), now);
  pool_->flit_free(ref);
}

void Nic::consume_flit(const Flit& flit, Cycle now) {
  ++flits_delivered_;
  PacketRef& assembling = pool_->nic_assembling(slot_)[flit.vc];
  if (router::is_head(flit.type)) {
    assert(assembling == kNoPacket && "head flit while a packet is still being reassembled");
    // Built with no payload (the default one would allocate); the head
    // writes the identity.
    assembling = packets_->alloc(Packet{.flit_payloads = {}}, {}, -1);
    Packet& p = (*packets_)[assembling].packet;
    p.src = flit.src;
    p.dst = flit.dst;
    p.id = flit.packet;
    p.created = flit.created;
    p.injected = flit.injected;
    p.flit_payloads.reserve(static_cast<std::size_t>(flit.packet_flits));
  }
  assert(assembling != kNoPacket && "body/tail flit without a head");
  Packet& p = (*packets_)[assembling].packet;
  p.flit_payloads.push_back(flit.data);
  if (!router::is_tail(flit.type)) return;

  p.service_class = flit.priority >= 1000 ? 3 : flit.priority;
  p.scheduled = flit.priority >= 1000;
  p.last_flit_bits = router::data_bits_for_code(flit.size_code);
  p.delivered = now;
  p.hops = flit.hops;
  p.link_mm = flit.link_mm;
  Packet done = std::move(p);
  packets_->free(assembling);
  assembling = kNoPacket;
  deliver(std::move(done));
}

void Nic::do_injection(Cycle now) {
  router::NicRow& r = row();
  router::HandleQueue* queues = pool_->nic_inject(slot_);
  int* credits = pool_->nic_credits(slot_);
  // Empty queues mean zero request bits: the arbiter would return -1 with
  // its pointer frozen, so the scan and the arbiter are skipped.
  int vc = -1;
  if (r.queued_flits > 0) {
    std::uint32_t requests = 0;
    std::array<int, 8> priority{};
    for (VcId v = 0; v < config_.router.vcs; ++v) {
      if (queues[v].empty() || credits[v] <= 0) continue;
      // A scheduled packet waits for its reservation phase.
      const PacketRecord& front = (*packets_)[queues[v].head];
      if (front.send_at > now) continue;
      requests |= std::uint32_t{1} << v;
      priority[static_cast<std::size_t>(v)] = front.priority();
    }
    vc = inject_arb_.arbitrate(requests, priority.data());
  }
  if (vc < 0) {
    // Nothing to inject: return pending ejection credits on a credit-only
    // flit (piggyback mode's idle-cycle filler).
    if (config_.router.piggyback_credits && r.carry_count > 0) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(pool_->nic_carry_pop(slot_));
      inject_.store->send(inject_, now, f);
    }
    return;
  }
  router::HandleQueue& q = queues[vc];
  PacketRecord& front = (*packets_)[q.head];
  Flit f = cut_flit(front, static_cast<VcId>(vc), now);
  --r.queued_flits;
  if (!config_.router.dropping()) --credits[vc];
  if (config_.router.piggyback_credits && r.carry_count > 0) {
    f.carried_credit_vc = static_cast<std::int8_t>(pool_->nic_carry_pop(slot_));
  }
  if (router::is_head(f.type)) ++packets_injected_;
  ++flits_injected_;
  if (router::is_tail(f.type)) {
    if (front.send_at < 0) {
      --r.class_packets[static_cast<std::size_t>(front.packet.service_class)];
    }
    packets_->free(packets_->pop(q));
  } else {
    ++front.next_flit;
  }
  inject_.store->send(inject_, now, f);
}

void Nic::deliver(Packet&& packet) {
  ++packets_delivered_;
  const auto latency = static_cast<double>(packet.latency());
  latency_.add(latency);
  network_latency_.add(static_cast<double>(packet.network_latency()));
  hops_.add(static_cast<double>(packet.hops));
  link_mm_.add(packet.link_mm);
  class_latency_[static_cast<std::size_t>(packet.service_class)].add(latency);
  if (delivery_observer_) delivery_observer_(packet);
  for (const auto& filter : filters_) {
    if (filter(packet)) return;
  }
  if (handler_) {
    handler_(std::move(packet));
  } else {
    std::deque<Packet>& queue = received();
    if (queue.size() >= kMaxReceived) {
      throw std::length_error("Nic " + std::to_string(node_) + ": " +
                              std::to_string(queue.size() + 1) +
                              " packets received with no delivery handler (cap " +
                              std::to_string(kMaxReceived) +
                              "); install one with set_delivery_handler() or drain received()");
    }
    queue.push_back(std::move(packet));
  }
}

}  // namespace ocn::core
