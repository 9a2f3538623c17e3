#include "core/nic.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/log.h"

namespace ocn::core {

using router::Credit;
using router::Flit;
using router::FlitType;

Nic::Nic(NodeId node, const Config& config, const routing::RouteComputer& routes)
    : node_(node),
      config_(config),
      routes_(routes),
      vc_queues_(static_cast<std::size_t>(config.router.vcs)),
      queued_packets_per_class_(4, 0),
      credits_(static_cast<std::size_t>(config.router.vcs), config.router.buffer_depth),
      inject_arb_(config.router.vcs),
      eject_pending_(static_cast<std::size_t>(config.router.vcs)),
      eject_stalled_(static_cast<std::size_t>(config.router.vcs), false),
      eject_arb_(config.router.vcs),
      assembling_(static_cast<std::size_t>(config.router.vcs)),
      prio_scratch_(static_cast<std::size_t>(config.router.vcs), 0),
      next_packet_id_(static_cast<PacketId>(node) << 40),
      class_latency_(4) {
  for (Packet& p : assembling_) p.flit_payloads.clear();
}

bool Nic::idle_internal() const {
  if (!loopback_.empty() || !carry_to_router_.empty()) return false;
  return queued_flit_count_ == 0 && eject_pending_count_ == 0;
}

void Nic::attach_inject(Channel<Flit>* inject, Channel<Credit>* inject_credit) {
  inject_ = inject;
  inject_credit_ = inject_credit;
  inject_credit_->set_wake(&arrive_[kCreditArrive]);
}

void Nic::attach_eject(Channel<Flit>* eject, Channel<Credit>* eject_credit) {
  eject_ = eject;
  eject_credit_ = eject_credit;
  eject_->set_wake(&arrive_[kEjectArrive]);
}

std::uint8_t Nic::ready_mask() const {
  std::uint8_t mask = 0;
  for (std::size_t v = 0; v < credits_.size(); ++v) {
    if (credits_[v] > 0) mask |= static_cast<std::uint8_t>(1u << v);
  }
  return mask;
}

void Nic::set_ejection_stall(VcId vc, bool stalled) {
  eject_stalled_[static_cast<std::size_t>(vc)] = stalled;
}

void Nic::enqueue(Packet& packet, Cycle now, Cycle send_at) {
  const VcId vc = send_at >= 0 ? config_.router.scheduled_vc()
                               : static_cast<VcId>(2 * packet.service_class);
  assert(vc < config_.router.vcs);
  packet.src = node_;
  packet.id = ++next_packet_id_;
  packet.created = now;
  queued_flit_count_ += packet.num_flits();
  const routing::SourceRoute route = routes_.compute(node_, packet.dst);
  vc_queues_[static_cast<std::size_t>(vc)].push_back(
      Queued{std::move(packet), route, send_at, 0});
  mark_due();
}

Flit Nic::cut_flit(const Queued& q, VcId vc, Cycle now) const {
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
    loopback_.emplace_back(std::move(packet), now + 1);
    mark_due();
    return true;
  }

  auto& count = queued_packets_per_class_[static_cast<std::size_t>(packet.service_class)];
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
    if (auto credit = inject_credit_->take()) {
      auto& c = credits_[static_cast<std::size_t>(credit->vc)];
      ++c;
      assert(c <= config_.router.buffer_depth);
    }
  }
  process_ejection(now);
  do_injection(now);
  while (!loopback_.empty() && loopback_.front().second <= now) {
    Packet p = std::move(loopback_.front().first);
    loopback_.pop_front();
    p.delivered = now;
    flits_delivered_ += p.num_flits();
    deliver(std::move(p));
  }
}

void Nic::process_ejection(Cycle now) {
  // Arrival-byte gated, in-place arrival handling (receive + consume): the
  // pending-queue copy goes straight from channel storage, skipping the
  // take() temporary.
  if (arrive_[kEjectArrive].load(std::memory_order_relaxed) != 0) {
    arrive_[kEjectArrive].store(0, std::memory_order_relaxed);
    const Flit* arriving = eject_->receive();
    if (arriving != nullptr) {
      const Flit& fl = *arriving;
      // Harvest a piggybacked credit for the tile input buffers upstream.
      const std::int8_t carried = fl.carried_credit_vc;
      if (carried >= 0) {
        auto& c = credits_[static_cast<std::size_t>(carried)];
        ++c;
        assert(c <= config_.router.buffer_depth);
      }
      if (fl.type != router::FlitType::kCreditOnly) {
        auto& q = eject_pending_[static_cast<std::size_t>(fl.vc)];
        q.push_back(fl);
        if (carried >= 0) q.back().carried_credit_vc = -1;
        ++eject_pending_count_;
      }
      eject_->consume();
    }
  }
  // Nothing parked: with every request bit zero the arbiter would return -1
  // and leave its pointer frozen, so skipping it is identical.
  if (eject_pending_count_ == 0) return;
  // Consume at most one flit per cycle (the physical port is one flit wide)
  // from a non-stalled VC, returning its credit.
  std::uint32_t requests = 0;
  for (std::size_t v = 0; v < eject_pending_.size(); ++v) {
    if (!eject_pending_[v].empty() && !eject_stalled_[v]) requests |= std::uint32_t{1} << v;
  }
  const int vc = eject_arb_.arbitrate(requests);
  if (vc < 0) return;
  Flit f = std::move(eject_pending_[static_cast<std::size_t>(vc)].front());
  eject_pending_[static_cast<std::size_t>(vc)].pop_front();
  --eject_pending_count_;
  if (!config_.router.dropping()) {
    if (config_.router.piggyback_credits) {
      carry_to_router_.push_back(static_cast<VcId>(vc));
    } else {
      eject_credit_->send(Credit{static_cast<VcId>(vc)});
    }
  }
  consume_flit(std::move(f), now);
}

void Nic::consume_flit(Flit flit, Cycle now) {
  ++flits_delivered_;
  Packet& p = assembling_[static_cast<std::size_t>(flit.vc)];
  if (router::is_head(flit.type)) {
    assert(p.flit_payloads.empty() && "head flit while a packet is still being reassembled");
    p.src = flit.src;
    p.dst = flit.dst;
    p.id = flit.packet;
    p.created = flit.created;
    p.injected = flit.injected;
    p.flit_payloads.reserve(static_cast<std::size_t>(flit.packet_flits));
  }
  assert((router::is_head(flit.type) || !p.flit_payloads.empty()) &&
         "body/tail flit without a head");
  p.flit_payloads.push_back(flit.data);
  if (!router::is_tail(flit.type)) return;

  p.service_class = flit.priority >= 1000 ? 3 : flit.priority;
  p.scheduled = flit.priority >= 1000;
  p.last_flit_bits = router::data_bits_for_code(flit.size_code);
  p.delivered = now;
  p.hops = flit.hops;
  p.link_mm = flit.link_mm;
  Packet done = std::move(p);
  p.flit_payloads.clear();
  deliver(std::move(done));
}

void Nic::do_injection(Cycle now) {
  // Empty queues mean zero request bits: the arbiter would return -1 with
  // its pointer frozen, so the scan and the arbiter are skipped.
  int vc = -1;
  if (queued_flit_count_ > 0) {
    const int vcs = config_.router.vcs;
    std::uint32_t requests = 0;
    int* priority = prio_scratch_.data();
    for (VcId v = 0; v < vcs; ++v) {
      const auto& q = vc_queues_[static_cast<std::size_t>(v)];
      // A scheduled packet waits for its reservation phase.
      const bool ready = !q.empty() && credits_[static_cast<std::size_t>(v)] > 0 &&
                         q.front().send_at <= now;
      if (ready) {
        requests |= std::uint32_t{1} << v;
        priority[v] = q.front().priority();
      }
    }
    vc = inject_arb_.arbitrate(requests, priority);
  }
  if (vc < 0) {
    // Nothing to inject: return pending ejection credits on a credit-only
    // flit (piggyback mode's idle-cycle filler).
    if (config_.router.piggyback_credits && !carry_to_router_.empty()) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(carry_to_router_.front());
      carry_to_router_.pop_front();
      inject_->send(std::move(f));
    }
    return;
  }
  auto& q = vc_queues_[static_cast<std::size_t>(vc)];
  Queued& front = q.front();
  Flit f = cut_flit(front, static_cast<VcId>(vc), now);
  --queued_flit_count_;
  if (!config_.router.dropping()) --credits_[static_cast<std::size_t>(vc)];
  if (config_.router.piggyback_credits && !carry_to_router_.empty()) {
    f.carried_credit_vc = static_cast<std::int8_t>(carry_to_router_.front());
    carry_to_router_.pop_front();
  }
  if (router::is_head(f.type)) ++packets_injected_;
  ++flits_injected_;
  if (router::is_tail(f.type)) {
    if (front.send_at < 0) {
      --queued_packets_per_class_[static_cast<std::size_t>(front.packet.service_class)];
    }
    q.pop_front();
  } else {
    ++front.next_flit;
  }
  inject_->send(std::move(f));
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
    received_.push_back(std::move(packet));
  }
}

}  // namespace ocn::core
