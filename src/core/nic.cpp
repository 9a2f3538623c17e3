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
      reassembly_(static_cast<std::size_t>(config.router.vcs)),
      req_scratch_(static_cast<std::size_t>(config.router.vcs), 0),
      prio_scratch_(static_cast<std::size_t>(config.router.vcs), 0),
      next_packet_id_(static_cast<PacketId>(node) << 40),
      class_latency_(4) {}

bool Nic::idle_internal() const {
  if (!loopback_.empty() || !carry_to_router_.empty()) return false;
  return queued_flit_count_ == 0 && eject_pending_count_ == 0;
}

void Nic::attach(Channel<Flit>* inject, Channel<Credit>* inject_credit,
                 Channel<Flit>* eject, Channel<Credit>* eject_credit) {
  inject_ = inject;
  inject_credit_ = inject_credit;
  eject_ = eject;
  eject_credit_ = eject_credit;
  if (inject_credit_ != nullptr) inject_credit_->set_wake(&arrive_[kCreditArrive]);
  if (eject_ != nullptr) eject_->set_wake(&arrive_[kEjectArrive]);
}

std::uint8_t Nic::ready_mask() const {
  std::uint8_t mask = 0;
  for (std::size_t v = 0; v < credits_.size(); ++v) {
    const bool ready = config_.router.dropping() || credits_[v] > 0;
    if (ready) mask |= static_cast<std::uint8_t>(1u << v);
  }
  return mask;
}

void Nic::set_ejection_stall(VcId vc, bool stalled) {
  eject_stalled_[static_cast<std::size_t>(vc)] = stalled;
}

void Nic::enqueue_packet_flits(Packet& packet, Cycle now, Cycle send_at) {
  const bool scheduled = send_at >= 0;
  const VcId inject_vc =
      scheduled ? config_.router.scheduled_vc
                : static_cast<VcId>(2 * packet.service_class);
  assert(inject_vc < config_.router.vcs);

  packet.src = node_;
  packet.id = ++next_packet_id_;
  packet.created = now;

  const int n = packet.num_flits();
  for (int i = 0; i < n; ++i) {
    Flit f;
    if (n == 1) {
      f.type = FlitType::kHeadTail;
    } else if (i == 0) {
      f.type = FlitType::kHead;
    } else if (i == n - 1) {
      f.type = FlitType::kTail;
    } else {
      f.type = FlitType::kBody;
    }
    f.vc = inject_vc;
    f.vc_mask = vc_mask_for_class(packet.service_class);
    f.size_code = (i == n - 1) ? static_cast<std::uint8_t>(
                                     router::size_code_for_bits(packet.last_flit_bits))
                               : static_cast<std::uint8_t>(router::kMaxSizeCode);
    if (router::is_head(f.type)) f.route = routes_.compute(node_, packet.dst);
    f.data = packet.flit_payloads[static_cast<std::size_t>(i)];
    f.packet = packet.id;
    f.src = node_;
    f.dst = packet.dst;
    f.flit_index = i;
    f.packet_flits = n;
    f.created = packet.created;
    f.injected = now;  // refined when the flit actually departs
    f.priority = scheduled ? 1000 : packet.service_class;
    vc_queues_[static_cast<std::size_t>(inject_vc)].push_back(
        QueuedFlit{std::move(f), send_at});
    ++queued_flit_count_;
    if (scheduled) ++scheduled_flit_count_;
  }
}

bool Nic::inject(Packet packet, Cycle now) {
  assert(packet.dst >= 0 && packet.dst < routes_.topology().num_nodes());
  assert(packet.service_class >= 0 && packet.service_class < 4);
  assert(static_cast<VcId>(2 * packet.service_class + 1) < config_.router.vcs ||
         config_.router.vcs == 1);
  if (config_.router.exclusive_scheduled_vc &&
      packet.service_class == config_.router.scheduled_vc / 2) {
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
    ++packets_injected_;
    flits_injected_ += packet.num_flits();
    loopback_.emplace_back(std::move(packet), now + 1);
    return true;
  }

  auto& count = queued_packets_per_class_[static_cast<std::size_t>(packet.service_class)];
  if (count >= config_.nic_queue_packets) {
    ++queue_rejects_;
    return false;
  }
  ++count;
  enqueue_packet_flits(packet, now, /*send_at=*/-1);
  return true;
}

void Nic::schedule_packet(Packet packet, Cycle send_at, Cycle now) {
  assert(packet.num_flits() == 1 && "scheduled traffic uses single-flit packets");
  assert(packet.dst != node_);
  packet.scheduled = true;
  enqueue_packet_flits(packet, now, send_at);
}

void Nic::step(Cycle now) {
  // Credits returned by the tile input controller (arrival-byte gated; see
  // wake_row()).
  if (inject_credit_ != nullptr &&
      arrive_[kCreditArrive].load(std::memory_order_relaxed) != 0) {
    arrive_[kCreditArrive].store(0, std::memory_order_relaxed);
    if (auto credit = inject_credit_->take()) {
      if (!config_.router.dropping()) {
        auto& c = credits_[static_cast<std::size_t>(credit->vc)];
        ++c;
        assert(c <= config_.router.buffer_depth);
      }
    }
  }
  process_ejection(now);
  do_injection(now);
  while (!loopback_.empty() && loopback_.front().second <= now) {
    Packet p = std::move(loopback_.front().first);
    loopback_.pop_front();
    p.delivered = now;
    ++packets_delivered_;
    flits_delivered_ += p.num_flits();
    latency_.add(static_cast<double>(p.latency()));
    network_latency_.add(static_cast<double>(p.network_latency()));
    hops_.add(0.0);
    link_mm_.add(0.0);
    class_latency_[static_cast<std::size_t>(p.service_class)].add(
        static_cast<double>(p.latency()));
    deliver(std::move(p));
  }
}

void Nic::process_ejection(Cycle now) {
  if (eject_ == nullptr) return;
  // Arrival-byte gated, in-place arrival handling (receive + consume): the
  // pending-queue copy goes straight from channel storage, skipping the
  // take() temporary.
  if (arrive_[kEjectArrive].load(std::memory_order_relaxed) != 0) {
    arrive_[kEjectArrive].store(0, std::memory_order_relaxed);
    const std::optional<Flit>& arriving = eject_->receive();
    if (arriving.has_value()) {
      const Flit& fl = *arriving;
      // Harvest a piggybacked credit for the tile input buffers upstream.
      const std::int8_t carried = fl.carried_credit_vc;
      if (carried >= 0 && !config_.router.dropping()) {
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
  for (std::size_t v = 0; v < eject_pending_.size(); ++v) {
    req_scratch_[v] = !eject_pending_[v].empty() && !eject_stalled_[v] ? 1 : 0;
  }
  const int vc = eject_arb_.arbitrate(req_scratch_.data());
  if (vc < 0) return;
  Flit f = std::move(eject_pending_[static_cast<std::size_t>(vc)].front());
  eject_pending_[static_cast<std::size_t>(vc)].pop_front();
  --eject_pending_count_;
  if (!config_.router.dropping()) {
    if (config_.router.piggyback_credits) {
      carry_to_router_.push_back(static_cast<VcId>(vc));
    } else if (eject_credit_ != nullptr) {
      eject_credit_->send(Credit{static_cast<VcId>(vc)});
    }
  }
  consume_flit(std::move(f), now);
}

void Nic::consume_flit(Flit flit, Cycle now) {
  ++flits_delivered_;
  auto& r = reassembly_[static_cast<std::size_t>(flit.vc)];
  if (router::is_head(flit.type)) {
    assert(!r.active && "head flit while a packet is still being reassembled");
    r.active = true;
    r.head = flit;
    r.payloads.clear();
  }
  assert(r.active && "body/tail flit without a head");
  r.payloads.push_back(flit.data);
  if (!router::is_tail(flit.type)) return;

  Packet p;
  p.src = r.head.src;
  p.dst = r.head.dst;
  p.id = r.head.packet;
  p.service_class = flit.priority >= 1000 ? 3 : r.head.priority;
  p.scheduled = flit.priority >= 1000;
  p.flit_payloads = std::move(r.payloads);
  p.last_flit_bits = router::data_bits_for_code(flit.size_code);
  p.created = r.head.created;
  p.injected = r.head.injected;
  p.delivered = now;
  p.hops = flit.hops;
  p.link_mm = flit.link_mm;
  r = Reassembly{};

  ++packets_delivered_;
  latency_.add(static_cast<double>(p.latency()));
  network_latency_.add(static_cast<double>(p.network_latency()));
  hops_.add(static_cast<double>(p.hops));
  link_mm_.add(p.link_mm);
  class_latency_[static_cast<std::size_t>(p.service_class)].add(
      static_cast<double>(p.latency()));
  deliver(std::move(p));
}

void Nic::do_injection(Cycle now) {
  if (inject_ == nullptr) return;
  if (queued_flit_count_ == 0) {
    // Empty queues mean zero request bits: the arbiter would return -1 with
    // its pointer frozen, landing in the credit-only branch below — reached
    // here directly.
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
  const int vcs = config_.router.vcs;
  std::uint8_t* requests = req_scratch_.data();
  int* priority = prio_scratch_.data();
  for (VcId v = 0; v < vcs; ++v) {
    requests[v] = 0;
    priority[v] = 0;
    auto& q = vc_queues_[static_cast<std::size_t>(v)];
    if (q.empty()) continue;
    if (scheduled_flit_count_ == 0) {
      // No scheduled flit anywhere in this NIC: every front has
      // send_at < 0, so the reservation-phase checks above are no-ops and
      // credit readiness can be tested first — the (common, at saturation)
      // credit-starved VC then never touches the queue front.
      const bool ready =
          config_.router.dropping() || credits_[static_cast<std::size_t>(v)] > 0;
      if (!ready) continue;
      requests[v] = 1;
      priority[v] = q.front().flit.priority;
      continue;
    }
    const QueuedFlit& qf = q.front();
    if (qf.send_at >= 0) {
      if (qf.send_at > now) continue;  // wait for the reservation phase
      if (qf.send_at < now) ++missed_slots_;
    }
    const bool ready = config_.router.dropping() || credits_[static_cast<std::size_t>(v)] > 0;
    if (!ready) continue;
    requests[v] = 1;
    priority[v] = qf.flit.priority;
  }
  const int vc = inject_arb_.arbitrate(requests, priority);
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
  QueuedFlit qf = std::move(q.front());
  q.pop_front();
  --queued_flit_count_;
  if (qf.send_at >= 0) --scheduled_flit_count_;
  if (!config_.router.dropping()) --credits_[static_cast<std::size_t>(vc)];
  if (config_.router.piggyback_credits && !carry_to_router_.empty()) {
    qf.flit.carried_credit_vc = static_cast<std::int8_t>(carry_to_router_.front());
    carry_to_router_.pop_front();
  }
  qf.flit.injected = now;
  if (router::is_head(qf.flit.type)) ++packets_injected_;
  ++flits_injected_;
  if (router::is_tail(qf.flit.type) && qf.send_at < 0) {
    --queued_packets_per_class_[static_cast<std::size_t>(qf.flit.priority >= 1000
                                                             ? 3
                                                             : qf.flit.priority)];
  }
  inject_->send(std::move(qf.flit));
}

void Nic::deliver(Packet&& packet) {
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

int Nic::queued_flits() const {
  int n = 0;
  for (const auto& q : vc_queues_) n += static_cast<int>(q.size());
  return n;
}

}  // namespace ocn::core
