#include "ref/ref_model.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "routing/source_route.h"

namespace ocn::ref {

using router::Credit;
using router::Flit;
using router::FlitType;
using topo::Port;

std::string DeliveryRecord::to_string() const {
  std::ostringstream out;
  out << "cycle=" << cycle << " node=" << node << " src=" << src
      << " id=" << id << " class=" << service_class << " flits=" << flits
      << " payload0=" << payload0;
  return out.str();
}

DeliveryRecord reduce_delivery(const core::Packet& p) {
  DeliveryRecord r;
  r.cycle = p.delivered;
  r.node = p.dst;
  r.src = p.src;
  r.id = p.id;
  r.service_class = p.service_class;
  r.flits = p.num_flits();
  r.payload0 = p.flit_payloads.empty() ? 0 : p.flit_payloads[0][0];
  return r;
}

int rr_arbitrate(const std::vector<bool>& requests, int& ptr) {
  const int n = static_cast<int>(requests.size());
  for (int i = 0; i < n; ++i) {
    const int candidate = (ptr + i) % n;
    if (requests[static_cast<std::size_t>(candidate)]) {
      ptr = (candidate + 1) % n;
      return candidate;
    }
  }
  return -1;
}

int prio_arbitrate(const std::vector<bool>& requests,
                   const std::vector<int>& priority, int& ptr) {
  assert(requests.size() == priority.size());
  bool any = false;
  int best = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i] && (!any || priority[i] > best)) {
      best = priority[i];
      any = true;
    }
  }
  if (!any) return -1;
  const int n = static_cast<int>(requests.size());
  for (int i = 0; i < n; ++i) {
    const int candidate = (ptr + i) % n;
    if (requests[static_cast<std::size_t>(candidate)] &&
        priority[static_cast<std::size_t>(candidate)] == best) {
      ptr = (candidate + 1) % n;
      return candidate;
    }
  }
  return -1;
}

RefNetwork::RefNetwork(const core::Config& config)
    : config_((config.validate(), config)),
      topo_(config_.make_topology()),
      routes_(*topo_),
      dateline_parity_(topo_->has_wraparound() &&
                       config_.router.flow_control != router::FlowControl::kDropping) {
  if (config_.router.exclusive_scheduled_vc) {
    throw std::invalid_argument(
        "ref::RefNetwork does not model pre-scheduled traffic "
        "(exclusive_scheduled_vc)");
  }
  if (config_.interface_partitions != 1) {
    throw std::invalid_argument(
        "ref::RefNetwork does not model interface partitioning");
  }
  build();
}

void RefNetwork::build() {
  const int n = topo_->num_nodes();
  const auto& p = config_.router;
  routers_.resize(static_cast<std::size_t>(n));
  nics_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    RefRouter& r = routers_[static_cast<std::size_t>(i)];
    r.node = i;
    for (int port = 0; port < topo::kNumPorts; ++port) {
      RefInput& in = r.in[static_cast<std::size_t>(port)];
      in.vcs.resize(static_cast<std::size_t>(p.vcs));
      in.discarding.assign(static_cast<std::size_t>(p.vcs), false);
      RefOutput& out = r.out[static_cast<std::size_t>(port)];
      out.credits.assign(static_cast<std::size_t>(p.vcs), p.buffer_depth);
      out.vc_allocated.assign(static_cast<std::size_t>(p.vcs), false);
    }
    RefNic& nic = nics_[static_cast<std::size_t>(i)];
    nic.node = i;
    nic.vc_queues.resize(static_cast<std::size_t>(p.vcs));
    nic.queued_packets_per_class.assign(4, 0);
    nic.credits.assign(static_cast<std::size_t>(p.vcs), p.buffer_depth);
    nic.eject_pending.resize(static_cast<std::size_t>(p.vcs));
    nic.reassembly.resize(static_cast<std::size_t>(p.vcs));
    nic.next_packet_id = static_cast<PacketId>(i) << 40;
  }

  for (const auto& desc : topo_->channels()) {
    auto link = std::make_unique<RefLink>(config_.link_latency);
    link->src = desc.src;
    link->port = desc.src_out_port;
    RefOutput& out = routers_[static_cast<std::size_t>(desc.src)]
                         .out[static_cast<std::size_t>(desc.src_out_port)];
    out.link = &link->flits;
    out.credit_downstream = &link->credits;
    RefInput& in = routers_[static_cast<std::size_t>(desc.dst)]
                       .in[static_cast<std::size_t>(desc.dst_in_port)];
    in.in = &link->flits;
    in.credit_upstream = &link->credits;
    if (config_.fault_layer) {
      link->fault = std::make_unique<core::FaultyLinkTransform>(
          core::SteeredLink(router::kDataBits, config_.link_spare_bits));
      out.transform = link->fault.get();
    }
    links_.push_back(std::move(link));
  }

  tiles_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    auto tile = std::make_unique<RefTilePorts>();
    RefRouter& r = routers_[static_cast<std::size_t>(i)];
    RefInput& tin = r.in[static_cast<std::size_t>(Port::kTile)];
    tin.in = &tile->inject;
    tin.credit_upstream = &tile->inject_credit;
    RefOutput& tout = r.out[static_cast<std::size_t>(Port::kTile)];
    tout.link = &tile->eject;
    tout.credit_downstream = &tile->eject_credit;
    RefNic& nic = nics_[static_cast<std::size_t>(i)];
    nic.inject = &tile->inject;
    nic.inject_credit = &tile->inject_credit;
    nic.eject = &tile->eject;
    nic.eject_credit = &tile->eject_credit;
    tiles_.push_back(std::move(tile));
  }
}

void RefNetwork::add_trace(std::vector<traffic::TraceEntry> entries) {
  entries_ = std::move(entries);
  next_entry_ = 0;
}

void RefNetwork::kill_link(NodeId node, Port port, bool reroute_committed) {
  for (auto& link : links_) {
    if (link->src == node && link->port == port) {
      assert(link->fault && "kill_link requires config.fault_layer");
      if (link->fault) link->fault->set_dead(true);
      if (reroute_committed) routes_.set_link_dead(node, port, true);
      return;
    }
  }
  assert(false && "kill_link: no such link");
}

void RefNetwork::perturb_credit(NodeId node, Port port, VcId vc, int delta) {
  routers_[static_cast<std::size_t>(node)]
      .out[static_cast<std::size_t>(port)]
      .credits[static_cast<std::size_t>(vc)] += delta;
}

void RefNetwork::tick() {
  const Cycle now = now_;
  // Same component order as core::Network's kernel registration: the NIC
  // and router of node 0, then node 1, ... All interaction is via delay
  // lines, so the order is immaterial — kept identical anyway.
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    nic_step(nics_[i], now);
    router_step(routers_[i], now);
  }
  // The replay source registered after all NICs/routers, so it steps last
  // (its direct inject() calls land after this cycle's do_injection).
  replay_step(now);
  for (auto& link : links_) {
    link->flits.advance();
    link->credits.advance();
  }
  for (auto& tile : tiles_) {
    tile->inject.advance();
    tile->inject_credit.advance();
    tile->eject.advance();
    tile->eject_credit.advance();
  }
  ++now_;
}

// --- NIC ---------------------------------------------------------------------

void RefNetwork::nic_enqueue_packet_flits(RefNic& nic, core::Packet& packet,
                                          Cycle now) {
  const VcId inject_vc = static_cast<VcId>(2 * packet.service_class);
  assert(inject_vc < config_.router.vcs);
  packet.src = nic.node;
  packet.id = ++nic.next_packet_id;
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
    f.vc_mask = core::vc_mask_for_class(packet.service_class);
    f.size_code = (i == n - 1) ? static_cast<std::uint8_t>(
                                     router::size_code_for_bits(packet.last_flit_bits))
                               : static_cast<std::uint8_t>(router::kMaxSizeCode);
    if (router::is_head(f.type)) f.route = routes_.compute(nic.node, packet.dst);
    f.data = packet.flit_payloads[static_cast<std::size_t>(i)];
    f.packet = packet.id;
    f.src = nic.node;
    f.dst = packet.dst;
    f.flit_index = i;
    f.packet_flits = n;
    f.created = packet.created;
    f.injected = now;
    f.priority = packet.service_class;
    nic.vc_queues[static_cast<std::size_t>(inject_vc)].push_back(std::move(f));
  }
}

bool RefNetwork::nic_inject(RefNic& nic, core::Packet packet, Cycle now) {
  if (packet.dst == nic.node) {
    packet.src = nic.node;
    packet.id = ++nic.next_packet_id;
    packet.created = now;
    packet.injected = now;
    ++nic.packets_injected;
    nic.flits_injected += packet.num_flits();
    nic.loopback.emplace_back(std::move(packet), now + 1);
    return true;
  }
  auto& count =
      nic.queued_packets_per_class[static_cast<std::size_t>(packet.service_class)];
  if (count >= config_.nic_queue_packets) {
    ++nic.queue_rejects;
    return false;
  }
  ++count;
  nic_enqueue_packet_flits(nic, packet, now);
  return true;
}

void RefNetwork::nic_step(RefNic& nic, Cycle now) {
  if (auto credit = nic.inject_credit->take()) {
    if (!config_.router.dropping()) {
      auto& c = nic.credits[static_cast<std::size_t>(credit->vc)];
      ++c;
      assert(c <= config_.router.buffer_depth);
    }
  }
  nic_process_ejection(nic, now);
  nic_do_injection(nic, now);
  while (!nic.loopback.empty() && nic.loopback.front().second <= now) {
    core::Packet p = std::move(nic.loopback.front().first);
    nic.loopback.pop_front();
    p.delivered = now;
    ++nic.packets_delivered;
    nic.flits_delivered += p.num_flits();
    deliver(nic, std::move(p));
  }
}

void RefNetwork::nic_process_ejection(RefNic& nic, Cycle now) {
  if (auto flit = nic.eject->take()) {
    if (flit->carried_credit_vc >= 0) {
      if (!config_.router.dropping()) {
        auto& c = nic.credits[static_cast<std::size_t>(flit->carried_credit_vc)];
        ++c;
        assert(c <= config_.router.buffer_depth);
      }
      flit->carried_credit_vc = -1;
    }
    if (flit->type != FlitType::kCreditOnly) {
      nic.eject_pending[static_cast<std::size_t>(flit->vc)].push_back(
          std::move(*flit));
    }
  }
  std::vector<bool> requests(nic.eject_pending.size(), false);
  for (std::size_t v = 0; v < nic.eject_pending.size(); ++v) {
    requests[v] = !nic.eject_pending[v].empty();
  }
  const int vc = rr_arbitrate(requests, nic.eject_arb_ptr);
  if (vc < 0) return;
  Flit f = std::move(nic.eject_pending[static_cast<std::size_t>(vc)].front());
  nic.eject_pending[static_cast<std::size_t>(vc)].pop_front();
  if (!config_.router.dropping()) {
    if (config_.router.piggyback_credits) {
      nic.carry_to_router.push_back(static_cast<VcId>(vc));
    } else {
      nic.eject_credit->send(Credit{static_cast<VcId>(vc)});
    }
  }
  nic_consume_flit(nic, std::move(f), now);
}

void RefNetwork::nic_consume_flit(RefNic& nic, Flit flit, Cycle now) {
  ++nic.flits_delivered;
  auto& r = nic.reassembly[static_cast<std::size_t>(flit.vc)];
  if (router::is_head(flit.type)) {
    assert(!r.active && "head flit while a packet is still being reassembled");
    r.active = true;
    r.head = flit;
    r.payloads.clear();
  }
  assert(r.active && "body/tail flit without a head");
  r.payloads.push_back(flit.data);
  if (!router::is_tail(flit.type)) return;

  core::Packet p;
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
  r = Reassembly{};
  ++nic.packets_delivered;
  deliver(nic, std::move(p));
}

void RefNetwork::nic_do_injection(RefNic& nic, Cycle now) {
  const auto vcs = static_cast<std::size_t>(config_.router.vcs);
  std::vector<bool> requests(vcs, false);
  std::vector<int> priority(vcs, 0);
  for (std::size_t v = 0; v < vcs; ++v) {
    const auto& q = nic.vc_queues[v];
    if (q.empty()) continue;
    const bool ready = config_.router.dropping() || nic.credits[v] > 0;
    if (!ready) continue;
    requests[v] = true;
    priority[v] = q.front().priority;
  }
  const int vc = prio_arbitrate(requests, priority, nic.inject_arb_ptr);
  if (vc < 0) {
    if (config_.router.piggyback_credits && !nic.carry_to_router.empty()) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(nic.carry_to_router.front());
      nic.carry_to_router.pop_front();
      nic.inject->send(std::move(f));
    }
    return;
  }
  auto& q = nic.vc_queues[static_cast<std::size_t>(vc)];
  Flit f = std::move(q.front());
  q.pop_front();
  if (!config_.router.dropping()) --nic.credits[static_cast<std::size_t>(vc)];
  if (config_.router.piggyback_credits && !nic.carry_to_router.empty()) {
    f.carried_credit_vc = static_cast<std::int8_t>(nic.carry_to_router.front());
    nic.carry_to_router.pop_front();
  }
  f.injected = now;
  if (router::is_head(f.type)) ++nic.packets_injected;
  ++nic.flits_injected;
  if (router::is_tail(f.type)) {
    --nic.queued_packets_per_class[static_cast<std::size_t>(
        f.priority >= 1000 ? 3 : f.priority)];
  }
  nic.inject->send(std::move(f));
}

void RefNetwork::deliver(RefNic& /*nic*/, core::Packet&& packet) {
  deliveries_.push_back(reduce_delivery(packet));
}

// --- router ------------------------------------------------------------------

bool RefNetwork::effective_dateline(const RefRouter& r, const Flit& head,
                                    Port in_port, Port out_port) const {
  if (out_port == Port::kTile) return head.dateline_crossed;
  bool crossed = head.dateline_crossed;
  if (in_port == Port::kTile || topo::dim_of(in_port) != topo::dim_of(out_port)) {
    crossed = false;
  }
  if (topo_->crosses_dateline(r.node, out_port)) crossed = true;
  return crossed;
}

void RefNetwork::router_step(RefRouter& r, Cycle now) {
  for (auto& out : r.out) {
    if (out.credit_downstream == nullptr) continue;
    if (config_.router.dropping()) {
      out.credit_downstream->take();
      continue;
    }
    if (auto credit = out.credit_downstream->take()) {
      auto& c = out.credits[static_cast<std::size_t>(credit->vc)];
      ++c;
      assert(c <= config_.router.buffer_depth && "ref credit overflow");
    }
  }
  for (int p = 0; p < topo::kNumPorts; ++p) input_accept_arrival(r, p);
  for (int p = 0; p < topo::kNumPorts; ++p) {
    input_decode_fronts(r.in[static_cast<std::size_t>(p)],
                        static_cast<Port>(p), now);
  }
  vc_allocation(r, now);
  link_arbitration(r, now);
  switch_traversal(r, now);
  for (auto& in : r.in) in.popped_this_cycle = false;
  for (auto& out : r.out) {
    out.fresh.fill(false);
    out.link_used = false;
  }
}

void RefNetwork::input_accept_arrival(RefRouter& r, int port) {
  RefInput& in = r.in[static_cast<std::size_t>(port)];
  if (!in.attached()) return;
  auto flit = in.in->take();
  if (!flit) return;
  if (flit->carried_credit_vc >= 0) {
    // Piggybacked credit: belongs to the co-located output driving the
    // reverse direction of this link.
    RefOutput& rev = r.out[static_cast<std::size_t>(
        topo::reverse(static_cast<Port>(port)))];
    auto& c = rev.credits[static_cast<std::size_t>(flit->carried_credit_vc)];
    ++c;
    assert(c <= config_.router.buffer_depth && "ref piggyback credit overflow");
    flit->carried_credit_vc = -1;
  }
  if (flit->type == FlitType::kCreditOnly) return;
  ++in.flits_arrived;
  const auto v = static_cast<std::size_t>(flit->vc);
  RefVcState& buf = in.vcs[v];

  if (config_.router.dropping()) {
    if (in.discarding[v]) {
      ++in.flits_dropped;
      if (router::is_tail(flit->type)) in.discarding[v] = false;
      return;
    }
    if (router::is_head(flit->type) &&
        config_.router.buffer_depth - static_cast<int>(buf.q.size()) <
            flit->packet_flits) {
      ++in.packets_dropped;
      ++in.flits_dropped;
      if (!router::is_tail(flit->type)) in.discarding[v] = true;
      return;
    }
  }
  assert(static_cast<int>(buf.q.size()) < config_.router.buffer_depth &&
         "ref credit protocol violated: buffer overflow");
  buf.q.push_back(std::move(*flit));
}

void RefNetwork::input_decode_fronts(RefInput& in, Port port, Cycle now) {
  if (!in.attached()) return;
  for (auto& buf : in.vcs) {
    if (buf.routed || buf.q.empty()) continue;
    Flit& head = buf.q.front();
    assert(router::is_head(head.type) && "body flit at front of unrouted VC");
    assert(!head.route.empty() && "head flit arrived with an exhausted route");
    const std::uint8_t code = head.route.pop();
    if (port == Port::kTile) {
      buf.out_port = routing::injection_port(code);
    } else {
      buf.out_port = routing::apply_turn(port, static_cast<routing::TurnCode>(code));
    }
    buf.routed = true;
    buf.routed_at = now;
  }
}

VcId RefNetwork::vc_allocate(RefOutput& out, std::uint8_t mask, bool want_odd,
                             bool ignore_parity) {
  const int n = config_.router.vcs;
  for (int i = 0; i < n; ++i) {
    const VcId vc = (out.vc_rr + i) % n;
    const auto idx = static_cast<std::size_t>(vc);
    if (out.vc_allocated[idx]) continue;
    if ((mask & (1u << vc)) == 0) continue;
    if (dateline_parity_ && !ignore_parity &&
        (vc % 2 == 1) != want_odd) {
      continue;
    }
    out.vc_allocated[idx] = true;
    out.vc_rr = (vc + 1) % n;
    return vc;
  }
  return kInvalidVc;
}

void RefNetwork::vc_allocation(RefRouter& r, Cycle now) {
  const int start = static_cast<int>(now % topo::kNumPorts);
  for (int i = 0; i < topo::kNumPorts; ++i) {
    const int port = (start + i) % topo::kNumPorts;
    RefInput& in = r.in[static_cast<std::size_t>(port)];
    if (!in.attached()) continue;
    for (VcId v = 0; v < config_.router.vcs; ++v) {
      RefVcState& buf = in.vcs[static_cast<std::size_t>(v)];
      if (!buf.routed || buf.out_vc != kInvalidVc || buf.q.empty()) continue;
      if (!config_.router.speculative && buf.routed_at >= now) continue;
      const Flit& head = buf.q.front();
      if (!router::is_head(head.type)) continue;
      RefOutput& out = r.out[static_cast<std::size_t>(buf.out_port)];
      if (config_.router.dropping()) {
        const auto idx = static_cast<std::size_t>(v);
        if (!out.vc_allocated[idx]) {
          out.vc_allocated[idx] = true;
          buf.out_vc = v;
        }
        continue;
      }
      const bool want_odd =
          effective_dateline(r, head, static_cast<Port>(port), buf.out_port);
      const bool ignore_parity = buf.out_port == Port::kTile;
      const VcId granted = vc_allocate(out, head.vc_mask, want_odd, ignore_parity);
      if (granted != kInvalidVc) buf.out_vc = granted;
    }
  }
}

void RefNetwork::send_on_link(RefOutput& out, Flit f) {
  assert(!out.link_used);
  out.link_used = true;
  if (config_.router.piggyback_credits && !out.carry_queue.empty()) {
    f.carried_credit_vc = static_cast<std::int8_t>(out.carry_queue.front());
    out.carry_queue.pop_front();
  }
  ++out.flits_sent;
  if (router::is_tail(f.type) &&
      out.vc_allocated[static_cast<std::size_t>(f.vc)]) {
    out.vc_allocated[static_cast<std::size_t>(f.vc)] = false;
  }
  if (out.transform != nullptr) out.transform->apply(f);
  out.link->send(std::move(f));
}

void RefNetwork::link_arbitration(RefRouter& r, Cycle now) {
  (void)now;
  for (auto& out : r.out) {
    if (!out.attached() || out.link_used) continue;
    std::vector<bool> requests(topo::kNumPorts, false);
    std::vector<int> priority(topo::kNumPorts, 0);
    int ready = 0;
    for (int i = 0; i < topo::kNumPorts; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (out.stage[idx].has_value() && !out.fresh[idx]) {
        requests[idx] = true;
        priority[idx] =
            config_.router.priority_arbitration ? out.stage[idx]->priority : 0;
        ++ready;
      }
    }
    if (ready == 0) {
      if (config_.router.piggyback_credits && !out.carry_queue.empty()) {
        Flit f;
        f.type = FlitType::kCreditOnly;
        f.size_code = 0;
        f.carried_credit_vc = static_cast<std::int8_t>(out.carry_queue.front());
        out.carry_queue.pop_front();
        out.link_used = true;
        ++out.credit_only_flits;
        out.link->send(std::move(f));
      }
      continue;
    }
    const int winner = prio_arbitrate(requests, priority, out.link_arb_ptr);
    assert(winner >= 0);
    Flit f = std::move(*out.stage[static_cast<std::size_t>(winner)]);
    out.stage[static_cast<std::size_t>(winner)].reset();
    send_on_link(out, std::move(f));
  }
}

RefNetwork::Flit RefNetwork::input_pop(RefRouter& r, int port, VcId v) {
  RefInput& in = r.in[static_cast<std::size_t>(port)];
  RefVcState& buf = in.vcs[static_cast<std::size_t>(v)];
  assert(!buf.q.empty());
  assert(!in.popped_this_cycle && "one flit per input port per cycle");
  in.popped_this_cycle = true;
  Flit f = std::move(buf.q.front());
  buf.q.pop_front();
  if (router::is_tail(f.type)) buf.reset_packet_state();
  if (!config_.router.dropping()) {
    if (config_.router.piggyback_credits) {
      RefOutput& rev = r.out[static_cast<std::size_t>(
          topo::reverse(static_cast<Port>(port)))];
      rev.carry_queue.push_back(v);
    } else if (in.credit_upstream != nullptr) {
      in.credit_upstream->send(Credit{v});
    }
  }
  return f;
}

RefNetwork::Flit RefNetwork::take_flit(RefRouter& r, int in_port, VcId vc,
                                       Port out_port, VcId out_vc) {
  Flit f = input_pop(r, in_port, vc);
  if (router::is_head(f.type)) {
    f.dateline_crossed =
        effective_dateline(r, f, static_cast<Port>(in_port), out_port);
  }
  f.vc = out_vc;
  return f;
}

void RefNetwork::switch_traversal(RefRouter& r, Cycle now) {
  for (int i = 0; i < topo::kNumPorts; ++i) {
    RefInput& in = r.in[static_cast<std::size_t>(i)];
    if (!in.attached() || in.popped_this_cycle) continue;
    const auto vcs = static_cast<std::size_t>(config_.router.vcs);
    std::vector<bool> requests(vcs, false);
    std::vector<int> priority(vcs, 0);
    for (VcId v = 0; v < config_.router.vcs; ++v) {
      const RefVcState& buf = in.vcs[static_cast<std::size_t>(v)];
      if (buf.q.empty() || !buf.routed || buf.out_vc == kInvalidVc) continue;
      if (!config_.router.speculative && buf.routed_at >= now) continue;
      const RefOutput& out = r.out[static_cast<std::size_t>(buf.out_port)];
      if (!out.attached()) continue;
      if (out.stage[static_cast<std::size_t>(i)].has_value()) continue;
      const bool has_credit =
          config_.router.dropping() ||
          out.credits[static_cast<std::size_t>(buf.out_vc)] > 0;
      if (!has_credit) continue;
      requests[static_cast<std::size_t>(v)] = true;
      priority[static_cast<std::size_t>(v)] =
          config_.router.priority_arbitration ? buf.q.front().priority : 0;
    }
    const int winner =
        prio_arbitrate(requests, priority, r.switch_arb_ptr[static_cast<std::size_t>(i)]);
    if (winner < 0) continue;
    RefVcState& buf = in.vcs[static_cast<std::size_t>(winner)];
    RefOutput& out = r.out[static_cast<std::size_t>(buf.out_port)];
    const VcId out_vc = buf.out_vc;
    const Port out_port = buf.out_port;
    if (!config_.router.dropping()) {
      auto& c = out.credits[static_cast<std::size_t>(out_vc)];
      assert(c > 0);
      --c;
    }
    Flit f = take_flit(r, i, static_cast<VcId>(winner), out_port, out_vc);
    out.stage[static_cast<std::size_t>(i)] = std::move(f);
    out.fresh[static_cast<std::size_t>(i)] = true;
  }
}

// --- replay ------------------------------------------------------------------

bool RefNetwork::replay_try_inject(const traffic::TraceEntry& e, Cycle now) {
  const int flit_bits = router::kDataBits;
  const int flits = (e.payload_bits + flit_bits - 1) / flit_bits;
  const int last_bits = e.payload_bits - (flits - 1) * flit_bits;
  core::Packet p = core::make_packet(e.dst, e.service_class, flits, last_bits);
  p.flit_payloads[0][0] = static_cast<std::uint64_t>(e.cycle);
  if (!nic_inject(nics_[static_cast<std::size_t>(e.src)], std::move(p), now)) {
    return false;
  }
  ++replay_injected_;
  return true;
}

void RefNetwork::replay_step(Cycle now) {
  std::vector<traffic::TraceEntry> still_deferred;
  for (const auto& e : deferred_) {
    if (!replay_try_inject(e, now)) still_deferred.push_back(e);
  }
  deferred_ = std::move(still_deferred);
  while (next_entry_ < entries_.size() && entries_[next_entry_].cycle <= now) {
    const traffic::TraceEntry& e = entries_[next_entry_];
    if (!replay_try_inject(e, now)) {
      deferred_.push_back(e);
      ++replay_deferred_total_;
    }
    ++next_entry_;
  }
}

bool RefNetwork::drained() const {
  if (next_entry_ < entries_.size() || !deferred_.empty()) return false;
  std::int64_t injected = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  for (const auto& nic : nics_) {
    if (nic.queued_flits() > 0) return false;
    injected += nic.flits_injected;
    delivered += nic.flits_delivered;
  }
  for (const auto& r : routers_) {
    for (const auto& in : r.in) dropped += in.flits_dropped;
  }
  return injected == delivered + dropped;
}

// --- observable state --------------------------------------------------------

void RefNetwork::snapshot(std::vector<std::int64_t>& out) const {
  const int vcs = config_.router.vcs;
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    const RefNic& nic = nics_[n];
    out.push_back(nic.packets_injected);
    out.push_back(nic.packets_delivered);
    out.push_back(nic.flits_injected);
    out.push_back(nic.flits_delivered);
    out.push_back(nic.queue_rejects);
    out.push_back(nic.queued_flits());
    out.push_back(nic.pending_eject_flits());
    out.push_back(static_cast<std::int64_t>(nic.carry_to_router.size()));
    out.push_back(nic.inject_arb_ptr);
    out.push_back(nic.eject_arb_ptr);
    for (VcId v = 0; v < vcs; ++v) {
      out.push_back(nic.credits[static_cast<std::size_t>(v)]);
    }
    const RefRouter& r = routers_[n];
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const RefInput& in = r.in[static_cast<std::size_t>(p)];
      if (!in.attached()) continue;
      out.push_back(in.flits_arrived);
      out.push_back(in.flits_dropped);
      out.push_back(r.switch_arb_ptr[static_cast<std::size_t>(p)]);
      for (VcId v = 0; v < vcs; ++v) {
        const RefVcState& buf = in.vcs[static_cast<std::size_t>(v)];
        out.push_back(static_cast<std::int64_t>(buf.q.size()));
        out.push_back(buf.routed ? 1 : 0);
        out.push_back(static_cast<std::int64_t>(buf.out_port));
        out.push_back(buf.out_vc);
      }
    }
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const RefOutput& o = r.out[static_cast<std::size_t>(p)];
      if (!o.attached()) continue;
      int staged = 0;
      for (const auto& s : o.stage) staged += s.has_value() ? 1 : 0;
      out.push_back(o.flits_sent);
      out.push_back(o.credit_only_flits);
      out.push_back(static_cast<std::int64_t>(o.carry_queue.size()));
      out.push_back(staged);
      out.push_back(o.link_arb_ptr);
      out.push_back(o.vc_rr);
      for (VcId v = 0; v < vcs; ++v) {
        out.push_back(o.credits[static_cast<std::size_t>(v)]);
        out.push_back(o.vc_allocated[static_cast<std::size_t>(v)] ? 1 : 0);
      }
    }
  }
  out.push_back(replay_injected_);
  out.push_back(replay_deferred_total_);
  out.push_back(static_cast<std::int64_t>(deliveries_.size()));
}

std::vector<std::string> RefNetwork::snapshot_labels() const {
  std::vector<std::string> labels;
  const int vcs = config_.router.vcs;
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    const std::string nn = "n" + std::to_string(n);
    for (const char* f :
         {"packets_injected", "packets_delivered", "flits_injected",
          "flits_delivered", "queue_rejects", "queued_flits",
          "pending_eject_flits", "carry_backlog", "inject_arb_ptr",
          "eject_arb_ptr"}) {
      labels.push_back(nn + ".nic." + f);
    }
    for (VcId v = 0; v < vcs; ++v) {
      labels.push_back(nn + ".nic.credits.vc" + std::to_string(v));
    }
    const RefRouter& r = routers_[n];
    for (int p = 0; p < topo::kNumPorts; ++p) {
      if (!r.in[static_cast<std::size_t>(p)].attached()) continue;
      const std::string pp =
          nn + ".in." + topo::port_name(static_cast<Port>(p));
      labels.push_back(pp + ".flits_arrived");
      labels.push_back(pp + ".flits_dropped");
      labels.push_back(pp + ".switch_arb_ptr");
      for (VcId v = 0; v < vcs; ++v) {
        const std::string vv = pp + ".vc" + std::to_string(v);
        labels.push_back(vv + ".size");
        labels.push_back(vv + ".routed");
        labels.push_back(vv + ".out_port");
        labels.push_back(vv + ".out_vc");
      }
    }
    for (int p = 0; p < topo::kNumPorts; ++p) {
      if (!r.out[static_cast<std::size_t>(p)].attached()) continue;
      const std::string pp =
          nn + ".out." + topo::port_name(static_cast<Port>(p));
      labels.push_back(pp + ".flits_sent");
      labels.push_back(pp + ".credit_only_flits");
      labels.push_back(pp + ".carry_backlog");
      labels.push_back(pp + ".staged_flits");
      labels.push_back(pp + ".link_arb_ptr");
      labels.push_back(pp + ".vc_alloc_rotation");
      for (VcId v = 0; v < vcs; ++v) {
        const std::string vv = pp + ".vc" + std::to_string(v);
        labels.push_back(vv + ".credits");
        labels.push_back(vv + ".allocated");
      }
    }
  }
  labels.push_back("replay.injected");
  labels.push_back("replay.deferred_total");
  labels.push_back("deliveries.total");
  return labels;
}

}  // namespace ocn::ref
