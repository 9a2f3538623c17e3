#include "core/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/wiring.h"
#include "sim/log.h"

namespace ocn::core {

using router::Flit;
using topo::Port;

Network::Network(Config config, int shards)
    : config_(std::move(config)),
      topology_((config_.validate(), config_.make_topology())),
      routes_(*topology_),
      shards_(resolve_shards(shards, config_.radix)),
      partition_(shards_ > 1
                     ? ShardPartition::row_strips(*topology_, shards_)
                     : ShardPartition::single(topology_->num_nodes())),
      kernel_(shards_) {
  kernel_.set_cycle_end_hook([this] { flush_observer_buffers(); });
  build();
  install_register_filters();
}

void Network::build() {
  const int n = topology_->num_nodes();
  // Per-shard SoA pools: routers of shard s take consecutive slots in
  // pools_[s], in node order (ShardPartition::slot_of). Every per-node
  // object goes to its node's shard.
  const std::vector<int> shard_router_count = partition_.nodes_per_shard();
  pools_.reserve(static_cast<std::size_t>(shards_));
  packet_arenas_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    pools_.push_back(std::make_unique<router::RouterStatePool>(
        shard_router_count[static_cast<std::size_t>(s)], config_.router, config_.link_latency));
    packet_arenas_.push_back(std::make_unique<PacketArena>());
  }

  routers_.reserve(static_cast<std::size_t>(n));
  nics_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const auto shard = static_cast<std::size_t>(shard_of(i));
    router::RouterStatePool& pool = *pools_[shard];
    const int slot = partition_.slot_of(i);
    routers_.push_back(std::make_unique<router::Router>(i, *topology_, config_.router, pool, slot));
    nics_.push_back(
        std::make_unique<Nic>(i, config_, routes_, pool, *packet_arenas_[shard], slot));
    Nic* nic_ptr = nics_.back().get();
    router::Router* rtr = routers_.back().get();
    kernel_.add_to_shard(shard_of(i), nic_ptr, nic_ptr->wake_row(), Nic::wake_width());
    kernel_.add_to_shard(shard_of(i), rtr, rtr->wake_row(), router::Router::wake_width());
  }

  // One loop over the wiring plan: a flit channel `from` -> `to` and a
  // credit channel back per link, each filed as a row of its receiver
  // shard's store (core::link_row) with its receiver's arrival byte. The
  // receiver reads its rows by address; the sender gets the LinkRef.
  const auto component = [this](const LinkEnd& end) -> const Clockable* {
    return end.nic ? static_cast<const Clockable*>(&nic(end.node)) : &router_at(end.node);
  };
  const auto arrival = [this](const LinkEnd& end, bool credit) {
    if (end.nic) return nic(end.node).arrival(credit ? Nic::kCreditArrive : Nic::kEjectArrive);
    return router_at(end.node).arrival(end.port, credit ? router::RouterStatePool::kArriveCredit
                                                        : router::RouterStatePool::kArriveFlit);
  };
  const auto file = [&](const Link& link, bool credit) {
    const LinkEnd& sender = credit ? link.to : link.from;
    const LinkEnd& receiver = credit ? link.from : link.to;
    const Filing filing = file_channel(partition_, sender.node, receiver.node);
    return pools_[static_cast<std::size_t>(filing.shard)]->links().attach(
        link_row(partition_, link, credit), arrival(receiver, credit), component(receiver),
        filing.boundary);
  };
  if (config_.fault_layer) link_faults_.resize(static_cast<std::size_t>(n) * topo::kNumDirPorts);
  for_each_link(config_, *topology_, [&](const Link& link) {
    const LinkRef flits = file(link, false);
    const LinkRef credits = file(link, true);
    if (link.from.nic) {
      nic(link.from.node).attach_inject(flits);
    } else {
      router_at(link.from.node).attach_output(link.from.port, flits, link.length_mm);
    }
    if (link.to.nic) {
      nic(link.to.node).attach_eject(credits);
    } else {
      router_at(link.to.node).attach_input(link.to.port, credits);
    }
    if (config_.fault_layer && !link.tile()) {
      auto& fault = link_faults_[fault_slot(link.from.node, link.from.port)];
      fault = std::make_unique<FaultyLinkTransform>(
          SteeredLink(router::kDataBits, config_.link_spare_bits));
      router_at(link.from.node).output(link.from.port).set_transform(fault.get());
    }
  });
  // Rows are named from the plan, on error paths only.
  for (int s = 0; s < shards_; ++s) {
    LinkStore& links = pools_[static_cast<std::size_t>(s)]->links();
    links.set_namer([this, s](std::uint32_t row) {
      return channel_name(config_, *topology_, partition_, s, row);
    });
    kernel_.add_to_shard(s, &links);
  }
}

void Network::step() { kernel_.tick(); }

std::int64_t Network::link_sends(const topo::ChannelDesc& d) const {
  return routers_[static_cast<std::size_t>(d.src)]->output(d.src_out_port).link_sends();
}

void Network::flush_observer_buffers() {
  if (delivery_observer_) {
    for (auto& buf : delivery_buffers_) {
      for (const Packet& p : buf) delivery_observer_(p);
      buf.clear();
    }
  }
  if (trace_recorder_ != nullptr) {
    for (auto& buf : trace_buffers_) {
      for (const TraceEvent& ev : buf) trace_recorder_->record(ev);
      buf.clear();
    }
  }
}

void Network::set_delivery_observer(Nic::DeliveryObserver observer) {
  delivery_observer_ = std::move(observer);
  if (!delivery_observer_) {
    for (auto& n : nics_) n->set_delivery_observer(nullptr);
    delivery_buffers_.clear();
    return;
  }
  delivery_buffers_.assign(static_cast<std::size_t>(num_nodes()), {});
  for (NodeId i = 0; i < num_nodes(); ++i) {
    auto* buf = &delivery_buffers_[static_cast<std::size_t>(i)];
    nic(i).set_delivery_observer([buf](const Packet& p) { buf->push_back(p); });
  }
}

namespace {

/// Register packets arrive off the network, so every field is range-checked
/// before it selects a port, a slot or a VC.
void check_register_field(const char* field, std::int64_t value, std::int64_t limit) {
  if (value < 0 || value >= limit) {
    throw std::invalid_argument(std::string("register packet: ") + field + " = " +
                                std::to_string(value) + " outside [0, " +
                                std::to_string(limit) + ")");
  }
}

}  // namespace

void Network::install_register_filters() {
  for (NodeId i = 0; i < num_nodes(); ++i) {
    router::Router* rtr = routers_[static_cast<std::size_t>(i)].get();
    Nic* nic_ptr = nics_[static_cast<std::size_t>(i)].get();
    nic_ptr->add_filter([this, rtr](const Packet& p) {
      const auto write = decode_register_write(p);
      if (!write) return false;
      check_register_field("kind", static_cast<int>(write->kind), 2);
      check_register_field("output_port", static_cast<int>(write->output_port),
                           topo::kNumPorts);
      check_register_field("input_port", write->input_port, topo::kNumPorts);
      check_register_field("vc", write->vc, config_.router.vcs);
      auto& table = rtr->output(write->output_port).reservations();
      check_register_field("slot", write->slot, table.frame());
      if (write->kind == RegisterWrite::Kind::kReserveSlot) {
        table.reserve(write->slot, write->input_port, write->vc);
        rtr->mark_due();  // a reserved slot keeps the router on the clock
      } else {
        table.clear(write->slot);
      }
      register_writes_applied_.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
    // Read-back: answer register queries with a response datagram.
    nic_ptr->add_filter([this, rtr, nic_ptr](const Packet& p) {
      const auto read = decode_register_read(p);
      if (!read) return false;
      check_register_field("output_port", static_cast<int>(read->output_port),
                           topo::kNumPorts);
      const auto& table = rtr->output(read->output_port).reservations();
      check_register_field("slot", read->slot, table.frame());
      const auto& slot = table.at(static_cast<Cycle>(read->slot));
      RegisterReadResponse rsp;
      rsp.req_id = read->req_id;
      rsp.reserved = slot.reserved();
      rsp.input_port = slot.input;
      rsp.vc = slot.vc;
      nic_ptr->inject(encode_register_read_response(p.src, rsp), now());
      return true;
    });
  }
}

bool Network::idle() const {
  std::int64_t injected = 0;
  std::int64_t delivered = 0;
  for (const auto& nic : nics_) {
    if (nic->queued_flits() > 0) return false;
    injected += nic->flits_injected();
    delivered += nic->flits_delivered();
  }
  // Flits discarded by dropping flow control never arrive.
  std::int64_t dropped = 0;
  for (const auto& r : routers_) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      dropped += r->input(static_cast<Port>(p)).flits_dropped();
    }
  }
  return injected == delivered + dropped;
}

bool Network::drain(Cycle max_cycles) {
  for (Cycle i = 0; i < max_cycles; ++i) {
    if (idle()) return true;
    step();
  }
  return idle();
}

namespace {

/// One hop of a flow's path.
struct FlowHop {
  NodeId node;   ///< the router the hop leaves
  int input;     ///< the port it arrived on (kTile at the source)
  Port output;   ///< the port it leaves by
  Cycle time;    ///< phase + 1 + i * link_latency
  int slot;      ///< `time` wrapped into the reservation frame
};

/// The hops of the flow src -> dst sent at `phase`, in path order: the one
/// walk along a flow path that reservations, register programming and
/// flow_slot_times share.
std::vector<FlowHop> flow_hops(const Network& net, NodeId src, NodeId dst, Cycle phase) {
  std::vector<FlowHop> hops;
  const auto path = net.routes().port_path(src, dst);
  const Cycle frame = net.config().router.reservation_frame;
  NodeId node = src;
  int input = static_cast<int>(Port::kTile);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Cycle t = phase + 1 + static_cast<Cycle>(i) * net.config().link_latency;
    hops.push_back({node, input, path[i], t, static_cast<int>(((t % frame) + frame) % frame)});
    if (path[i] != Port::kTile) node = net.topology().neighbor(node, path[i])->dst;
    input = static_cast<int>(path[i]);
  }
  return hops;
}

}  // namespace

std::vector<Cycle> Network::flow_slot_times(NodeId src, NodeId dst, Cycle phase) const {
  std::vector<Cycle> times;
  for (const FlowHop& hop : flow_hops(*this, src, dst, phase)) times.push_back(hop.time);
  return times;
}

std::optional<Cycle> Network::reserve_flow(NodeId src, NodeId dst, Cycle phase_hint) {
  if (!config_.router.exclusive_scheduled_vc) {
    throw std::logic_error(
        "reserve_flow requires config.router.exclusive_scheduled_vc "
        "(the scheduled VC must not be shared with dynamic traffic)");
  }
  const int frame = config_.router.reservation_frame;
  for (int attempt = 0; attempt < frame; ++attempt) {
    const Cycle phase = (phase_hint + attempt) % frame;
    const std::vector<FlowHop> hops = flow_hops(*this, src, dst, phase);
    if (hops.empty()) return std::nullopt;
    // Check all hops first, then commit.
    const auto taken = [this](const FlowHop& hop) {
      return router_at(hop.node).output(hop.output).reservations().at(hop.slot).reserved();
    };
    if (std::any_of(hops.begin(), hops.end(), taken)) continue;
    for (const FlowHop& hop : hops) {
      const bool reserved = router_at(hop.node).output(hop.output).reservations().reserve(
          hop.slot, hop.input, config_.router.scheduled_vc());
      assert(reserved);
      (void)reserved;
      router_at(hop.node).mark_due();
    }
    return phase;
  }
  return std::nullopt;
}

void Network::release_flow(NodeId src, NodeId dst, Cycle phase) {
  for (const FlowHop& hop : flow_hops(*this, src, dst, phase)) {
    router_at(hop.node).output(hop.output).reservations().clear(hop.slot);
  }
}

void Network::program_flow_registers(NodeId config_master, NodeId src, NodeId dst,
                                     Cycle phase) {
  for (const FlowHop& hop : flow_hops(*this, src, dst, phase)) {
    RegisterWrite w;
    w.kind = RegisterWrite::Kind::kReserveSlot;
    w.output_port = hop.output;
    w.slot = hop.slot;
    w.input_port = hop.input;
    w.vc = config_.router.scheduled_vc();
    const bool accepted = nic(config_master).inject(encode_register_write(hop.node, w), now());
    assert(accepted && "configuration master NIC queue overflow");
    (void)accepted;
  }
}

void Network::clear_flow_registers(NodeId config_master, NodeId src, NodeId dst,
                                   Cycle phase) {
  for (const FlowHop& hop : flow_hops(*this, src, dst, phase)) {
    RegisterWrite w;
    w.kind = RegisterWrite::Kind::kClearSlot;
    w.output_port = hop.output;
    w.slot = hop.slot;
    const bool accepted = nic(config_master).inject(encode_register_write(hop.node, w), now());
    assert(accepted && "configuration master NIC queue overflow");
    (void)accepted;
  }
}

void Network::enable_tracing(TraceRecorder* recorder) {
  // Routers fire tracers from their shard's worker, so events land in a
  // per-node buffer and are flushed into the recorder in node order at the
  // end of each cycle — the same order at every shard count.
  trace_recorder_ = recorder;
  if (recorder != nullptr) {
    trace_buffers_.assign(static_cast<std::size_t>(num_nodes()), {});
  } else {
    trace_buffers_.clear();
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<Port>(p);
      auto& out = router_at(n).output(port);
      if (recorder == nullptr) {
        out.set_tracer(nullptr);
        continue;
      }
      auto* buf = &trace_buffers_[static_cast<std::size_t>(n)];
      out.set_tracer([this, buf, n, port](const router::Flit& f, bool bypass) {
        buf->push_back(TraceEvent{now(), n, port, f.packet, f.src, f.dst,
                                  f.vc, f.type, f.flit_index, bypass});
      });
    }
  }
}

FaultyLinkTransform* Network::link_fault(NodeId node, Port port) {
  assert(node >= 0 && node < num_nodes());
  if (link_faults_.empty() || port == Port::kTile) return nullptr;
  return link_faults_[fault_slot(node, port)].get();
}

void Network::register_metrics(obs::CounterRegistry& registry, Cycle sample_interval) {
  registry.gauge("net.packets_injected", [this] { return stats_packets_injected(); });
  registry.gauge("net.packets_delivered", [this] { return stats_packets_delivered(); });
  registry.gauge("net.flits_delivered", [this] {
    std::int64_t n = 0;
    for (const auto& nic : nics_) n += nic->flits_delivered();
    return n;
  });
  registry.gauge("net.packets_dropped", [this] {
    std::int64_t n = 0;
    for (const auto& r : routers_) n += r->packets_dropped();
    return n;
  });
  registry.gauge("net.injection_queue_rejects", [this] {
    std::int64_t n = 0;
    for (const auto& nic : nics_) n += nic->injection_queue_rejects();
    return n;
  });
  for (const auto& nic : nics_) {
    const std::string prefix = "nic." + std::to_string(nic->node());
    const Nic* n = nic.get();
    registry.gauge(prefix + ".packets_injected", [n] { return n->packets_injected(); });
    registry.gauge(prefix + ".packets_delivered", [n] { return n->packets_delivered(); });
    registry.gauge(prefix + ".queue_rejects", [n] { return n->injection_queue_rejects(); });
  }
  for (const auto& r : routers_) {
    r->register_metrics(registry, "router." + std::to_string(r->node()));
  }
  for (const topo::ChannelDesc& d : topology_->channels()) {
    const router::OutputController* out = &router_at(d.src).output(d.src_out_port);
    registry.gauge("link." + std::to_string(d.src) + "." + topo::port_name(d.src_out_port) +
                       ".flits",
                   [out] { return out->link_sends(); });
  }
  kernel_.attach_metrics(&registry, sample_interval);
}

std::int64_t Network::stats_packets_injected() const {
  std::int64_t n = 0;
  for (const auto& nic : nics_) n += nic->packets_injected();
  return n;
}

std::int64_t Network::stats_packets_delivered() const {
  std::int64_t n = 0;
  for (const auto& nic : nics_) n += nic->packets_delivered();
  return n;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  for (const auto& nic : nics_) {
    s.packets_injected += nic->packets_injected();
    s.packets_delivered += nic->packets_delivered();
    s.flits_injected += nic->flits_injected();
    s.flits_delivered += nic->flits_delivered();
    s.injection_queue_rejects += nic->injection_queue_rejects();
    s.latency.merge(nic->latency());
    s.network_latency.merge(nic->network_latency());
    s.hops.merge(nic->hops());
    s.link_mm.merge(nic->link_mm());
  }
  for (const auto& r : routers_) {
    s.packets_dropped += r->packets_dropped();
    s.buffer_reads += r->buffer_reads();
    s.buffer_writes += r->buffer_writes();
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto& out = r->output(static_cast<Port>(p));
      s.bypass_flits += out.bypass_flits();
      s.idle_reserved_cycles += out.idle_reserved_cycles();
    }
  }
  return s;
}

EnergyReport Network::energy(const phys::PowerModel& power) const {
  EnergyReport e;
  std::int64_t hop_active_bits = 0;
  double bit_mm = 0.0;
  double toggled_bit_mm = 0.0;
  for (const auto& r : routers_) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      if (static_cast<Port>(p) == Port::kTile) continue;
      const auto& out = r->output(static_cast<Port>(p));
      e.hop_events += out.flits_sent();
      hop_active_bits += out.active_bits_sent();
      bit_mm += out.active_bit_mm();
      toggled_bit_mm += out.toggled_bit_mm();
    }
  }
  for (const topo::ChannelDesc& d : topology_->channels()) {
    e.flit_mm += static_cast<double>(link_sends(d)) * d.length_mm;
  }
  // hop_energy_pj(bits) and wire energy are linear in bits, so summing
  // per-bit is exact (and naturally honours the size-field power gating).
  e.hop_energy_pj = power.hop_energy_pj(1) * static_cast<double>(hop_active_bits);
  e.wire_energy_pj = power.wire_energy_pj_per_mm(1) * bit_mm;
  e.activity_wire_energy_pj = power.wire_energy_pj_per_mm(1) * toggled_bit_mm;
  e.total_pj = e.hop_energy_pj + e.wire_energy_pj;
  std::int64_t delivered = 0;
  for (const auto& nic : nics_) delivered += nic->flits_delivered();
  e.pj_per_delivered_flit = delivered > 0 ? e.total_pj / static_cast<double>(delivered) : 0.0;
  return e;
}

std::vector<LinkUsage> Network::link_usage() const {
  const std::vector<topo::ChannelDesc> channels = topology_->channels();
  std::vector<LinkUsage> out;
  out.reserve(channels.size());
  for (const topo::ChannelDesc& d : channels) {
    out.push_back({d.src, d.src_out_port, d.length_mm, link_sends(d)});
  }
  return out;
}

}  // namespace ocn::core
