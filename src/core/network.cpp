#include "core/network.h"

#include <cassert>
#include <stdexcept>

#include "sim/log.h"

namespace ocn::core {

using router::Credit;
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
  // Component/channel placement: every per-node object goes to its node's
  // shard; a channel whose endpoints straddle two shards is a boundary
  // channel (advanced every cycle). Tile-port channels connect a node to
  // itself, so they are always interior.
  //
  // Channels are classified (sender, receiver) and a boundary channel is
  // filed under the RECEIVER's shard. That choice is what makes the
  // event-skip arrival bytes shard-local: a channel stamps its receiver's
  // per-port arrival byte as it advances (phase B), and filing the channel
  // under the receiver's shard means the stamping worker IS the byte
  // owner's worker — the same one that reads and clears the byte in phase
  // A. No arrival byte is ever touched by two shards.
  const auto add_channel = [this](NodeId sender, NodeId receiver, ChannelBase* ch) {
    if (shard_of(sender) == shard_of(receiver)) {
      kernel_.add_interior(shard_of(sender), ch);
    } else {
      kernel_.add_boundary(shard_of(receiver), ch);
    }
  };

  // Per-shard SoA pools: routers of shard s take consecutive slots in
  // pools_[s], in node order.
  std::vector<int> shard_router_count(static_cast<std::size_t>(shards_), 0);
  for (NodeId i = 0; i < n; ++i) {
    ++shard_router_count[static_cast<std::size_t>(shard_of(i))];
  }
  pools_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    pools_.push_back(std::make_unique<router::RouterStatePool>(
        shard_router_count[static_cast<std::size_t>(s)], config_.router));
  }
  std::vector<int> next_slot(static_cast<std::size_t>(shards_), 0);

  routers_.reserve(static_cast<std::size_t>(n));
  nics_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const auto shard = static_cast<std::size_t>(shard_of(i));
    routers_.push_back(std::make_unique<router::Router>(
        i, *topology_, config_.router, *pools_[shard], next_slot[shard]++));
    nics_.push_back(std::make_unique<Nic>(i, config_, routes_));
    Nic* nic_ptr = nics_.back().get();
    router::Router* rtr = routers_.back().get();
    kernel_.add_to_shard(shard_of(i), nic_ptr, nic_ptr->wake_row(), Nic::wake_width());
    kernel_.add_to_shard(shard_of(i), rtr, rtr->wake_row(), router::Router::wake_width());
  }

  // Inter-router links.
  for (const auto& desc : topology_->channels()) {
    LinkChannels link;
    const std::string name = "link:" + std::to_string(desc.src) + ":" +
                             topo::port_name(desc.src_out_port);
    link.flits = std::make_unique<Channel<Flit>>(config_.link_latency, name);
    link.credits = std::make_unique<Channel<Credit>>(config_.link_latency, name + ":credit");
    link.flits->length_mm = desc.length_mm;
    link.src = desc.src;
    link.port = desc.src_out_port;
    link.length_mm = desc.length_mm;
    router_at(desc.src).output(desc.src_out_port)
        .attach(link.flits.get(), link.credits.get(), desc.length_mm);
    router_at(desc.dst).input(desc.dst_in_port)
        .attach(link.flits.get(), link.credits.get());
    // Event-skip: the attach calls above wired each channel to its
    // receiver's per-port arrival byte (flits -> dst input controller,
    // credits -> src output controller).
    // The credit channel flows dst -> src, so it is classified with the
    // opposite (sender, receiver) pair — the receiver-shard filing rule
    // above keeps both channels' wake stamping shard-local.
    add_channel(desc.src, desc.dst, link.flits.get());
    add_channel(desc.dst, desc.src, link.credits.get());
    if (config_.fault_layer) {
      auto transform = std::make_unique<FaultyLinkTransform>(
          SteeredLink(router::kDataBits, config_.link_spare_bits));
      router_at(desc.src).output(desc.src_out_port).set_transform(transform.get());
      fault_transforms_.push_back(std::move(transform));
    } else {
      fault_transforms_.push_back(nullptr);
    }
    links_.push_back(std::move(link));
  }

  // Tile ports (NIC <-> router), one flit + one credit channel per direction.
  inject_links_.reserve(static_cast<std::size_t>(n));
  eject_links_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    LinkChannels inj;
    inj.flits = std::make_unique<Channel<Flit>>(1, "inject:" + std::to_string(i));
    inj.credits = std::make_unique<Channel<Credit>>(1, "inject_credit:" + std::to_string(i));
    inj.src = i;
    inj.port = Port::kTile;
    router_at(i).input(Port::kTile).attach(inj.flits.get(), inj.credits.get());

    LinkChannels ej;
    ej.flits = std::make_unique<Channel<Flit>>(1, "eject:" + std::to_string(i));
    ej.credits = std::make_unique<Channel<Credit>>(1, "eject_credit:" + std::to_string(i));
    ej.src = i;
    ej.port = Port::kTile;
    router_at(i).output(Port::kTile).attach(ej.flits.get(), ej.credits.get(), 0.0);

    nic(i).attach(inj.flits.get(), inj.credits.get(), ej.flits.get(), ej.credits.get());
    // Channels delivering INTO the router were wired to its arrival bytes
    // by the attach calls above; channels delivering into the NIC are wired
    // to the NIC's wake row by Nic::attach. Packets a client enqueues
    // through the Nic API reach no wake byte; the NIC's idle_internal()
    // sees them in its queue counters.
    add_channel(i, i, inj.flits.get());
    add_channel(i, i, inj.credits.get());
    add_channel(i, i, ej.flits.get());
    add_channel(i, i, ej.credits.get());
    inject_links_.push_back(std::move(inj));
    eject_links_.push_back(std::move(ej));
  }
}

void Network::step() { kernel_.tick(); }

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

void Network::install_register_filters() {
  for (NodeId i = 0; i < num_nodes(); ++i) {
    router::Router* rtr = routers_[static_cast<std::size_t>(i)].get();
    Nic* nic_ptr = nics_[static_cast<std::size_t>(i)].get();
    nic_ptr->add_filter([this, rtr](const Packet& p) {
      const auto write = decode_register_write(p);
      if (!write) return false;
      auto& table = rtr->output(write->output_port).reservations();
      if (write->kind == RegisterWrite::Kind::kReserveSlot) {
        table.reserve(write->slot, write->input_port, write->vc);
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
      const auto& slot = rtr->output(read->output_port)
                             .reservations()
                             .at(static_cast<Cycle>(read->slot));
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

std::vector<Cycle> Network::flow_slot_times(NodeId src, NodeId dst, Cycle phase) const {
  std::vector<Cycle> times;
  const auto path = routes_.port_path(src, dst);
  for (std::size_t i = 0; i < path.size(); ++i) {
    times.push_back(phase + 1 + static_cast<Cycle>(i) * config_.link_latency);
  }
  return times;
}

std::optional<Cycle> Network::reserve_flow(NodeId src, NodeId dst, Cycle phase_hint) {
  if (!config_.router.exclusive_scheduled_vc) {
    throw std::logic_error(
        "reserve_flow requires config.router.exclusive_scheduled_vc "
        "(the scheduled VC must not be shared with dynamic traffic)");
  }
  const auto path = routes_.port_path(src, dst);
  if (path.empty()) return std::nullopt;
  const int frame = config_.router.reservation_frame;
  const VcId vc = config_.router.scheduled_vc;

  for (int attempt = 0; attempt < frame; ++attempt) {
    const Cycle phase = (phase_hint + attempt) % frame;
    // Check all hops first.
    bool ok = true;
    NodeId node = src;
    for (std::size_t i = 0; i < path.size() && ok; ++i) {
      const Cycle t = phase + 1 + static_cast<Cycle>(i) * config_.link_latency;
      const auto& table = router_at(node).output(path[i]).reservations();
      if (table.at(t).reserved()) ok = false;
      if (path[i] != Port::kTile) node = topology_->neighbor(node, path[i])->dst;
    }
    if (!ok) continue;
    // Commit.
    node = src;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const Cycle t = phase + 1 + static_cast<Cycle>(i) * config_.link_latency;
      const int input = i == 0 ? static_cast<int>(Port::kTile)
                               : static_cast<int>(path[i - 1]);
      auto& table = router_at(node).output(path[i]).reservations();
      const bool reserved =
          table.reserve(static_cast<int>(((t % frame) + frame) % frame), input, vc);
      assert(reserved);
      (void)reserved;
      if (path[i] != Port::kTile) node = topology_->neighbor(node, path[i])->dst;
    }
    return phase;
  }
  return std::nullopt;
}

void Network::release_flow(NodeId src, NodeId dst, Cycle phase) {
  const auto path = routes_.port_path(src, dst);
  const int frame = config_.router.reservation_frame;
  NodeId node = src;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Cycle t = phase + 1 + static_cast<Cycle>(i) * config_.link_latency;
    auto& table = router_at(node).output(path[i]).reservations();
    table.clear(static_cast<int>(((t % frame) + frame) % frame));
    if (path[i] != Port::kTile) node = topology_->neighbor(node, path[i])->dst;
  }
}

void Network::program_flow_registers(NodeId config_master, NodeId src, NodeId dst,
                                     Cycle phase) {
  const auto path = routes_.port_path(src, dst);
  const int frame = config_.router.reservation_frame;
  NodeId node = src;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Cycle t = phase + 1 + static_cast<Cycle>(i) * config_.link_latency;
    RegisterWrite w;
    w.kind = RegisterWrite::Kind::kReserveSlot;
    w.output_port = path[i];
    w.slot = static_cast<int>(((t % frame) + frame) % frame);
    w.input_port = i == 0 ? static_cast<int>(Port::kTile) : static_cast<int>(path[i - 1]);
    w.vc = config_.router.scheduled_vc;
    const bool accepted = nic(config_master).inject(encode_register_write(node, w), now());
    assert(accepted && "configuration master NIC queue overflow");
    (void)accepted;
    if (path[i] != Port::kTile) node = topology_->neighbor(node, path[i])->dst;
  }
}

void Network::clear_flow_registers(NodeId config_master, NodeId src, NodeId dst,
                                   Cycle phase) {
  const auto path = routes_.port_path(src, dst);
  const int frame = config_.router.reservation_frame;
  NodeId node = src;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Cycle t = phase + 1 + static_cast<Cycle>(i) * config_.link_latency;
    RegisterWrite w;
    w.kind = RegisterWrite::Kind::kClearSlot;
    w.output_port = path[i];
    w.slot = static_cast<int>(((t % frame) + frame) % frame);
    const bool accepted = nic(config_master).inject(encode_register_write(node, w), now());
    assert(accepted && "configuration master NIC queue overflow");
    (void)accepted;
    if (path[i] != Port::kTile) node = topology_->neighbor(node, path[i])->dst;
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
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].src == node && links_[i].port == port) {
      return fault_transforms_[i].get();
    }
  }
  return nullptr;
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
  for (const auto& link : links_) {
    const Channel<router::Flit>* ch = link.flits.get();
    registry.gauge("link." + std::to_string(link.src) + "." +
                       topo::port_name(link.port) + ".flits",
                   [ch] { return ch->sends(); });
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
  for (const auto& link : links_) {
    e.flit_mm += static_cast<double>(link.flits->sends()) * link.length_mm;
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
  std::vector<LinkUsage> out;
  out.reserve(links_.size());
  for (const auto& link : links_) {
    out.push_back({link.src, link.port, link.length_mm, link.flits->sends()});
  }
  return out;
}

}  // namespace ocn::core
