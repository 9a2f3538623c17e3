#include "router/router.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "sim/log.h"

namespace ocn::router {

using topo::Port;
using routing::TurnCode;

Router::Router(NodeId node, const topo::Topology& topology, const RouterParams& params,
               RouterStatePool& pool, int slot)
    : node_(node),
      topo_(topology),
      params_(params),
      dateline_parity_(params.dateline_parity(topology.has_wraparound())),
      pool_(&pool),
      slot_(slot) {
  assert(slot >= 0 && slot < pool.routers());
  init_controllers();
}

void Router::init_controllers() {
  assert(params_.vcs <= kMaxArbiterInputs);
  inputs_.reserve(topo::kNumPorts);
  outputs_.reserve(topo::kNumPorts);
  switch_arbs_.reserve(topo::kNumPorts);
  for (int p = 0; p < topo::kNumPorts; ++p) {
    inputs_.emplace_back(static_cast<Port>(p), params_.vcs);
    outputs_.emplace_back(static_cast<Port>(p),
                          ReservationTable(params_.reservation_frame, *pool_, slot_, p));
    switch_arbs_.emplace_back(params_.vcs);
  }
  std::memset(prio_scratch_, 0, sizeof(prio_scratch_));
  for (int p = 0; p < topo::kNumPorts; ++p) {
    dateline_cache_[p] = topo_.crosses_dateline(node_, static_cast<Port>(p));
  }
}

// Every construction path (Network wiring, standalone tests) attaches
// through these two, so each arrival byte is wired wherever its channel is.
void Router::attach_input(Port p, Channel<Flit>* in, Channel<Credit>* credit_upstream) {
  InputController& rec = inputs_[static_cast<std::size_t>(p)];
  rec.in = in;
  rec.credit_upstream = credit_upstream;
  in->set_wake(pool_->arrival(slot_, static_cast<int>(p), RouterStatePool::kArriveFlit));
}

void Router::attach_output(Port p, Channel<Flit>* link, Channel<Credit>* credit_downstream,
                           double length_mm) {
  OutputController& rec = outputs_[static_cast<std::size_t>(p)];
  rec.link = link;
  rec.credit_downstream = credit_downstream;
  rec.length_mm = length_mm;
  credit_downstream->set_wake(
      pool_->arrival(slot_, static_cast<int>(p), RouterStatePool::kArriveCredit));
}

bool Router::effective_dateline(const Flit& head, Port in_port, Port out_port) const {
  if (out_port == Port::kTile) return head.dateline_crossed;
  bool crossed = head.dateline_crossed;
  // Entering a new dimension (or entering the network) resets the state.
  if (in_port == Port::kTile || topo::dim_of(in_port) != topo::dim_of(out_port)) {
    crossed = false;
  }
  if (dateline_cache_[static_cast<int>(out_port)]) crossed = true;
  return crossed;
}

void Router::step(Cycle now) {
  for (int p = 0; p < topo::kNumPorts; ++p) process_credits(p);
  for (int p = 0; p < topo::kNumPorts; ++p) accept_arrival(p);
  decode_fronts();
  vc_allocation(now);
  reservation_bypass(now);
  link_arbitration(now);
  switch_traversal();
  // The per-cycle bits (popped, link used, decoded this cycle) live in the
  // router's mask record and are cleared together.
  pool_->clear_cycle_flags(slot_);
}

// Arrival gates (process_credits, accept_arrival): a port's byte is set iff
// its channel delivered this cycle, and only attached channels stamp bytes.
// So the (common) idle case is one contiguous-row byte load, with no probe
// of the port record or the heap-scattered channel object.

void Router::process_credits(int p) {
  std::atomic<std::uint8_t>* arrive = pool_->arrival(slot_, p, RouterStatePool::kArriveCredit);
  if (arrive->load(std::memory_order_relaxed) == 0) return;
  arrive->store(0, std::memory_order_relaxed);
  Channel<Credit>* ch = outputs_[static_cast<std::size_t>(p)].credit_downstream;
  const Credit* credit = ch->receive();
  if (credit == nullptr) return;
  assert(!params_.dropping() && "dropping mode returns no credits");
  receive_credit(p, credit->vc);
  ch->consume();
}

void Router::accept_arrival(int p) {
  std::atomic<std::uint8_t>* arrive = pool_->arrival(slot_, p, RouterStatePool::kArriveFlit);
  if (arrive->load(std::memory_order_relaxed) == 0) return;
  arrive->store(0, std::memory_order_relaxed);
  InputController& in = inputs_[static_cast<std::size_t>(p)];
  // Process the arriving flit in place (receive + consume) instead of
  // take()ing it out: buf_push copies it from the channel slot straight
  // into an arena slot, the hop's one copy in (send_on_link's copy onto
  // the next link is its one copy out).
  const Flit* arriving = in.in->receive();
  if (arriving == nullptr) return;
  const Flit& f = *arriving;
  // Harvest a piggybacked credit: it belongs to the co-located output
  // driving the reverse direction of this link.
  const std::int8_t carried = f.carried_credit_vc;
  if (carried >= 0) receive_credit(static_cast<int>(topo::reverse(in.port)), carried);
  if (f.type == FlitType::kCreditOnly) {  // nothing to buffer
    in.in->consume();
    return;
  }
  const VcId v = f.vc;
  assert(v >= 0 && v < in.num_vcs());

  if (params_.dropping()) {
    bool* discarding = pool_->discarding_row(slot_, p);
    if (discarding[v]) {
      // Mid-drop: discard through the tail.
      ++in.stats.flits_dropped;
      if (is_tail(f.type)) discarding[v] = false;
      in.in->consume();
      return;
    }
    if (is_head(f.type) &&
        pool_->depth() - pool_->buf_count_row(slot_, p)[v] < f.packet_flits) {
      // Contention: drop the whole packet (space for the full packet is
      // required up front so wormholes never strand mid-packet).
      ++in.stats.packets_dropped;
      ++in.stats.flits_dropped;
      if (!is_tail(f.type)) discarding[v] = true;
      OCN_TRACE("drop pkt %lld at %s vc %d", static_cast<long long>(f.packet),
                topo::port_name(in.port), f.vc);
      in.in->consume();
      return;
    }
  }

  ++in.stats.vc_flits[static_cast<std::size_t>(v)];
  pool_->buf_push(slot_, p, v, f);
  // The stored copy must not re-deliver the already-harvested credit.
  if (carried >= 0) pool_->buf_back(slot_, p, v).carried_credit_vc = -1;
  in.in->consume();
}

void Router::decode_fronts() {
  // Routing VCs: occupied, neither waiting for a VC nor granted.
  const RouterMasks& m = pool_->masks(slot_);
  for (std::uint64_t todo = m.occupied & ~(m.vc_wait | m.ready); todo != 0;
       todo &= todo - 1) {
    const int bit = std::countr_zero(todo);
    const int p = bit / 8;
    const VcId v = bit % 8;
    const auto port = static_cast<Port>(p);
    Flit& head = pool_->buf_front(slot_, p, v);
    // A body flit at the front of a Routing VC would mean interleaved
    // packets on one VC — a protocol violation.
    assert(is_head(head.type) && "body flit at front of unrouted VC");
    if (!is_head(head.type)) continue;
    assert(!head.route.empty() && "head flit arrived with an exhausted route");
    const std::uint8_t code = head.route.pop();
    // The injection hop carries an absolute direction code; every later
    // hop a turn relative to the arrival port.
    const Port out = port == Port::kTile
                         ? routing::injection_port(code)
                         : routing::apply_turn(port, static_cast<TurnCode>(code));
    // The same head asks for a downstream VC: its class mask and the
    // dateline parity it will have on the chosen output.
    pool_->set_route(slot_, p, v, out, head.vc_mask, effective_dateline(head, port, out));
  }
}

void Router::vc_allocation(Cycle now) {
  const RouterMasks& m = pool_->masks(slot_);
  // Conservative pipeline: decode and allocation are separate stages, so a
  // VC decoded this cycle waits for the next.
  const std::uint64_t waiting = params_.speculative ? m.vc_wait : m.vc_wait & ~m.decoded;
  if (waiting == 0) return;
  // Rotate the input starting point so no input gets structural priority on
  // downstream VCs. Derived from the cycle counter (identical to a counter
  // incremented every cycle) so skipped idle cycles don't perturb it.
  const int start = static_cast<int>(now % topo::kNumPorts);
  for (int i = 0; i < topo::kNumPorts; ++i) {
    const int p = (start + i) % topo::kNumPorts;
    unsigned lane = mask_lane(waiting, p);
    if (lane == 0) continue;
    const Port* outport = pool_->out_port_row(slot_, p);
    const std::uint8_t* amask = pool_->alloc_mask_row(slot_, p);
    const bool* awant = pool_->alloc_want_odd_row(slot_, p);
    std::uint16_t* seen = pool_->alloc_seen_row(slot_, p);
    for (; lane != 0; lane &= lane - 1) {
      const VcId v = std::countr_zero(lane);
      if (params_.exclusive_scheduled_vc && v == params_.scheduled_vc()) {
        // Pre-scheduled traffic keeps its dedicated VC end to end; slots
        // were reserved at configuration time so no allocation is needed.
        pool_->grant(slot_, p, v, v);
        continue;
      }
      const int out = static_cast<int>(outport[v]);
      // Retry on change: with the request fixed, success depends only on
      // the output's allocated mask, and a failure moves nothing, so an
      // attempt against the mask of the last failure would fail again.
      const std::uint8_t allocated = pool_->vc_allocated(slot_, out);
      if (seen[v] == allocated) continue;
      VcAllocator alloc = vc_allocator(out);
      VcId granted = kInvalidVc;
      if (params_.dropping()) {
        // Dropping flow control keeps the same VC index across hops; the
        // VC is still owned for the packet's duration so wormholes from
        // different inputs never interleave on one link VC.
        if (alloc.allocate_exact(v)) granted = v;
      } else {
        granted = alloc.allocate(amask[v], awant[v], outport[v] == Port::kTile);
      }
      if (granted != kInvalidVc) {
        pool_->grant(slot_, p, v, granted);
      } else {
        seen[v] = allocated;
      }
    }
  }
}

// Dropping mode touches the credit loop in two places only: consume_credit
// and pop's return. Neither runs, so credits stay at buffer_depth and no
// credit ever arrives.
bool Router::has_credit(int out, VcId vc) const { return pool_->credits(slot_, out)[vc] > 0; }

void Router::consume_credit(int out, VcId vc) {
  if (params_.dropping()) return;
  int& c = pool_->credits(slot_, out)[vc];
  assert(c > 0);
  --c;
}

void Router::receive_credit(int out, VcId vc) {
  int& c = pool_->credits(slot_, out)[vc];
  ++c;
  assert(c <= params_.buffer_depth && "credit overflow: more credits than buffer slots");
}

FlitRef Router::pop(int in, VcId vc) {
  assert(!pool_->popped(slot_, in) && "one flit per input port per cycle");
  pool_->set_popped(slot_, in);
  InputController& rec = inputs_[static_cast<std::size_t>(in)];
  ++rec.stats.buffer_reads;
  const FlitRef ref = pool_->buf_pop(slot_, in, vc);
  // Credit-based flow control returns the freed slot upstream: via the
  // reverse-direction carry queue when piggybacking, else on the dedicated
  // credit wire. In dropping mode there is no credit loop.
  if (!params_.dropping()) {
    if (params_.piggyback_credits) {
      pool_->carry_push(slot_, static_cast<int>(topo::reverse(rec.port)), vc);
    } else {
      rec.credit_upstream->send(Credit{vc});
    }
  }
  return ref;
}

FlitRef Router::take_flit(int in, VcId vc, Port out_port, VcId out_vc) {
  const FlitRef ref = pop(in, vc);
  Flit& f = pool_->flit(ref);
  if (is_head(f.type)) {
    f.dateline_crossed = effective_dateline(f, static_cast<Port>(in), out_port);
  }
  f.vc = out_vc;
  return ref;
}

void Router::send_on_link(int out, FlitRef ref, bool bypass) {
  Flit& f = pool_->flit(ref);
  OutputController& rec = outputs_[static_cast<std::size_t>(out)];
  OutputController::Stats& st = rec.stats;
  assert(rec.link != nullptr);
  assert(!pool_->link_used(slot_, out));
  pool_->set_link_used(slot_, out);
  if (params_.piggyback_credits && pool_->carry_count_row(slot_)[out] > 0) {
    f.carried_credit_vc = static_cast<std::int8_t>(pool_->carry_pop(slot_, out));
  }
  if (is_tail(f.type)) {
    VcAllocator alloc = vc_allocator(out);
    if (alloc.is_allocated(f.vc)) alloc.release(f.vc);
  }
  const int active_bits = kControlBits + f.data_bits();
  st.active_bits_sent += active_bits;
  // Toggle accounting: Hamming distance of the active data bits against the
  // previous frame, plus a control-field estimate (half the control bits).
  {
    int toggles = kControlBits / 2;
    if (st.has_last_sent) {
      const int words = (f.data_bits() + 63) / 64;
      for (int w = 0; w < words; ++w) {
        std::uint64_t diff = f.data[static_cast<std::size_t>(w)] ^
                             st.last_sent[static_cast<std::size_t>(w)];
        if (w == words - 1 && f.data_bits() % 64 != 0) {
          diff &= (std::uint64_t{1} << (f.data_bits() % 64)) - 1;
        }
        toggles += std::popcount(diff);
      }
    } else {
      toggles += f.data_bits() / 2;  // first frame: assume half the bits move
    }
    st.toggled_bits += toggles;
    if (rec.port != Port::kTile) {
      st.toggled_bit_mm += static_cast<double>(toggles) * rec.length_mm;
    }
    st.last_sent = f.data;
    st.has_last_sent = true;
  }
  if (rec.port != Port::kTile) {
    ++f.hops;
    f.link_mm += rec.length_mm;
    st.active_bit_mm += static_cast<double>(active_bits) * rec.length_mm;
  }
  rec.apply_hooks(f, bypass);
  // The hop's one copy out: arena slot -> link ring. The slot is free again.
  rec.link->send(f);
  pool_->flit_free(ref);
}

void Router::reservation_bypass(Cycle now) {
  const RouterMasks& m = pool_->masks(slot_);
  for (unsigned outs = m.resv; outs != 0; outs &= outs - 1) {
    const int o = std::countr_zero(outs);
    OutputController& out = outputs_[static_cast<std::size_t>(o)];
    if (!out.attached()) continue;
    const auto& slot = out.reservations().at(now);
    if (!slot.reserved()) continue;
    const int i = slot.input;
    const VcId v = slot.vc;
    // The reserved VC must hold a granted flit routed to this output.
    if (((m.ready >> mask_bit(i, v)) & 1u) == 0 || pool_->popped(slot_, i) ||
        pool_->out_port_row(slot_, i)[v] != out.port) {
      continue;
    }
    const VcId out_vc = pool_->out_vc_row(slot_, i)[v];
    if (!has_credit(o, out_vc)) continue;  // reservation mis-set; wait
    consume_credit(o, out_vc);
    // Pre-scheduled bypass: the flit goes straight from the input buffer to
    // the link, skipping the output stage and arbitration (section 2.6).
    ++out.stats.bypass_flits;
    send_on_link(o, take_flit(i, v, out.port, out_vc), /*bypass=*/true);
  }
}

void Router::link_arbitration(Cycle now) {
  // arbitrate_link can only act on an output with an occupied stage
  // register, a queued piggyback credit (credit-only filler) or a
  // reservation (idle reserved slots are accounted every cycle).
  const RouterMasks& m = pool_->masks(slot_);
  unsigned outs = m.carry | m.resv;
  for (int p = 0; p < topo::kNumPorts; ++p) {
    if (mask_lane(m.stage, p) != 0) outs |= 1u << p;
  }
  for (; outs != 0; outs &= outs - 1) {
    const int p = std::countr_zero(outs);
    if (outputs_[static_cast<std::size_t>(p)].attached()) arbitrate_link(p, now);
  }
}

void Router::arbitrate_link(int p, Cycle now) {
  OutputController& out = outputs_[static_cast<std::size_t>(p)];
  if (pool_->link_used(slot_, p)) return;
  const bool slot_reserved = out.reservations().any() && out.reservations().reserved_at(now);
  if (slot_reserved && !params_.reclaim_idle_slots) {
    // The reserved flit did not show; the cycle is lost to the reservation.
    ++out.stats.idle_reserved_cycles;
    return;
  }
  // Arbitrate among the full stage registers. Every one was filled on an
  // earlier cycle: switch traversal, the only filler, runs after this
  // phase.
  const unsigned full = mask_lane(pool_->masks(slot_).stage, p);
  if (full == 0) {
    // Idle link with credits to return: emit a credit-only flit (the
    // piggyback scheme's filler, costing a handful of control bits).
    if (params_.piggyback_credits && pool_->carry_count_row(slot_)[p] > 0) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(pool_->carry_pop(slot_, p));
      pool_->set_link_used(slot_, p);
      ++out.stats.credit_only_flits;
      out.link->send(f);
    }
    return;
  }
  int winner;
  if (params_.priority_arbitration) {
    const FlitRef* stage = pool_->stage_row(slot_, p);
    int priority[topo::kNumPorts] = {};
    for (unsigned bits = full; bits != 0; bits &= bits - 1) {
      const int i = std::countr_zero(bits);
      priority[i] = pool_->flit(stage[i]).priority;
    }
    winner = out.link_arb.arbitrate(full, priority);
  } else {
    winner = out.link_arb.arbitrate_flat(full);
  }
  assert(winner >= 0);
  out.stats.contention_cycles += std::popcount(full) - 1;
  send_on_link(p, pool_->stage_take(slot_, p, winner), /*bypass=*/false);
}

void Router::switch_traversal() {
  const RouterMasks& m = pool_->masks(slot_);
  // Granted VCs with a buffered flit. Pre-scheduled traffic moves only on
  // its reserved slots (bypass path); letting it use the dynamic path
  // would reintroduce jitter. (In the conservative pipeline a VC decoded
  // this cycle has no grant yet, so it is not ready.)
  const std::uint64_t ready =
      m.ready & ~(std::uint64_t{0x0101010101} * params_.excluded_vcs());
  for (int i = 0; i < topo::kNumPorts; ++i) {
    unsigned lane = mask_lane(ready, i);
    if (lane == 0 || pool_->popped(slot_, i)) continue;
    const VcId* outvc = pool_->out_vc_row(slot_, i);
    const Port* outport = pool_->out_port_row(slot_, i);
    std::uint32_t requests = 0;
    for (; lane != 0; lane &= lane - 1) {
      const VcId v = std::countr_zero(lane);
      const int o = static_cast<int>(outport[v]);
      if (!outputs_[static_cast<std::size_t>(o)].attached()) continue;
      if (((m.stage >> mask_bit(o, i)) & 1u) != 0) continue;
      if (!has_credit(o, outvc[v])) continue;
      requests |= std::uint32_t{1} << v;
      if (params_.priority_arbitration) {
        prio_scratch_[v] = pool_->buf_front(slot_, i, v).priority;
      }
    }
    // Zero requesters: the arbiter would return -1 and leave its pointer
    // frozen (the semantics tests/test_router_units.cpp pins) — skip it.
    if (requests == 0) continue;
    const int winner =
        params_.priority_arbitration
            ? switch_arbs_[static_cast<std::size_t>(i)].arbitrate(requests, prio_scratch_)
            : switch_arbs_[static_cast<std::size_t>(i)].arbitrate_flat(requests);
    if (winner < 0) continue;
    const VcId out_vc = outvc[winner];
    const Port out_port = outport[winner];
    consume_credit(static_cast<int>(out_port), out_vc);
    // Into the output stage register for this input: eligible for link
    // arbitration from the next cycle (the stage is a register).
    pool_->stage_put(slot_, static_cast<int>(out_port), i,
                     take_flit(i, winner, out_port, out_vc));
  }
}

std::int64_t Router::buffer_writes() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.buffer_writes();
  return n;
}

std::int64_t Router::buffer_reads() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.buffer_reads();
  return n;
}

std::int64_t Router::packets_dropped() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.packets_dropped();
  return n;
}

void Router::register_metrics(obs::CounterRegistry& registry,
                              const std::string& prefix) const {
  registry.gauge(prefix + ".buffer_writes", [this] { return buffer_writes(); });
  registry.gauge(prefix + ".buffer_reads", [this] { return buffer_reads(); });
  registry.gauge(prefix + ".packets_dropped", [this] { return packets_dropped(); });
  for (const auto& in : inputs_) {
    if (!in.attached()) continue;
    const std::string in_prefix =
        prefix + ".in." + topo::port_name(in.port);
    registry.gauge(in_prefix + ".flits", [&in] { return in.flits_arrived(); });
    for (VcId v = 0; v < in.num_vcs(); ++v) {
      registry.gauge(in_prefix + ".vc" + std::to_string(v) + ".flits",
                     [&in, v] { return in.vc_flits(v); });
    }
  }
  for (std::size_t p = 0; p < outputs_.size(); ++p) {
    const auto& out = outputs_[p];
    const std::string out_prefix =
        prefix + ".out." + topo::port_name(static_cast<Port>(p));
    registry.gauge(out_prefix + ".flits", [&out] { return out.flits_sent(); });
    registry.gauge(out_prefix + ".bypass_flits", [&out] { return out.bypass_flits(); });
    registry.gauge(out_prefix + ".contention_cycles",
                   [&out] { return out.contention_cycles(); });
  }
}

}  // namespace ocn::router
