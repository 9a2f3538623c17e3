#include "router/router.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "sim/log.h"

namespace ocn::router {

using topo::Port;
using routing::TurnCode;

Router::Router(NodeId node, const topo::Topology& topology, const RouterParams& params)
    : node_(node),
      topo_(topology),
      params_(params),
      own_pool_(std::make_unique<RouterStatePool>(1, params)),
      pool_(own_pool_.get()),
      slot_(0) {
  init_controllers();
}

Router::Router(NodeId node, const topo::Topology& topology, const RouterParams& params,
               RouterStatePool& pool, int slot)
    : node_(node), topo_(topology), params_(params), pool_(&pool), slot_(slot) {
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
  std::memset(req_scratch_, 0, sizeof(req_scratch_));
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
  if (in != nullptr) {
    in->set_wake(pool_->arrival(slot_, static_cast<int>(p), RouterStatePool::kArriveFlit));
  }
}

void Router::attach_output(Port p, Channel<Flit>* link, Channel<Credit>* credit_downstream,
                           double length_mm) {
  OutputController& rec = outputs_[static_cast<std::size_t>(p)];
  rec.link = link;
  rec.credit_downstream = credit_downstream;
  rec.length_mm = length_mm;
  if (credit_downstream != nullptr) {
    credit_downstream->set_wake(
        pool_->arrival(slot_, static_cast<int>(p), RouterStatePool::kArriveCredit));
  }
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
  for (int p = 0; p < topo::kNumPorts; ++p) decode_fronts(p, now);
  vc_allocation(now);
  reservation_bypass(now);
  link_arbitration(now);
  switch_traversal(now);
  // The per-cycle transients (popped, link_used, stage_fresh) are pool
  // rows, cleared with three contiguous writes.
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
  if (!params_.dropping()) {  // dropping mode: drain, no credit loop
    int& c = pool_->credits(slot_, p)[credit->vc];
    ++c;
    assert(c <= params_.buffer_depth && "credit overflow: more credits than buffer slots");
  }
  ch->consume();
}

void Router::accept_arrival(int p) {
  std::atomic<std::uint8_t>* arrive = pool_->arrival(slot_, p, RouterStatePool::kArriveFlit);
  if (arrive->load(std::memory_order_relaxed) == 0) return;
  arrive->store(0, std::memory_order_relaxed);
  InputController& in = inputs_[static_cast<std::size_t>(p)];
  // Process the arriving flit in place (receive + consume) instead of
  // take()ing it out: the buffered copy goes channel storage -> ring slab
  // directly, one 160-byte copy instead of two moves through a temporary.
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

void Router::decode_fronts(int p, Cycle now) {
  const int* cnt = pool_->buf_count_row(slot_, p);
  bool* routed = pool_->routed_row(slot_, p);
  Cycle* routed_at = pool_->routed_at_row(slot_, p);
  Port* outport = pool_->out_port_row(slot_, p);
  std::uint8_t* amask = pool_->alloc_mask_row(slot_, p);
  bool* awant = pool_->alloc_want_odd_row(slot_, p);
  const auto port = static_cast<Port>(p);
  for (VcId v = 0; v < params_.vcs; ++v) {
    // Only occupied, not-yet-routed VCs can decode.
    if (cnt[v] == 0 || routed[v]) continue;
    Flit& head = pool_->buf_front(slot_, p, v);
    // A body flit at the front of an unrouted VC would mean interleaved
    // packets on one VC — a protocol violation.
    assert(is_head(head.type) && "body flit at front of unrouted VC");
    if (!is_head(head.type)) continue;
    assert(!head.route.empty() && "head flit arrived with an exhausted route");
    const std::uint8_t code = head.route.pop();
    // The injection hop carries an absolute direction code; every later
    // hop a turn relative to the arrival port.
    outport[v] = port == Port::kTile ? routing::injection_port(code)
                                     : routing::apply_turn(port, static_cast<TurnCode>(code));
    // The same head asks for a downstream VC: its class mask and the
    // dateline parity it will have on the chosen output.
    amask[v] = head.vc_mask;
    awant[v] = effective_dateline(head, port, outport[v]);
    routed[v] = true;
    routed_at[v] = now;
  }
}

void Router::vc_allocation(Cycle now) {
  // Rotate the input starting point so no input gets structural priority on
  // downstream VCs. Derived from the cycle counter (identical to a counter
  // incremented every cycle) so skipped idle cycles don't perturb it.
  const int start = static_cast<int>(now % topo::kNumPorts);
  for (int i = 0; i < topo::kNumPorts; ++i) {
    const int p = (start + i) % topo::kNumPorts;
    if (!inputs_[static_cast<std::size_t>(p)].attached()) continue;
    // Candidate filter over the pool's contiguous rows: only VCs that are
    // occupied, routed, and still ungranted fall through. A candidate's
    // front is always its decoded head (a pop needs the grant this stage
    // produces), so the request rows decode wrote are current.
    const int* cnt = pool_->buf_count_row(slot_, p);
    const bool* routed = pool_->routed_row(slot_, p);
    VcId* outvc = pool_->out_vc_row(slot_, p);
    const Cycle* routed_at = pool_->routed_at_row(slot_, p);
    const Port* outport = pool_->out_port_row(slot_, p);
    const std::uint8_t* amask = pool_->alloc_mask_row(slot_, p);
    const bool* awant = pool_->alloc_want_odd_row(slot_, p);
    for (VcId v = 0; v < params_.vcs; ++v) {
      if (cnt[v] == 0 || !routed[v] || outvc[v] != kInvalidVc) continue;
      // Conservative pipeline: decode and allocation are separate stages.
      if (!params_.speculative && routed_at[v] >= now) continue;
      if (v == params_.scheduled_vc && params_.exclusive_scheduled_vc) {
        // Pre-scheduled traffic keeps its dedicated VC end to end; slots
        // were reserved at configuration time so no allocation is needed.
        outvc[v] = params_.scheduled_vc;
        continue;
      }
      VcAllocator alloc = vc_allocator(static_cast<int>(outport[v]));
      if (params_.dropping()) {
        // Dropping flow control keeps the same VC index across hops; the
        // VC is still owned for the packet's duration so wormholes from
        // different inputs never interleave on one link VC.
        if (alloc.allocate_exact(v)) outvc[v] = v;
        continue;
      }
      const bool ignore_parity = outport[v] == Port::kTile;
      const VcId granted = alloc.allocate(amask[v], awant[v], ignore_parity);
      if (granted != kInvalidVc) outvc[v] = granted;
    }
  }
}

bool Router::has_credit(int out, VcId vc) const {
  if (params_.dropping()) return true;  // no credit loop in dropping mode
  return pool_->credits(slot_, out)[vc] > 0;
}

void Router::consume_credit(int out, VcId vc) {
  if (params_.dropping()) return;
  int& c = pool_->credits(slot_, out)[vc];
  assert(c > 0);
  --c;
}

void Router::receive_credit(int out, VcId vc) {
  int& c = pool_->credits(slot_, out)[vc];
  ++c;
  assert(c <= params_.buffer_depth && "credit overflow via piggyback path");
}

Flit Router::pop(int in, VcId vc) {
  bool* popped = pool_->popped(slot_, in);
  assert(!*popped && "one flit per input port per cycle");
  *popped = true;
  InputController& rec = inputs_[static_cast<std::size_t>(in)];
  ++rec.stats.buffer_reads;
  Flit f = pool_->buf_pop(slot_, in, vc);
  if (is_tail(f.type)) pool_->reset_packet_state(slot_, in, vc);
  // Credit-based flow control returns the freed slot upstream: via the
  // reverse-direction carry queue when piggybacking, else on the dedicated
  // credit wire. In dropping mode there is no credit loop.
  if (!params_.dropping()) {
    if (params_.piggyback_credits) {
      pool_->carry_push(slot_, static_cast<int>(topo::reverse(rec.port)), vc);
    } else if (rec.credit_upstream != nullptr) {
      rec.credit_upstream->send(Credit{vc});
    }
  }
  return f;
}

Flit Router::take_flit(int in, VcId vc, Port out_port, VcId out_vc) {
  Flit f = pop(in, vc);
  if (is_head(f.type)) {
    f.dateline_crossed = effective_dateline(f, static_cast<Port>(in), out_port);
  }
  f.vc = out_vc;
  return f;
}

void Router::stage_push(int out, int input, Flit f) {
  bool* full = pool_->stage_full(slot_, out);
  assert(!full[input] && "output stage slot occupied");
  pool_->stage(slot_, out)[input] = std::move(f);
  full[input] = true;
  pool_->stage_fresh(slot_, out)[input] = true;
}

void Router::send_on_link(int out, Flit f, bool bypass) {
  OutputController& rec = outputs_[static_cast<std::size_t>(out)];
  OutputController::Stats& st = rec.stats;
  bool* link_used = pool_->link_used(slot_, out);
  assert(rec.link != nullptr);
  assert(!*link_used);
  *link_used = true;
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
  rec.link->send(std::move(f));
}

void Router::reservation_bypass(Cycle now) {
  // Pool-row early-out: without a single reserved slot anywhere (the common
  // case outside scheduled-traffic configs) there is nothing to bypass.
  const int* resv = pool_->resv_count_row(slot_);
  bool any = false;
  for (int p = 0; p < topo::kNumPorts; ++p) any |= resv[p] != 0;
  if (!any) return;
  for (int o = 0; o < topo::kNumPorts; ++o) {
    OutputController& out = outputs_[static_cast<std::size_t>(o)];
    if (!out.attached() || !out.reservations().any()) continue;
    const auto& slot = out.reservations().at(now);
    if (!slot.reserved()) continue;
    const int i = slot.input;
    const VcId v = slot.vc;
    if (!inputs_[static_cast<std::size_t>(i)].attached() || *pool_->popped(slot_, i)) continue;
    if (pool_->buf_count_row(slot_, i)[v] == 0 || !pool_->routed_row(slot_, i)[v] ||
        pool_->out_port_row(slot_, i)[v] != out.port) {
      continue;
    }
    const VcId out_vc = pool_->out_vc_row(slot_, i)[v];
    if (out_vc == kInvalidVc) continue;
    if (!has_credit(o, out_vc)) continue;  // reservation mis-set; wait
    consume_credit(o, out_vc);
    Flit f = take_flit(i, v, out.port, out_vc);
    // Pre-scheduled bypass: the flit goes straight from the input buffer to
    // the link, skipping the output stage and arbitration (section 2.6).
    ++out.stats.bypass_flits;
    send_on_link(o, std::move(f), /*bypass=*/true);
  }
}

void Router::link_arbitration(Cycle now) {
  // Pool-row gate: arbitrate_link can only act when some stage register is
  // occupied, a piggyback credit is queued (credit-only filler), or a
  // reservation exists (idle reserved slots are accounted every cycle).
  // All three are visible in contiguous pool rows.
  bool any = false;
  const bool* full = pool_->stage_full_block(slot_);
  for (int i = 0; i < topo::kNumPorts * topo::kNumPorts; ++i) any |= full[i];
  if (!any && params_.piggyback_credits) {
    const int* carry = pool_->carry_count_row(slot_);
    for (int p = 0; p < topo::kNumPorts; ++p) any |= carry[p] != 0;
  }
  if (!any) {
    const int* resv = pool_->resv_count_row(slot_);
    for (int p = 0; p < topo::kNumPorts; ++p) any |= resv[p] != 0;
  }
  if (!any) return;
  for (int p = 0; p < topo::kNumPorts; ++p) {
    if (outputs_[static_cast<std::size_t>(p)].attached()) arbitrate_link(p, now);
  }
}

void Router::arbitrate_link(int p, Cycle now) {
  OutputController& out = outputs_[static_cast<std::size_t>(p)];
  bool* link_used = pool_->link_used(slot_, p);
  if (*link_used) return;
  const bool slot_reserved = out.reservations().any() && out.reservations().reserved_at(now);
  if (slot_reserved && !params_.reclaim_idle_slots) {
    // The reserved flit did not show; the cycle is lost to the reservation.
    ++out.stats.idle_reserved_cycles;
    return;
  }
  // Arbitrate among non-fresh stage registers; requests and priorities are
  // stack arrays (per-call vectors once dominated the hot-path profile).
  Flit* stage = pool_->stage(slot_, p);
  bool* full = pool_->stage_full(slot_, p);
  const bool* fresh = pool_->stage_fresh(slot_, p);
  std::uint8_t requests[topo::kNumPorts] = {};
  int priority[topo::kNumPorts] = {};
  int ready = 0;
  for (int i = 0; i < topo::kNumPorts; ++i) {
    if (full[i] && !fresh[i]) {
      requests[i] = 1;
      priority[i] = params_.priority_arbitration ? stage[i].priority : 0;
      ++ready;
    }
  }
  if (ready == 0) {
    // Idle link with credits to return: emit a credit-only flit (the
    // piggyback scheme's filler, costing a handful of control bits).
    if (params_.piggyback_credits && pool_->carry_count_row(slot_)[p] > 0) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(pool_->carry_pop(slot_, p));
      *link_used = true;
      ++out.stats.credit_only_flits;
      out.link->send(std::move(f));
    }
    return;
  }
  const int winner = params_.priority_arbitration
                         ? out.link_arb.arbitrate(requests, priority)
                         : out.link_arb.arbitrate_flat(requests);
  assert(winner >= 0);
  out.stats.contention_cycles += ready - 1;
  Flit f = std::move(stage[winner]);
  full[winner] = false;
  send_on_link(p, std::move(f), /*bypass=*/false);
}

void Router::switch_traversal(Cycle now) {
  for (int i = 0; i < topo::kNumPorts; ++i) {
    if (!inputs_[static_cast<std::size_t>(i)].attached() || *pool_->popped(slot_, i)) continue;
    // Row filter first (occupied + routed + VC granted), then the remaining
    // per-candidate checks against the output port's rows.
    const int* cnt = pool_->buf_count_row(slot_, i);
    const bool* routed = pool_->routed_row(slot_, i);
    const VcId* outvc = pool_->out_vc_row(slot_, i);
    const Cycle* routed_at = pool_->routed_at_row(slot_, i);
    const Port* outport = pool_->out_port_row(slot_, i);
    int requesters = 0;
    for (VcId v = 0; v < params_.vcs; ++v) {
      req_scratch_[v] = 0;
      prio_scratch_[v] = 0;
      if (cnt[v] == 0 || !routed[v] || outvc[v] == kInvalidVc) continue;
      // Pre-scheduled traffic moves only on its reserved slots (bypass
      // path); letting it use the dynamic path would reintroduce jitter.
      if (params_.exclusive_scheduled_vc && v == params_.scheduled_vc) continue;
      if (!params_.speculative && routed_at[v] >= now) continue;
      const int o = static_cast<int>(outport[v]);
      if (!outputs_[static_cast<std::size_t>(o)].attached()) continue;
      if (pool_->stage_full(slot_, o)[i]) continue;
      if (!has_credit(o, outvc[v])) continue;
      req_scratch_[v] = 1;
      prio_scratch_[v] =
          params_.priority_arbitration ? pool_->buf_front(slot_, i, v).priority : 0;
      ++requesters;
    }
    // Zero requesters: the arbiter would return -1 and leave its pointer
    // frozen (the semantics tests/test_router_units.cpp pins) — skip it.
    if (requesters == 0) continue;
    const int winner =
        params_.priority_arbitration
            ? switch_arbs_[static_cast<std::size_t>(i)].arbitrate(req_scratch_,
                                                                  prio_scratch_)
            : switch_arbs_[static_cast<std::size_t>(i)].arbitrate_flat(req_scratch_);
    if (winner < 0) continue;
    const VcId out_vc = outvc[winner];
    const Port out_port = outport[winner];
    consume_credit(static_cast<int>(out_port), out_vc);
    Flit f = take_flit(i, winner, out_port, out_vc);
    stage_push(static_cast<int>(out_port), i, std::move(f));
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
