#include "router/input_controller.h"

#include <cassert>

#include "router/output_controller.h"
#include "sim/log.h"

namespace ocn::router {

using topo::Port;
using routing::TurnCode;

InputController::InputController(Port port, const RouterParams& params,
                                 RouterStatePool& pool, int slot)
    : port_(port),
      params_(params),
      discarding_(pool.discarding(slot, static_cast<int>(port))),
      count_row_(pool.buf_count_row(slot, static_cast<int>(port))),
      routed_row_(pool.routed_row(slot, static_cast<int>(port))),
      alloc_primed_row_(pool.alloc_primed_row(slot, static_cast<int>(port))),
      arrive_flit_(pool.arrival(slot, static_cast<int>(port),
                                RouterStatePool::kArriveFlit)),
      popped_(pool.popped(slot, static_cast<int>(port))),
      vc_flits_(static_cast<std::size_t>(params.vcs), 0) {
  vcs_.reserve(static_cast<std::size_t>(params.vcs));
  for (int v = 0; v < params.vcs; ++v) {
    vcs_.emplace_back(pool.vc_slice(slot, static_cast<int>(port), v));
  }
}

void InputController::attach(Channel<Flit>* in, Channel<Credit>* credit_upstream) {
  in_ = in;
  credit_upstream_ = credit_upstream;
  // Every construction path (Network wiring, standalone tests) goes through
  // attach, so the arrival byte is wired wherever the controller is fed.
  if (in_ != nullptr) in_->set_wake(arrive_flit_);
}

void InputController::accept_arrival() {
  if (in_ == nullptr) return;
  // Arrival gate: the byte is set iff the channel delivered this cycle, so
  // the (common) idle case is one contiguous-row byte load instead of a
  // probe of the heap-scattered channel object.
  if (arrive_flit_->load(std::memory_order_relaxed) == 0) return;
  arrive_flit_->store(0, std::memory_order_relaxed);
  // Process the arriving flit in place (receive + consume) instead of
  // take()ing it out: the buffered copy goes channel storage -> ring slab
  // directly, one 112-byte copy instead of two moves through a temporary.
  const std::optional<Flit>& arriving = in_->receive();
  if (!arriving.has_value()) return;
  const Flit& f = *arriving;
  // Harvest a piggybacked credit: it belongs to the co-located output
  // controller driving the reverse direction of this link.
  const std::int8_t carried = f.carried_credit_vc;
  if (carried >= 0) {
    assert(reverse_out_ != nullptr);
    reverse_out_->receive_credit(carried);
  }
  if (f.type == FlitType::kCreditOnly) {  // nothing to buffer
    in_->consume();
    return;
  }
  ++flits_arrived_;
  const VcId v = f.vc;
  assert(v >= 0 && v < num_vcs());
  VcBuffer& buf = vcs_[static_cast<std::size_t>(v)];

  if (params_.dropping()) {
    if (discarding_[v]) {
      // Mid-drop: discard through the tail.
      ++flits_dropped_;
      if (is_tail(f.type)) discarding_[v] = false;
      in_->consume();
      return;
    }
    if (is_head(f.type) &&
        buf.capacity() - buf.size() < f.packet_flits) {
      // Contention: drop the whole packet (space for the full packet is
      // required up front so wormholes never strand mid-packet).
      ++packets_dropped_;
      ++flits_dropped_;
      if (!is_tail(f.type)) discarding_[v] = true;
      OCN_TRACE("drop pkt %lld at %s vc %d", static_cast<long long>(f.packet),
                topo::port_name(port_), f.vc);
      in_->consume();
      return;
    }
  }

  ++buffer_writes_;
  ++vc_flits_[static_cast<std::size_t>(v)];
  buf.push(f);
  // The stored copy must not re-deliver the already-harvested credit.
  if (carried >= 0) buf.back().carried_credit_vc = -1;
  in_->consume();
}

void InputController::decode(VcBuffer& buf, Cycle now) {
  if (buf.routed || buf.empty()) return;
  Flit& head = buf.front();
  if (!is_head(head.type)) {
    // A body flit at the front of an unrouted VC would mean interleaved
    // packets on one VC — a protocol violation.
    assert(false && "body flit at front of unrouted VC");
    return;
  }
  assert(!head.route.empty() && "head flit arrived with an exhausted route");
  const std::uint8_t code = head.route.pop();
  if (port_ == Port::kTile) {
    // Injection hop: absolute direction code.
    buf.out_port = routing::injection_port(code);
  } else {
    buf.out_port = routing::apply_turn(port_, static_cast<TurnCode>(code));
  }
  buf.routed = true;
  buf.routed_at = now;
}

void InputController::decode_fronts(Cycle now) {
  // Row filter: only occupied, not-yet-routed VCs can decode. Same guard
  // decode() applies, read off the pool's contiguous rows.
  const int n = num_vcs();
  for (int v = 0; v < n; ++v) {
    if (count_row_[v] != 0 && !routed_row_[v]) {
      decode(vcs_[static_cast<std::size_t>(v)], now);
      // New head at the front: whatever the allocation stage cached about
      // the previous packet's request is stale.
      alloc_primed_row_[v] = false;
    }
  }
}

Flit InputController::pop(VcId v) {
  VcBuffer& buf = vcs_[static_cast<std::size_t>(v)];
  assert(!buf.empty());
  assert(!*popped_ && "one flit per input port per cycle");
  *popped_ = true;
  ++buffer_reads_;
  Flit f = buf.pop();
  if (is_tail(f.type)) buf.reset_packet_state();
  // Credit-based flow control returns the freed slot upstream: via the
  // reverse-direction carry queue when piggybacking, else on the dedicated
  // credit wire. In dropping mode there is no credit loop.
  if (!params_.dropping()) {
    if (params_.piggyback_credits) {
      assert(reverse_out_ != nullptr);
      reverse_out_->queue_carry(v);
    } else if (credit_upstream_ != nullptr) {
      credit_upstream_->send(Credit{v});
    }
  }
  return f;
}

}  // namespace ocn::router
