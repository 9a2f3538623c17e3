#include "router/output_controller.h"

#include <bit>
#include <cassert>

namespace ocn::router {

OutputController::OutputController(topo::Port port, const RouterParams& params,
                                   RouterStatePool& pool, int slot)
    : port_(port),
      params_(params),
      credits_(pool.credits(slot, static_cast<int>(port))),
      vc_alloc_(pool, slot, static_cast<int>(port), params.enforce_vc_parity),
      reservations_(params.reservation_frame, pool, slot, static_cast<int>(port)),
      carry_ring_(pool.carry_ring(slot, static_cast<int>(port))),
      carry_head_(pool.carry_head(slot, static_cast<int>(port))),
      carry_count_(pool.carry_count(slot, static_cast<int>(port))),
      carry_cap_(pool.carry_capacity()),
      stage_flits_(pool.stage(slot, static_cast<int>(port))),
      stage_full_(pool.stage_full(slot, static_cast<int>(port))),
      stage_fresh_(pool.stage_fresh(slot, static_cast<int>(port))),
      link_arb_(topo::kNumPorts),
      arrive_credit_(pool.arrival(slot, static_cast<int>(port),
                                  RouterStatePool::kArriveCredit)),
      link_used_(pool.link_used(slot, static_cast<int>(port))) {
  if (params.exclusive_scheduled_vc) {
    vc_alloc_.set_excluded(params.scheduled_vc, true);
  }
}

void OutputController::attach(Channel<Flit>* link, Channel<Credit>* credit_downstream,
                              double length_mm) {
  link_ = link;
  credit_downstream_ = credit_downstream;
  length_mm_ = length_mm;
  // Every construction path (Network wiring, standalone tests) goes through
  // attach, so the arrival byte is wired wherever credits return.
  if (credit_downstream_ != nullptr) credit_downstream_->set_wake(arrive_credit_);
}

void OutputController::process_credits() {
  if (credit_downstream_ == nullptr) return;
  // Arrival gate: the byte is set iff the channel delivered this cycle, so
  // the (common) idle case is one contiguous-row byte load instead of a
  // probe of the heap-scattered channel object.
  if (arrive_credit_->load(std::memory_order_relaxed) == 0) return;
  arrive_credit_->store(0, std::memory_order_relaxed);
  const std::optional<Credit>& credit = credit_downstream_->receive();
  if (!credit.has_value()) return;
  if (!params_.dropping()) {  // dropping mode: drain, no credit loop
    auto& c = credits_[credit->vc];
    ++c;
    assert(c <= params_.buffer_depth && "credit overflow: more credits than buffer slots");
  }
  credit_downstream_->consume();
}

void OutputController::receive_credit(VcId vc) {
  auto& c = credits_[vc];
  ++c;
  assert(c <= params_.buffer_depth && "credit overflow via piggyback path");
}

bool OutputController::has_credit(VcId vc) const {
  if (params_.dropping()) return true;  // no credit loop in dropping mode
  return credits_[vc] > 0;
}

void OutputController::consume_credit(VcId vc) {
  if (params_.dropping()) return;
  auto& c = credits_[vc];
  assert(c > 0);
  --c;
}

void OutputController::stage_push(int input, Flit f) {
  assert(!stage_full_[input] && "output stage slot occupied");
  stage_flits_[input] = std::move(f);
  stage_full_[input] = true;
  stage_fresh_[input] = true;
}

void OutputController::send_on_link(Flit f, bool bypass) {
  assert(link_ != nullptr);
  assert(!*link_used_);
  *link_used_ = true;
  if (params_.piggyback_credits && *carry_count_ > 0) {
    f.carried_credit_vc = static_cast<std::int8_t>(carry_pop());
  }
  ++flits_sent_;
  if (is_tail(f.type) && vc_alloc_.is_allocated(f.vc)) {
    vc_alloc_.release(f.vc);
  }
  const int active_bits = kControlBits + f.data_bits();
  active_bits_sent_ += active_bits;
  // Toggle accounting: Hamming distance of the active data bits against the
  // previous frame, plus a control-field estimate (half the control bits).
  {
    int toggles = kControlBits / 2;
    if (has_last_sent_) {
      const int words = (f.data_bits() + 63) / 64;
      for (int w = 0; w < words; ++w) {
        std::uint64_t diff = f.data[static_cast<std::size_t>(w)] ^
                             last_sent_.data[static_cast<std::size_t>(w)];
        if (w == words - 1 && f.data_bits() % 64 != 0) {
          diff &= (std::uint64_t{1} << (f.data_bits() % 64)) - 1;
        }
        toggles += std::popcount(diff);
      }
    } else {
      toggles += f.data_bits() / 2;  // first frame: assume half the bits move
    }
    toggled_bits_ += toggles;
    if (port_ != topo::Port::kTile) {
      toggled_bit_mm_ += static_cast<double>(toggles) * length_mm_;
    }
    last_sent_ = f;
    has_last_sent_ = true;
  }
  if (port_ != topo::Port::kTile) {
    ++f.hops;
    f.link_mm += length_mm_;
    active_bit_mm_ += static_cast<double>(active_bits) * length_mm_;
  }
  if (transform_ != nullptr) transform_->apply(f);
  if (tracer_) tracer_(f, bypass);
  if (monitor_) monitor_(f, bypass);
  link_->send(std::move(f));
}

void OutputController::send_bypass(Flit f) {
  ++bypass_flits_;
  send_on_link(std::move(f), /*bypass=*/true);
}

void OutputController::arbitrate_link(Cycle now) {
  if (link_ == nullptr || *link_used_) return;
  const bool slot_reserved = reservations_.any() && reservations_.reserved_at(now);
  if (slot_reserved && !params_.reclaim_idle_slots) {
    // The reserved flit did not show; the cycle is lost to the reservation.
    ++idle_reserved_cycles_;
    return;
  }
  // Stack scratch + raw arbiter overload: this runs per output port per
  // cycle and used to allocate two vectors per call.
  std::uint8_t requests[topo::kNumPorts] = {};
  int priority[topo::kNumPorts] = {};
  int ready = 0;
  for (int i = 0; i < topo::kNumPorts; ++i) {
    if (stage_full_[i] && !stage_fresh_[i]) {
      requests[i] = 1;
      priority[i] = params_.priority_arbitration ? stage_flits_[i].priority : 0;
      ++ready;
    }
  }
  if (ready == 0) {
    // Idle link with credits to return: emit a credit-only flit (the
    // piggyback scheme's filler, costing a handful of control bits).
    if (params_.piggyback_credits && *carry_count_ > 0) {
      Flit f;
      f.type = FlitType::kCreditOnly;
      f.size_code = 0;
      f.carried_credit_vc = static_cast<std::int8_t>(carry_pop());
      *link_used_ = true;
      ++credit_only_flits_;
      link_->send(std::move(f));
    }
    return;
  }
  const int winner = params_.priority_arbitration
                         ? link_arb_.arbitrate(requests, priority)
                         : link_arb_.arbitrate_flat(requests);
  assert(winner >= 0);
  contention_cycles_ += ready - 1;
  Flit f = std::move(stage_flits_[winner]);
  stage_full_[winner] = false;
  send_on_link(std::move(f), /*bypass=*/false);
}

}  // namespace ocn::router
