#include "sim/kernel.h"

#include <cassert>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "sim/sweep/thread_pool.h"

namespace ocn {

ChannelBase::ChannelBase(int latency, std::string name) : name_(std::move(name)) {
  if (latency < 1) {
    throw std::invalid_argument("channel latency must be >= 1, got " +
                                std::to_string(latency));
  }
  slots_ = latency + 1;
  full_ = std::make_unique<std::uint8_t[]>(static_cast<std::size_t>(slots_));
}

int ChannelBase::claim_send_slot() {
  const int slot = send_slot();
  if (full_[slot] != 0) {
    std::fprintf(stderr,
                 "ocn: fatal: double send on channel '%s' in one cycle "
                 "(one value per channel per cycle)\n",
                 name_.empty() ? "<unnamed>" : name_.c_str());
    std::terminate();
  }
  full_[slot] = 1;
  ++sent_;
  return slot;
}

Kernel::Kernel(int shards) : shards_(static_cast<std::size_t>(shards < 1 ? 1 : shards)) {
  if (shards > 1) pool_ = std::make_unique<sweep::ThreadPool>(shards);
}

Kernel::~Kernel() = default;

void Kernel::add(Clockable* c, std::atomic<std::uint8_t>* wake, int width) {
  assert((wake != nullptr) == (width > 0));
  tail_.components.push_back({c, wake, width});
}

void Kernel::add(ChannelBase* ch) { tail_.interior.push_back(ch); }

void Kernel::add_to_shard(int shard, Clockable* c, std::atomic<std::uint8_t>* wake,
                          int width) {
  assert((wake != nullptr) == (width > 0));
  shards_.at(static_cast<std::size_t>(shard)).components.push_back({c, wake, width});
}

void Kernel::add_interior(int shard, ChannelBase* ch) {
  shards_.at(static_cast<std::size_t>(shard)).interior.push_back(ch);
}

void Kernel::add_boundary(int shard, ChannelBase* ch) {
  shards_.at(static_cast<std::size_t>(shard)).boundary.push_back(ch);
}

void Kernel::remove(Clockable* c) {
  if (in_tick_) {
    // A component may detach itself (or a peer) from inside step(); erasing
    // here would invalidate the iteration in step_list(). Defer to
    // end_tick(), after the loops are done with the vectors.
    deferred_removals_.push_back(c);
    return;
  }
  std::erase_if(tail_.components, [c](const ComponentEntry& e) { return e.component == c; });
}

void Kernel::step_list(List& list, Cycle now) {
  int stepped = 0;
  for (const ComponentEntry& e : list.components) {
    if (step_component_if_due(e, now)) ++stepped;
  }
  list.stepped = stepped;
}

void Kernel::advance_list(List& list) {
  int advanced = 0;
  for (ChannelBase* ch : list.interior) {
    if (ch->active()) {
      ch->advance();
      ++advanced;
    }
  }
  for (ChannelBase* ch : list.boundary) {
    ch->advance();
    ++advanced;
  }
  list.advanced = advanced;
}

template <typename F>
void Kernel::for_each_shard(const F& body) {
  if (!pool_) {
    body(shards_.front());
    return;
  }
  // The pool's join is the phase barrier: every write of this phase
  // happens-before the caller continues.
  pool_->for_each_index(shards_.size(), [&](std::size_t s) { body(shards_[s]); });
}

void Kernel::end_tick() {
  in_tick_ = false;
  if (!deferred_removals_.empty()) {
    for (Clockable* c : deferred_removals_) remove(c);
    deferred_removals_.clear();
  }
}

void Kernel::tick() {
  in_tick_ = true;
  // Runs on normal exit and on unwind alike (a step() that throws, or a
  // worker's exception rethrown by the pool), so a caught exception never
  // leaves later remove() calls deferred behind a tick that already ended.
  struct EndTick {
    Kernel& kernel;
    ~EndTick() { kernel.end_tick(); }
  } end_tick_guard{*this};

  const Cycle now = now_;
  for_each_shard([now](List& shard) { step_list(shard, now); });
  step_list(tail_, now);
  for_each_shard([](List& shard) { advance_list(shard); });
  advance_list(tail_);

  int stepped = tail_.stepped;
  int advanced = tail_.advanced;
  for (const List& shard : shards_) {
    stepped += shard.stepped;
    advanced += shard.advanced;
  }
  if (cycle_end_hook_) cycle_end_hook_();

  last_tick_stepped_ = stepped;
  ++now_;
  if (metrics_) {
    cycles_counter_->inc();
    steps_counter_->inc(stepped);
    advances_counter_->inc(advanced);
    if (metrics_interval_ > 0 && now_ % metrics_interval_ == 0) {
      interval_snapshots_.push_back(metrics_->snapshot(now_));
    }
  }
}

void Kernel::attach_metrics(obs::CounterRegistry* registry, Cycle sample_interval) {
  metrics_ = registry;
  metrics_interval_ = sample_interval;
  if (metrics_) {
    cycles_counter_ = &metrics_->counter("kernel.cycles");
    steps_counter_ = &metrics_->counter("kernel.component_steps");
    advances_counter_ = &metrics_->counter("kernel.channel_advances");
  } else {
    cycles_counter_ = steps_counter_ = advances_counter_ = nullptr;
  }
}

obs::MetricsSnapshot Kernel::sample() const {
  return metrics_ ? metrics_->snapshot(now_) : obs::MetricsSnapshot{};
}

void Kernel::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) tick();
}

}  // namespace ocn
