#include "sim/kernel.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>

#include "sim/sweep/thread_pool.h"

namespace ocn {

ChannelBase::ChannelBase(int latency, std::string name) : name_(std::move(name)) {
  if (latency < 1 || latency > kMaxLatency) {
    throw std::invalid_argument("channel latency must be in [1, " +
                                std::to_string(kMaxLatency) + "], got " +
                                std::to_string(latency));
  }
  slots_ = static_cast<std::int16_t>(latency + 1);
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
  if (live_word_ != nullptr) *live_word_ |= std::uint64_t{1} << live_shift_;
  return slot;
}

Kernel::Kernel(int shards) : shards_(static_cast<std::size_t>(shards < 1 ? 1 : shards)) {
  if (shards > 1) pool_ = std::make_unique<sweep::ThreadPool>(shards);
}

Kernel::~Kernel() = default;

void Kernel::add(Clockable* c, std::atomic<std::uint8_t>* wake, int width) {
  assert((wake != nullptr) == (width > 0));
  tail_.components.push_back({c, wake, width});
  prepared_ = false;
}

void Kernel::add(ChannelBase* ch, const Clockable* receiver) {
  tail_.interior.push_back(ch);
  tail_.interior_to.push_back(receiver);
  prepared_ = false;
}

void Kernel::add_to_shard(int shard, Clockable* c, std::atomic<std::uint8_t>* wake,
                          int width) {
  assert((wake != nullptr) == (width > 0));
  shards_.at(static_cast<std::size_t>(shard)).components.push_back({c, wake, width});
  prepared_ = false;
}

void Kernel::add_interior(int shard, ChannelBase* ch, const Clockable* receiver) {
  List& list = shards_.at(static_cast<std::size_t>(shard));
  list.interior.push_back(ch);
  list.interior_to.push_back(receiver);
  prepared_ = false;
}

void Kernel::add_boundary(int shard, ChannelBase* ch, const Clockable* receiver) {
  List& list = shards_.at(static_cast<std::size_t>(shard));
  list.boundary.push_back(ch);
  list.boundary_to.push_back(receiver);
  prepared_ = false;
}

namespace {

constexpr std::size_t kWordBits = 64;

/// A bitmap over `n` entries with every entry's bit set.
std::vector<std::uint64_t> all_set(std::size_t n) {
  std::vector<std::uint64_t> words((n + kWordBits - 1) / kWordBits, ~std::uint64_t{0});
  if (n % kWordBits != 0) words.back() = (std::uint64_t{1} << (n % kWordBits)) - 1;
  return words;
}

std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << (i % kWordBits); }

}  // namespace

void Kernel::prepare() {
  // Every shard component gets its due bit before any channel is mapped:
  // a channel's receiver index is read back from its receiver's bit.
  for (List& list : shards_) {
    list.due = all_set(list.components.size());
    for (std::size_t i = 0; i < list.components.size(); ++i) {
      Clockable* c = list.components[i].component;
      c->due_word_ = &list.due[i / kWordBits];
      c->due_bit_ = bit_of(i);
    }
  }
  for (const ComponentEntry& e : tail_.components) e.component->due_word_ = nullptr;

  for (List& list : shards_) {
    list.live = all_set(list.interior.size());
    list.interior_receiver.resize(list.interior.size());
    for (std::size_t i = 0; i < list.interior.size(); ++i) {
      ChannelBase* ch = list.interior[i];
      ch->live_word_ = &list.live[i / kWordBits];
      ch->live_shift_ = static_cast<std::uint8_t>(i % kWordBits);
      list.interior_receiver[i] = receiver_index(list, ch, list.interior_to[i]);
    }
    list.boundary_receiver.resize(list.boundary.size());
    for (std::size_t i = 0; i < list.boundary.size(); ++i) {
      list.boundary[i]->live_word_ = nullptr;
      list.boundary_receiver[i] = receiver_index(list, list.boundary[i], list.boundary_to[i]);
    }
  }
  for (std::size_t i = 0; i < tail_.interior.size(); ++i) {
    tail_.interior[i]->live_word_ = nullptr;
    receiver_index(tail_, tail_.interior[i], tail_.interior_to[i]);  // checks only
  }
  prepared_ = true;
}

int Kernel::receiver_index(const List& list, const ChannelBase* ch,
                           const Clockable* receiver) const {
  const auto refuse = [ch](const char* why) {
    throw std::logic_error("channel '" + ch->name() + "' " + why);
  };
  if (receiver == nullptr) {
    if (ch->wake_ != nullptr) refuse("stamps a wake byte but states no receiver");
    return -1;
  }
  // A tail component has no due bit: the tail is scanned every cycle. A
  // shard component's due word lies in its own list's bitmap.
  if (receiver->due_word_ == nullptr) return -1;
  const std::less<const void*> before;
  const std::uint64_t* first = list.due.data();
  if (before(receiver->due_word_, first) ||
      !before(receiver->due_word_, first + list.due.size())) {
    refuse("delivers into a component of another shard list; file it under its receiver's shard");
  }
  const auto index = static_cast<std::size_t>(receiver->due_word_ - first) * kWordBits +
                     static_cast<std::size_t>(std::countr_zero(receiver->due_bit_));
  const ComponentEntry& e = list.components[index];
  if (ch->wake_ != nullptr &&
      (before(ch->wake_, e.wake) || !before(ch->wake_, e.wake + e.wake_width))) {
    refuse("stamps a wake byte outside its receiver's wake row");
  }
  return static_cast<int>(index);
}

void Kernel::remove(Clockable* c) {
  if (in_tick_) {
    // A component may detach itself (or a peer) from inside step(); erasing
    // here would invalidate the iteration in step_tail(). Defer to
    // end_tick(), after the loops are done with the vectors.
    deferred_removals_.push_back(c);
    return;
  }
  std::erase_if(tail_.components, [c](const ComponentEntry& e) { return e.component == c; });
}

void Kernel::step_shard(List& list, Cycle now) {
  int stepped = 0;
  std::uint64_t* due = list.due.data();
  for (std::size_t w = 0; w < list.due.size(); ++w) {
    // `visited` covers the bits at or below the last visit, so re-reading
    // due[w] after each step picks up bits a step set above it.
    std::uint64_t visited = 0;
    for (std::uint64_t pending; (pending = due[w] & ~visited) != 0;) {
      const std::uint64_t bit = pending & (~pending + 1);
      visited |= bit | (bit - 1);
      const ComponentEntry& e =
          list.components[w * kWordBits + static_cast<std::size_t>(std::countr_zero(bit))];
      if (step_component_if_due(e, now)) {
        ++stepped;
      } else if (e.wake_width > 0) {
        due[w] &= ~bit;
      }
    }
  }
  list.stepped = stepped;
}

void Kernel::advance_shard(List& list) {
  int advanced = 0;
  std::uint64_t* due = list.due.data();
  const auto wake = [due](int receiver) {
    if (receiver >= 0) {
      const auto r = static_cast<std::size_t>(receiver);
      due[r / kWordBits] |= bit_of(r);
    }
  };
  for (std::size_t w = 0; w < list.live.size(); ++w) {
    // Phase B sets no live bit, so one read of the word suffices.
    std::uint64_t word = list.live[w];
    std::uint64_t still_live = word;
    while (word != 0) {
      const std::uint64_t bit = word & (~word + 1);
      word &= word - 1;
      const std::size_t i = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bit));
      ChannelBase* ch = list.interior[i];
      if (ch->active()) {
        if (ch->advance()) wake(list.interior_receiver[i]);
        ++advanced;
      }
      if (!ch->active()) still_live &= ~bit;
    }
    list.live[w] = still_live;
  }
  for (std::size_t i = 0; i < list.boundary.size(); ++i) {
    if (list.boundary[i]->advance()) wake(list.boundary_receiver[i]);
    ++advanced;
  }
  list.advanced = advanced;
}

void Kernel::step_tail(List& list, Cycle now) {
  int stepped = 0;
  for (const ComponentEntry& e : list.components) {
    if (step_component_if_due(e, now)) ++stepped;
  }
  list.stepped = stepped;
}

void Kernel::advance_tail(List& list) {
  int advanced = 0;
  for (ChannelBase* ch : list.interior) {
    if (ch->active()) {
      ch->advance();
      ++advanced;
    }
  }
  list.advanced = advanced;
}

std::vector<const Clockable*> Kernel::due_but_unlisted() const {
  std::vector<const Clockable*> out;
  if (!prepared_) return out;  // the next tick lists every entry
  for (const List& list : shards_) {
    for (std::size_t i = 0; i < list.components.size(); ++i) {
      const ComponentEntry& e = list.components[i];
      if ((list.due[i / kWordBits] & bit_of(i)) == 0 && component_due(e)) {
        out.push_back(e.component);
      }
    }
  }
  return out;
}

int Kernel::listed_channels() const {
  int n = 0;
  for (const List& list : shards_) {
    for (const std::uint64_t w : list.live) n += std::popcount(w);
  }
  return n;
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
  if (!prepared_) prepare();
  in_tick_ = true;
  // Runs on normal exit and on unwind alike (a step() that throws, or a
  // worker's exception rethrown by the pool), so a caught exception never
  // leaves later remove() calls deferred behind a tick that already ended.
  struct EndTick {
    Kernel& kernel;
    ~EndTick() { kernel.end_tick(); }
  } end_tick_guard{*this};

  const Cycle now = now_;
  for_each_shard([now](List& shard) { step_shard(shard, now); });
  step_tail(tail_, now);
  for_each_shard([](List& shard) { advance_shard(shard); });
  advance_tail(tail_);

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
