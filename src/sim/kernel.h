// Two-phase synchronous cycle kernel.
//
// Components (Clockable) communicate exclusively through Channel<T> delay
// lines. Within a cycle every component reads channel outputs (the values
// that arrived this cycle) and writes channel inputs (values that will
// arrive `latency` cycles later); the kernel then advances all channels at
// once. Because no component ever observes another component's same-cycle
// writes, evaluation order is irrelevant and simulations are deterministic.
//
// Shards. The kernel keeps N shard lists (default 1) plus a serial tail.
// A shard list holds components with their wake rows, interior channels
// (both endpoints in the shard) and boundary channels (endpoints in two
// shards). The tail holds whatever is registered with a plain add():
// traffic clients, services, monitors. One tick is
//   phase A  every shard's components, then the tail's components;
//   phase B  every shard's channels, then the tail's channels; interior and
//            tail channels are skipped while inactive, boundary channels
//            always advance;
//   then     the cycle-end hook, time, metrics and deferred removals.
// With one shard both phases run inline on the calling thread. With more,
// the kernel's own ThreadPool runs one worker per shard and the pool's join
// is the barrier between the phases. Every channel has latency >= 1, so a
// value sent on cycle t is not visible before t+1, and the shards may step
// in any interleaving: an N-shard run is bit-identical to a 1-shard run.
// Boundary channels always advance because their `active` flag is written
// by two shards in phase A; it is never consulted, and advance() recomputes
// it from the channel's own state.
//
// Hot-path structure: channels are not virtual. ChannelBase carries a
// function pointer selected at construction (unit-latency channels get a
// two-slot swap with no deque traffic) plus an `active` flag so the kernel
// skips channels with nothing in flight.
//
// One skip predicate (step_component_if_due): a component is due when any
// byte of its wake row is set or !idle_internal(). A channel delivering a
// value stamps its receiver's arrival byte during its advance. The bytes
// also gate the receiver's own per-channel probes: a step touches a channel
// object only when that channel's byte is set, clearing the byte as it
// consumes, so idle channels are never pointer-chased. A component with no
// inbound channels (a traffic harness, a chaos engine) registers a row of
// width 0 and is due exactly when !idle_internal().
// kernel.component_steps counts the steps the predicate lets through; the
// e13 baseline value-compares it.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "sim/types.h"

namespace ocn {

namespace sweep {
class ThreadPool;
}

/// Anything that does work once per clock cycle.
class Clockable {
 public:
  virtual ~Clockable() = default;
  /// Called once per cycle, after channel outputs for `now` are visible.
  virtual void step(Cycle now) = 0;
  /// True when, with every byte of the component's wake row clear, step()
  /// would be an exact no-op this cycle — including statistics. Arrivals
  /// are covered by the row; this covers internal work only. The default
  /// keeps the component on the clock.
  virtual bool idle_internal() const { return false; }
};

/// Non-virtual channel base so the kernel can advance heterogeneous channels
/// through one direct function-pointer call, and skip idle ones entirely.
///
/// `active_` is a relaxed atomic because a shard-boundary channel is written
/// by the sender's shard (send) while the receiver's shard reads/clears the
/// arriving value (take) in the same phase. There is never more than one
/// writer per phase, so plain relaxed loads/stores suffice; the kernel
/// never *consults* a boundary channel's flag (it advances boundary
/// channels unconditionally), so a transiently stale value is harmless.
class ChannelBase {
 public:
  void advance() { advance_fn_(this); }
  /// True when the channel has (or may have) values in flight; idle channels
  /// are skipped by Kernel::tick.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Event-skip wiring: stamp `*wake` (relaxed store of 1) whenever an
  /// advance leaves a value visible at the output — i.e. whenever the
  /// receiving component has an arrival to consume next cycle. The flag is
  /// owned by the receiver (a RouterStatePool row or the NIC); a channel is
  /// always advanced by the receiver's shard (boundary channels are filed
  /// under shard_of(receiver)), so stamping in phase B and reading/clearing
  /// in phase A never cross a shard — the phases' barrier orders them.
  void set_wake(std::atomic<std::uint8_t>* wake) { wake_ = wake; }

 protected:
  using AdvanceFn = void (*)(ChannelBase*);
  explicit ChannelBase(AdvanceFn fn) : advance_fn_(fn) {}
  ~ChannelBase() = default;  // never deleted through the base
  void set_active(bool a) { active_.store(a, std::memory_order_relaxed); }
  void notify_wake() {
    if (wake_ != nullptr) wake_->store(1, std::memory_order_relaxed);
  }

 private:
  AdvanceFn advance_fn_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint8_t>* wake_ = nullptr;
};

/// Unidirectional delay line carrying at most one value per cycle.
///
/// send(v) during cycle t makes v visible via receive() during cycle
/// t + latency. Sending twice in one cycle is a modelling error: it would
/// silently lose a flit in flight, so it is detected unconditionally (all
/// build types) and terminates with the channel name.
template <typename T>
class Channel final : public ChannelBase {
 public:
  explicit Channel(int latency = 1, std::string name = {})
      : ChannelBase(latency <= 1 ? &advance_unit : &advance_pipe),
        name_(std::move(name)),
        pipe_(latency > 0 ? static_cast<std::size_t>(latency - 1) : 0) {
    assert(latency >= 1 && "channels are registered; latency must be >= 1");
  }

  /// The value arriving this cycle, if any. May be called repeatedly.
  const std::optional<T>& receive() const { return out_; }

  /// Consume the arriving value (clears it so a second reader sees nothing).
  /// Also recomputes the active flag: once the output is taken the channel
  /// only has work left if values are still in flight, so the kernel must
  /// not burn an advance on a provably empty channel next tick.
  std::optional<T> take() {
    std::optional<T> v = std::move(out_);
    consume();
    return v;
  }

  /// Clear the arriving value without moving it out. Receivers that process
  /// the value in place via receive() (the router/NIC hot paths — saves one
  /// full copy of the payload per arrival) MUST call this afterwards; it is
  /// what take() does minus the move. A consume() with no value arriving is
  /// a semantic no-op (the flag recompute matches what advance() computed).
  void consume() {
    out_.reset();
    set_active(inflight_.load(std::memory_order_relaxed) > 0);
  }

  void send(T v) {
    if (pending_.has_value()) {
      std::fprintf(stderr,
                   "ocn: fatal: double send on channel '%s' in one cycle "
                   "(one value per channel per cycle)\n",
                   name_.empty() ? "<unnamed>" : name_.c_str());
      std::terminate();
    }
    pending_ = std::move(v);
    inflight_.store(inflight_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    ++sends_;
    set_active(true);
  }

  bool send_pending() const { return pending_.has_value(); }

  int latency() const { return static_cast<int>(pipe_.size()) + 1; }
  std::int64_t sends() const { return sends_; }
  const std::string& name() const { return name_; }

  /// Physical length of the wires this channel models, in mm. Used for
  /// wire-energy and duty-factor accounting. Zero for purely logical links.
  double length_mm = 0.0;

 private:
  // Latency-1 fast path: a two-slot swap, no deque involved.
  static void advance_unit(ChannelBase* base) {
    auto* self = static_cast<Channel*>(base);
    const bool arriving = self->pending_.has_value();
    self->out_.swap(self->pending_);
    self->pending_.reset();
    if (arriving) self->dec_inflight();
    self->set_active(self->inflight_.load(std::memory_order_relaxed) > 0 ||
                     self->out_.has_value());
    if (self->out_.has_value()) self->notify_wake();
  }

  static void advance_pipe(ChannelBase* base) {
    auto* self = static_cast<Channel*>(base);
    const bool arriving = self->pipe_.front().has_value();
    self->out_ = std::move(self->pipe_.front());
    self->pipe_.pop_front();
    self->pipe_.push_back(std::move(self->pending_));
    self->pending_.reset();
    if (arriving) self->dec_inflight();
    self->set_active(self->inflight_.load(std::memory_order_relaxed) > 0 ||
                     self->out_.has_value());
    if (self->out_.has_value()) self->notify_wake();
  }

  void dec_inflight() {
    inflight_.store(inflight_.load(std::memory_order_relaxed) - 1,
                    std::memory_order_relaxed);
  }

  std::string name_;
  std::deque<std::optional<T>> pipe_;  // latency-1 in-flight slots
  std::optional<T> pending_;           // written this cycle
  std::optional<T> out_;               // visible this cycle
  std::atomic<int> inflight_{0};       // engaged values in pipe_ + pending_
  std::int64_t sends_ = 0;
};

/// A registered component plus its wake row: `wake_width` contiguous
/// arrival bytes (one per inbound channel, stamped by the channel's
/// advance). The kernel never clears the bytes — each byte is owned by the
/// step code that consumes its channel, which clears it as it probes (so an
/// un-probed engaged arrival keeps its byte, and the component stays due).
struct ComponentEntry {
  Clockable* component = nullptr;
  std::atomic<std::uint8_t>* wake = nullptr;
  int wake_width = 0;
};

/// The kernel's one skip predicate: step the component when any byte of
/// its wake row is set or it has internal work. Returns true when the
/// component was stepped.
inline bool step_component_if_due(const ComponentEntry& e, Cycle now) {
  bool arrivals = false;
  for (int i = 0; i < e.wake_width; ++i) {
    if (e.wake[i].load(std::memory_order_relaxed) != 0) {
      arrivals = true;
      break;
    }
  }
  if (!arrivals && e.component->idle_internal()) return false;
  e.component->step(now);
  return true;
}

/// Owns nothing; sequences registered components and channels. The caller
/// (typically core::Network) owns the objects and guarantees they outlive
/// the kernel.
class Kernel {
 public:
  /// `shards` shard lists (at least 1). More than one spawns a worker pool
  /// with one worker per shard.
  explicit Kernel(int shards = 1);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Register in the serial tail, with a wake row of `width` arrival bytes;
  /// every channel delivering into `c` must have set_wake() wired to one of
  /// them. A component with no inbound channels passes no row.
  void add(Clockable* c, std::atomic<std::uint8_t>* wake = nullptr, int width = 0);
  /// A channel advanced in the serial tail, skipped while inactive.
  void add(ChannelBase* ch);

  /// As add(), on shard `shard`'s list. The row's bytes must be stamped
  /// only by channels filed under the same shard (the component is their
  /// receiver), so a wake byte never crosses a shard.
  void add_to_shard(int shard, Clockable* c, std::atomic<std::uint8_t>* wake = nullptr,
                    int width = 0);
  /// A channel whose sender and receiver both live in `shard`; skipped
  /// while inactive.
  void add_interior(int shard, ChannelBase* ch);
  /// A channel crossing shards, filed under its receiver's shard and
  /// advanced every cycle.
  void add_boundary(int shard, ChannelBase* ch);

  /// Unregister a serial-tail component (used by detachable observers like
  /// the protocol monitor, whose lifetime is shorter than the network's).
  /// No-op when the component was never registered. Safe to call from
  /// inside a tail component's step(): removal during an in-flight tick is
  /// deferred to the end of that tick so the list is never mutated while
  /// iterated.
  void remove(Clockable* c);

  /// Run on the calling thread at the end of every tick, after both phases
  /// and before time advances (so now() still names the cycle). Used to
  /// flush per-node observer buffers in node order.
  void set_cycle_end_hook(std::function<void()> hook) { cycle_end_hook_ = std::move(hook); }

  /// Run `cycles` cycles from the current time.
  void run(Cycle cycles);

  /// Advance exactly one cycle. If a step() throws, the exception
  /// propagates with now() unchanged, the kernel no longer in a tick and
  /// every deferred removal applied.
  void tick();

  Cycle now() const { return now_; }

  /// Components whose step() ran last tick, over every shard and the tail
  /// (active-set instrumentation).
  int last_tick_stepped() const { return last_tick_stepped_; }

  // --- observability ---------------------------------------------------------
  /// Attach a counter registry. The kernel registers its own counters
  /// (`kernel.cycles`, `kernel.component_steps`, `kernel.channel_advances`)
  /// and, when `sample_interval` > 0, bulk-samples the *whole* registry into
  /// interval_snapshots() every that many cycles. Cost while attached: one
  /// pointer test plus three counter increments per tick — nothing per
  /// component or per channel, so observability stays off the hot path.
  /// Pass nullptr to detach.
  void attach_metrics(obs::CounterRegistry* registry, Cycle sample_interval = 0);

  obs::CounterRegistry* metrics() const { return metrics_; }

  /// Bulk-sample the attached registry, stamped with the current cycle.
  /// Returns an empty snapshot when no registry is attached.
  obs::MetricsSnapshot sample() const;

  /// Snapshots collected by the periodic sampler (empty unless
  /// attach_metrics was called with sample_interval > 0).
  const std::vector<obs::MetricsSnapshot>& interval_snapshots() const {
    return interval_snapshots_;
  }

 private:
  /// One shard's (or the tail's) registrations and its last-tick counts.
  struct List {
    std::vector<ComponentEntry> components;
    std::vector<ChannelBase*> interior;
    std::vector<ChannelBase*> boundary;
    int stepped = 0;
    int advanced = 0;
  };

  static void step_list(List& list, Cycle now);
  static void advance_list(List& list);
  template <typename F>
  void for_each_shard(const F& body);
  void end_tick();

  std::vector<List> shards_;
  List tail_;
  std::unique_ptr<sweep::ThreadPool> pool_;  // null with one shard
  std::function<void()> cycle_end_hook_;
  Cycle now_ = 0;
  int last_tick_stepped_ = 0;
  bool in_tick_ = false;
  std::vector<Clockable*> deferred_removals_;

  obs::CounterRegistry* metrics_ = nullptr;
  Cycle metrics_interval_ = 0;
  obs::Counter* cycles_counter_ = nullptr;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* advances_counter_ = nullptr;
  std::vector<obs::MetricsSnapshot> interval_snapshots_;
};

}  // namespace ocn
