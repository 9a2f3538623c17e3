// Two-phase synchronous cycle kernel.
//
// Components (Clockable) communicate exclusively through Channel<T> delay
// lines. Within a cycle every component reads channel outputs (the values
// that arrived this cycle) and writes channel inputs (values that will
// arrive `latency` cycles later); the kernel then advances all channels at
// once. Because no component ever observes another component's same-cycle
// writes, evaluation order is irrelevant and simulations are deterministic.
//
// Hot-path structure: channels are not virtual. ChannelBase carries a
// function pointer selected at construction (unit-latency channels get a
// two-slot swap with no deque traffic) plus an `active` flag so the kernel
// skips channels with nothing in flight.
//
// Components are skipped when stepping them would change nothing, by one
// of two rules (step_component_if_due):
//   * registered WITH a wake row (routers — the row lives in the
//     RouterStatePool): a channel delivering a value stamps its receiver's
//     arrival byte during its advance, and the kernel steps the component
//     only when some byte in the row is set or !idle_internal(). The bytes
//     also gate the receiver's own per-channel probes: a pipeline phase
//     touches a channel object only when that channel's byte is set,
//     clearing the byte as it consumes, so idle channels are never
//     pointer-chased;
//   * registered without one (NICs, traffic clients, services): the kernel
//     polls quiescent().
// kernel.component_steps counts the steps either rule lets through; the e13
// baseline value-compares it.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstddef>
#include <deque>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "sim/types.h"

namespace ocn {

/// Anything that does work once per clock cycle.
class Clockable {
 public:
  virtual ~Clockable() = default;
  /// Called once per cycle, after channel outputs for `now` are visible.
  virtual void step(Cycle now) = 0;
  /// True when step() would be an exact no-op this cycle (no arrivals on any
  /// input channel and no internal work pending). The kernel skips stepping
  /// quiescent components, so an implementation must only return true when
  /// skipping is indistinguishable from stepping — including statistics.
  /// The default keeps every component on the clock.
  virtual bool quiescent() const { return false; }
  /// The skip predicate for components registered with a wake row:
  /// internal work only, with arrivals covered by the row. Returning true
  /// with every row byte clear must mean step() would be an exact no-op.
  /// The default keeps it the same as quiescent().
  virtual bool idle_internal() const { return quiescent(); }
};

/// Non-virtual channel base so the kernel can advance heterogeneous channels
/// through one direct function-pointer call, and skip idle ones entirely.
///
/// `active_` is a relaxed atomic because a shard-boundary channel is written
/// by the sender's shard (send) while the receiver's shard reads/clears the
/// arriving value (take) in the same phase. There is never more than one
/// writer per phase, so plain relaxed loads/stores suffice; the sharded
/// kernel never *consults* a boundary channel's flag (it advances boundary
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
  /// owned by the receiver (RouterStatePool); in the sharded kernel a
  /// channel is always advanced by the receiver's shard (boundary channels
  /// are filed under shard_of(dst)), so stamping in phase B and
  /// reading/clearing in phase A never cross a shard — the phases' barrier
  /// orders them.
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

/// A registered component plus its optional wake row. With a null wake the
/// kernel polls quiescent(); with a row it uses the event-skip predicate: `wake_width` contiguous arrival bytes (one per
/// inbound channel, stamped by the channel's advance) cover arrivals, and
/// idle_internal() covers occupancy. The kernel never clears the bytes —
/// each byte is owned by the pipeline phase that consumes its channel, which
/// clears it as it probes (so an un-probed engaged arrival keeps its byte,
/// and the component stays due).
struct ComponentEntry {
  Clockable* component = nullptr;
  std::atomic<std::uint8_t>* wake = nullptr;
  int wake_width = 1;
};

/// The ONE skip-predicate implementation, shared by Kernel and
/// ShardedKernel so the two schedulers cannot drift. Returns true when the
/// component was stepped.
inline bool step_component_if_due(const ComponentEntry& e, Cycle now) {
  if (e.wake != nullptr) {
    bool arrivals = false;
    for (int i = 0; i < e.wake_width; ++i) {
      if (e.wake[i].load(std::memory_order_relaxed) != 0) {
        arrivals = true;
        break;
      }
    }
    if (!arrivals && e.component->idle_internal()) return false;
  } else if (e.component->quiescent()) {
    return false;
  }
  e.component->step(now);
  return true;
}

/// Owns nothing; sequences registered components and channels. The caller
/// (typically core::Network) owns the objects and guarantees they outlive
/// the kernel.
class Kernel {
 public:
  void add(Clockable* c) { components_.push_back({c, nullptr, 1}); }
  /// Register with an event-skip wake row of `width` arrival bytes; every
  /// channel delivering into `c` must have set_wake() wired to one of them
  /// (the router controllers wire this themselves in attach()).
  void add(Clockable* c, std::atomic<std::uint8_t>* wake, int width = 1) {
    components_.push_back({c, wake, width});
  }
  void add(ChannelBase* ch) { channels_.push_back(ch); }

  /// Unregister a component (used by detachable observers like the protocol
  /// monitor, whose lifetime is shorter than the network's). No-op when the
  /// component was never registered. Safe to call from inside a component's
  /// own step(): removal during an in-flight tick is deferred to the end of
  /// that tick so the component list is never mutated while iterated.
  void remove(Clockable* c);

  /// Run `cycles` cycles from the current time.
  void run(Cycle cycles);

  /// Advance exactly one cycle.
  void tick();

  Cycle now() const { return now_; }

  /// Components whose step() ran last tick (active-set instrumentation).
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
  friend class ShardedKernel;

  // tick() pieces, shared with ShardedKernel: the sharded kernel steps and
  // advances its own spatial partitions in parallel, then calls these to
  // step/advance whatever stayed registered here (global components like
  // traffic harnesses and monitors) and to close out the cycle with the
  // same bookkeeping — time, metrics counters, deferred removals.
  int step_components();
  int advance_channels();
  void finish_tick(int stepped, int advanced);

  std::vector<ComponentEntry> components_;
  std::vector<ChannelBase*> channels_;
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
