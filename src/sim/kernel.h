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
// shards), each channel with its receiver. The tail holds whatever is
// registered with a plain add():
// traffic clients, services, monitors. One tick is
//   phase A  every shard's listed components (see Worklists), then the
//            tail's components;
//   phase B  every shard's listed interior channels and all its boundary
//            channels, then the tail's active channels;
//   then     the cycle-end hook, time, metrics and deferred removals.
// With one shard both phases run inline on the calling thread. With more,
// the kernel's own ThreadPool runs one worker per shard and the pool's join
// is the barrier between the phases. Every channel has latency >= 1, so a
// value sent on cycle t is not visible before t+1, and the shards may step
// in any interleaving: an N-shard run is bit-identical to a 1-shard run.
// No channel field is written by two shards in one phase (see ChannelBase);
// boundary channels advance ungated because that is the shape the
// concurrency analyzer (src/analyze) proves.
//
// Hot path: every channel is a ring of latency+1 slots advanced by one
// untyped, non-virtual ChannelBase::advance(); active() is two counters.
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
//
// Worklists. A shard list does not evaluate the predicate for every entry:
// it keeps a due bitmap over its components and a live bitmap over its
// interior channels, and phases A and B visit only the set bits, in
// registration order. Phase A re-reads a word after each visit, so a bit
// set during the scan at a higher index is seen in the same cycle, as a
// linear scan would see it; one set at a lower index is seen next cycle.
// A due bit is set
//   - by a channel advance that stamps a wake byte of the component. The
//     receiver is stated at registration and checked, not inferred: the
//     list keeps its index (read from its due bit), so the channel itself
//     carries no receiver pointer;
//   - by Clockable::mark_due(), which code that creates work for a
//     component outside that component's own step() must call (an inject
//     into a NIC's queue, a reservation written into a router's table);
//   - for every entry whenever the registrations change.
// A visited entry runs the unchanged predicate; its bit is cleared only
// when the predicate says "not due", so a stepped component is visited
// again next cycle, and one whose step() throws stays listed. Entries with
// a width-0 row are visited every cycle: the kernel cannot see when their
// internal state changes. A live bit is set by every send on the channel
// (claim_send_slot) and cleared after phase B once active() is false.
// Boundary channels advance every cycle and the serial tail keeps a plain
// scan, so neither keeps a bitmap. With mark_due() called where the
// contract asks, the predicate still decides every step, so the bitmaps
// change no result, only which entries are looked at: an idle fabric costs
// the kernel one word load per 64 entries. due_but_unlisted() referees the
// contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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
  /// keeps the component on the clock. On a shard list the answer may turn
  /// from true to false only through the component's own step(), an
  /// arrival, or a mark_due() call: the kernel stops asking once it is
  /// true (a time-based wake-up must keep answering false while it waits).
  virtual bool idle_internal() const { return false; }

  /// Put the component back on its shard's worklist: call it wherever
  /// work is created for the component outside its own step() (a packet
  /// queued from a client, a reservation written by another component).
  /// Must run on the component's own shard in phase A, in the serial tail
  /// or between ticks, and only while the kernel it is registered with
  /// lives. A no-op for tail components and for components not registered
  /// yet, since those are visited every cycle or on their first tick
  /// anyway.
  void mark_due() {
    if (due_word_ != nullptr) *due_word_ |= due_bit_;
  }

 private:
  friend class Kernel;
  std::uint64_t* due_word_ = nullptr;  // this entry's word of its list's due bitmap
  std::uint64_t due_bit_ = 0;
};

/// Untyped half of a channel: the ring's bookkeeping, so the kernel advances
/// every channel through one direct, non-virtual call and skips idle ones.
///
/// A channel of latency L is a ring of L+1 slots, one register per pipeline
/// stage plus the output. Slot head_ is the output; send() fills slot
/// (head_ + L) mod (L+1). Within phase A the sender touches only the send
/// slot, its engaged byte and sent_, and the receiver only the output slot,
/// its byte and retired_: L >= 1 keeps the two slots apart, and head_ moves
/// only in phase B, so a shard-boundary channel needs no atomics.
class ChannelBase {
 public:
  /// End of cycle: retire the output slot (an unconsumed value expires), step
  /// head_ on, stamp the wake byte if a value arrives. No payload moves.
  /// Returns true when a value arrived (the receiver has work next cycle).
  bool advance() {
    consume();
    head_ = static_cast<std::int16_t>(head_ + 1 == slots_ ? 0 : head_ + 1);
    if (full_[head_] == 0) return false;
    notify_wake();
    return true;
  }

  /// Clear the arriving value, if any. In-place receivers (receive(), the
  /// router/NIC hot paths) MUST call this; take() does it for them.
  void consume() {
    if (full_[head_] != 0) {
      full_[head_] = 0;
      ++retired_;
    }
  }

  /// True while a value is in flight or visible (else Kernel::tick skips the
  /// channel); two counters in the object, so the test never touches the ring.
  bool active() const { return sent_ != retired_; }

  /// True when a value was sent this cycle.
  bool send_pending() const { return full_[send_slot()] != 0; }

  int latency() const { return slots_ - 1; }
  /// The ring position is 16 bits wide, which keeps the channel small.
  static constexpr int kMaxLatency = 32766;
  std::int64_t sends() const { return sent_; }
  const std::string& name() const { return name_; }

  /// Event-skip wiring: stamp `*wake` (relaxed store of 1) whenever an
  /// advance leaves a value visible at the output — i.e. whenever the
  /// receiving component has an arrival to consume next cycle. The flag is
  /// owned by the receiver (a RouterStatePool row or the NIC); a channel is
  /// always advanced by the receiver's shard (boundary channels are filed
  /// under shard_of(receiver)), so stamping in phase B and reading/clearing
  /// in phase A never cross a shard — the phases' barrier orders them.
  void set_wake(std::atomic<std::uint8_t>* wake) { wake_ = wake; }

 protected:
  /// Throws std::invalid_argument unless 1 <= latency <= kMaxLatency: a
  /// zero-latency channel would couple same-cycle steps and break
  /// determinism.
  ChannelBase(int latency, std::string name);
  ~ChannelBase() = default;  // never deleted through the base

  int send_slot() const { return head_ == 0 ? slots_ - 1 : head_ - 1; }
  /// Mark the send slot engaged, set the channel's live bit (interior
  /// channels of a shard list) and return the slot; terminates on a second
  /// send in one cycle.
  int claim_send_slot();

  std::unique_ptr<std::uint8_t[]> full_;  // engaged byte per slot
  std::int16_t head_ = 0;

 private:
  void notify_wake() {
    if (wake_ != nullptr) wake_->store(1, std::memory_order_relaxed);
  }

  friend class Kernel;

  std::int16_t slots_ = 0;
  std::uint8_t live_shift_ = 0;  // this channel's bit in *live_word_
  std::int64_t sent_ = 0;
  std::int64_t retired_ = 0;
  std::atomic<std::uint8_t>* wake_ = nullptr;
  /// This channel's word of its list's live bitmap; null unless the channel
  /// is interior to a shard list. Written by the sender in phase A, which
  /// for an interior channel runs on the advancing shard.
  std::uint64_t* live_word_ = nullptr;
  std::string name_;
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
      : ChannelBase(latency, std::move(name)),
        ring_(std::make_unique<T[]>(static_cast<std::size_t>(latency) + 1)) {}

  /// The value arriving this cycle, or nullptr. May be called repeatedly.
  const T* receive() const { return full_[head_] != 0 ? &ring_[head_] : nullptr; }

  /// Move the arriving value out and consume it.
  std::optional<T> take() {
    if (full_[head_] == 0) return std::nullopt;
    std::optional<T> v(std::move(ring_[head_]));
    consume();
    return v;
  }

  /// Copy `v` into the send slot (one copy: a caller's flit is read in
  /// place, never passed through a by-value temporary).
  void send(const T& v) { ring_[claim_send_slot()] = v; }

 private:
  std::unique_ptr<T[]> ring_;
};

// 64x64 fabrics hold ~49k channels; the live-bit location is the only
// per-channel cost of the worklists (the receiver index lives in the list),
// and it fits in the 88 bytes a 96-byte allocation holds. A Channel's size
// does not depend on T: the ring is a separate block.
static_assert(sizeof(Channel<int>) <= 88, "keep Channel<T> within 88 bytes");

/// A registered component plus its wake row: `wake_width` contiguous
/// arrival bytes (one per inbound channel, stamped by the channel's
/// advance). The kernel never clears the bytes — each byte is owned by the
/// step code that consumes its channel, which clears it as it probes (so an
/// un-probed engaged arrival keeps its byte, and the component stays due).
/// On a shard list the entry's index is also its bit in the due bitmap; a
/// width-0 entry's bit is never cleared.
struct ComponentEntry {
  Clockable* component = nullptr;
  std::atomic<std::uint8_t>* wake = nullptr;
  int wake_width = 0;
};

/// The kernel's one skip predicate: any byte of the wake row is set or the
/// component has internal work.
inline bool component_due(const ComponentEntry& e) {
  for (int i = 0; i < e.wake_width; ++i) {
    if (e.wake[i].load(std::memory_order_relaxed) != 0) return true;
  }
  return !e.component->idle_internal();
}

/// Step the component when component_due() holds. Returns true when the
/// component was stepped.
inline bool step_component_if_due(const ComponentEntry& e, Cycle now) {
  if (!component_due(e)) return false;
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
  /// `receiver` is the component it delivers into (null: none, as for a
  /// test reading the channel directly), here and in the two below.
  void add(ChannelBase* ch, const Clockable* receiver);

  /// As add(), on shard `shard`'s list. The row's bytes must be stamped
  /// only by channels filed under the same shard (the component is their
  /// receiver), so a wake byte never crosses a shard.
  void add_to_shard(int shard, Clockable* c, std::atomic<std::uint8_t>* wake = nullptr,
                    int width = 0);
  /// A channel whose sender and `receiver` both live in `shard`; skipped
  /// while inactive.
  void add_interior(int shard, ChannelBase* ch, const Clockable* receiver);
  /// A channel crossing shards, filed under its `receiver`'s shard and
  /// advanced every cycle. The first tick after any registration throws
  /// std::logic_error naming a channel whose wake byte lies outside its
  /// receiver's wake row, or whose receiver is on another shard list.
  void add_boundary(int shard, ChannelBase* ch, const Clockable* receiver);

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

  /// Referee for the mark_due() call sites: the shard components the skip
  /// predicate would step now whose due bit is clear, in shard and
  /// registration order. Between ticks it is empty unless some code created
  /// work for a component without calling mark_due(). Costs one predicate
  /// evaluation per shard component.
  std::vector<const Clockable*> due_but_unlisted() const;
  /// Interior channels on the shards' live worklists. After a tick it
  /// equals the number of active interior channels.
  int listed_channels() const;

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
    std::vector<const Clockable*> interior_to;  // receivers, as registered
    std::vector<const Clockable*> boundary_to;
    // Worklists of a shard list, sized by prepare(): bit i of `due` lists
    // components[i], bit i of `live` lists interior[i]. The receiver
    // arrays give the components index a channel's arrival wakes (-1: a
    // tail component or none).
    std::vector<std::uint64_t> due;
    std::vector<std::uint64_t> live;
    std::vector<int> interior_receiver;
    std::vector<int> boundary_receiver;
    int stepped = 0;
    int advanced = 0;
  };

  /// Size the worklists after a registration change, list every entry and
  /// point each shard component and interior channel at its bit.
  void prepare();
  /// The index in `list` of `receiver`, the component `ch` delivers into;
  /// -1 for none or a tail component. Throws as add_boundary() says.
  int receiver_index(const List& list, const ChannelBase* ch, const Clockable* receiver) const;
  static void step_shard(List& list, Cycle now);
  static void advance_shard(List& list);
  static void step_tail(List& list, Cycle now);
  static void advance_tail(List& list);
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
  bool prepared_ = false;  // worklists match the registrations
  std::vector<Clockable*> deferred_removals_;

  obs::CounterRegistry* metrics_ = nullptr;
  Cycle metrics_interval_ = 0;
  obs::Counter* cycles_counter_ = nullptr;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* advances_counter_ = nullptr;
  std::vector<obs::MetricsSnapshot> interval_snapshots_;
};

}  // namespace ocn
