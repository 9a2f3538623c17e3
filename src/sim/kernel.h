// Two-phase synchronous cycle kernel.
//
// Components (Clockable) communicate exclusively through links: delay
// lines stored as rows of a LinkStore (sim/link_store.h). Within a cycle
// every component reads link outputs (the values that arrived this cycle)
// and writes link inputs (values that will arrive `latency` cycles later);
// the kernel then advances the links at once. Because no component ever
// observes another component's same-cycle writes, evaluation order is
// irrelevant and simulations are deterministic.
//
// Shards. The kernel keeps N shard lists (default 1) plus a serial tail.
// A shard list holds components with their wake rows and link stores; a
// store's rows are interior (both endpoints in the shard) or boundary
// (endpoints in two shards, filed under the receiver's shard), each with
// its receiver. The tail holds whatever is registered with a plain add():
// traffic clients, services, monitors, and the stores of tests. One tick is
//   phase A  every shard's listed components (see Worklists), then the
//            tail's components;
//   phase B  every shard store's listed interior rows and all its boundary
//            rows, then the tail stores' active rows;
//   then     the cycle-end hook, time, metrics and deferred removals.
// With one shard both phases run inline on the calling thread. With more,
// the kernel's own ThreadPool runs one worker per shard and the pool's join
// is the barrier between the phases. Every link has latency >= 1, so a
// value sent on cycle t is not visible before t+1, and the shards may step
// in any interleaving: an N-shard run is bit-identical to a 1-shard run.
// No byte of a store is written by two shards in one phase (see
// sim/link_store.h); boundary rows advance ungated because that is the
// shape the concurrency analyzer (src/analyze) proves.
//
// Hot path: a row's slots are addressed by the cycle (slot now mod
// (latency+1) is the output), so a receiver computes the address of its
// arrival from its own coordinates and an advance moves no payload: it
// clears the expiring output's engaged byte and reads the next one.
//
// One skip predicate (step_component_if_due): a component is due when any
// byte of its wake row is set or !idle_internal(). A row delivering a
// value stamps its receiver's arrival byte during its advance. The bytes
// also gate the receiver's own per-link probes: a step reads a link's slot
// only when that link's byte is set, clearing the byte as it consumes, so
// idle links cost one byte load. A component with no inbound links (a
// traffic harness, a chaos engine) registers a row of width 0 and is due
// exactly when !idle_internal().
// kernel.component_steps counts the steps the predicate lets through; the
// e13 baseline value-compares it.
//
// Worklists. A shard list does not evaluate the predicate for every entry:
// it keeps a due bitmap over its components, each of its stores keeps a
// live bitmap over the store's interior rows, and phases A and B visit
// only the set bits, in registration order. Phase A re-reads a word after
// each visit, so a bit set during the scan at a higher index is seen in
// the same cycle, as a linear scan would see it; one set at a lower index
// is seen next cycle.
// A due bit is set
//   - by a row advance that stamps a wake byte of the component. The
//     receiver is stated at attach() and checked, not inferred: the kernel
//     resolves it to its list index once, when it prepares the lists;
//   - by Clockable::mark_due(), which code that creates work for a
//     component outside that component's own step() must call (an inject
//     into a NIC's queue, a reservation written into a router's table);
//   - for every entry whenever the registrations change.
// A visited entry runs the unchanged predicate; its bit is cleared only
// when the predicate says "not due", so a stepped component is visited
// again next cycle, and one whose step() throws stays listed. Entries with
// a width-0 row are visited every cycle: the kernel cannot see when their
// internal state changes. A live bit is set by every send on an interior
// row (LinkStore::send) and cleared after phase B once no slot of the row
// is engaged. Boundary rows advance every cycle and the serial tail keeps
// a plain scan, so neither uses a bitmap. With mark_due() called where the
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
#include "sim/link_store.h"
#include "sim/types.h"

namespace ocn {

namespace sweep {
class ThreadPool;
}

/// Anything that does work once per clock cycle.
class Clockable {
 public:
  virtual ~Clockable() = default;
  /// Called once per cycle, after link outputs for `now` are visible.
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

/// A registered component plus its wake row: `wake_width` contiguous
/// arrival bytes (one per inbound link, stamped by the row's advance). The
/// kernel never clears the bytes — each byte is owned by the step code
/// that consumes its link, which clears it as it probes (so an
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

/// Owns nothing; sequences registered components and link stores. The caller
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
  /// every row delivering into `c` must be attached with one of them. A
  /// component with no inbound links passes no row.
  void add(Clockable* c, std::atomic<std::uint8_t>* wake = nullptr, int width = 0);
  /// A store advanced in the serial tail: every attached row, skipped
  /// while no slot is engaged. Attach its rows first (LinkStore::attach
  /// refuses once the store is registered).
  void add(LinkStore* store);

  /// As add(), on shard `shard`'s list. The row's bytes must be stamped
  /// only by links filed under the same shard (the component is their
  /// receiver), so a wake byte never crosses a shard.
  void add_to_shard(int shard, Clockable* c, std::atomic<std::uint8_t>* wake = nullptr,
                    int width = 0);
  /// The store of shard `shard`: its interior rows are skipped while no
  /// slot is engaged, its boundary rows advance every cycle. The first tick
  /// after any registration throws std::logic_error naming a row whose wake
  /// byte lies outside its receiver's wake row, whose receiver is on
  /// another shard list, or which stamps a wake byte but states no receiver.
  void add_to_shard(int shard, LinkStore* store);

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
  /// Interior rows on the shard stores' live worklists. After a tick it
  /// equals the number of interior rows with an engaged slot.
  int listed_channels() const;

  // --- observability ---------------------------------------------------------
  /// Attach a counter registry. The kernel registers its own counters
  /// (`kernel.cycles`, `kernel.component_steps`, `kernel.channel_advances`)
  /// and, when `sample_interval` > 0, bulk-samples the *whole* registry into
  /// interval_snapshots() every that many cycles. Cost while attached: one
  /// pointer test plus three counter increments per tick — nothing per
  /// component or per link, so observability stays off the hot path.
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
    std::vector<LinkStore*> stores;
    // Worklist of a shard list, sized by prepare(): bit i of `due` lists
    // components[i]. Each store's live bitmap lists its interior rows.
    std::vector<std::uint64_t> due;
    int stepped = 0;
    int advanced = 0;
  };

  /// Size the worklists after a registration change, list every entry,
  /// point each shard component at its bit and resolve every row's
  /// receiver to its list index.
  void prepare();
  /// The index in `list` of `receiver`, the component row `a` of `store`
  /// delivers into; -1 for none or a tail component. Throws as
  /// add_to_shard(int, LinkStore*) says.
  int receiver_index(const List& list, const LinkStore& store, const LinkStore::Attached& a,
                     const Clockable* receiver) const;
  static void step_shard(List& list, Cycle now);
  static void advance_shard(List& list, Cycle now);
  static void step_tail(List& list, Cycle now);
  static void advance_tail(List& list, Cycle now);
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
