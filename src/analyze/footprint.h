// Access-footprint model of one multi-shard kernel tick.
//
// The kernel's shard safety argument (sim/kernel.h) is a claim
// about *data flow*: every piece of state two shard workers both touch is a
// channel whose latency puts at least one barrier between the producing
// write and the consuming read. This model makes that data flow explicit so
// the claim can be machine-checked instead of hand-audited — the same
// trial-compute-then-prove discipline the CDG deadlock verifier applies to
// routing, applied to our own parallelism.
//
// The model enumerates, for a Config + ShardPartition, what
// core::Network::build registers. It does not keep a copy of the wiring: its
// channel states come from walking the same wiring plan Network::build
// builds (core::for_each_link), filed by the same rule (core::file_channel),
// so the proof covers the channels the network really creates.
//
//   components  every router, NIC, per-shard channel advancer, plus the
//               serial-phase globals (traffic clients/services/monitor and
//               the end-of-tick observer flush);
//   states      every piece of shared mutable state a tick touches: channel
//               delay lines (flit + credit per link, tile ports), per-node
//               router/NIC internals (arbiter pointers, buffers, stats),
//               per-node observer/tracer buffers, each shard's worklist
//               bitmaps and flit arena, and global accumulators (the NIC
//               register-write counter);
//   accesses    who reads/writes each state in which tick phase.
//
// Edges of the footprint graph are (writer, reader) pairs on one state; the
// latency label is the state's delay-line latency — the minimum number of
// barrier crossings separating producer from consumer. The analyzer
// (analyzer.h) walks this graph to prove race-freedom and the determinism
// obligations, and to score partition quality.
#pragma once

#include <string>
#include <vector>

#include "core/config.h"
#include "core/shard_partition.h"

namespace ocn::analyze {

/// Tick phases, in the order the sharded kernel executes them. Accesses in
/// the same parallel phase by different shards are concurrent; everything
/// else is ordered by the barriers between phases.
enum class Phase : int {
  kParallelStep = 0,  ///< phase A: shard workers step their components
  kSerialStep = 1,    ///< phase A tail: globals step on the calling thread
  kAdvance = 2,       ///< phase B: shard workers advance their channels
  kSerialFlush = 3,   ///< end of tick: observer/tracer buffers flush
};

const char* phase_name(Phase p);
/// True for phases executed concurrently by shard workers.
bool parallel_phase(Phase p);

enum class AccessKind { kRead, kWrite };

/// Shard id of work executed serially on the calling thread.
inline constexpr int kSerialShard = -1;

struct Component {
  std::string name;        ///< "router.3", "nic.3", "shard.1.advancer", "clients"
  int shard = kSerialShard;
  double work = 1.0;       ///< static per-tick work estimate (quality verdict)
};

/// One piece of shared mutable state.
struct State {
  std::string name;  ///< "chan.link:3:row+", "router.3.arb", "net.register_writes"

  /// Delay-line semantics: a value written in cycle t becomes readable in
  /// cycle t + latency, i.e. after `latency` advance barriers. Plain shared
  /// state has latency 0 — writes are visible to same-phase readers.
  int latency = 0;

  /// True for channel delay lines advanced in the kAdvance phase.
  bool channel = false;
  /// Executor of the advance (the shard whose worker calls advance()).
  int advance_shard = kSerialShard;
  /// True when the partition classifies this channel as shard-crossing and
  /// therefore advanced *unconditionally* at the barrier. A cross-shard
  /// channel left gated ("interior") would consult active(), which compares
  /// sent_ (written by the sender's shard) with retired_ (written by the
  /// receiver's shard) in the same phase, so its value is unordered — the
  /// analyzer rejects that shape.
  bool boundary = false;

  /// Relaxed-atomic accumulator whose parallel-phase mutations commute
  /// (counter increments): racing writers are benign, but any parallel-phase
  /// *read* would observe an unordered partial value.
  bool atomic_commutative = false;
};

struct Access {
  int component = -1;
  int state = -1;
  Phase phase = Phase::kParallelStep;
  AccessKind kind = AccessKind::kRead;
};

/// A named determinism obligation: a claim about the tick that must hold
/// for bit-identical N-shard execution, together with the states it covers.
/// The analyzer derives each state's proof from the access pattern alone
/// (shard-local / serial-phase / barrier slack / ordered flush / atomic
/// commutative); a state that fits no proof rule refutes the obligation.
struct ObligationSpec {
  std::string name;   ///< stable tag, e.g. "observer-flush-order"
  std::string claim;  ///< human-readable statement of the obligation
  std::vector<int> states;
};

struct FootprintModel {
  core::ShardPartition partition{core::ShardPartition::single(1)};
  core::Config config;

  std::vector<Component> components;
  std::vector<State> states;
  std::vector<Access> accesses;
  std::vector<ObligationSpec> obligations;

  int add_component(std::string name, int shard, double work);
  int add_state(State s);
  void access(int component, int state, Phase phase, AccessKind kind);

  /// Executor shard of an access: the component's shard for step phases,
  /// the state's advance_shard for kAdvance.
  int executor_shard(const Access& a) const;

  /// "router.3 (shard 0)" — witness-path rendering helpers.
  std::string describe_component(int id) const;
  std::string describe_state(int id) const;
};

/// Build the footprint of one tick of core::Network(config) under the given
/// partition: components in Network::build's registration order, one
/// channel state per channel of the wiring plan (core/wiring.h), in plan
/// order. Unlike the Network constructor this never rejects the configuration
/// (Config::validate is not consulted): unbuildable systems — a zero-latency
/// link, say — are modelled faithfully so the analyzer can *explain* what
/// breaks, the same stance verify::verify takes on dateline-free tori.
FootprintModel build_footprint(const core::Config& config,
                               const core::ShardPartition& partition);

/// Deliberate corruptions, used by the golden-rejection tests and the
/// ocn-analyze --break flag. Each produces a model whose flaw the analyzer
/// must catch — and whose dynamic counterpart demonstrably diverges
/// (tests/test_analyze.cpp runs both sides).
enum class BreakKind {
  /// Every cross-shard channel's latency forced to 0: same-cycle visibility
  /// across the barrier, the canonical shard race.
  kZeroLatencyCross,
  /// A parallel-phase component that mutates (and reads) one global
  /// non-atomic accumulator from every shard.
  kGlobalMutator,
  /// Cross-shard channels classified interior, so active() gates advance()
  /// although its two counters are written by two shards.
  kGatedBoundary,
  /// One boundary channel's receiver bit filed in the sender shard's due
  /// bitmap, so the receiver shard's advancer writes a word the sender
  /// shard's workers also write in phase B.
  kCrossShardWorklist,
  /// One flit arena shared by every shard's routers instead of one per
  /// shard (per RouterStatePool): routers of two shards allocate, edit and
  /// free in the same plain state in phase A.
  kSharedFlitArena,
};

const char* break_kind_name(BreakKind k);

void corrupt(FootprintModel& model, BreakKind kind);

}  // namespace ocn::analyze
