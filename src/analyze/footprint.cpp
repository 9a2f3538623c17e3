#include "analyze/footprint.h"

#include <utility>

#include "core/wiring.h"

namespace ocn::analyze {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kParallelStep: return "parallel step";
    case Phase::kSerialStep: return "serial step";
    case Phase::kAdvance: return "channel advance";
    case Phase::kSerialFlush: return "serial flush";
  }
  return "?";
}

bool parallel_phase(Phase p) {
  return p == Phase::kParallelStep || p == Phase::kAdvance;
}

const char* break_kind_name(BreakKind k) {
  switch (k) {
    case BreakKind::kZeroLatencyCross: return "zero-latency-cross";
    case BreakKind::kGlobalMutator: return "global-mutator";
    case BreakKind::kGatedBoundary: return "gated-boundary";
    case BreakKind::kCrossShardWorklist: return "cross-shard-worklist";
    case BreakKind::kSharedFlitArena: return "shared-flit-arena";
  }
  return "?";
}

int FootprintModel::add_component(std::string name, int shard, double work) {
  components.push_back(Component{std::move(name), shard, work});
  return static_cast<int>(components.size()) - 1;
}

int FootprintModel::add_state(State s) {
  states.push_back(std::move(s));
  return static_cast<int>(states.size()) - 1;
}

void FootprintModel::access(int component, int state, Phase phase, AccessKind kind) {
  accesses.push_back(Access{component, state, phase, kind});
}

int FootprintModel::executor_shard(const Access& a) const {
  // A channel's advance runs on its own advancing shard. An arrival-byte
  // stamp (kAdvance write to a non-channel state) runs on whatever shard's
  // advancer issued it — the component's shard — which is how a mis-filed
  // channel is caught: its stamp lands on a wake byte owned by another
  // shard.
  if (a.phase == Phase::kAdvance &&
      states[static_cast<std::size_t>(a.state)].channel) {
    return states[static_cast<std::size_t>(a.state)].advance_shard;
  }
  return components[static_cast<std::size_t>(a.component)].shard;
}

std::string FootprintModel::describe_component(int id) const {
  const Component& c = components[static_cast<std::size_t>(id)];
  if (c.shard == kSerialShard) return c.name + " (serial)";
  return c.name + " (shard " + std::to_string(c.shard) + ")";
}

std::string FootprintModel::describe_state(int id) const {
  const State& s = states[static_cast<std::size_t>(id)];
  std::string d = s.name;
  if (s.channel) {
    d += " [latency " + std::to_string(s.latency) +
         (s.boundary ? ", boundary" : ", interior") + "]";
  } else if (s.atomic_commutative) {
    d += " [atomic accumulator]";
  } else if (s.latency == 0) {
    d += " [plain state]";
  }
  return d;
}

namespace {

// Static per-tick work estimates for the quality verdict. Unitless; chosen
// so a router (which sweeps every port's VC state each active cycle)
// dominates a NIC, and a channel advance is the cheap fast-path test.
double router_work(const core::Config& c) {
  return static_cast<double>(topo::kNumPorts * c.router.vcs);
}
constexpr double kNicWork = 4.0;
constexpr double kChannelWork = 1.0;

}  // namespace

FootprintModel build_footprint(const core::Config& config,
                               const core::ShardPartition& partition) {
  FootprintModel m;
  m.partition = partition;
  m.config = config;

  const auto topo = config.make_topology();
  const int n = topo->num_nodes();
  const int shards = partition.shards();

  // An access both read and written in one phase, and a plain state.
  const auto read_write = [&m](int component, int state, Phase phase) {
    m.access(component, state, phase, AccessKind::kRead);
    m.access(component, state, phase, AccessKind::kWrite);
  };
  const auto plain = [&m](std::string name, int shard) {
    return m.add_state(State{std::move(name), 0, false, shard, false, false});
  };
  const auto per_node = [n] { return std::vector<int>(static_cast<std::size_t>(n)); };
  const auto per_shard = [shards] { return std::vector<int>(static_cast<std::size_t>(shards)); };

  // --- components, mirroring Network::build registration order -------------
  std::vector<int> nic_of = per_node();
  std::vector<int> router_of = per_node();
  for (NodeId i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const int s = partition.shard_of(i);
    nic_of[k] = m.add_component("nic." + std::to_string(i), s, kNicWork);
    router_of[k] = m.add_component("router." + std::to_string(i), s, router_work(config));
  }
  // Per-shard channel advancers (phase B executors).
  std::vector<int> advancer = per_shard();
  for (int s = 0; s < shards; ++s) {
    advancer[static_cast<std::size_t>(s)] =
        m.add_component("shard." + std::to_string(s) + ".advancer", s, 0.0);
  }
  // Serial-phase globals: traffic clients/services/monitor (whatever is
  // registered in the global kernel steps here), and the end-of-tick
  // observer/tracer flush the sharded network runs in node order.
  const int clients = m.add_component("clients", kSerialShard, 0.0);
  const int flusher = m.add_component("observer-flush", kSerialShard, 0.0);

  // --- per-node internal state ---------------------------------------------
  // router.N.pool is the node's RouterStatePool slot: the SoA rows holding
  // every per-VC field (buffer rings of flit handles, routing decisions,
  // credits, the VC-allocated masks, the stage handles, per-cycle
  // transients) that the router's pipeline phases read and write. One
  // state suffices because the whole slot has one owner — the router
  // component on the node's shard. The flits those handles name live in
  // the shard's arena (shard.S.flit_arena, below), which all of the
  // shard's routers share.
  std::vector<int> arb_state = per_node();
  std::vector<int> router_state = per_node();
  std::vector<int> nic_state = per_node();
  std::vector<int> router_wake = per_node();
  std::vector<int> nic_wake = per_node();
  std::vector<int> delivery_buf = per_node();
  std::vector<int> trace_buf = per_node();
  for (NodeId i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const std::string node = std::to_string(i);
    const int s = partition.shard_of(i);
    arb_state[k] = plain("router." + node + ".arb", kSerialShard);
    router_state[k] = plain("router." + node + ".pool", kSerialShard);
    nic_state[k] = plain("nic." + node + ".state", kSerialShard);
    // Per-port arrival bytes (the pool's wake row / the NIC's arrival
    // flags): stamped by the phase-B advance of each incoming channel,
    // scanned by the kernel's event-skip test and read/cleared by the
    // receiving component in phase A. The stamping accesses are added by
    // add_channel below; here the receiver's own step accesses.
    router_wake[k] = plain("router." + node + ".wake_row", s);
    nic_wake[k] = plain("nic." + node + ".wake", s);
    delivery_buf[k] = plain("nic." + node + ".delivery_buffer", kSerialShard);
    trace_buf[k] = plain("router." + node + ".trace_buffer", kSerialShard);

    const int nic = nic_of[k];
    const int rtr = router_of[k];
    // Routers own their arbiter/allocator rotation pointers and pipeline
    // state outright; NICs own their queues, stats and delivery path. The
    // NIC's register-write filter pokes its own router's reservation tables
    // (same node, hence same shard).
    read_write(rtr, arb_state[k], Phase::kParallelStep);
    read_write(rtr, router_state[k], Phase::kParallelStep);
    m.access(nic, router_state[k], Phase::kParallelStep, AccessKind::kWrite);
    read_write(nic, nic_state[k], Phase::kParallelStep);
    // Delivery observer callbacks land in the node's buffer during the
    // parallel phase; tracer hooks likewise per router. Both flush serially.
    // The receiver probes its arrival bytes and clears them as it consumes
    // (read + write, phase A).
    read_write(rtr, router_wake[k], Phase::kParallelStep);
    read_write(nic, nic_wake[k], Phase::kParallelStep);
    m.access(nic, delivery_buf[k], Phase::kParallelStep, AccessKind::kWrite);
    m.access(rtr, trace_buf[k], Phase::kParallelStep, AccessKind::kWrite);
    m.access(flusher, delivery_buf[k], Phase::kSerialFlush, AccessKind::kRead);
    m.access(flusher, trace_buf[k], Phase::kSerialFlush, AccessKind::kRead);
    // The serial-phase globals drive NICs (injection) and read stats.
    read_write(clients, nic_state[k], Phase::kSerialStep);
  }

  // --- global accumulators ---------------------------------------------------
  // NIC register-write filters bump one shared counter from the parallel
  // phase: modelled as the atomic commutative accumulator it is.
  const int reg_counter = m.add_state(
      State{"net.register_writes_applied", 0, false, kSerialShard, false, true});
  for (const int nic : nic_of) m.access(nic, reg_counter, Phase::kParallelStep, AccessKind::kWrite);
  m.access(clients, reg_counter, Phase::kSerialStep, AccessKind::kRead);
  // The harness/monitor's own state (RNGs, fold buffers) lives with the
  // serial clients component.
  const int harness_state = plain("global.harness", kSerialShard);
  read_write(clients, harness_state, Phase::kSerialStep);

  // --- worklists --------------------------------------------------------------
  // Each shard list's due bitmap (over its components) and live bitmap (over
  // its interior channels), plain words (sim/kernel.h). The shard's own
  // worker reads and clears them: the phase-A scan of the due words and the
  // phase-B walk of the live words, both modelled on the shard's advancer.
  // The other writers are added below: a NIC's mark_due() on itself and on
  // its router (phase A), the serial clients' injections (serial phase), a
  // sender's live bit (phase A) and an advance's wake stamp (phase B).
  std::vector<int> due_bits = per_shard();
  std::vector<int> live_bits = per_shard();
  for (int s = 0; s < shards; ++s) {
    const auto k = static_cast<std::size_t>(s);
    const std::string shard = "shard." + std::to_string(s);
    due_bits[k] = plain(shard + ".due_bits", s);
    live_bits[k] = plain(shard + ".live_bits", s);
    read_write(advancer[k], due_bits[k], Phase::kParallelStep);
    m.access(advancer[k], live_bits[k], Phase::kAdvance, AccessKind::kWrite);
  }
  // --- flit arenas -----------------------------------------------------------
  // One RouterStatePool per shard, so one arena per shard: every router of
  // shard S allocates arriving flits in it, edits them in place, copies them
  // onto its links and frees them, all in its own phase-A step. Nothing
  // else touches it — a flit leaves the arena by value, on a channel.
  std::vector<int> flit_arenas = per_shard();
  for (int s = 0; s < shards; ++s) {
    flit_arenas[static_cast<std::size_t>(s)] =
        plain("shard." + std::to_string(s) + ".flit_arena", s);
  }
  for (NodeId i = 0; i < n; ++i) {
    read_write(router_of[static_cast<std::size_t>(i)],
               flit_arenas[static_cast<std::size_t>(partition.shard_of(i))],
               Phase::kParallelStep);
  }

  for (NodeId i = 0; i < n; ++i) {
    const int due = due_bits[static_cast<std::size_t>(partition.shard_of(i))];
    m.access(nic_of[static_cast<std::size_t>(i)], due, Phase::kParallelStep,
             AccessKind::kWrite);
    m.access(clients, due, Phase::kSerialStep, AccessKind::kWrite);
  }

  // --- channels --------------------------------------------------------------
  // One state per channel of the wiring plan Network::build builds, in plan
  // order: sender (write, phase A), receiver (read, phase A) and the phase-B
  // advance by the shard core::file_channel names. A link's credit channel
  // runs from its `to` end back to `from`. Each advance also stamps the
  // receiver's arrival byte (ChannelBase::notify_wake), a phase-B write to
  // its wake state that the shard-locality check folds in: that makes the
  // receiver-shard filing a proven property rather than a comment.
  std::vector<int> chan_states;
  const auto component = [&](const core::LinkEnd& end) {
    return (end.nic ? nic_of : router_of)[static_cast<std::size_t>(end.node)];
  };
  const auto wake_of = [&](const core::LinkEnd& end) {
    return (end.nic ? nic_wake : router_wake)[static_cast<std::size_t>(end.node)];
  };
  const auto add_channel = [&](const std::string& name, int latency,
                               const core::LinkEnd& sender, const core::LinkEnd& receiver) {
    const core::Filing filing = core::file_channel(partition, sender.node, receiver.node);
    const int adv = advancer[static_cast<std::size_t>(filing.shard)];
    const int snd = component(sender);
    const int id =
        m.add_state(State{"chan." + name, latency, true, filing.shard, filing.boundary, false});
    chan_states.push_back(id);
    m.access(snd, id, Phase::kParallelStep, AccessKind::kWrite);
    m.access(component(receiver), id, Phase::kParallelStep, AccessKind::kRead);
    m.access(adv, id, Phase::kAdvance, AccessKind::kWrite);
    m.access(adv, wake_of(receiver), Phase::kAdvance, AccessKind::kWrite);
    // The same stamp lists the receiver in its shard's due bitmap; a send on
    // an interior channel lists the channel in its shard's live bitmap.
    m.access(adv, due_bits[static_cast<std::size_t>(filing.shard)], Phase::kAdvance,
             AccessKind::kWrite);
    if (!filing.boundary) {
      m.access(snd, live_bits[static_cast<std::size_t>(filing.shard)], Phase::kParallelStep,
               AccessKind::kWrite);
    }
    m.components[static_cast<std::size_t>(adv)].work += kChannelWork;
  };
  core::for_each_link(config, *topo, [&](const core::Link& link) {
    add_channel(link.flit_name, link.latency, link.from, link.to);
    add_channel(link.credit_name, link.latency, link.to, link.from);
  });

  // --- determinism obligations ----------------------------------------------
  m.obligations.push_back(ObligationSpec{
      "arbiter-pointer-ownership",
      "arbiter and allocator rotation pointers are touched only by their "
      "router's shard",
      arb_state});
  m.obligations.push_back(ObligationSpec{
      "observer-flush-order",
      "delivery-observer callbacks buffer per node and flush serially in "
      "node order after the barrier",
      delivery_buf});
  m.obligations.push_back(ObligationSpec{
      "tracer-flush-order",
      "trace events buffer per router and flush serially in node order "
      "after the barrier",
      trace_buf});
  {
    ObligationSpec stats;
    stats.name = "stats-folding";
    stats.claim =
        "per-node statistics are folded by serial-phase components in a "
        "fixed global order; the one parallel-phase accumulator commutes";
    stats.states.push_back(reg_counter);
    stats.states.push_back(harness_state);
    m.obligations.push_back(std::move(stats));
  }
  m.obligations.push_back(ObligationSpec{
      "channel-barrier-slack",
      "every channel either stays inside one shard or crosses the barrier "
      "with >= 1 cycle of slack and an unconditional advance",
      chan_states});
  {
    // The event-skip hybrid's correctness hinges on receiver-shard filing:
    // the phase-B advance that stamps an arrival byte must run on the same
    // shard whose phase-A step reads and clears it next cycle.
    ObligationSpec wake;
    wake.name = "arrival-byte-filing";
    wake.claim =
        "per-port arrival bytes are stamped only by phase-B advances of the "
        "receiving component's own shard (receiver-shard channel filing) and "
        "read/cleared by that component in phase A";
    wake.states.reserve(static_cast<std::size_t>(2 * n));
    for (NodeId i = 0; i < n; ++i) {
      wake.states.push_back(router_wake[static_cast<std::size_t>(i)]);
      wake.states.push_back(nic_wake[static_cast<std::size_t>(i)]);
    }
    m.obligations.push_back(std::move(wake));
  }
  {
    ObligationSpec worklists;
    worklists.name = "worklist-filing";
    worklists.claim =
        "each shard's due and live bitmap words are written in the parallel "
        "phases only by that shard's components and advancer (mark_due, "
        "sends, wake stamps, clears), and otherwise only by the serial "
        "clients";
    worklists.states = due_bits;
    worklists.states.insert(worklists.states.end(), live_bits.begin(), live_bits.end());
    m.obligations.push_back(std::move(worklists));
  }
  m.obligations.push_back(ObligationSpec{
      "flit-arena-ownership",
      "each shard's flit arena (the flits its routers' input rings and stage "
      "registers hold by handle) is allocated, edited and freed only by that "
      "shard's routers in the parallel step phase",
      flit_arenas});

  return m;
}

void corrupt(FootprintModel& model, BreakKind kind) {
  switch (kind) {
    case BreakKind::kZeroLatencyCross:
      for (State& s : model.states) {
        if (s.channel && s.boundary) s.latency = 0;
      }
      return;
    case BreakKind::kGlobalMutator: {
      // A per-shard "stats scraper" stepped inside the parallel phase,
      // all writing one plain global accumulator.
      const int global = model.add_state(
          State{"global.mutable_stats", 0, false, kSerialShard, false, false});
      for (int s = 0; s < model.partition.shards(); ++s) {
        const int c = model.add_component(
            "shard." + std::to_string(s) + ".stats_scraper", s, 0.0);
        model.access(c, global, Phase::kParallelStep, AccessKind::kRead);
        model.access(c, global, Phase::kParallelStep, AccessKind::kWrite);
      }
      // Fold the corrupted state into the stats obligation so the verdict
      // names the obligation it breaks.
      for (ObligationSpec& ob : model.obligations) {
        if (ob.name == "stats-folding") ob.states.push_back(global);
      }
      return;
    }
    case BreakKind::kGatedBoundary:
      for (State& s : model.states) {
        if (s.channel && s.boundary) s.boundary = false;
      }
      return;
    case BreakKind::kCrossShardWorklist: {
      const auto named = [](const auto& items, const std::string& name) {
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (items[i].name == name) return static_cast<int>(i);
        }
        return -1;
      };
      // The first boundary channel and the shard of its sender (the
      // component writing it in phase A).
      for (std::size_t sid = 0; sid < model.states.size(); ++sid) {
        const State& s = model.states[sid];
        if (!s.channel || !s.boundary) continue;
        for (const Access& a : model.accesses) {
          if (a.state != static_cast<int>(sid) || a.phase != Phase::kParallelStep ||
              a.kind != AccessKind::kWrite) {
            continue;
          }
          const int sender_shard = model.components[static_cast<std::size_t>(a.component)].shard;
          const int advancer = named(
              model.components, "shard." + std::to_string(s.advance_shard) + ".advancer");
          const int due =
              named(model.states, "shard." + std::to_string(sender_shard) + ".due_bits");
          if (advancer >= 0 && due >= 0) {
            model.access(advancer, due, Phase::kAdvance, AccessKind::kWrite);
          }
          return;
        }
      }
      return;
    }
    case BreakKind::kSharedFlitArena: {
      // One arena for the whole network: re-point every access to a
      // shard's arena at a single state, the layout a global pool would be.
      const int shared = model.add_state(
          State{"global.flit_arena", 0, false, kSerialShard, false, false});
      for (Access& a : model.accesses) {
        const std::string& name = model.states[static_cast<std::size_t>(a.state)].name;
        if (name.starts_with("shard.") && name.ends_with(".flit_arena")) a.state = shared;
      }
      for (ObligationSpec& ob : model.obligations) {
        if (ob.name == "flit-arena-ownership") ob.states.push_back(shared);
      }
      return;
    }
  }
}

}  // namespace ocn::analyze
