#include "analyze/analyzer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ocn::analyze {

using verify::Finding;
using verify::Severity;

const char* proof_name(Proof p) {
  switch (p) {
    case Proof::kShardLocal: return "shard-local";
    case Proof::kSerialPhase: return "serial-phase";
    case Proof::kOrderedFlush: return "ordered-flush";
    case Proof::kBarrierSlack: return "barrier-slack";
    case Proof::kAtomicCommutative: return "atomic-commutative";
    case Proof::kReadShared: return "read-shared";
    case Proof::kRefuted: return "refuted";
  }
  return "?";
}

bool AnalysisReport::ok() const {
  for (const Finding& f : findings) {
    if (f.severity == Severity::kError) return false;
  }
  return suppressed_findings == 0;
}

namespace {

/// Per-state access summary extracted in one pass over the model.
struct StateUse {
  std::vector<int> par_writes;   ///< kParallelStep write access indices
  std::vector<int> par_reads;    ///< kParallelStep read access indices
  bool flush_read = false;       ///< read during kSerialFlush
  bool serial_access = false;    ///< any kSerialStep/kSerialFlush access
  std::vector<int> par_shards;   ///< distinct executor shards, kParallelStep
};

void note_shard(std::vector<int>& shards, int s) {
  if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
    shards.push_back(s);
  }
}

struct Analysis {
  const FootprintModel& m;
  AnalysisReport& report;
  std::vector<StateUse> use;
  std::vector<Proof> proof;

  void add_finding(Severity severity, std::string code, std::string message) {
    if (static_cast<int>(report.findings.size()) < AnalysisReport::kMaxFindings) {
      report.findings.push_back(Finding{severity, std::move(code), std::move(message)});
    } else {
      ++report.suppressed_findings;
    }
  }

  /// "A (shard 0) --write[parallel step]--> S --read[parallel step]--> B
  /// (shard 1)" — the witness path's spine. The second access is labelled
  /// with its own kind: a write-write pair prints "--write[" twice.
  std::string edge_path(int sid, int writer_access, int other_access) const {
    const Access& w = m.accesses[static_cast<std::size_t>(writer_access)];
    const Access& o = m.accesses[static_cast<std::size_t>(other_access)];
    const char* other_kind = o.kind == AccessKind::kRead ? " --read[" : " --write[";
    return m.describe_component(w.component) + " --write[" +
           phase_name(w.phase) + "]--> " + m.describe_state(sid) + other_kind +
           phase_name(o.phase) + "]--> " + m.describe_component(o.component);
  }

  /// A parallel writer and a parallel access from a different shard, for
  /// witness rendering; {-1,-1} when none exists.
  std::pair<int, int> cross_pair(int sid) const {
    const StateUse& u = use[static_cast<std::size_t>(sid)];
    for (const int w : u.par_writes) {
      const int ws = m.executor_shard(m.accesses[static_cast<std::size_t>(w)]);
      for (const int r : u.par_reads) {
        if (m.executor_shard(m.accesses[static_cast<std::size_t>(r)]) != ws) {
          return {w, r};
        }
      }
      for (const int w2 : u.par_writes) {
        if (m.executor_shard(m.accesses[static_cast<std::size_t>(w2)]) != ws) {
          return {w, w2};
        }
      }
    }
    return {-1, -1};
  }

  Proof classify_channel(int sid) {
    const State& s = m.states[static_cast<std::size_t>(sid)];
    const StateUse& u = use[static_cast<std::size_t>(sid)];
    const bool cross = u.par_shards.size() > 1;
    if (!cross) {
      if (s.latency < 1) {
        add_finding(Severity::kError, "zero-latency-channel",
                    "zero-latency coupling: " +
                        (u.par_writes.empty() || u.par_reads.empty()
                             ? m.describe_state(sid)
                             : edge_path(sid, u.par_writes.front(),
                                         u.par_reads.front())) +
                        ": the receiver observes the sender's same-cycle "
                        "write, so the result depends on component step "
                        "order");
        return Proof::kRefuted;
      }
      return Proof::kShardLocal;
    }
    if (s.latency < 1) {
      const auto [w, r] = cross_pair(sid);
      add_finding(Severity::kError, "cross-shard-race",
                  "cross-shard race: " + edge_path(sid, w, r) +
                      ": the write is visible in the cycle it is made — 0 "
                      "barrier crossings of slack between producer and "
                      "consumer (>= 1 required)");
      return Proof::kRefuted;
    }
    if (!s.boundary) {
      const auto [w, r] = cross_pair(sid);
      std::string path = w >= 0 && r >= 0 ? edge_path(sid, w, r)
                                          : m.describe_state(sid);
      add_finding(Severity::kError, "gated-boundary-channel",
                  "gated boundary channel: " + path +
                      ": classified interior, so active() gates advance() — "
                      "but active() compares sent_, written by the sender's "
                      "shard, with retired_, written by the receiver's shard, "
                      "in the same phase, so its value is unordered; "
                      "cross-shard channels must advance unconditionally");
      return Proof::kRefuted;
    }
    return Proof::kBarrierSlack;
  }

  Proof classify_atomic(int sid) {
    const StateUse& u = use[static_cast<std::size_t>(sid)];
    if (!u.par_reads.empty()) {
      const int r = u.par_reads.front();
      add_finding(
          Severity::kError, "atomic-parallel-read",
          "atomic accumulator read in parallel phase: " +
              m.describe_component(
                  m.accesses[static_cast<std::size_t>(r)].component) +
              " reads " + m.describe_state(sid) +
              " during the parallel phase and observes an unordered partial "
              "value; reads must wait for a serial phase");
      return Proof::kRefuted;
    }
    if (!u.par_writes.empty()) return Proof::kAtomicCommutative;
    return Proof::kSerialPhase;
  }

  Proof classify_plain(int sid) {
    const StateUse& u = use[static_cast<std::size_t>(sid)];
    if (u.par_shards.empty()) return Proof::kSerialPhase;
    if (u.par_shards.size() > 1) {
      if (u.par_writes.empty()) return Proof::kReadShared;
      const auto [w, r] = cross_pair(sid);
      add_finding(Severity::kError, "shard-crossing-mutable-state",
                  "shard-crossing mutable state: " +
                      (w >= 0 && r >= 0 ? edge_path(sid, w, r)
                                        : m.describe_state(sid)) +
                      ": plain shared state accessed by two shards in the "
                      "same phase with at least one write — unordered, and "
                      "a data race once the shards run on real threads");
      return Proof::kRefuted;
    }
    if (!u.par_writes.empty() && u.flush_read) return Proof::kOrderedFlush;
    return Proof::kShardLocal;
  }

  void run() {
    const std::size_t ns = m.states.size();
    use.resize(ns);
    proof.assign(ns, Proof::kSerialPhase);

    for (std::size_t i = 0; i < m.accesses.size(); ++i) {
      const Access& a = m.accesses[i];
      StateUse& u = use[static_cast<std::size_t>(a.state)];
      switch (a.phase) {
        case Phase::kParallelStep:
          (a.kind == AccessKind::kWrite ? u.par_writes : u.par_reads)
              .push_back(static_cast<int>(i));
          note_shard(u.par_shards, m.executor_shard(a));
          break;
        case Phase::kAdvance:
          // Channel advances are writes, but every channel has exactly one
          // advancing shard and phase B is barrier-separated from phase A —
          // the advance itself cannot conflict. The cross-shard questions it
          // raises (flag gating, slack) are part of channel classification.
          // A phase-B write to a NON-channel state is an arrival-byte stamp
          // (LinkStore::advance): fold it into the shard-locality
          // check as if it were a parallel-phase write, so a channel filed
          // under the wrong shard shows up as shard-crossing mutable state
          // on the receiver's wake byte instead of passing silently.
          if (!m.states[static_cast<std::size_t>(a.state)].channel) {
            u.par_writes.push_back(static_cast<int>(i));
            note_shard(u.par_shards, m.executor_shard(a));
          }
          break;
        case Phase::kSerialStep:
        case Phase::kSerialFlush:
          u.serial_access = true;
          if (a.phase == Phase::kSerialFlush && a.kind == AccessKind::kRead) {
            u.flush_read = true;
          }
          break;
      }
    }

    for (std::size_t sid = 0; sid < ns; ++sid) {
      const State& s = m.states[sid];
      Proof p;
      if (s.channel) {
        p = classify_channel(static_cast<int>(sid));
      } else if (s.atomic_commutative) {
        p = classify_atomic(static_cast<int>(sid));
      } else {
        p = classify_plain(static_cast<int>(sid));
      }
      proof[sid] = p;
      if (s.channel && use[sid].par_shards.size() > 1) ++report.cut_channels;
    }
  }
};

}  // namespace

AnalysisReport analyze(const FootprintModel& m) {
  AnalysisReport report;
  report.partition = m.partition.describe();
  report.shards = m.partition.shards();
  report.components = static_cast<int>(m.components.size());
  report.states = static_cast<int>(m.states.size());
  report.accesses = static_cast<int>(m.accesses.size());

  Analysis a{m, report, {}, {}};
  a.run();

  // Footprint-graph edge count: distinct (writer component, reader
  // component) pairs per state, self-edges excluded.
  {
    std::vector<std::pair<int, int>> writers_readers;
    std::vector<std::vector<int>> by_state_w(m.states.size());
    std::vector<std::vector<int>> by_state_r(m.states.size());
    for (const Access& acc : m.accesses) {
      auto& v = acc.kind == AccessKind::kWrite
                    ? by_state_w[static_cast<std::size_t>(acc.state)]
                    : by_state_r[static_cast<std::size_t>(acc.state)];
      v.push_back(acc.component);
    }
    std::int64_t edges = 0;
    std::vector<std::pair<int, int>> pairs;
    for (std::size_t s = 0; s < m.states.size(); ++s) {
      pairs.clear();
      for (const int w : by_state_w[s]) {
        for (const int r : by_state_r[s]) {
          if (w != r) pairs.emplace_back(w, r);
        }
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      edges += static_cast<std::int64_t>(pairs.size());
    }
    report.edges = edges;
  }

  // Discharge the determinism obligations from the per-state proofs.
  for (const ObligationSpec& spec : m.obligations) {
    Obligation ob;
    ob.name = spec.name;
    ob.claim = spec.claim;
    std::vector<std::string> tags;
    bool proven = true;
    for (const int sid : spec.states) {
      const Proof p = a.proof[static_cast<std::size_t>(sid)];
      if (p == Proof::kRefuted) {
        proven = false;
        if (static_cast<int>(ob.witness.size()) < AnalysisReport::kMaxWitness) {
          ob.witness.push_back(m.describe_state(sid));
        }
      } else {
        const std::string tag = proof_name(p);
        if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
          tags.push_back(tag);
        }
      }
    }
    ob.proven = proven;
    if (!proven) {
      ob.proof = "refuted";
    } else if (tags.empty()) {
      ob.proof = "vacuous";
    } else {
      std::sort(tags.begin(), tags.end());
      for (std::size_t i = 0; i < tags.size(); ++i) {
        ob.proof += (i > 0 ? " + " : "") + tags[i];
      }
    }
    report.obligations.push_back(std::move(ob));
  }

  // Verdicts. Race-freedom is refuted by genuinely concurrent conflicts;
  // a same-shard zero-latency coupling is sequential (no race) but still
  // order-dependent, so it refutes determinism only.
  report.race_free = true;
  for (const Finding& f : report.findings) {
    if (f.code == "cross-shard-race" || f.code == "shard-crossing-mutable-state" ||
        f.code == "atomic-parallel-read" || f.code == "gated-boundary-channel") {
      report.race_free = false;
    }
  }
  if (report.suppressed_findings > 0) report.race_free = false;
  report.deterministic = report.race_free;
  for (const Finding& f : report.findings) {
    if (f.severity == Severity::kError) report.deterministic = false;
  }
  for (const Obligation& ob : report.obligations) {
    if (!ob.proven) report.deterministic = false;
  }

  // Partition quality.
  report.shard_quality.assign(static_cast<std::size_t>(report.shards), {});
  for (int s = 0; s < report.shards; ++s) {
    report.shard_quality[static_cast<std::size_t>(s)].shard = s;
  }
  double total_work = 0.0;
  for (const Component& c : m.components) {
    if (c.shard == kSerialShard) continue;
    ShardQuality& q = report.shard_quality[static_cast<std::size_t>(c.shard)];
    const bool advancer =
        c.name.size() > 9 && c.name.compare(c.name.size() - 9, 9, ".advancer") == 0;
    if (!advancer) ++q.components;
    q.work += c.work;
    total_work += c.work;
  }
  const double mean = total_work / static_cast<double>(report.shards);
  double max_work = 0.0;
  for (const ShardQuality& q : report.shard_quality) {
    max_work = std::max(max_work, q.work);
  }
  report.balance = mean > 0.0 ? max_work / mean : 1.0;

  return report;
}

AnalysisReport analyze_config(const core::Config& config, int shards) {
  const auto topo = config.make_topology();
  const int resolved = core::resolve_shards(shards == 0 ? 1 : shards, config.radix);
  const auto partition = resolved > 1
                             ? core::ShardPartition::row_strips(*topo, resolved)
                             : core::ShardPartition::single(topo->num_nodes());
  return analyze(build_footprint(config, partition));
}

std::string AnalysisReport::to_string() const {
  std::string out;
  out += "concurrency-safety analysis (" + partition + ")\n";
  out += "  footprint graph: " + std::to_string(components) + " components, " +
         std::to_string(states) + " states, " + std::to_string(accesses) +
         " accesses, " + std::to_string(edges) + " edges\n";
  out += std::string("  race-freedom: ") + (race_free ? "PROVEN" : "REFUTED") + "\n";
  out += std::string("  determinism:  ") + (deterministic ? "PROVEN" : "REFUTED") + "\n";
  for (const Finding& f : findings) {
    out += std::string("  [") + verify::severity_name(f.severity) + "] " +
           f.code + ": " + f.message + "\n";
  }
  if (suppressed_findings > 0) {
    out += "  ... and " + std::to_string(suppressed_findings) +
           " further findings suppressed\n";
  }
  for (const Obligation& ob : obligations) {
    out += "  obligation " + ob.name + ": " +
           (ob.proven ? "proven (" + ob.proof + ")" : "REFUTED") + "\n";
    for (const std::string& w : ob.witness) {
      out += "    witness: " + w + "\n";
    }
  }
  out += "  partition quality: cut " + std::to_string(cut_channels) +
         " channels, balance ";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", balance);
  out += buf;
  out += "\n";
  for (const ShardQuality& q : shard_quality) {
    std::snprintf(buf, sizeof buf, "%.1f", q.work);
    out += "    shard " + std::to_string(q.shard) + ": " +
           std::to_string(q.components) + " components, work " + buf + "\n";
  }
  return out;
}

obs::Json report_json(const AnalysisReport& report, const core::Config& config,
                      const std::string& cell) {
  obs::Json run = obs::Json::object();
  run.set("cell", cell);
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(config.fingerprint()));
  run.set("config_fingerprint", std::string(buf));
  run.set("config", config.summary());
  run.set("partition", report.partition);
  run.set("shards", report.shards);

  obs::Json graph = obs::Json::object();
  graph.set("components", report.components);
  graph.set("states", report.states);
  graph.set("accesses", report.accesses);
  graph.set("edges", static_cast<std::int64_t>(report.edges));
  run.set("graph", std::move(graph));

  obs::Json verdicts = obs::Json::object();
  verdicts.set("race_free", report.race_free);
  verdicts.set("deterministic", report.deterministic);
  verdicts.set("ok", report.ok());
  run.set("verdicts", std::move(verdicts));

  obs::Json findings = obs::Json::array();
  for (const Finding& f : report.findings) {
    obs::Json j = obs::Json::object();
    j.set("severity", verify::severity_name(f.severity));
    j.set("code", f.code);
    j.set("message", f.message);
    findings.push(std::move(j));
  }
  run.set("findings", std::move(findings));
  run.set("suppressed_findings", report.suppressed_findings);

  obs::Json obligations = obs::Json::array();
  for (const Obligation& ob : report.obligations) {
    obs::Json j = obs::Json::object();
    j.set("name", ob.name);
    j.set("claim", ob.claim);
    j.set("proof", ob.proof);
    j.set("proven", ob.proven);
    if (!ob.witness.empty()) {
      obs::Json w = obs::Json::array();
      for (const std::string& s : ob.witness) w.push(s);
      j.set("witness", std::move(w));
    }
    obligations.push(std::move(j));
  }
  run.set("obligations", std::move(obligations));

  obs::Json quality = obs::Json::object();
  quality.set("cut_channels", report.cut_channels);
  quality.set("balance", report.balance);
  obs::Json shards = obs::Json::array();
  for (const ShardQuality& q : report.shard_quality) {
    obs::Json j = obs::Json::object();
    j.set("shard", q.shard);
    j.set("components", q.components);
    j.set("work", q.work);
    shards.push(std::move(j));
  }
  quality.set("shards", std::move(shards));
  run.set("quality", std::move(quality));
  return run;
}

}  // namespace ocn::analyze
