#include "chaos/campaign.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/interface.h"
#include "services/reliable.h"
#include "sim/rng.h"

namespace ocn::chaos {

namespace {

// Background payload relation: words 1..3 are word 0 plus fixed non-zero
// constants. Additive (not XOR / complement) on purpose: a dead link inverts
// every bit, and ~(x + K) == ~x - K, so inversion breaks the relation —
// whereas XOR or bit-complement relations would survive it undetected.
constexpr std::uint64_t kK1 = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kK2 = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kK3 = 0x94d049bb133111ebull;

/// Uniform-random single-flit datagrams on service class 0 with a
/// self-checking payload, plus windowed delivery counting for the pre- vs.
/// post-fault throughput comparison.
class BackgroundTraffic final : public Clockable {
 public:
  BackgroundTraffic(core::Network& net, double rate, std::uint64_t seed,
                    Cycle pre_begin, Cycle pre_end, Cycle post_begin,
                    Cycle post_end)
      : net_(net),
        rate_(rate),
        rng_(seed),
        pre_begin_(pre_begin),
        pre_end_(pre_end),
        post_begin_(post_begin),
        post_end_(post_end) {
    for (NodeId n = 0; n < net_.num_nodes(); ++n) {
      net_.nic(n).set_delivery_handler(
          [this](core::Packet&& p) { on_delivery(p); });
    }
    net_.kernel().add(this);
  }
  ~BackgroundTraffic() override { net_.kernel().remove(this); }

  void step(Cycle now) override {
    if (now >= post_end_) {
      done_ = true;
      return;
    }
    const NodeId n = static_cast<NodeId>(net_.num_nodes());
    for (NodeId src = 0; src < n; ++src) {
      if (!rng_.bernoulli(rate_)) continue;
      NodeId dst = static_cast<NodeId>(
          rng_.next_below(static_cast<std::uint64_t>(n - 1)));
      if (dst >= src) ++dst;
      core::Packet p = core::make_packet(dst, /*service_class=*/0, 1);
      const std::uint64_t x = rng_.next_u64();
      p.flit_payloads[0] = {x, x + kK1, x + kK2, x + kK3};
      if (net_.nic(src).inject(std::move(p), now)) ++injected_;
    }
  }
  bool idle_internal() const override { return done_; }

  std::int64_t injected() const { return injected_; }
  std::int64_t pre_delivered() const { return pre_delivered_; }
  std::int64_t post_delivered() const { return post_delivered_; }
  std::int64_t payload_corrupt() const { return payload_corrupt_; }

 private:
  void on_delivery(const core::Packet& p) {
    const auto& w = p.flit_payloads.front();
    const bool intact =
        w[1] == w[0] + kK1 && w[2] == w[0] + kK2 && w[3] == w[0] + kK3;
    if (!intact) ++payload_corrupt_;
    const Cycle now = net_.now();
    if (now >= pre_begin_ && now < pre_end_) ++pre_delivered_;
    if (now >= post_begin_ && now < post_end_) ++post_delivered_;
  }

  core::Network& net_;
  double rate_;
  Rng rng_;
  Cycle pre_begin_, pre_end_, post_begin_, post_end_;
  bool done_ = false;
  std::int64_t injected_ = 0;
  std::int64_t pre_delivered_ = 0;
  std::int64_t post_delivered_ = 0;
  std::int64_t payload_corrupt_ = 0;
};

}  // namespace

CampaignRunner::CampaignRunner(const sweep::SweepOptions& options)
    : runner_(options) {}

ScenarioResult CampaignRunner::run_scenario(const Scenario& scenario,
                                            std::uint64_t seed) {
  ScenarioResult r;
  r.name = scenario.name;
  r.seed = seed;

  core::Config config = scenario.config;
  config.seed = seed;
  core::Network net(config);

  ChaosEngine engine(net, derive_seed(seed, 1));
  engine.schedule(scenario.events);

  // Fault window boundaries for the throughput comparison.
  Cycle fault_begin = scenario.run_cycles;
  Cycle fault_end = 0;
  for (const Event& e : scenario.events) {
    fault_begin = std::min(fault_begin, e.at);
    fault_end = std::max(fault_end, e.at + std::max<Cycle>(e.duration, 0));
  }
  const bool has_events = !scenario.events.empty();
  const Cycle pre_end = has_events ? fault_begin : scenario.run_cycles;
  const Cycle post_begin =
      has_events ? std::min(scenario.run_cycles,
                            fault_end + scenario.recovery_gap)
                 : scenario.run_cycles;

  // Reliable flows: all words queued up front; the channel's send window
  // paces them onto the wire.
  struct FlowState {
    std::uint64_t base = 0;
    std::int64_t delivered = 0;
  };
  std::vector<std::unique_ptr<services::ReliableChannel>> channels;
  std::vector<FlowState> states(scenario.flows.size());
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const FlowSpec& f = scenario.flows[i];
    channels.push_back(std::make_unique<services::ReliableChannel>(
        net, f.src, f.dst, f.retry_timeout, f.service_class));
    FlowState& st = states[i];
    st.base = derive_seed(seed, 100 + i);
    channels.back()->set_handler([&st](std::uint64_t word) {
      // In-order contract: each delivered word must be exactly the next one.
      if (word == st.base + static_cast<std::uint64_t>(st.delivered)) {
        ++st.delivered;
      }
    });
    for (int k = 0; k < f.words; ++k) {
      channels.back()->send(st.base + static_cast<std::uint64_t>(k));
    }
    r.words_offered += f.words;
  }
  r.flow_count = static_cast<int>(scenario.flows.size());

  std::unique_ptr<BackgroundTraffic> bg;
  if (scenario.background_rate > 0.0) {
    bg = std::make_unique<BackgroundTraffic>(
        net, scenario.background_rate, derive_seed(seed, 2), scenario.warmup,
        pre_end, post_begin, scenario.run_cycles);
  }

  const auto flows_done = [&] {
    for (std::size_t i = 0; i < channels.size(); ++i) {
      if (!channels[i]->all_acknowledged()) return false;
      if (states[i].delivered != scenario.flows[i].words) return false;
    }
    return true;
  };

  // Main run, polling for recovery at a small granularity so the recovery
  // latency is tight without per-cycle overhead.
  const Cycle poll = 4;
  while (net.now() < scenario.run_cycles) {
    net.run(std::min(poll, scenario.run_cycles - net.now()));
    if (has_events && r.recovery_latency < 0 && net.now() >= fault_begin &&
        flows_done()) {
      r.recovery_latency = net.now() - fault_begin;
    }
  }
  // Grace period: background injection has stopped; let the reliable flows
  // finish retransmitting. Bounded so a truly lost flow terminates the run.
  const Cycle grace_end = scenario.run_cycles * 4 + 4096;
  while (!flows_done() && net.now() < grace_end) {
    net.run(poll);
    if (has_events && r.recovery_latency < 0 && flows_done()) {
      r.recovery_latency = net.now() - fault_begin;
    }
  }
  r.cycles_run = net.now();

  for (std::size_t i = 0; i < channels.size(); ++i) {
    r.words_sent += channels[i]->words_sent();
    r.words_delivered += states[i].delivered;
    r.retransmissions += channels[i]->retransmissions();
    r.crc_rejects += channels[i]->crc_rejects();
    r.duplicates_dropped += channels[i]->duplicates_dropped();
    if (channels[i]->all_acknowledged() &&
        states[i].delivered == scenario.flows[i].words) {
      ++r.flows_completed;
    }
  }
  r.words_lost = r.words_offered - r.words_delivered;

  for (const Event& e : scenario.events) {
    if (e.kind == EventKind::kLinkDeath) ++r.links_killed;
  }
  for (const DegradeReport& d : engine.degrade_reports()) {
    r.reroutes_committed = r.reroutes_committed && d.committed;
    r.reroutes_deadlock_free = r.reroutes_deadlock_free && d.deadlock_free;
    r.unreachable_pairs = d.unreachable_pairs;
  }

  if (config.fault_layer) {
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      for (int p = 0; p < topo::kNumDirPorts; ++p) {
        if (auto* f = net.link_fault(node, static_cast<topo::Port>(p))) {
          r.corrupted_flits += f->corrupted_flits();
          r.transient_flips += f->transient_flips();
        }
      }
    }
  }

  if (bg) {
    r.bg_packets_injected = bg->injected();
    r.bg_pre_delivered = bg->pre_delivered();
    r.bg_post_delivered = bg->post_delivered();
    r.bg_payload_corrupt = bg->payload_corrupt();
    const Cycle pre_len = pre_end - scenario.warmup;
    const Cycle post_len = scenario.run_cycles - post_begin;
    if (pre_len > 0) {
      r.pre_fault_throughput =
          static_cast<double>(r.bg_pre_delivered) / static_cast<double>(pre_len);
    }
    if (post_len > 0) {
      r.post_fault_throughput = static_cast<double>(r.bg_post_delivered) /
                                static_cast<double>(post_len);
    }
  }
  return r;
}

std::vector<ScenarioResult> CampaignRunner::run(
    const std::vector<Scenario>& scenarios) {
  return runner_.map<ScenarioResult>(
      scenarios.size(), [&scenarios](std::size_t i, std::uint64_t seed) {
        return run_scenario(scenarios[i], seed);
      });
}

std::vector<ScenarioResult> CampaignRunner::run_repeated(
    const Scenario& scenario, std::size_t repeats) {
  return runner_.map<ScenarioResult>(
      repeats, [&scenario](std::size_t, std::uint64_t seed) {
        return run_scenario(scenario, seed);
      });
}

}  // namespace ocn::chaos
