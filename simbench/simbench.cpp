// simbench: steady-state benchmark of core::Network, driven from outside
// through the library's public API (the Network constructor, Nic::inject,
// Network::step, Network::drain, Network::stats, and Network::register_metrics
// in the traced run). README.md explains the workloads, the host/sim split of
// the metrics and which layer metric should move which end-to-end metric.
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--spans-out PATH] [--tamper-twin]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. An operation is one correctness check;
// a check that does not hold is a failed operation. --tamper-twin perturbs
// one session's flit-hop twin so tests can see that the comparison fires.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/network.h"
#include "traffic/patterns.h"

namespace {

using namespace ocn;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  const char* name;
  int radix;
  double load;  ///< offered flits per node per cycle (Bernoulli per node)
  int packet_flits;
  Cycle warmup;  ///< cycles simulated before the timed window
  Cycle window;  ///< cycles per timed window
};

// Full-size workloads; README.md records why each one exists. They run on
// one shard; the traced run also runs each on kComparisonShards.
constexpr Workload kWorkloads[] = {
    {"sparse64", 64, 0.001, 1, 300, 2000},
    {"uniform64", 64, 0.05, 1, 200, 300},
    {"saturated16", 16, 0.9, 4, 3000, 3000},
};

/// The same workload on a few-node fabric for a few cycles: the benchmark's
/// own tests run every workload this way.
Workload tiny(Workload w) {
  w.radix = w.radix == 64 ? 8 : 4;
  w.load = std::max(w.load, 0.05);  // enough packets to check on 64 nodes
  w.warmup = 20;
  w.window = 40;
  return w;
}

constexpr Cycle kDrainBound = 200000;
constexpr Cycle kIdleSettle = 16;   ///< cycles for in-flight credits to land
constexpr Cycle kIdleCycles = 64;   ///< timed cycles on the drained fabric
constexpr int kMinWindows = 2;      ///< windows in a measured session, at least
/// ...and at least this many timed cycles, so that ten lie beyond the p99.
constexpr Cycle kMinMeasuredCycles = 1000;
constexpr int kMaxWindows = 1000;
constexpr int kMinSetups = 9;       ///< setup_s is the median of at least this many
constexpr double kMinSetupSeconds = 0.5;  ///< ...and of at least this much constructing
constexpr int kComparisonShards = 4;

// Network::register_metrics checks each new instrument name against every
// earlier one, so registering grows with the square of the fabric: 0.16 s at
// 16x16, 7.6 s at 32x32 and about two minutes at 64x64 on a 4-core x86 host.
// Larger fabrics attach only the kernel's counters in the traced run.
constexpr int kFullRegistryMaxNodes = 32 * 32;

// ---------------------------------------------------------------------------
// Inputs

struct Offer {
  NodeId src;
  core::Packet packet;
};

/// Open-loop Bernoulli source: each node offers a packet each cycle with
/// probability load / packet_flits, to a uniform destination, in a service
/// class drawn uniformly from 0-3. All draws come from one seeded stream, so
/// a seed fixes every cycle's offers.
class Generator {
 public:
  Generator(const Workload& w, const topo::Topology& topology, std::uint64_t seed)
      : pattern_(traffic::Pattern::kUniform, topology),
        rng_(seed, /*stream=*/1),
        packet_rate_(w.load / w.packet_flits),
        packet_flits_(w.packet_flits),
        nodes_(topology.num_nodes()) {}

  void next_cycle(std::vector<Offer>& out) {
    out.clear();
    for (NodeId n = 0; n < nodes_; ++n) {
      if (!rng_.bernoulli(packet_rate_)) continue;
      const NodeId dst = pattern_.destination(n, rng_);
      const int service_class = static_cast<int>(rng_.next_below(4));
      out.push_back({n, core::make_packet(dst, service_class, packet_flits_)});
    }
  }

  const traffic::TrafficPattern& pattern() const { return pattern_; }

 private:
  traffic::TrafficPattern pattern_;
  Rng rng_;
  double packet_rate_;
  int packet_flits_;
  int nodes_;
};

// ---------------------------------------------------------------------------
// Spans: recorded by this file around each call into a layer, kept in memory
// and written out at the end.

enum SpanName {
  kSpanSession,
  kSpanSetup,
  kSpanAttach,
  kSpanWarmup,
  kSpanWindow,
  kSpanCycle,
  kSpanInject,
  kSpanStep,
  kSpanSample,
  kSpanRouteReplay,
  kSpanDestinationReplay,
  kSpanStats,
  kSpanDrain,
  kSpanIdleTail,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "session",
    "core.network.ctor",
    "obs.attach",
    "warmup",
    "window",
    "cycle",
    "core.nic.inject",
    "core.network.step",
    "obs.sample",
    "routing.compute",
    "traffic.destination",
    "core.network.stats",
    "core.network.drain",
    "sim.kernel.idle_tail",
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int open(SpanName name, Clock::time_point start, int parent) {
    spans_.push_back({name, start, start, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  int add(SpanName name, Clock::time_point start, Clock::time_point end, int parent) {
    const int id = open(name, start, parent);
    close(id, end);
    return id;
  }

  double total_s(SpanName name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += seconds_between(sp.start, sp.end);
    }
    return s;
  }
  /// Per-name table: spans, total time, and self time (total minus the part
  /// covered by child spans).
  void print_table(std::FILE* out) const {
    std::vector<double> total(kNumSpanNames, 0.0);
    std::vector<double> self(kNumSpanNames, 0.0);
    std::vector<std::int64_t> n(kNumSpanNames, 0);
    for (const Span& sp : spans_) {
      const double d = seconds_between(sp.start, sp.end);
      total[sp.name] += d;
      self[sp.name] += d;
      ++n[sp.name];
      if (sp.parent >= 0) self[spans_[static_cast<std::size_t>(sp.parent)].name] -= d;
    }
    std::fprintf(out, "# %-22s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (int i = 0; i < kNumSpanNames; ++i) {
      if (n[i] == 0) continue;
      std::fprintf(out, "# %-22s %9lld %12.3f %12.3f\n", kSpanNames[i],
                   static_cast<long long>(n[i]), total[i] * 1e3, self[i] * 1e3);
    }
  }

  /// One JSON object per span: name, start and end in ns since the run
  /// began, and the index of the span that caused it (-1 for roots).
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   i, kSpanNames[sp.name], static_cast<long long>(ns_since_epoch(sp.start)),
                   static_cast<long long>(ns_since_epoch(sp.end)), sp.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    SpanName name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One session: build a network, warm it up, time windows of `w.window`
// cycles, drain it, and time an idle tail on the drained fabric.

/// Deterministic counts a simulator-speed change must leave identical.
struct Twins {
  // Fixed by the history up to the end of the first window, so equal for any
  // two sessions of one workload and seed.
  std::int64_t flit_hops = 0;          ///< Σ router buffer writes in the window
  std::int64_t component_steps = 0;    ///< kernel.component_steps in the window
  std::int64_t channel_advances = 0;   ///< kernel.channel_advances in the window
  std::int64_t packets_delivered = 0;  ///< packets delivered in the window
  std::int64_t latency_sum = 0;        ///< Σ their latencies, cycles
  // Fixed by the whole session: equal between sessions that ran one window
  // and then drained.
  std::int64_t created_latency_sum = 0;  ///< Σ latency of packets created in the window
  std::int64_t drain_cycles = 0;

  /// The sharded kernel advances shard-boundary channels every cycle, so
  /// channel_advances is compared only at one shard count.
  bool matches(const Twins& o, bool same_shards, bool whole_sessions) const {
    return flit_hops == o.flit_hops && component_steps == o.component_steps &&
           (!same_shards || channel_advances == o.channel_advances) &&
           packets_delivered == o.packets_delivered && latency_sum == o.latency_sum &&
           (!whole_sessions ||
            (created_latency_sum == o.created_latency_sum && drain_cycles == o.drain_cycles));
  }
};

struct Session {
  int shards = 1;
  int nodes = 0;
  int windows = 0;
  double setup_s = 0.0;
  double attach_s = 0.0;
  std::int64_t instruments = 0;  ///< registry instruments attached
  std::vector<double> cycle_s;   ///< per timed cycle: its inject calls + step
  double inject_s = 0.0;
  double step_s = 0.0;
  std::int64_t flit_hops = 0;  ///< over every window
  Twins twins;
  std::vector<Cycle> latencies;  ///< packets created in the first window
  std::int64_t window_flits_delivered = 0;  ///< in the first window
  std::int64_t inject_calls = 0;
  std::int64_t inject_refused = 0;
  std::int64_t queued_flits_end = 0;
  std::int64_t buffer_reads = 0;
  std::int64_t contention_cycles = 0;
  std::int64_t flits_sent = 0;
  // Correctness checks.
  bool drained = false;
  bool conserved = false;
  bool idle_clean = false;
  std::int64_t idle_steps = 0;
  std::int64_t idle_advances = 0;
  double drain_s = 0.0;
  double idle_s = 0.0;
  // Traced session only.
  double buffered_flits_mean = 0.0;
  double sample_s = 0.0;
  double route_ns = 0.0;
  double destination_ns = 0.0;
  double stats_s = 0.0;
};

/// Output-controller totals over the whole fabric.
void sum_outputs(core::Network& net, std::int64_t& contention, std::int64_t& sent) {
  contention = 0;
  sent = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto& out = net.router_at(n).output(static_cast<topo::Port>(p));
      contention += out.contention_cycles();
      sent += out.flits_sent();
    }
  }
}

/// Channel advances the kernel makes per cycle on a drained fabric: none on
/// one shard; on several, every shard-boundary flit and credit channel.
std::int64_t idle_advances_per_cycle(const core::Network& net) {
  if (net.shards() == 1) return 0;
  std::int64_t n = 0;
  for (const auto& d : net.topology().channels()) {
    if (net.shard_of(d.src) != net.shard_of(d.dst)) n += 2;
  }
  return n;
}

/// Flits sitting in router input buffers: the per-VC buffered-flit counts
/// (InputController::vc_flits) minus the buffer reads.
std::int64_t buffered_flits(core::Network& net) {
  std::int64_t n = 0;
  for (NodeId node = 0; node < net.num_nodes(); ++node) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto& in = net.router_at(node).input(static_cast<topo::Port>(p));
      for (VcId v = 0; v < in.num_vcs(); ++v) n += in.vc_flits(v);
      n -= in.buffer_reads();
    }
  }
  return n;
}

/// `measure_s` == 0: exactly one window, then the drain and the idle tail;
/// the checks and the sim metrics use these sessions. Otherwise back-to-back
/// windows until `measure_s` seconds have passed (at least kMinWindows and
/// kMinMeasuredCycles) and no drain; the host metrics use this session.
/// `spans` non-null makes this the traced session.
Session run_session(const Workload& w, std::uint64_t seed, int shards, SpanLog* spans,
                    double measure_s) {
  Session r;
  core::Config config = core::Config::paper_baseline();
  config.radix = w.radix;
  config.seed = seed;

  const int root = spans ? spans->open(kSpanSession, Clock::now(), -1) : -1;
  obs::CounterRegistry registry;  // outlives every tick of `net`
  const auto t_setup = Clock::now();
  core::Network net(config, shards);
  const auto t_built = Clock::now();
  r.setup_s = seconds_between(t_setup, t_built);
  if (spans) spans->add(kSpanSetup, t_setup, t_built, root);
  r.shards = net.shards();
  r.nodes = net.num_nodes();

  // Untraced sessions attach only the kernel's three counters (three
  // increments per cycle); the traced one registers the whole network where
  // that is affordable (see kFullRegistryMaxNodes).
  const auto t_attach = Clock::now();
  if (spans && net.num_nodes() <= kFullRegistryMaxNodes) {
    net.register_metrics(registry);
  } else {
    net.kernel().attach_metrics(&registry);
  }
  const auto t_attached = Clock::now();
  if (spans) spans->add(kSpanAttach, t_attach, t_attached, root);
  r.attach_s = seconds_between(t_attach, t_attached);
  r.instruments = static_cast<std::int64_t>(registry.instruments());
  const obs::Counter& steps = registry.counter("kernel.component_steps");
  const obs::Counter& advances = registry.counter("kernel.channel_advances");

  const Cycle window_start = w.warmup;
  const Cycle window_end = w.warmup + w.window;
  net.set_delivery_observer([&r, window_start, window_end](const core::Packet& p) {
    if (p.delivered >= window_start && p.delivered < window_end) {
      r.window_flits_delivered += p.num_flits();
      ++r.twins.packets_delivered;
      r.twins.latency_sum += p.latency();
    }
    if (p.created >= window_start && p.created < window_end) r.latencies.push_back(p.latency());
  });

  // The benchmark is every tile's client and consumes its deliveries;
  // without a handler the NICs would keep every delivered packet.
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    net.nic(n).set_delivery_handler([](core::Packet&&) {});
  }

  Generator gen(w, net.topology(), seed);
  std::vector<Offer> offers;

  const auto warm_start = Clock::now();
  while (net.now() < window_start) {
    gen.next_cycle(offers);
    for (Offer& o : offers) net.nic(o.src).inject(std::move(o.packet), net.now());
    net.step();
  }
  if (spans) spans->add(kSpanWarmup, warm_start, Clock::now(), root);

  const core::NetworkStats before = net.stats();
  const std::int64_t steps0 = steps.value();
  const std::int64_t advances0 = advances.value();
  std::int64_t contention0 = 0;
  std::int64_t sent0 = 0;
  sum_outputs(net, contention0, sent0);

  // Traced extras: (src, dst) pairs for the route and destination replays,
  // registry samples, and the buffered-flit mean taken at the same points.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::int64_t buffered_sum = 0;
  std::int64_t samples = 0;
  const Cycle sample_every = std::max<Cycle>(1, w.window / 16);

  const auto measure_start = Clock::now();
  do {
    const int window_span = spans ? spans->open(kSpanWindow, Clock::now(), root) : -1;
    for (Cycle c = 0; c < w.window; ++c) {
      gen.next_cycle(offers);  // inputs are made before the cycle's timed region
      if (spans) {
        for (const Offer& o : offers) pairs.emplace_back(o.src, o.packet.dst);
      }
      const auto t0 = Clock::now();
      for (Offer& o : offers) {
        ++r.inject_calls;
        if (!net.nic(o.src).inject(std::move(o.packet), net.now())) ++r.inject_refused;
      }
      const auto t1 = Clock::now();
      net.step();
      const auto t2 = Clock::now();
      r.cycle_s.push_back(seconds_between(t0, t2));
      r.inject_s += seconds_between(t0, t1);
      r.step_s += seconds_between(t1, t2);
      if (spans) {
        const int cycle_span = spans->add(kSpanCycle, t0, t2, window_span);
        spans->add(kSpanInject, t0, t1, cycle_span);
        spans->add(kSpanStep, t1, t2, cycle_span);
        if ((c + 1) % sample_every == 0) {
          const auto s0 = Clock::now();
          const obs::MetricsSnapshot snapshot = net.kernel().sample();
          spans->add(kSpanSample, s0, Clock::now(), window_span);
          buffered_sum += buffered_flits(net);
          ++samples;
        }
      }
    }
    if (spans) spans->close(window_span, Clock::now());
    if (++r.windows == 1) {
      const core::NetworkStats first = net.stats();
      r.twins.flit_hops = first.buffer_writes - before.buffer_writes;
      r.buffer_reads = first.buffer_reads - before.buffer_reads;
      r.twins.component_steps = steps.value() - steps0;
      r.twins.channel_advances = advances.value() - advances0;
      sum_outputs(net, r.contention_cycles, r.flits_sent);
      r.contention_cycles -= contention0;
      r.flits_sent -= sent0;
      for (NodeId n = 0; n < net.num_nodes(); ++n) r.queued_flits_end += net.nic(n).queued_flits();
    }
  } while (measure_s > 0 && r.windows < kMaxWindows &&
           (r.windows < kMinWindows || r.windows * w.window < kMinMeasuredCycles ||
            seconds_between(measure_start, Clock::now()) < measure_s));
  r.flit_hops = net.stats().buffer_writes - before.buffer_writes;

  if (spans) {
    r.buffered_flits_mean =
        samples > 0 ? static_cast<double>(buffered_sum) / static_cast<double>(samples) : 0.0;
    r.sample_s = spans->total_s(kSpanSample) / static_cast<double>(std::max<std::int64_t>(1, samples));
    const double replays = static_cast<double>(std::max<std::size_t>(1, pairs.size()));

    std::uint64_t sink = 0;
    auto t0 = Clock::now();
    for (const auto& [src, dst] : pairs) sink += net.routes().compute(src, dst).raw();
    auto t1 = Clock::now();
    spans->add(kSpanRouteReplay, t0, t1, root);
    r.route_ns = seconds_between(t0, t1) * 1e9 / replays;

    Rng replay(seed, /*stream=*/2);
    t0 = Clock::now();
    for (const auto& pr : pairs) {
      sink += static_cast<std::uint64_t>(gen.pattern().destination(pr.first, replay));
    }
    t1 = Clock::now();
    spans->add(kSpanDestinationReplay, t0, t1, root);
    r.destination_ns = seconds_between(t0, t1) * 1e9 / replays;

    constexpr int kStatsCalls = 5;
    for (int i = 0; i < kStatsCalls; ++i) {
      const auto s0 = Clock::now();
      sink += static_cast<std::uint64_t>(net.stats().buffer_writes);
      spans->add(kSpanStats, s0, Clock::now(), root);
    }
    r.stats_s = spans->total_s(kSpanStats) / kStatsCalls;
    std::printf("# replay checksum %llu\n", static_cast<unsigned long long>(sink));
  }

  if (measure_s > 0) return r;

  const Cycle drain_from = net.now();
  const auto d0 = Clock::now();
  r.drained = net.drain(kDrainBound);
  const auto d1 = Clock::now();
  if (spans) spans->add(kSpanDrain, d0, d1, root);
  r.drain_s = seconds_between(d0, d1);
  r.twins.drain_cycles = net.now() - drain_from;
  for (Cycle l : r.latencies) r.twins.created_latency_sum += l;

  const core::NetworkStats final_stats = net.stats();
  r.conserved = final_stats.flits_injected == final_stats.flits_delivered &&
                final_stats.packets_dropped == 0;

  net.run(kIdleSettle);
  const std::int64_t idle_steps0 = steps.value();
  const std::int64_t idle_advances0 = advances.value();
  const auto i0 = Clock::now();
  net.run(kIdleCycles);
  const auto i1 = Clock::now();
  if (spans) spans->add(kSpanIdleTail, i0, i1, root);
  r.idle_s = seconds_between(i0, i1);
  r.idle_steps = steps.value() - idle_steps0;
  r.idle_advances = advances.value() - idle_advances0;
  r.idle_clean = r.idle_steps == 0 && r.idle_advances == idle_advances_per_cycle(net) * kIdleCycles;

  if (spans) spans->close(root, Clock::now());
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output

/// Linear-interpolated quantile of `v` (copied; q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Nearest-rank percentile of cycle counts (stays a whole number).
Cycle percentile_rank(std::vector<Cycle> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string twins_json(const Twins& t) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"flit_hops\":%lld,\"component_steps\":%lld,\"channel_advances\":%lld,"
                "\"packets_delivered\":%lld,\"latency_sum\":%lld,\"created_latency_sum\":%lld,"
                "\"drain_cycles\":%lld}",
                static_cast<long long>(t.flit_hops), static_cast<long long>(t.component_steps),
                static_cast<long long>(t.channel_advances),
                static_cast<long long>(t.packets_delivered),
                static_cast<long long>(t.latency_sum),
                static_cast<long long>(t.created_latency_sum),
                static_cast<long long>(t.drain_cycles));
  return buf;
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "simbench: check failed: %s\n", what.c_str());
    }
  }
  void session(const Session& r, const std::string& label) {
    expect(r.drained, label + ": drained within " + std::to_string(kDrainBound) + " cycles");
    expect(r.conserved, label + ": flits injected equal flits delivered after the drain");
    expect(r.idle_clean, label + ": drained fabric made " + std::to_string(r.idle_steps) +
                             " steps and " + std::to_string(r.idle_advances) +
                             " channel advances in the idle tail");
    expect(!r.latencies.empty() && r.window_flits_delivered > 0,
           label + ": the window delivered traffic");
  }
  void twins(const Session& a, const Session& b, bool whole_sessions, const std::string& what) {
    expect(a.twins.matches(b.twins, a.shards == b.shards, whole_sessions),
           what + ": " + twins_json(a.twins) + " vs " + twins_json(b.twins));
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_session(const Session& r, const char* label) {
  std::printf("# %s: shards=%d windows=%d timed_cycles=%zu setup_s=%.4f p50_us=%.1f "
              "inject_s=%.4f step_s=%.4f twins=%s\n",
              label, r.shards, r.windows, r.cycle_s.size(), r.setup_s,
              quantile(r.cycle_s, 0.5) * 1e6, r.inject_s, r.step_s, twins_json(r.twins).c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper_twin = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--spans-out PATH] [--tamper-twin]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tamper-twin") {
      a.tamper_twin = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size takes full or tiny");
      a.tiny = value == "tiny";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::vector<Metric> end_to_end(const Workload& w, const Session& warm, const Session& measured,
                               const std::vector<double>& setups) {
  double lat_sum = 0.0;
  for (Cycle l : warm.latencies) lat_sum += static_cast<double>(l);
  const double packets = static_cast<double>(std::max<std::size_t>(1, warm.latencies.size()));
  const double p99 =
      warm.latencies.empty() ? 0.0 : static_cast<double>(percentile_rank(warm.latencies, 0.99));
  return {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"host_cycle_us_p50", quantile(measured.cycle_s, 0.5) * 1e6, "us"},
      {"host_cycle_us_p99", quantile(measured.cycle_s, 0.99) * 1e6, "us"},
      {"host_flit_hops_per_s",
       static_cast<double>(measured.flit_hops) / (measured.inject_s + measured.step_s), "1/s"},
      {"host_peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_latency_mean_cycles", lat_sum / packets, "cycles"},
      {"sim_latency_p99_cycles", p99, "cycles"},
      {"sim_accepted_flits_per_node_cycle",
       static_cast<double>(warm.window_flits_delivered) /
           (static_cast<double>(warm.nodes) * static_cast<double>(w.window)),
       "flits/node/cycle"},
  };
}

/// Per-layer metrics from the traced session `b`, the untraced session `a`
/// of the same workload, and `c`, the workload on kComparisonShards shards.
std::vector<Metric> per_layer(const Workload& w, const Session& a, const Session& b,
                              const Session& c, const SpanLog& spans) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const double cycles = static_cast<double>(w.window);
  const double p50_a = quantile(a.cycle_s, 0.5);
  const double p50_b = quantile(b.cycle_s, 0.5);
  const double p50_c = quantile(c.cycle_s, 0.5);
  const double speedup = p50_a / p50_c;
  return {
      {"sim.kernel.component_steps_per_cycle", d(b.twins.component_steps) / cycles, "count"},
      {"sim.kernel.channel_advances_per_cycle", d(b.twins.channel_advances) / cycles, "count"},
      {"sim.kernel.active_fraction", per(d(b.twins.component_steps), cycles * 2.0 * b.nodes),
       "ratio"},
      {"sim.kernel.idle_ns_per_router_cycle",
       per(spans.total_s(kSpanIdleTail) * 1e9, static_cast<double>(kIdleCycles) * b.nodes), "ns"},
      {"sim.kernel.ns_per_component_step", per(b.step_s * 1e9, d(b.twins.component_steps)), "ns"},
      {"router.flit_hops", d(b.twins.flit_hops), "count"},
      {"router.buffer_reads", d(b.buffer_reads), "count"},
      {"router.ns_per_flit_hop", per(b.step_s * 1e9, d(b.twins.flit_hops)), "ns"},
      {"router.contention_cycles", d(b.contention_cycles), "count"},
      {"router.contention_per_flit", per(d(b.contention_cycles), d(b.flits_sent)), "ratio"},
      {"router.buffered_flits_mean", b.buffered_flits_mean, "flits"},
      {"core.nic.inject_ns", per(b.inject_s * 1e9, d(b.inject_calls)), "ns"},
      {"core.nic.inject_calls", d(b.inject_calls), "count"},
      {"core.nic.inject_refused", d(b.inject_refused), "count"},
      {"core.nic.inject_accept_ratio", per(d(b.inject_calls - b.inject_refused), d(b.inject_calls)),
       "ratio"},
      {"core.nic.queued_flits_end", d(b.queued_flits_end), "flits"},
      {"routing.compute_ns", b.route_ns, "ns"},
      {"traffic.destination_ns", b.destination_ns, "ns"},
      {"core.network.step_us_mean", b.step_s * 1e6 / cycles, "us"},
      {"core.network.step_share", per(b.step_s, b.step_s + b.inject_s), "ratio"},
      {"core.network.drain_cycles", d(b.twins.drain_cycles), "cycles"},
      {"core.network.drain_s", b.drain_s, "s"},
      {"core.network.stats_us", b.stats_s * 1e6, "us"},
      {"sim.sharded_kernel.speedup", speedup, "x"},
      {"sim.sharded_kernel.efficiency", speedup / c.shards, "ratio"},
      {"obs.trace_overhead_pct", (p50_b - p50_a) / p50_a * 100.0, "%"},
      {"obs.sample_us", b.sample_s * 1e6, "us"},
      {"obs.instruments", d(b.instruments), "count"},
      {"obs.attach_s", b.attach_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload");
  const Workload w = args.tiny ? tiny(*found) : *found;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("{\"host_class\": {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"shards\": 1}, \"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\"}\n",
              nproc, SIMBENCH_COMPILER, SIMBENCH_BUILD_TYPE, w.name,
              static_cast<unsigned long long>(args.seed), args.tiny ? "tiny" : "full");

  Checks checks;
  std::vector<Metric> metrics;
  const auto start = Clock::now();

  // The first session in a process runs on memory fresh from the OS and
  // times ~8% slower than the ones after it. Its checks, twins and sim
  // metrics count; its host times do not.
  const Session warm = run_session(w, args.seed, 1, nullptr, 0);
  print_session(warm, "warm-up");
  checks.session(warm, "warm-up");

  if (!args.trace) {
    Session measured = run_session(w, args.seed, 1, nullptr, args.seconds);
    print_session(measured, "measured");
    if (args.tamper_twin) measured.twins.flit_hops += 1;
    checks.twins(measured, warm, false, "measured first window repeats the warm-up");

    std::vector<double> setups{warm.setup_s, measured.setup_s};
    double setup_total = setups[0] + setups[1];
    while (static_cast<int>(setups.size()) < kMinSetups || setup_total < kMinSetupSeconds) {
      core::Config config = core::Config::paper_baseline();
      config.radix = w.radix;
      config.seed = args.seed;
      const auto t0 = Clock::now();
      { core::Network net(config, 1); }
      setups.push_back(seconds_between(t0, Clock::now()));
      setup_total += setups.back();
    }
    std::printf("# %zu timed cycles, %zu setups, %zu window packets\n", measured.cycle_s.size(),
                setups.size(), warm.latencies.size());
    metrics = end_to_end(w, warm, measured, setups);
  } else {
    // An untraced session (A), the traced one (B) with the registry attached
    // and spans around every layer call, and the workload on
    // kComparisonShards shards (C) for the sharded kernel. All run one window
    // and drain.
    SpanLog spans(start);
    const Session a = run_session(w, args.seed, 1, nullptr, 0);
    print_session(a, "untraced");
    Session b = run_session(w, args.seed, 1, &spans, 0);
    print_session(b, "traced");
    const Session c = run_session(w, args.seed, kComparisonShards, nullptr, 0);
    print_session(c, "sharded");
    if (args.tamper_twin) b.twins.flit_hops += 1;
    checks.session(a, "untraced");
    checks.session(b, "traced");
    checks.session(c, "sharded");
    checks.twins(a, warm, true, "untraced session repeats the warm-up");
    checks.twins(b, warm, true, "traced session repeats the warm-up");
    checks.twins(c, warm, true, "twins equal at " + std::to_string(c.shards) + " and " +
                                     std::to_string(warm.shards) + " shards");
    spans.print_table(stdout);
    if (!args.spans_out.empty() && !spans.write_jsonl(args.spans_out)) {
      std::fprintf(stderr, "simbench: cannot write %s\n", args.spans_out.c_str());
      return 1;
    }
    metrics = per_layer(w, a, b, c, spans);
  }

  print_result(checks, metrics);
  return 0;
}
