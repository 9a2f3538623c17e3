// Open-loop load harness: the standard interconnection-network measurement
// methodology (warmup, measurement window, drain). Drives a core::Network
// with a spatial pattern x temporal process, tags packets created during the
// measurement window, and reports latency / throughput / energy.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/network.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "traffic/injection.h"
#include "traffic/patterns.h"

namespace ocn::traffic {

/// Shape of the measurement-window latency histogram; shared with the sweep
/// engine so per-shard histograms merge into an identically shaped one.
inline constexpr std::size_t kLatencyHistBins = 20000;
inline constexpr double kLatencyHistBinWidth = 1.0;

struct HarnessOptions {
  Pattern pattern = Pattern::kUniform;
  double injection_rate = 0.1;  ///< packets per node per cycle
  int packet_flits = 1;
  int service_class = 0;
  /// Spread packets uniformly over the classes dynamic traffic may use
  /// (core::dynamic_classes: 0..3 on the paper's 8 VCs). When false all
  /// packets use service_class. The harness refuses (std::invalid_argument)
  /// a network with no such class, or a service_class that is not one.
  bool randomize_class = true;
  Cycle warmup = 1000;
  Cycle measure = 5000;
  Cycle drain_max = 50000;
  double hotspot_fraction = 0.2;
  NodeId hotspot_node = 0;
  bool bursty = false;
  double burst_on_off = 0.02;  ///< ON->OFF probability per cycle
  double burst_off_on = 0.02;  ///< OFF->ON probability per cycle
  std::uint64_t seed = 42;
};

struct HarnessResult {
  double offered_flits = 0.0;   ///< flits per node per cycle offered
  double accepted_flits = 0.0;  ///< flits per node per cycle delivered (measure window)
  double avg_latency = 0.0;     ///< cycles, packets created in the window
  double stddev_latency = 0.0;
  double p99_latency = 0.0;
  double avg_network_latency = 0.0;
  double avg_hops = 0.0;
  double avg_link_mm = 0.0;
  std::int64_t measured_packets = 0;
  std::int64_t dropped_packets = 0;  ///< dropping flow control only
  double delivered_fraction = 1.0;   ///< of measured packets
  bool drained = true;               ///< network emptied after the run
};

class LoadHarness final : public Clockable {
 public:
  LoadHarness(core::Network& net, const HarnessOptions& options);
  ~LoadHarness();
  LoadHarness(const LoadHarness&) = delete;
  LoadHarness& operator=(const LoadHarness&) = delete;

  /// Run warmup + measurement + drain and collect results.
  HarnessResult run();

  void step(Cycle now) override;
  /// Outside warmup+measurement the harness injects nothing; let the
  /// kernel skip it during drain — unless delivery samples are waiting to
  /// be folded in (measured packets keep arriving after the window closes).
  bool idle_internal() const override {
    return !generating_ &&
           pending_samples_.load(std::memory_order_relaxed) == 0;
  }

  /// Measurement-window statistics, exposed for tests and for the sweep
  /// engine, which merges them across points via Accumulator::merge /
  /// Histogram::merge. Valid after run().
  const Accumulator& measured_latency() const { return latency_; }
  const Accumulator& measured_network_latency() const { return network_latency_; }
  const Accumulator& measured_hops() const { return hops_; }
  const Accumulator& measured_link_mm() const { return link_mm_; }
  const Histogram& latency_histogram() const { return latency_hist_; }

 private:
  /// One delivery's contribution to the window statistics, computed inside
  /// the NIC's delivery handler (possibly on a shard worker thread) and
  /// buffered per node. The harness — a global component, stepped serially
  /// after the parallel shard phase — drains the buffers in node order every
  /// cycle, which is exactly the order deliveries accumulate in on a
  /// single-threaded kernel (cycle-major, node order within a cycle). The
  /// folded statistics are therefore bit-identical for every shard count,
  /// floating-point moments included; nothing is reassociated.
  struct DeliverySample {
    std::int64_t window_flits = 0;  ///< flits delivered inside the window
    bool measured = false;          ///< packet created inside the window
    double latency = 0.0;
    double network_latency = 0.0;
    double hops = 0.0;
    double link_mm = 0.0;
  };

  void on_delivery(core::Packet&& p, std::vector<DeliverySample>& buffer);
  void drain_samples();

  core::Network& net_;
  HarnessOptions opt_;
  /// core::dynamic_classes of the network's routers, drawn from by index.
  std::vector<int> classes_;
  TrafficPattern pattern_;
  std::vector<InjectionProcess> processes_;
  std::vector<Rng> rngs_;
  // Per-node sample buffers: each is written by exactly one shard's worker
  // (its own NIC's delivery handler), so the parallel phase never shares a
  // buffer between threads. Sized once; handlers keep pointers in.
  std::vector<std::vector<DeliverySample>> sample_buffers_;
  std::atomic<std::int64_t> pending_samples_{0};

  bool generating_ = false;
  Cycle measure_begin_ = 0;
  Cycle measure_end_ = 0;

  std::int64_t generated_packets_ = 0;
  std::int64_t generated_measured_ = 0;
  std::int64_t delivered_in_window_flits_ = 0;
  std::int64_t delivered_measured_ = 0;
  Accumulator latency_;
  Accumulator network_latency_;
  Accumulator hops_;
  Accumulator link_mm_;
  Histogram latency_hist_{kLatencyHistBins, kLatencyHistBinWidth};
};

}  // namespace ocn::traffic
