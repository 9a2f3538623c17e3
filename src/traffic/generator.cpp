#include "traffic/generator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ocn::traffic {

LoadHarness::LoadHarness(core::Network& net, const HarnessOptions& options)
    : net_(net),
      opt_(options),
      classes_(core::dynamic_classes(net.config().router)),
      pattern_(options.pattern, net.topology(), options.hotspot_fraction,
               options.hotspot_node) {
  const std::string vcs = std::to_string(net.config().router.vcs);
  if (classes_.empty()) {
    throw std::invalid_argument("LoadHarness: no service class fits a " + vcs +
                                "-VC router");
  }
  if (!opt_.randomize_class &&
      std::find(classes_.begin(), classes_.end(), opt_.service_class) == classes_.end()) {
    throw std::invalid_argument("LoadHarness: service_class " +
                                std::to_string(opt_.service_class) +
                                " is not one dynamic traffic may use on a " + vcs +
                                "-VC router");
  }
  const int n = net.num_nodes();
  sample_buffers_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    rngs_.emplace_back(opt_.seed, static_cast<std::uint64_t>(i));
    if (opt_.bursty) {
      // Scale the ON-state rate so the long-run mean matches injection_rate.
      const double duty = opt_.burst_off_on / (opt_.burst_on_off + opt_.burst_off_on);
      processes_.push_back(InjectionProcess::on_off(opt_.injection_rate / duty,
                                                    opt_.burst_on_off, opt_.burst_off_on));
    } else {
      processes_.push_back(InjectionProcess::bernoulli(opt_.injection_rate));
    }
    std::vector<DeliverySample>* buffer = &sample_buffers_[static_cast<std::size_t>(i)];
    net_.nic(i).set_delivery_handler(
        [this, buffer](core::Packet&& p) { on_delivery(std::move(p), *buffer); });
  }
  net_.kernel().add(this);
}

LoadHarness::~LoadHarness() {
  for (NodeId i = 0; i < net_.num_nodes(); ++i) {
    net_.nic(i).set_delivery_handler(nullptr);
  }
  // The kernel keeps a dangling pointer to us; harnesses are expected to
  // outlive the runs they drive (they own the run() loop), so this only
  // matters if the caller steps the network after destroying the harness.
}

void LoadHarness::step(Cycle now) {
  // Fold this cycle's delivery samples first, in node order — deliveries
  // happened during the (possibly parallel) component phase earlier this
  // cycle, and the shard barrier makes the buffers visible here.
  if (pending_samples_.load(std::memory_order_relaxed) > 0) drain_samples();
  if (!generating_) return;
  for (NodeId i = 0; i < net_.num_nodes(); ++i) {
    auto& rng = rngs_[static_cast<std::size_t>(i)];
    if (!processes_[static_cast<std::size_t>(i)].fire(rng)) continue;
    const NodeId dst = pattern_.destination(i, rng);
    const int cls = opt_.randomize_class
                        ? classes_[static_cast<std::size_t>(rng.next_below(classes_.size()))]
                        : opt_.service_class;
    core::Packet p = core::make_packet(dst, cls, opt_.packet_flits);
    // Watermark for debugging: generation cycle in the first payload word.
    p.flit_payloads[0][0] = static_cast<std::uint64_t>(now);
    ++generated_packets_;
    if (now >= measure_begin_ && now < measure_end_) ++generated_measured_;
    net_.nic(i).inject(std::move(p), now);
  }
}

void LoadHarness::on_delivery(core::Packet&& p,
                              std::vector<DeliverySample>& buffer) {
  const Cycle now = net_.now();
  DeliverySample s;
  if (now >= measure_begin_ && now < measure_end_) {
    s.window_flits = p.num_flits();
  }
  if (p.created >= measure_begin_ && p.created < measure_end_) {
    s.measured = true;
    s.latency = static_cast<double>(p.latency());
    s.network_latency = static_cast<double>(p.network_latency());
    s.hops = static_cast<double>(p.hops);
    s.link_mm = p.link_mm;
  }
  if (s.window_flits == 0 && !s.measured) return;
  buffer.push_back(s);
  pending_samples_.fetch_add(1, std::memory_order_relaxed);
}

void LoadHarness::drain_samples() {
  std::int64_t drained = 0;
  for (auto& buffer : sample_buffers_) {
    for (const DeliverySample& s : buffer) {
      delivered_in_window_flits_ += s.window_flits;
      if (s.measured) {
        ++delivered_measured_;
        latency_.add(s.latency);
        network_latency_.add(s.network_latency);
        hops_.add(s.hops);
        link_mm_.add(s.link_mm);
        latency_hist_.add(s.latency);
      }
    }
    drained += static_cast<std::int64_t>(buffer.size());
    buffer.clear();
  }
  pending_samples_.fetch_sub(drained, std::memory_order_relaxed);
}

HarnessResult LoadHarness::run() {
  const std::int64_t dropped_before = net_.stats().packets_dropped;

  generating_ = true;
  net_.run(opt_.warmup);
  measure_begin_ = net_.now();
  measure_end_ = measure_begin_ + opt_.measure;
  net_.run(opt_.measure);
  generating_ = false;
  const bool drained = net_.drain(opt_.drain_max);
  // Normally empty by now (pending samples keep the harness on the clock),
  // but a drain that hit drain_max can leave stragglers.
  drain_samples();

  HarnessResult r;
  r.offered_flits = opt_.injection_rate * opt_.packet_flits;
  r.accepted_flits = static_cast<double>(delivered_in_window_flits_) /
                     (static_cast<double>(opt_.measure) * net_.num_nodes());
  r.avg_latency = latency_.mean();
  r.stddev_latency = latency_.stddev();
  r.p99_latency = latency_hist_.percentile(0.99);
  r.avg_network_latency = network_latency_.mean();
  r.avg_hops = hops_.mean();
  r.avg_link_mm = link_mm_.mean();
  r.measured_packets = delivered_measured_;
  r.dropped_packets = net_.stats().packets_dropped - dropped_before;
  r.delivered_fraction =
      generated_measured_ > 0
          ? static_cast<double>(delivered_measured_) / static_cast<double>(generated_measured_)
          : 1.0;
  r.drained = drained;
  return r;
}

}  // namespace ocn::traffic
