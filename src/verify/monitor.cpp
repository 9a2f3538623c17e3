#include "verify/monitor.h"

#include <algorithm>
#include <stdexcept>

#include "core/interface.h"

namespace ocn::verify {

using router::Flit;
using topo::Port;

namespace {

/// Packet ids are globally unique already (each NIC seeds its counter with
/// node << 40, see Nic's constructor), so they key the in-flight map as is.
std::uint64_t packet_key(const Flit& f) {
  return static_cast<std::uint64_t>(f.packet);
}

/// Service class whose VC-pair mask equals `mask`, or -1.
int class_of_mask(std::uint8_t mask) {
  for (int c = 0; c < 4; ++c) {
    if (core::vc_mask_for_class(c) == mask) return c;
  }
  return -1;
}

}  // namespace

RuntimeMonitor::RuntimeMonitor(core::Network& net)
    : net_(net),
      cdg_(net.config(), net.routes()),
      dropping_(net.config().router.dropping()) {
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<Port>(p);
      auto& out = net_.router_at(n).output(port);
      if (!out.attached()) continue;
      out.set_monitor([this, n, port](const Flit& f, bool bypass) {
        observe(n, port, f, bypass);
      });
    }
  }
  net_.kernel().add(this);
}

RuntimeMonitor::~RuntimeMonitor() {
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      auto& out = net_.router_at(n).output(static_cast<Port>(p));
      if (out.attached()) out.set_monitor(nullptr);
    }
  }
  net_.kernel().remove(this);
}

void RuntimeMonitor::violation(std::string msg) {
  ++violation_count_;
  if (violations_.size() < static_cast<std::size_t>(kMaxStored)) {
    violations_.push_back(std::move(msg));
  }
}

RuntimeMonitor::Track& RuntimeMonitor::track_for(const Flit& f) {
  auto [it, inserted] = inflight_.try_emplace(packet_key(f));
  Track& t = it->second;
  if (!inserted) return t;

  const int n = net_.num_nodes();
  if (f.src < 0 || f.src >= n || f.dst < 0 || f.dst >= n) {
    violation("packet " + std::to_string(f.packet) +
              ": src/dst outside the topology");
    return t;  // expected stays empty: existence checks only
  }
  if (f.priority >= 1000) {
    // Pre-scheduled traffic rides the dedicated VC end to end.
    t.expected = expand_scheduled_route(net_.config(), net_.routes(), f.src, f.dst);
  } else {
    const int cls = class_of_mask(f.vc_mask);
    if (cls < 0) {
      violation("packet " + std::to_string(f.packet) + ": vc_mask " +
                std::to_string(f.vc_mask) +
                " is not a service-class VC pair");
      return t;
    }
    t.expected = expand_route(net_.config(), net_.routes(), f.src, f.dst, cls);
  }
  t.head_vc.assign(t.expected.hops(), kInvalidVc);
  t.cursor.assign(static_cast<std::size_t>(std::max(1, f.packet_flits)), 0);
  return t;
}

void RuntimeMonitor::observe(NodeId node, Port port, const Flit& f, bool bypass) {
  ++hops_checked_;
  if (f.type == router::FlitType::kCreditOnly) return;

  const int chan = cdg_.channel_id(node, port, f.vc);
  if (chan < 0) {
    violation("flit of packet " + std::to_string(f.packet) + " on n" +
              std::to_string(node) + " " + topo::port_name(port) + " vc" +
              std::to_string(f.vc) + ": no such channel in the verified CDG");
    return;
  }
  if (port == Port::kTile && f.dst != node) {
    violation("packet " + std::to_string(f.packet) + " extracted at n" +
              std::to_string(node) + ", destination is n" +
              std::to_string(f.dst));
  }

  if (dropping_) {
    // Dropping flow control sheds flits mid-route, so per-packet hop
    // tracking would leak; check the stateless invariants only (same-index
    // VC discipline: the occupied VC must belong to the class mask).
    if ((f.vc_mask & (1u << static_cast<unsigned>(f.vc))) == 0) {
      violation("packet " + std::to_string(f.packet) + ": vc" +
                std::to_string(f.vc) + " outside its class mask");
    }
    return;
  }

  Track& t = track_for(f);
  if (t.expected.empty()) return;  // untrackable; already reported

  if (f.flit_index < 0 ||
      static_cast<std::size_t>(f.flit_index) >= t.cursor.size()) {
    violation("packet " + std::to_string(f.packet) + ": flit index " +
              std::to_string(f.flit_index) + " outside the packet");
    return;
  }
  const auto i =
      static_cast<std::size_t>(t.cursor[static_cast<std::size_t>(f.flit_index)]++);
  if (i >= t.expected.hops()) {
    violation("packet " + std::to_string(f.packet) + ": flit " +
              std::to_string(f.flit_index) + " took more hops than its route (" +
              std::to_string(t.expected.hops()) + ")");
    return;
  }
  if (t.expected.nodes[i] != node || t.expected.ports[i] != port) {
    violation("packet " + std::to_string(f.packet) + " hop " +
              std::to_string(i) + ": observed n" + std::to_string(node) + " " +
              topo::port_name(port) + ", route computer expects n" +
              std::to_string(t.expected.nodes[i]) + " " +
              topo::port_name(t.expected.ports[i]));
    return;
  }
  const auto& allowed = t.expected.vc_sets[i];
  if (std::find(allowed.begin(), allowed.end(), f.vc) == allowed.end()) {
    violation("packet " + std::to_string(f.packet) + " hop " +
              std::to_string(i) + " at n" + std::to_string(node) + " " +
              topo::port_name(port) + ": vc" + std::to_string(f.vc) +
              " is not allocatable there (dateline/mask discipline)");
    return;
  }

  if (router::is_head(f.type)) {
    if (i == 0 && !cdg_.is_start(chan)) {
      violation("packet " + std::to_string(f.packet) +
                ": first hop channel " + cdg_.describe(chan) +
                " is not a legal injection channel");
    }
    if (i > 0 && !cdg_.has_edge(t.last_head_channel, chan)) {
      violation("packet " + std::to_string(f.packet) + " hop " +
                std::to_string(i) + ": " + cdg_.describe(chan) +
                " is not a CDG successor of " +
                cdg_.describe(t.last_head_channel));
    }
    t.last_head_channel = chan;
    t.head_vc[i] = f.vc;
  } else if (t.head_vc[i] != kInvalidVc && t.head_vc[i] != f.vc) {
    violation("packet " + std::to_string(f.packet) + " hop " +
              std::to_string(i) + ": body flit on vc" + std::to_string(f.vc) +
              " where the head used vc" + std::to_string(t.head_vc[i]) +
              " (wormhole interleaving)");
  }

  if (router::is_tail(f.type) && port == Port::kTile) {
    inflight_.erase(packet_key(f));
  }
  (void)bypass;
}

void RuntimeMonitor::step(Cycle now) {
  (void)now;
  const auto& topo = net_.topology();
  const auto& rp = net_.config().router;
  const int depth = rp.buffer_depth;
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    auto& rtr = net_.router_at(n);
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<Port>(p);
      if (!rtr.output(port).attached()) continue;
      const int* credits = rtr.pool().credits(rtr.pool_slot(), p);
      const int* downstream = nullptr;  // occupancy of the downstream VCs
      if (port != Port::kTile) {
        const auto link = topo.neighbor(n, port);
        auto& dst = net_.router_at(link->dst);
        downstream = dst.pool().buf_count_row(dst.pool_slot(),
                                              static_cast<int>(link->dst_in_port));
      }
      for (VcId v = 0; v < rp.vcs; ++v) {
        ++credit_checks_;
        const int c = credits[v];
        if (c < 0 || c > depth) {
          std::string msg = "n";
          msg += std::to_string(n);
          msg += " ";
          msg += topo::port_name(port);
          msg += " vc";
          msg += std::to_string(v);
          msg += ": credit count ";
          msg += std::to_string(c);
          msg += " outside [0,";
          msg += std::to_string(depth);
          msg += "]";
          violation(std::move(msg));
        } else if (!dropping_ && downstream != nullptr &&
                   c + downstream[v] > depth) {
          // Credits count free downstream slots (less those still in
          // flight), so credits + occupancy can never exceed the depth.
          std::string msg = "n";
          msg += std::to_string(n);
          msg += " ";
          msg += topo::port_name(port);
          msg += " vc";
          msg += std::to_string(v);
          msg += ": ";
          msg += std::to_string(c);
          msg += " credits + ";
          msg += std::to_string(downstream[v]);
          msg += " buffered flits exceed buffer depth ";
          msg += std::to_string(depth);
          violation(std::move(msg));
        }
      }
    }
  }
}

VerifiedNetwork::VerifiedNetwork(const core::Config& config, int shards)
    : report_(verify(config)) {
  if (!report_.ok()) {
    throw std::invalid_argument(
        "VerifiedNetwork: static verification failed:\n" + report_.to_string());
  }
  const int resolved = core::resolve_shards(shards, config.radix);
  if (resolved > 1) {
    // The sharded kernel's safety argument must be a theorem about this
    // partition, not folklore: prove it before the first tick.
    partition_analysis_ = std::make_unique<analyze::AnalysisReport>(
        analyze::analyze_config(config, resolved));
    if (!partition_analysis_->ok()) {
      throw std::invalid_argument(
          "VerifiedNetwork: concurrency-safety analysis refused the shard "
          "partition:\n" +
          partition_analysis_->to_string());
    }
  }
  net_ = std::make_unique<core::Network>(config, resolved);
  monitor_ = std::make_unique<RuntimeMonitor>(*net_);
}

}  // namespace ocn::verify
