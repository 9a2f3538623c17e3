// E7 — Flow-control methods vs buffer cost (paper section 3.2).
//
// "Alternative flow control methods can substantially reduce the buffer
// storage requirements at the expense of reduced performance. For example,
// if packets are dropped or misrouted when they encounter contention very
// little buffering is required. However, dropping and misrouting protocols
// reduce performance and increase wire loading and hence power dissipation."
//
// Compared at equal offered load: VC credit flow control (4-flit and 1-flit
// buffers), dropping, and bufferless deflection. Reported: buffer bits per
// tile edge (area model), delivered fraction, latency, and wire loading
// (flit-mm per delivered flit — deflection detours cost energy).
#include "bench/common.h"
#include "core/deflection.h"
#include "core/network.h"
#include "phys/area_model.h"
#include "topo/folded_torus.h"
#include "traffic/generator.h"
#include "traffic/patterns.h"

using namespace ocn;

namespace {

bool g_quick = false;

struct Row {
  std::string name;
  double buffer_bits_per_edge;
  double accepted;
  double delivered_fraction;
  double latency;
  double mm_per_flit;
};

Row run_vc(const char* name, int depth, router::FlowControl fc, double rate) {
  core::Config c = core::Config::paper_baseline();
  c.router.buffer_depth = depth;
  c.router.flow_control = fc;
  core::Network net(c);
  traffic::HarnessOptions opt;
  opt.injection_rate = rate;
  opt.warmup = g_quick ? 200 : 500;
  opt.measure = g_quick ? 1200 : 4000;
  opt.drain_max = 20000;
  opt.seed = 17;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();

  phys::RouterAreaParams ap;
  ap.buffer_depth_flits = depth;
  const auto area = phys::AreaModel(c.tech, ap).evaluate();
  return {name, area.input_buffer_bits_per_edge + area.output_buffer_bits_per_edge,
          r.accepted_flits, r.delivered_fraction, r.avg_latency,
          r.avg_hops > 0 ? r.avg_link_mm : 0.0};
}

Row run_deflection(double rate) {
  const topo::FoldedTorus topo(4, 3.0);
  core::DeflectionNetwork net(topo, 23);
  traffic::TrafficPattern pattern(traffic::Pattern::kUniform, topo);
  Rng rng(23, 7);
  const Cycle cycles = g_quick ? 1400 : 4500;
  for (Cycle t = 0; t < cycles; ++t) {
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      if (rng.bernoulli(rate)) net.inject(n, pattern.destination(n, rng), net.now());
    }
    net.step();
  }
  net.drain(50000);
  // Deflection needs no router buffers at all; only the link pipeline
  // registers remain (one flit per input port): 4 x ~300 bits per edge...
  // conservatively count the per-edge pipeline register.
  const double buffer_bits = router::kFlitPhysBits;  // one register per edge
  return {"deflection (bufferless)", buffer_bits,
          static_cast<double>(net.delivered()) /
              static_cast<double>(cycles * topo.num_nodes()),
          net.injected() > 0 ? static_cast<double>(net.delivered()) /
                                   static_cast<double>(net.injected())
                             : 1.0,
          net.latency().mean(), net.link_mm().mean()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "E7", "Flow control vs buffer cost",
                "dropping/misrouting need far less buffering but lose "
                "performance and load the wires more");
  g_quick = rep.quick();

  const double rate = 0.25;
  rep.section("uniform traffic at 0.25 flits/node/cycle");
  TablePrinter t({"flow control", "buffer bits/edge", "accepted", "delivered",
                  "avg latency cyc", "link mm/flit"});
  std::vector<Row> rows;
  rows.push_back(run_vc("VC credit, 4-flit buffers (paper)", 4,
                        router::FlowControl::kVirtualChannel, rate));
  rows.push_back(run_vc("VC credit, 1-flit buffers", 1,
                        router::FlowControl::kVirtualChannel, rate));
  rows.push_back(run_vc("dropping, 1-flit buffers", 1, router::FlowControl::kDropping, rate));
  rows.push_back(run_deflection(rate));
  for (const auto& r : rows) {
    t.add_row({r.name, bench::fmt(r.buffer_bits_per_edge, 0), bench::fmt(r.accepted, 3),
               bench::fmt(r.delivered_fraction, 3), bench::fmt(r.latency, 1),
               bench::fmt(r.mm_per_flit, 1)});
  }
  rep.table("flow_control_comparison", t);

  rep.section("paper-vs-measured");
  const Row& vc4 = rows[0];
  const Row& drop = rows[2];
  const Row& defl = rows[3];
  rep.verdict("buffer savings, dropping vs VC-4", "large",
                 bench::fmt(vc4.buffer_bits_per_edge / drop.buffer_bits_per_edge, 1) + "x fewer bits",
                 drop.buffer_bits_per_edge < 0.5 * vc4.buffer_bits_per_edge);
  rep.verdict("dropping loses packets under contention", "reduced performance",
                 bench::fmt(100 * (1 - drop.delivered_fraction), 1) + "% lost",
                 drop.delivered_fraction < 1.0);
  rep.verdict("deflection raises wire loading", "increased wire loading",
                 bench::fmt(defl.mm_per_flit, 1) + " vs " + bench::fmt(vc4.mm_per_flit, 1) +
                     " mm/flit",
                 defl.mm_per_flit > vc4.mm_per_flit);
  rep.verdict("VC flow control is lossless", "reference design",
                 bench::fmt(100 * vc4.delivered_fraction, 1) + "% delivered",
                 vc4.delivered_fraction == 1.0);
  rep.metric("vc4.delivered_fraction", vc4.delivered_fraction);
  rep.metric("vc4.latency", vc4.latency);
  rep.metric("drop.delivered_fraction", drop.delivered_fraction);
  rep.metric("deflection.mm_per_flit", defl.mm_per_flit);
  rep.metric("buffer_bits_ratio", vc4.buffer_bits_per_edge / drop.buffer_bits_per_edge);
  rep.timing(4 * (g_quick ? 1400 : 4500));
  return rep.finish(0);
}
