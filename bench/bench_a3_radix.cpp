// A3 (ablation) — Radix scaling.
//
// The paper's expressions in section 3.1 are parameterized on the radix k;
// this sweep runs the real network at k = 2..8 and checks the analytic
// scaling: hops grow ~k/2 (torus), the torus/mesh power ratio stays bounded,
// and per-node throughput falls as the bisection is shared by more nodes.
#include "bench/common.h"
#include "core/network.h"
#include "phys/power_model.h"
#include "traffic/generator.h"

using namespace ocn;

namespace {

bool g_quick = false;

struct Point {
  double hops;
  double lat_low;
  double sat;
};

Point run_k(int k) {
  Point out{};
  for (const double rate : {0.05, 0.9}) {
    core::Config c = core::Config::paper_baseline();
    c.radix = k;
    core::Network net(c);
    traffic::HarnessOptions opt;
    opt.injection_rate = rate;
    opt.warmup = g_quick ? 200 : 500;
    opt.measure = g_quick ? 800 : 2500;
    opt.drain_max = 1;
    opt.seed = 71;
    traffic::LoadHarness harness(net, opt);
    const auto r = harness.run();
    if (rate == 0.05) {
      out.hops = r.avg_hops;
      out.lat_low = r.avg_latency;
    } else {
      out.sat = r.accepted_flits;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "A3", "Ablation: network radix (k x k folded torus)",
                "hops ~ k/2, zero-load latency ~ 2 cycles/hop, per-node "
                "uniform throughput ~ 4/k on the bisection");
  g_quick = rep.quick();

  rep.section("radix sweep, uniform traffic");
  TablePrinter t({"k", "nodes", "sim hops", "analytic k/2*16/15...", "lat @0.05",
                  "sat throughput", "torus/mesh power"});
  const phys::PowerModel pm(phys::default_technology());
  for (int k : {2, 4, 6, 8}) {
    const Point p = run_k(k);
    const double n = static_cast<double>(k) * k;
    const double analytic = phys::PowerModel::torus_avg_hops_exact(k) * n / (n - 1);
    t.add_row({std::to_string(k), std::to_string(k * k), bench::fmt(p.hops, 2),
               bench::fmt(analytic, 2), bench::fmt(p.lat_low, 1), bench::fmt(p.sat, 3),
               bench::fmt(pm.torus_overhead(k, router::kFlitPhysBits), 3)});
    // Appended piecewise for GCC 12's -Wrestrict (see verify::Cdg::describe).
    std::string key = "k";
    key += std::to_string(k);
    rep.metric(key + ".hops", p.hops);
    rep.metric(key + ".sat", p.sat);
  }
  rep.table("radix_sweep", t);

  rep.section("paper-vs-measured");
  const Point k4 = run_k(4);
  const Point k8 = run_k(8);
  rep.verdict("hops scale with k", "k/2 per paper approximations",
                 bench::fmt(k8.hops / k4.hops, 2) + "x from k=4 to k=8",
                 k8.hops / k4.hops > 1.7 && k8.hops / k4.hops < 2.2);
  rep.verdict("per-node throughput falls with k (shared bisection)", "~1/k",
                 bench::fmt(k4.sat, 2) + " -> " + bench::fmt(k8.sat, 2),
                 k8.sat < k4.sat);
  rep.verdict("torus power overhead stays <15% for all k", "paper regime",
                 bench::fmt(100 * (pm.torus_overhead(8, 300) - 1), 1) + "% at k=8",
                 pm.torus_overhead(8, 300) < 1.15);
  rep.metric("hops_ratio_k8_vs_k4", k8.hops / k4.hops);
  rep.metric("sat_k4", k4.sat);
  rep.metric("sat_k8", k8.sat);
  rep.timing(12 * (g_quick ? 1000 : 3000));
  return rep.finish(0);
}
