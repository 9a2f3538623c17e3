// E2 — Mesh vs torus power (paper section 3.1).
//
// The paper decomposes flit energy into per-hop and per-wire-distance terms,
// approximates mesh ~ 2k/3 hops of one tile pitch and torus ~ k/2 hops of
// two pitches, and concludes: if wire power dominates, the mesh is more
// power efficient, but for the 16-tile example the torus overhead is small
// (<15%) and is outweighed by its doubled bandwidth.
//
// We print the analytic expressions, then validate them against cycle-level
// simulation: measured mean hops, mean link mm, and event-counted energy.
#include "bench/common.h"
#include "core/network.h"
#include "phys/power_model.h"
#include "traffic/generator.h"

using namespace ocn;

namespace {

struct SimPoint {
  double avg_hops;
  double avg_mm;
  double pj_per_flit;
};

SimPoint simulate(core::TopologyKind kind, bool quick) {
  core::Config c = core::Config::paper_baseline();
  c.topology = kind;
  core::Network net(c);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.1;
  opt.warmup = quick ? 200 : 500;
  opt.measure = quick ? 1000 : 5000;
  opt.seed = 11;
  traffic::LoadHarness harness(net, opt);
  const auto r = harness.run();
  const auto e = net.energy(phys::PowerModel(c.tech));
  return {r.avg_hops, r.avg_link_mm, e.pj_per_delivered_flit};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "E2", "Mesh vs folded torus power",
                "wire energy > hop energy; torus costs more energy but "
                "overhead < 15% at k=4");

  const phys::Technology tech = phys::default_technology();
  const phys::PowerModel pm(tech);
  const int bits = router::kFlitPhysBits;

  rep.section("analytic model (paper expressions, k = 2..8)");
  TablePrinter t({"k", "mesh hops", "mesh mm", "mesh pJ", "torus hops", "torus mm",
                  "torus pJ", "torus/mesh"});
  for (int k : {2, 4, 6, 8}) {
    const auto m = pm.mesh_power(k, bits);
    const auto o = pm.torus_power(k, bits);
    t.add_row({std::to_string(k), bench::fmt(m.avg_hops, 2),
               bench::fmt(m.avg_distance_tiles * tech.tile_mm, 1),
               bench::fmt(m.energy_pj_per_flit, 1), bench::fmt(o.avg_hops, 2),
               bench::fmt(o.avg_distance_tiles * tech.tile_mm, 1),
               bench::fmt(o.energy_pj_per_flit, 1),
               bench::fmt(pm.torus_overhead(k, bits), 3)});
  }
  rep.table("analytic", t);

  rep.section("cycle simulation, uniform traffic at 0.1 flits/node/cycle (k=4)");
  const SimPoint mesh = simulate(core::TopologyKind::kMesh, rep.quick());
  const SimPoint torus = simulate(core::TopologyKind::kFoldedTorus, rep.quick());
  TablePrinter s({"topology", "sim hops", "sim link mm", "sim pJ/flit"});
  s.add_row({"mesh", bench::fmt(mesh.avg_hops, 2), bench::fmt(mesh.avg_mm, 2),
             bench::fmt(mesh.pj_per_flit, 1)});
  s.add_row({"folded torus", bench::fmt(torus.avg_hops, 2), bench::fmt(torus.avg_mm, 2),
             bench::fmt(torus.pj_per_flit, 1)});
  rep.table("simulated", s);

  rep.section("paper-vs-measured");
  const double ratio_analytic = pm.torus_overhead(4, bits);
  const double ratio_sim = torus.pj_per_flit / mesh.pj_per_flit;
  rep.verdict("inter-tile wire vs per-hop energy (ratio)", "comparable",
                 bench::fmt(pm.wire_to_hop_ratio(bits), 2),
                 pm.wire_to_hop_ratio(bits) > 0.4 && pm.wire_to_hop_ratio(bits) < 1.5);
  // The paper counts the in-tile input-to-output crossing as wire power;
  // with that accounting, wire transmission clearly dominates logic:
  const double logic_pj = (tech.buffer_write_pj_per_bit + tech.buffer_read_pj_per_bit +
                           tech.control_pj_per_bit) * bits;
  const double wire_pj = pm.hop_energy_pj(bits) - logic_pj + pm.wire_energy_pj_per_mm(bits) * tech.tile_mm;
  rep.verdict("total wire vs controller-logic energy", "significantly greater",
                 bench::fmt(wire_pj / logic_pj, 1) + "x", wire_pj > 2 * logic_pj);
  rep.verdict("torus power overhead, analytic k=4", "<15%",
                 bench::fmt(100 * (ratio_analytic - 1), 1) + "%",
                 ratio_analytic < 1.15 && ratio_analytic > 1.0);
  rep.verdict("torus power overhead, simulated k=4", "<15%",
                 bench::fmt(100 * (ratio_sim - 1), 1) + "%", ratio_sim < 1.15);
  // The harness never sends to self, so the expectation is the all-pairs
  // value scaled by n/(n-1) = 16/15.
  const double mesh_expect = phys::PowerModel::mesh_avg_hops_exact(4) * 16.0 / 15.0;
  const double torus_expect = phys::PowerModel::torus_avg_hops_exact(4) * 16.0 / 15.0;
  rep.verdict("sim mesh hops vs expectation (no self-traffic)",
                 bench::fmt(mesh_expect, 2), bench::fmt(mesh.avg_hops, 2),
                 std::abs(mesh.avg_hops - mesh_expect) < 0.1);
  rep.verdict("sim torus hops vs expectation (no self-traffic)",
                 bench::fmt(torus_expect, 2), bench::fmt(torus.avg_hops, 2),
                 std::abs(torus.avg_hops - torus_expect) < 0.1);
  rep.config(core::Config::paper_baseline());
  rep.metric("torus_overhead_analytic", ratio_analytic);
  rep.metric("torus_overhead_sim", ratio_sim);
  rep.metric("mesh.avg_hops", mesh.avg_hops);
  rep.metric("torus.avg_hops", torus.avg_hops);
  rep.metric("mesh.pj_per_flit", mesh.pj_per_flit);
  rep.metric("torus.pj_per_flit", torus.pj_per_flit);
  rep.timing(2 * (rep.quick() ? 1200 : 5500));
  return rep.finish(0);
}
