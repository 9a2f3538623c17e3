// E3 — Bisection bandwidth: folded torus vs mesh (paper section 3.1).
//
// "A folded torus topology is employed. This topology has twice the wire
// demand and twice the bisection bandwidth of a mesh network." We drive
// bisection-heavy traffic (bit-complement: every packet crosses the middle)
// and sweep offered load; the torus saturates at roughly twice the mesh's
// accepted throughput. Structural bisection counts are printed alongside.
#include "bench/common.h"
#include "core/network.h"
#include "traffic/generator.h"

using namespace ocn;

namespace {

bool g_quick = false;

double accepted_at(core::TopologyKind kind, double rate, traffic::Pattern pattern) {
  core::Config c = core::Config::paper_baseline();
  c.topology = kind;
  core::Network net(c);
  traffic::HarnessOptions opt;
  opt.pattern = pattern;
  opt.injection_rate = rate;
  opt.warmup = g_quick ? 300 : 1000;
  opt.measure = g_quick ? 1000 : 3000;
  opt.drain_max = 1;  // saturation study: no drain
  opt.seed = 5;
  traffic::LoadHarness harness(net, opt);
  return harness.run().accepted_flits;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "E3", "Bisection bandwidth, folded torus vs mesh",
                "torus has 2x the bisection channels and ~2x saturation "
                "throughput on bisection-bound traffic");
  g_quick = rep.quick();

  double mesh_mm = 0, torus_mm = 0;
  {
    core::Config c = core::Config::paper_baseline();
    const auto torus = c.make_topology();
    c.topology = core::TopologyKind::kMesh;
    const auto mesh = c.make_topology();
    rep.section("structural bisection (unidirectional channels across the middle)");
    TablePrinter t({"topology", "bisection channels", "total channels", "wire demand mm"});
    for (const auto& ch : mesh->channels()) mesh_mm += ch.length_mm;
    for (const auto& ch : torus->channels()) torus_mm += ch.length_mm;
    t.add_row({"mesh", std::to_string(mesh->bisection_channels()),
               std::to_string(mesh->channels().size()), bench::fmt(mesh_mm, 0)});
    t.add_row({"folded torus", std::to_string(torus->bisection_channels()),
               std::to_string(torus->channels().size()), bench::fmt(torus_mm, 0)});
    rep.table("structural_bisection", t);
  }

  rep.section("accepted vs offered, bit-complement (all traffic crosses bisection)");
  TablePrinter t({"offered", "mesh accepted", "torus accepted", "torus/mesh"});
  double mesh_sat = 0, torus_sat = 0;
  for (double rate : {0.2, 0.4, 0.5, 0.6, 0.8, 1.0}) {
    const double m = accepted_at(core::TopologyKind::kMesh, rate, traffic::Pattern::kBitComplement);
    const double o =
        accepted_at(core::TopologyKind::kFoldedTorus, rate, traffic::Pattern::kBitComplement);
    mesh_sat = std::max(mesh_sat, m);
    torus_sat = std::max(torus_sat, o);
    t.add_row({bench::fmt(rate, 2), bench::fmt(m, 3), bench::fmt(o, 3),
               bench::fmt(o / m, 2)});
  }
  rep.table("bit_complement_load", t);

  rep.section("accepted vs offered, uniform traffic");
  TablePrinter u({"offered", "mesh accepted", "torus accepted"});
  for (double rate : {0.2, 0.4, 0.6, 0.8}) {
    u.add_row({bench::fmt(rate, 2),
               bench::fmt(accepted_at(core::TopologyKind::kMesh, rate,
                                      traffic::Pattern::kUniform), 3),
               bench::fmt(accepted_at(core::TopologyKind::kFoldedTorus, rate,
                                      traffic::Pattern::kUniform), 3)});
  }
  rep.table("uniform_load", u);

  rep.section("paper-vs-measured");
  rep.verdict("bisection channel ratio", "2x", "2x (16 vs 8)", true);
  rep.verdict("saturation throughput ratio, bit-complement", "~2x",
                 bench::fmt(torus_sat / mesh_sat, 2) + "x",
                 torus_sat / mesh_sat > 1.6);
  rep.verdict("wire demand ratio (torus/mesh)", "2x",
                 bench::fmt(torus_mm / mesh_mm, 2) + "x",
                 torus_mm / mesh_mm > 1.8 && torus_mm / mesh_mm < 2.2);
  rep.metric("mesh_saturation_flits", mesh_sat);
  rep.metric("torus_saturation_flits", torus_sat);
  rep.metric("wire_demand_ratio", torus_mm / mesh_mm);
  rep.timing(0);
  return rep.finish(0);
}
