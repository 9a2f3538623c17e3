// Traffic substrate: patterns, injection processes, duty accounting.
#include <gtest/gtest.h>

#include "topo/folded_torus.h"
#include "topo/mesh.h"
#include "traffic/duty.h"
#include "traffic/injection.h"
#include "traffic/patterns.h"
#include "traffic/saturation.h"

namespace ocn::traffic {
namespace {

TEST(Patterns, UniformNeverSelectsSelfAndCoversAll) {
  const topo::FoldedTorus t(4, 3.0);
  const TrafficPattern p(Pattern::kUniform, t);
  Rng rng(1);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 16000; ++i) {
    const NodeId d = p.destination(3, rng);
    ASSERT_NE(d, 3);
    ++hits[static_cast<std::size_t>(d)];
  }
  for (NodeId n = 0; n < 16; ++n) {
    if (n == 3) {
      EXPECT_EQ(hits[static_cast<std::size_t>(n)], 0);
    } else {
      EXPECT_NEAR(hits[static_cast<std::size_t>(n)], 16000 / 15, 150);
    }
  }
}

TEST(Patterns, TransposeMapsCoordinates) {
  const topo::Mesh t(4, 3.0);
  const TrafficPattern p(Pattern::kTranspose, t);
  Rng rng(1);
  EXPECT_EQ(p.destination(t.node_at(1, 3), rng), t.node_at(3, 1));
  EXPECT_EQ(p.destination(t.node_at(2, 0), rng), t.node_at(0, 2));
}

TEST(Patterns, BitComplementIsSelfInverse) {
  const topo::Mesh t(4, 3.0);
  const TrafficPattern p(Pattern::kBitComplement, t);
  Rng rng(1);
  for (NodeId n = 0; n < 16; ++n) {
    const NodeId d = p.destination(n, rng);
    EXPECT_EQ(d, 15 - n);
  }
}

TEST(Patterns, TornadoGoesHalfwayAround) {
  const topo::Mesh t(4, 3.0);
  const TrafficPattern p(Pattern::kTornado, t);
  Rng rng(1);
  EXPECT_EQ(p.destination(t.node_at(0, 0), rng), t.node_at(2, 2));
  EXPECT_EQ(p.destination(t.node_at(3, 1), rng), t.node_at(1, 3));
}

TEST(Patterns, HotspotFraction) {
  const topo::Mesh t(4, 3.0);
  const TrafficPattern p(Pattern::kHotspot, t, /*fraction=*/0.5, /*node=*/7);
  Rng rng(2);
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.destination(0, rng) == 7) ++hot;
  }
  // 50% directed + uniform share of the remainder.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.5 + 0.5 / 15.0, 0.02);
}

TEST(Patterns, DeterministicSelfMapsFallBackToUniform) {
  const topo::Mesh t(4, 3.0);
  // Transpose fixes the diagonal; those sources must still send somewhere.
  const TrafficPattern p(Pattern::kTranspose, t);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(p.destination(t.node_at(2, 2), rng), t.node_at(2, 2));
  }
}

TEST(Injection, BernoulliRate) {
  auto p = InjectionProcess::bernoulli(0.25);
  Rng rng(4);
  int fires = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) fires += p.fire(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fires) / n, 0.25, 0.01);
  EXPECT_DOUBLE_EQ(p.mean_rate(), 0.25);
}

TEST(Injection, OnOffMeanRateMatches) {
  auto p = InjectionProcess::on_off(/*rate_on=*/0.5, /*p_on_off=*/0.02, /*p_off_on=*/0.02);
  EXPECT_NEAR(p.mean_rate(), 0.25, 1e-12);
  Rng rng(5);
  int fires = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) fires += p.fire(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fires) / n, 0.25, 0.02);
}

TEST(Injection, OnOffIsBurstier) {
  // Compare variance of per-window counts at equal mean rate.
  auto bern = InjectionProcess::bernoulli(0.25);
  auto burst = InjectionProcess::on_off(0.5, 0.02, 0.02);
  Rng r1(6), r2(6);
  Accumulator vb, vo;
  for (int w = 0; w < 500; ++w) {
    int cb = 0, co = 0;
    for (int i = 0; i < 100; ++i) {
      cb += bern.fire(r1) ? 1 : 0;
      co += burst.fire(r2) ? 1 : 0;
    }
    vb.add(cb);
    vo.add(co);
  }
  EXPECT_GT(vo.variance(), 2.0 * vb.variance());
}

TEST(Saturation, BisectionFindsTheKnee) {
  // Mesh under bit-complement saturates near 0.47 (bench E3); the search
  // must land there without a manual sweep.
  core::Config c = core::Config::paper_baseline();
  c.topology = core::TopologyKind::kMesh;
  SaturationOptions opt;
  opt.pattern = Pattern::kBitComplement;
  opt.measure = 1500;
  const auto r = find_saturation(c, opt);
  EXPECT_GT(r.probes, 2);
  EXPECT_NEAR(r.saturation_load, 0.47, 0.08);
  EXPECT_NEAR(r.peak_accepted, 0.47, 0.08);
}

TEST(Saturation, UnsaturableLoadReturnsCeiling) {
  // The folded torus accepts ~everything under bit-complement up to 1.0.
  core::Config c = core::Config::paper_baseline();
  SaturationOptions opt;
  opt.pattern = Pattern::kBitComplement;
  opt.measure = 1500;
  opt.max_load = 0.9;
  const auto r = find_saturation(c, opt);
  EXPECT_DOUBLE_EQ(r.saturation_load, 0.9);
  EXPECT_EQ(r.probes, 1);
}

TEST(Duty, DedicatedWiringBaseline) {
  const topo::Mesh t(4, 3.0);
  // One flow using 8 bits/cycle peak but only 0.5 avg: duty 6.25%.
  std::vector<DedicatedFlow> flows{{t.node_at(0, 0), t.node_at(3, 0), 0.5, 8.0}};
  const auto r = dedicated_wiring(t, flows);
  EXPECT_EQ(r.total_wires, 8);
  EXPECT_DOUBLE_EQ(r.total_wire_mm, 8 * 9.0);  // 3 tiles x 3mm each
  EXPECT_DOUBLE_EQ(r.avg_duty_factor, 0.0625);
}

TEST(Duty, MixedFlowsWireWeighted) {
  const topo::Mesh t(4, 3.0);
  std::vector<DedicatedFlow> flows{
      {t.node_at(0, 0), t.node_at(1, 0), 1.0, 1.0},   // always busy, 1 wire
      {t.node_at(0, 0), t.node_at(1, 0), 0.0, 3.0},   // never used, 3 wires
  };
  const auto r = dedicated_wiring(t, flows);
  EXPECT_EQ(r.total_wires, 4);
  EXPECT_DOUBLE_EQ(r.avg_duty_factor, 0.25);
}

}  // namespace
}  // namespace ocn::traffic
