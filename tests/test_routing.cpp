// Source routes: 2-bit turn encoding, route computation, route walking.
#include <gtest/gtest.h>

#include "routing/route_computer.h"
#include "routing/source_route.h"
#include "topo/folded_torus.h"
#include "topo/mesh.h"
#include "topo/torus.h"

namespace ocn::routing {
namespace {

using topo::Port;

TEST(SourceRoute, FifoTwoBitCodes) {
  SourceRoute r;
  r.push(2);
  r.push(0);
  r.push(3);
  EXPECT_EQ(r.size(), 3);
  EXPECT_EQ(r.bits_required(), 6);
  EXPECT_EQ(r.pop(), 2);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.pop(), 0);
  EXPECT_EQ(r.pop(), 3);
  EXPECT_TRUE(r.empty());
}

TEST(SourceRoute, PaperFieldBound) {
  SourceRoute r;
  for (int i = 0; i < 8; ++i) r.push(0);
  EXPECT_TRUE(r.fits_paper_field());  // exactly 16 bits
  r.push(0);
  EXPECT_FALSE(r.fits_paper_field());
}

TEST(Turns, RelativeTurnTable) {
  // Heading row+: left -> col+, right -> col-, straight -> row+.
  EXPECT_EQ(apply_turn(Port::kRowPos, TurnCode::kStraight), Port::kRowPos);
  EXPECT_EQ(apply_turn(Port::kRowPos, TurnCode::kLeft), Port::kColPos);
  EXPECT_EQ(apply_turn(Port::kRowPos, TurnCode::kRight), Port::kColNeg);
  EXPECT_EQ(apply_turn(Port::kRowPos, TurnCode::kExtract), Port::kTile);
  EXPECT_EQ(apply_turn(Port::kColNeg, TurnCode::kLeft), Port::kRowPos);
  EXPECT_EQ(apply_turn(Port::kColNeg, TurnCode::kStraight), Port::kColNeg);
}

TEST(Turns, RoundTripWithTurnBetween) {
  for (int h = 0; h < topo::kNumDirPorts; ++h) {
    const Port heading = static_cast<Port>(h);
    for (int code = 0; code < 4; ++code) {
      const Port next = apply_turn(heading, static_cast<TurnCode>(code));
      const auto back = turn_between(heading, next);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(static_cast<int>(*back), code);
    }
  }
}

TEST(Turns, UTurnsAreNotExpressible) {
  EXPECT_FALSE(turn_between(Port::kRowPos, Port::kRowNeg).has_value());
  EXPECT_FALSE(turn_between(Port::kColPos, Port::kColNeg).has_value());
}

class RouteWalk : public ::testing::TestWithParam<int> {};

TEST_P(RouteWalk, AllPairsRoutesReachDestination) {
  const double tile = 3.0;
  const int k = GetParam();
  const topo::Mesh mesh(k, tile);
  const topo::Torus torus(k, tile);
  const topo::FoldedTorus folded(k, tile);
  for (const topo::Topology* t :
       {static_cast<const topo::Topology*>(&mesh),
        static_cast<const topo::Topology*>(&torus),
        static_cast<const topo::Topology*>(&folded)}) {
    const RouteComputer rc(*t);
    for (NodeId s = 0; s < t->num_nodes(); ++s) {
      for (NodeId d = 0; d < t->num_nodes(); ++d) {
        if (s == d) continue;
        const auto nodes = rc.walk(s, rc.compute(s, d));
        ASSERT_GE(nodes.size(), 2u);
        EXPECT_EQ(nodes.front(), s);
        EXPECT_EQ(nodes.back(), d) << t->name() << " " << s << "->" << d;
        // Route is minimal.
        EXPECT_EQ(static_cast<int>(nodes.size()) - 1, t->min_hops(s, d));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radices, RouteWalk, ::testing::Values(2, 3, 4, 5, 8));

TEST(RouteComputer, PaperNetworkRoutesFitThe16BitField) {
  const topo::FoldedTorus f(4, 3.0);
  const RouteComputer rc(f);
  for (NodeId s = 0; s < f.num_nodes(); ++s) {
    for (NodeId d = 0; d < f.num_nodes(); ++d) {
      EXPECT_TRUE(rc.compute(s, d).fits_paper_field());
    }
  }
}

TEST(RouteComputer, RowFirstDimensionOrder) {
  const topo::Mesh m(4, 3.0);
  const RouteComputer rc(m);
  const auto path = rc.port_path(m.node_at(0, 0), m.node_at(2, 2));
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0], Port::kRowPos);
  EXPECT_EQ(path[1], Port::kRowPos);
  EXPECT_EQ(path[2], Port::kColPos);
  EXPECT_EQ(path[3], Port::kColPos);
  EXPECT_EQ(path[4], Port::kTile);
}

TEST(RouteComputer, TorusTakesShortWayAround) {
  const topo::Torus t(4, 3.0);
  const RouteComputer rc(t);
  // 0 -> 3 in a ring of 4: one hop in the negative direction.
  const auto path = rc.port_path(t.node_at(0, 0), t.node_at(3, 0));
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], Port::kRowNeg);
}

TEST(RouteComputer, HopCountMatchesPathLength) {
  const topo::FoldedTorus f(4, 3.0);
  const RouteComputer rc(f);
  EXPECT_EQ(rc.hop_count(0, 0), 0);
  for (NodeId d = 1; d < f.num_nodes(); ++d) {
    EXPECT_EQ(rc.hop_count(0, d), f.min_hops(0, d));
  }
}

// compute() is the turn encoding of port_path() for every pair, on every
// topology kind, fault-free and with one and two dead links (a row link
// out of the corner, then a column link out of the middle, so detours
// happen in both dimensions on the rings).
TEST(RouteComputer, ComputeIsTheTurnEncodingOfPortPath) {
  const auto encode = [](const std::vector<Port>& path) {
    SourceRoute r;
    if (path.empty()) return r;
    r.push(injection_code(path.front()));
    for (std::size_t i = 1; i < path.size(); ++i) {
      r.push(static_cast<std::uint8_t>(turn_between(path[i - 1], path[i]).value()));
    }
    return r;
  };
  for (const int k : {2, 3, 4, 5, 6, 7, 8, 16}) {
    const topo::Mesh mesh(k, 1.0);
    const topo::Torus torus(k, 1.0);
    const topo::FoldedTorus folded(k, 1.0);
    for (const topo::Topology* t : {static_cast<const topo::Topology*>(&mesh),
                                    static_cast<const topo::Topology*>(&torus),
                                    static_cast<const topo::Topology*>(&folded)}) {
      RouteComputer rc(*t);
      for (int dead = 0; dead <= 2; ++dead) {
        if (dead == 1) rc.set_link_dead(0, Port::kRowPos);
        if (dead == 2) rc.set_link_dead(t->node_at(k / 2, k / 2), Port::kColNeg);
        for (NodeId s = 0; s < t->num_nodes(); ++s) {
          for (NodeId d = 0; d < t->num_nodes(); ++d) {
            ASSERT_EQ(rc.compute(s, d), encode(rc.port_path(s, d)))
                << t->name() << " radix " << k << ", " << dead << " dead links, " << s
                << "->" << d;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ocn::routing
