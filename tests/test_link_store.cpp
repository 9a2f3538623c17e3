// Link stores: the store referee (every row's engaged slots against its
// receiver's arrival byte, its live bit and the link send gauges, after
// every step), the double-send name generated from the wiring plan, the
// slab's huge-page rule, and the NIC's bound on undrained deliveries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/wiring.h"
#include "ref/campaign.h"
#include "router/soa.h"
#include "sim/kernel.h"
#include "sim/link_store.h"
#include "sim/rng.h"
#include "sim/slab.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;

// --- the store referee ---------------------------------------------------------

/// What the referee keeps across steps: the sends seen on each row,
/// (shard, row) -> count and last send cycle, accumulated from the send
/// slots themselves, and the kernel's advance counter.
struct Referee {
  std::map<std::pair<int, std::uint32_t>, std::int64_t> sent;
  std::map<std::pair<int, std::uint32_t>, Cycle> last_send;
  obs::CounterRegistry registry;
  std::int64_t advances = 0;
};

/// After a step, over every attached row of every shard's store: the output
/// slot of the new cycle is engaged iff the receiver's arrival byte is set;
/// an interior row's live bit is set iff some slot of the row is engaged.
/// Each row's slot filled in the finished cycle is tallied as a send, and
/// every topology link's tally must equal its router's link_sends(), the
/// value the link.SRC.PORT.flits gauge reads. Every arrival in the network
/// is consumed in the cycle it is visible, so phase B advanced exactly the
/// boundary rows and the interior rows holding a value sent in the last
/// `latency` cycles: that count must be the kernel's channel_advances.
/// Returns the first disagreement, or "".
std::string check_link_stores(Network& net, Referee& ref) {
  const Cycle now = net.now();
  const Cycle finished = now - 1;
  std::vector<const LinkStore*> stores;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const LinkStore* s = &net.router_at(n).pool().links();
    if (stores.empty() || stores.back() != s) stores.push_back(s);
  }
  std::int64_t expected_advances = 0;
  for (int shard = 0; shard < static_cast<int>(stores.size()); ++shard) {
    const LinkStore& store = *stores[static_cast<std::size_t>(shard)];
    const auto where = [&](std::uint32_t row) {
      return "shard " + std::to_string(shard) + " '" + store.name(row) + "': ";
    };
    const auto check_row = [&](const LinkStore::Attached& a) -> std::string {
      const bool engaged = store.engaged(a.row, now);
      if (a.wake == nullptr) return where(a.row) + "no arrival byte";
      if (engaged != (a.wake->load(std::memory_order_relaxed) != 0)) {
        return where(a.row) + (engaged ? "engaged output, arrival byte clear"
                                       : "arrival byte set, output empty");
      }
      if (store.engaged(a.row, finished + store.latency(a.row))) {
        ++ref.sent[{shard, a.row}];
        ref.last_send[{shard, a.row}] = finished;
      }
      return "";
    };
    for (std::size_t i = 0; i < store.interior().size(); ++i) {
      const LinkStore::Attached& a = store.interior()[i];
      if (std::string err = check_row(a); !err.empty()) return err;
      const bool live = ((store.live()[i / 64] >> (i % 64)) & 1u) != 0;
      if (live != store.active(a.row)) {
        return where(a.row) + (live ? "listed with no slot engaged" : "engaged but not listed");
      }
      const auto it = ref.last_send.find({shard, a.row});
      if (it != ref.last_send.end() && it->second > finished - store.latency(a.row)) {
        ++expected_advances;
      }
    }
    for (const LinkStore::Attached& a : store.boundary()) {
      if (std::string err = check_row(a); !err.empty()) return err;
      ++expected_advances;
    }
  }
  const std::int64_t advances = ref.registry.counter("kernel.channel_advances").value();
  if (advances - ref.advances != expected_advances) {
    return std::to_string(advances - ref.advances) + " rows advanced, " +
           std::to_string(expected_advances) + " held a value";
  }
  ref.advances = advances;
  std::string err;
  core::for_each_link(net.config(), net.topology(), [&](const core::Link& link) {
    if (link.tile() || !err.empty()) return;
    const std::pair<int, std::uint32_t> key{net.shard_of(link.to.node),
                                            core::link_row(net.partition(), link, false)};
    const std::int64_t gauge = net.router_at(link.from.node).output(link.from.port).link_sends();
    const auto it = ref.sent.find(key);
    const std::int64_t tallied = it == ref.sent.end() ? 0 : it->second;
    if (tallied != gauge) {
      err = link.flit_name() + ": " + std::to_string(tallied) + " sends in its slots, gauge " +
            std::to_string(gauge);
    }
  });
  return err;
}

/// Offer `rate` packets per node per cycle (of `flits` flits, or 1..5 when
/// 0) on the dynamic classes for `cycles` cycles, then step on for up to
/// `drain` cycles, checking the stores after every step. Returns the first
/// disagreement with its cycle, or "".
std::string run_store_referee(Network& net, double rate, int flits, Cycle cycles, Cycle drain,
                              std::uint64_t seed, Referee& ref) {
  const std::vector<int> classes = core::dynamic_classes(net.config().router);
  const int nodes = net.num_nodes();
  Rng rng(seed, 0x5703e);
  net.kernel().attach_metrics(&ref.registry);
  ref.advances = ref.registry.counter("kernel.channel_advances").value();
  for (Cycle c = 0; c < cycles + drain; ++c) {
    if (c < cycles) {
      for (NodeId src = 0; src < nodes; ++src) {
        if (rng.next_double() >= rate) continue;
        auto dst = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(nodes - 1)));
        if (dst >= src) ++dst;
        const int cls = classes[rng.next_below(classes.size())];
        const int n = flits > 0 ? flits : 1 + static_cast<int>(rng.next_below(5));
        net.nic(src).inject(core::make_packet(dst, cls, n), net.now());
      }
    } else if (net.idle()) {
      break;
    }
    net.step();
    const std::string err = check_link_stores(net, ref);
    if (!err.empty()) return "cycle " + std::to_string(c) + ": " + err;
  }
  net.kernel().attach_metrics(nullptr);
  return "";
}

/// The link.SRC.PORT.flits gauges, read through the registry, against the
/// referee's tallies.
std::string check_gauges(Network& net, const Referee& ref) {
  obs::CounterRegistry registry;
  net.register_metrics(registry);
  const obs::MetricsSnapshot snap = registry.snapshot(net.now());
  net.kernel().attach_metrics(nullptr);
  std::string err;
  std::int64_t total = 0;
  core::for_each_link(net.config(), net.topology(), [&](const core::Link& link) {
    if (link.tile() || !err.empty()) return;
    const std::string name = "link." + std::to_string(link.from.node) + "." +
                             topo::port_name(link.from.port) + ".flits";
    const auto it = ref.sent.find({net.shard_of(link.to.node),
                                   core::link_row(net.partition(), link, false)});
    const std::int64_t tallied = it == ref.sent.end() ? 0 : it->second;
    total += tallied;
    if (!snap.has(name) || snap.value(name) != tallied) err = name + " disagrees with the slots";
  });
  if (err.empty() && total == 0) err = "no link carried a flit";
  return err;
}

// Every quick-matrix cell (latency 2, dropping, piggyback credit-only
// fillers, the chaos kill_link reroutes with the kill mid-load), at one
// shard and at four (one per row: every vertical link a boundary row).
TEST(LinkStore, RefereeHoldsAfterEveryStepOverTheQuickMatrix) {
  for (const int shards : {1, 4}) {
    for (const auto& cell : ref::quick_matrix()) {
      SCOPED_TRACE(cell.name + ", shards " + std::to_string(shards));
      Network net(cell.config, shards);
      Referee ref;
      if (cell.scenario.active()) {
        ASSERT_EQ(run_store_referee(net, 0.2, 0, cell.scenario.kill_cycle, 0, 7, ref), "");
        chaos::kill_link(net, cell.scenario.kill_node, cell.scenario.kill_port);
      }
      EXPECT_EQ(run_store_referee(net, 0.2, 0, 300, 3000, 7, ref), "");
      EXPECT_EQ(check_gauges(net, ref), "");
    }
  }
}

// The saturated16 shape: 16x16 at 0.9 flits/node/cycle in 4-flit packets.
TEST(LinkStore, RefereeHoldsPastSaturationOn16x16) {
  Config config = Config::paper_baseline();
  config.radix = 16;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    Network net(config, shards);
    Referee ref;
    EXPECT_EQ(run_store_referee(net, 0.9 / 4, 4, 500, 300, 3, ref), "");
    EXPECT_EQ(check_gauges(net, ref), "");
  }
}

// The network consumes every arrival, so expiry never happens there. Here
// a sink leaves every value on the wire: after every tick the output is
// engaged iff the sink's byte is set, the live bit iff a slot is engaged,
// the slots tally exactly the source's sends, and phase B advanced the row
// iff it held a value sent in the last latency + 1 cycles (the expiring
// output included).
struct ExpirySource final : Clockable {
  LinkStore* store = nullptr;
  LinkRef out;
  std::vector<Cycle> sends;
  int sent = 0;
  void step(Cycle now) override {
    for (const Cycle c : sends) {
      if (c == now) {
        store->send(out, now, static_cast<std::int8_t>(now));
        ++sent;
      }
    }
  }
};
struct ExpirySink final : Clockable {
  std::atomic<std::uint8_t> wake[1] = {};
  void step(Cycle) override { wake[0].store(0, std::memory_order_relaxed); }
  bool idle_internal() const override { return true; }
};

TEST(LinkStore, RefereeHoldsWhenValuesExpire) {
  for (const int latency : {1, 3}) {
    SCOPED_TRACE(latency);
    Kernel k(1);
    obs::CounterRegistry registry;
    k.attach_metrics(&registry);
    LinkStore store(1, {LinkStore::RowSpec::of<std::int8_t>(latency)});
    const std::uint32_t row = LinkStore::row_id(0, 0);
    ExpirySource src;
    ExpirySink sink;
    src.store = &store;
    src.out = store.attach(row, &sink.wake[0], &sink, false);
    src.sends = {0, 1, 2, 5, 9, 10, 11, 12, 20};
    k.add_to_shard(0, &src);
    k.add_to_shard(0, &sink, sink.wake, 1);
    k.add_to_shard(0, &store);
    std::int64_t tallied = 0;
    std::int64_t advances = 0;
    Cycle last_send = -100;
    for (Cycle c = 0; c < 30; ++c) {
      k.tick();
      const Cycle now = k.now();
      ASSERT_EQ(store.engaged(row, now), sink.wake[0].load() != 0) << "cycle " << c;
      ASSERT_EQ((store.live()[0] & 1u) != 0, store.active(row)) << "cycle " << c;
      if (store.engaged(row, c + latency)) {
        ++tallied;
        last_send = c;
      }
      const std::int64_t now_advances = registry.counter("kernel.channel_advances").value();
      ASSERT_EQ(now_advances - advances, last_send >= c - latency ? 1 : 0) << "cycle " << c;
      advances = now_advances;
    }
    EXPECT_EQ(tallied, src.sent);
    EXPECT_EQ(src.sent, 9);
  }
}

// A second send on a network link in one cycle terminates and names the
// link from the wiring plan.
TEST(LinkStoreDeathTest, DoubleSendNamesTheLinkFromThePlan) {
  Network net(Config::paper_baseline(), 2);
  const router::Router& r = net.router_at(0);
  const LinkRef link = r.pool().out_link(r.pool_slot(), static_cast<int>(topo::Port::kRowPos));
  ASSERT_TRUE(link);
  const router::Flit f;
  link.store->send(link, net.now(), f);
  EXPECT_DEATH(link.store->send(link, net.now(), f), "double send on channel 'link:0:row\\+'");
}

// --- the slab -------------------------------------------------------------------

// Only whole 2 MB extents are advised, so a slab under 2 MB never is.
TEST(Slab, HugePageAdviceOnlyOnWholeExtents) {
  const Slab small(Slab::kHugePage - 4096);
  EXPECT_EQ(small.advised(), 0u);
  const Slab large(2 * Slab::kHugePage + 12345);
  EXPECT_LE(large.advised(), 2 * Slab::kHugePage);
  EXPECT_EQ(large.advised() % Slab::kHugePage, 0u);
}

TEST(Slab, MeasuringSlabCountsWhatARealOneHandsOut) {
  Slab measure;
  EXPECT_EQ(measure.take<int>(3, 0), nullptr);
  EXPECT_EQ(measure.take_bytes(10, 64), nullptr);
  EXPECT_EQ(measure.used(), 64u + 10u);
  Slab real(measure.used());
  int* ints = real.take<int>(3, 7);
  ASSERT_NE(ints, nullptr);
  EXPECT_EQ(ints[2], 7);
  EXPECT_NE(real.take_bytes(10, 64), nullptr);
  EXPECT_EQ(real.used(), measure.used());
  EXPECT_THROW(real.take_bytes(1 << 20, 1), std::bad_alloc);
}

// A 16x16 shard's pool (the saturated16 shape) is under 2 MB: no advice,
// so nothing is rounded up to a huge page.
TEST(Slab, SixteenBySixteenPoolGetsNoAdvice) {
  const Config config = Config::paper_baseline();
  const router::RouterStatePool pool(256, config.router, config.link_latency);
  EXPECT_EQ(pool.slab_advised(), 0u);
}

// --- bounded deliveries -----------------------------------------------------------

// With no delivery handler, received() is capped: the delivery past the cap
// throws and names the node and the count. Self-addressed packets reach it
// through the NIC's loopback queue without entering the fabric.
TEST(NicReceived, DeliveriesPastTheCapWithNoHandlerThrow) {
  Network net(Config::paper_baseline());
  const NodeId node = 5;
  const std::int64_t cap = 1 << 16;  // core::Nic::kMaxReceived
  for (std::int64_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(net.nic(node).inject(core::make_word_packet(node, 0, i), net.now()));
  }
  net.step();
  net.step();
  EXPECT_EQ(static_cast<std::int64_t>(net.nic(node).received().size()), cap);
  ASSERT_TRUE(net.nic(node).inject(core::make_word_packet(node, 0, cap), net.now()));
  try {
    net.step();
    net.step();
    ADD_FAILURE() << "a delivery past the cap was queued";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Nic 5"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(cap + 1)), std::string::npos) << what;
  }
  // A drained queue takes deliveries again.
  net.nic(node).received().clear();
  ASSERT_TRUE(net.nic(node).inject(core::make_word_packet(node, 0, 1), net.now()));
  net.run(2);
  EXPECT_EQ(net.nic(node).received().size(), 1u);
}

}  // namespace
}  // namespace ocn
