#include "core/config.h"

#include <stdexcept>

#include "routing/source_route.h"
#include "topo/folded_torus.h"
#include "topo/mesh.h"
#include "topo/torus.h"

namespace ocn::core {

const char* topology_kind_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kFoldedTorus: return "folded_torus";
  }
  return "?";
}

bool Config::dateline_parity() const {
  return router.dateline_parity(topology != TopologyKind::kMesh);
}

std::unique_ptr<topo::Topology> Config::make_topology() const {
  switch (topology) {
    case TopologyKind::kMesh:
      return std::make_unique<topo::Mesh>(radix, tech.tile_mm);
    case TopologyKind::kTorus:
      return std::make_unique<topo::Torus>(radix, tech.tile_mm);
    case TopologyKind::kFoldedTorus:
      return std::make_unique<topo::FoldedTorus>(radix, tech.tile_mm);
  }
  throw std::invalid_argument("unknown topology kind");
}

void Config::validate() const {
  auto fail = [](const std::string& why) { throw std::invalid_argument("Config: " + why); };
  if (radix < 2) {
    fail("radix " + std::to_string(radix) + " is below the 2x2 minimum");
  }
  if (router.vcs < 1 || router.vcs > 8) {
    fail("vcs = " + std::to_string(router.vcs) +
         "; the 8-bit VC mask in the flit header supports 1..8 virtual channels");
  }
  if (router.buffer_depth < 1) {
    fail("buffer_depth = " + std::to_string(router.buffer_depth) +
         "; every VC needs at least one buffer slot");
  }
  if (link_latency < 1) {
    fail("link_latency = " + std::to_string(link_latency) +
         "; links are registered, so latency must be >= 1 cycle");
  }
  if (flit_data_bits < 1 || flit_data_bits > 256) {
    fail("flit_data_bits = " + std::to_string(flit_data_bits) +
         " outside [1,256] (the paper's maximum flit payload)");
  }
  if (interface_partitions < 1 || flit_data_bits % interface_partitions != 0) {
    fail("interface_partitions = " + std::to_string(interface_partitions) +
         " must be >= 1 and divide flit_data_bits = " +
         std::to_string(flit_data_bits));
  }
  if (dateline_parity() && router.vcs % 2 != 0) {
    fail(std::string(topology_kind_name(topology)) +
         " has wraparound rings, so VC flow control keeps the dateline "
         "discipline, which pairs VCs as {2c, 2c+1}: vcs = " +
         std::to_string(router.vcs) + " must be even (run ocn-verify to see "
         "the channel-dependency cycle the discipline prevents)");
  }
  // The longest dimension-ordered route must fit the source-route encoder
  // (SourceRoute::kMaxEntries entries): worst case is one full traversal
  // per dimension plus the extract entry.
  const bool wraparound = topology != TopologyKind::kMesh;
  const int per_dim = wraparound ? radix / 2 : radix - 1;
  const int worst_entries = 2 * per_dim + 1;
  if (worst_entries > routing::SourceRoute::kMaxEntries) {
    fail("radix " + std::to_string(radix) + " " + topology_kind_name(topology) +
         " needs up to " + std::to_string(worst_entries) +
         " route entries, above the " +
         std::to_string(routing::SourceRoute::kMaxEntries) +
         "-entry source-route encoder; reduce the radix" +
         (wraparound ? "" : " or use a wraparound topology (shorter worst-case "
                            "routes)"));
  }
  if (router.reservation_frame < 1) {
    fail("reservation_frame = " + std::to_string(router.reservation_frame) +
         "; the cyclic reservation table needs at least one slot");
  }
  if (link_spare_bits < 0) {
    fail("link_spare_bits = " + std::to_string(link_spare_bits) +
         " cannot be negative");
  }
  if (nic_queue_packets < 1) {
    fail("nic_queue_packets = " + std::to_string(nic_queue_packets) +
         "; the NIC needs at least one injection-queue slot");
  }
}

std::string Config::summary() const {
  std::string s;
  s += "topology=";
  s += topology_kind_name(topology);
  auto field = [&s](const char* name, auto value) {
    s += ' ';
    s += name;
    s += '=';
    s += std::to_string(value);
  };
  field("radix", radix);
  field("vcs", router.vcs);
  field("depth", router.buffer_depth);
  field("flow_control", static_cast<int>(router.flow_control));
  field("vc_parity", dateline_parity() ? 1 : 0);
  field("priority_arb", router.priority_arbitration ? 1 : 0);
  field("piggyback", router.piggyback_credits ? 1 : 0);
  field("speculative", router.speculative ? 1 : 0);
  field("frame", router.reservation_frame);
  field("reclaim_idle", router.reclaim_idle_slots ? 1 : 0);
  field("sched_vc", router.scheduled_vc());
  field("excl_sched", router.exclusive_scheduled_vc ? 1 : 0);
  field("link_latency", link_latency);
  field("flit_bits", flit_data_bits);
  field("partitions", interface_partitions);
  field("fault_layer", fault_layer ? 1 : 0);
  field("spare_bits", link_spare_bits);
  field("nic_queue", nic_queue_packets);
  field("seed", seed);
  return s;
}

std::uint64_t Config::fingerprint() const {
  // FNV-1a, 64-bit: stable across platforms and builds, unlike std::hash.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : summary()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Config Config::paper_baseline() {
  Config c;
  c.topology = TopologyKind::kFoldedTorus;
  c.radix = 4;
  c.router.vcs = 8;
  c.router.buffer_depth = 4;
  c.flit_data_bits = 256;
  return c;
}

}  // namespace ocn::core
