// Network configuration: one value object describing everything needed to
// build a network (topology, router microarchitecture, link timing,
// interface width, technology).
#pragma once

#include <memory>
#include <string>

#include "phys/technology.h"
#include "router/params.h"
#include "topo/topology.h"

namespace ocn::core {

enum class TopologyKind { kMesh, kTorus, kFoldedTorus };

const char* topology_kind_name(TopologyKind k);

struct Config {
  TopologyKind topology = TopologyKind::kFoldedTorus;
  int radix = 4;

  router::RouterParams router;

  /// Inter-router link latency in cycles (wires driven at the router
  /// frequency, section 2.3; raise to model serialized narrow links).
  int link_latency = 1;

  /// Data field width of the tile interface (section 2.1: 256 bits). With
  /// `interface_partitions` > 1 the interface is split into that many
  /// independent sub-networks (section 4.2); each then carries
  /// flit_data_bits / interface_partitions per flit.
  int flit_data_bits = 256;
  int interface_partitions = 1;

  /// Bit-level link fault modelling (section 2.5): spare bits per link and
  /// whether the fault layer is instantiated at all.
  bool fault_layer = false;
  int link_spare_bits = 1;

  /// Client-side injection queue capacity, packets per class.
  int nic_queue_packets = 64;

  std::uint64_t seed = 1;

  phys::Technology tech = phys::default_technology();

  /// Data bits actually carried per flit (after partitioning).
  int flit_payload_bits() const { return flit_data_bits / interface_partitions; }

  std::unique_ptr<topo::Topology> make_topology() const;

  /// Whether the routers keep the dateline VC-parity discipline:
  /// RouterParams::dateline_parity on this topology (torus and folded torus
  /// have wraparound rings, the mesh has none).
  bool dateline_parity() const;

  /// Throws std::invalid_argument with a description if inconsistent.
  void validate() const;

  /// Canonical one-line text rendering of every field that affects behaviour
  /// (topology, router microarchitecture, link timing, interface, seed).
  /// Two configs with the same summary build indistinguishable networks.
  std::string summary() const;

  /// FNV-1a hash of summary(): a stable fingerprint bench reports embed so
  /// baseline comparisons can refuse to diff runs of different configs.
  std::uint64_t fingerprint() const;

  /// The paper's example network (section 2): 4x4 folded torus, 8 VCs,
  /// 4-flit buffers, 256-bit interface, 0.1um process.
  static Config paper_baseline();
};

}  // namespace ocn::core
