// The tile's network interface (paper section 2.1).
//
// "The network presents a simple reliable datagram interface to each tile":
// an input port (into the network) and an output port (out of it), each a
// 256-bit data field plus control subfields (router::Flit carries them on
// the wire). Packet is the client-level datagram the NIC converts to and
// from flit streams.
#pragma once

#include <cstdint>
#include <vector>

#include "router/flit.h"
#include "router/params.h"
#include "sim/types.h"

namespace ocn::core {

/// Client-level datagram. One entry of flit_payloads becomes one flit; the
/// last flit may carry fewer bits (size-field power gating, section 2.1).
struct Packet {
  NodeId dst = kInvalidNode;

  /// Service class selects the VC pair {2c, 2c+1}; higher classes win
  /// priority arbitration. The NIC converts it to the 8-bit VC mask.
  int service_class = 0;

  std::vector<router::Payload> flit_payloads = {router::Payload{}};
  int last_flit_bits = router::kDataBits;

  /// Marked by the scheduled-traffic machinery; rides the reserved VC.
  bool scheduled = false;

  // --- filled in by the NIC ------------------------------------------------
  NodeId src = kInvalidNode;
  PacketId id = 0;
  Cycle created = 0;    ///< handed to the NIC
  Cycle injected = 0;   ///< head flit entered the network
  Cycle delivered = 0;  ///< tail flit reassembled at the destination
  int hops = 0;         ///< links traversed
  double link_mm = 0.0; ///< physical wire distance travelled

  int num_flits() const { return static_cast<int>(flit_payloads.size()); }
  /// Total useful payload bits.
  int payload_bits() const {
    return (num_flits() - 1) * router::kDataBits + last_flit_bits;
  }
  Cycle latency() const { return delivered - created; }
  Cycle network_latency() const { return delivered - injected; }
};

/// Convenience constructors.
Packet make_packet(NodeId dst, int service_class, int num_flits,
                   int last_flit_bits = router::kDataBits);
/// Single-flit packet carrying a 64-bit word (fits services and tests).
Packet make_word_packet(NodeId dst, int service_class, std::uint64_t word,
                        int data_bits = 64);

/// VC mask for a service class: both members of the VC pair (the dateline
/// scheme needs both parities available).
std::uint8_t vc_mask_for_class(int service_class);

/// Whether service class c has its VC pair {2c, 2c+1} on a `vcs`-VC router;
/// a one-VC router carries class 0 alone. Nic::inject requires it.
bool class_has_vc_pair(int service_class, int vcs);

/// The classes dynamic traffic may inject: each of the four classes with a
/// VC pair, less the scheduled VC's class when that VC is exclusive
/// (Nic::inject refuses it).
std::vector<int> dynamic_classes(const router::RouterParams& params);

}  // namespace ocn::core
