// Fault-tolerant wiring (paper section 2.5).
//
// Every network link carries `spares` spare bits. After manufacturing test,
// laser fuses are blown (modelled as configure_steering()) so that bit
// steering logic shifts all bits starting at a faulty position up by one,
// routing data around the fault; mirror logic at the receiver restores the
// original positions. With s spare bits, any s stuck-at faults on one link
// are tolerated. Unconfigured (or excess) faults corrupt payload bits and
// are caught by the end-to-end check-and-retry service layered on top
// (services/reliable.h).
#pragma once

#include <cstdint>
#include <vector>

#include "router/flit.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace ocn::core {

/// One physical link's fault state and steering configuration.
class SteeredLink {
 public:
  /// `width` payload wires plus `spares` spare wires.
  SteeredLink(int width, int spares);

  int width() const { return width_; }
  int spares() const { return spares_; }

  /// Inject a stuck-at fault on a physical wire (0 .. width+spares-1).
  void inject_stuck_at(int wire, bool stuck_value);
  void clear_faults();
  int fault_count() const;

  /// "Blow the fuses": compute the steering map from the known faults.
  /// Returns true if all faults are covered by the available spares.
  bool configure_steering();
  /// Forget the configuration (simulates an unconfigured part).
  void reset_steering();

  /// Drive logical bits through the physical wires: steer at the
  /// transmitter, apply stuck-at faults, de-steer at the receiver.
  ///
  /// Excess-fault contract: when configure_steering() returned false
  /// (fault_count() > spares()), the skip list still covers every faulty
  /// wire, so no logical bit ever reads a stuck wire or any position outside
  /// the width+spares wire array — the top fault_count()-spares() logical
  /// bits are shifted past the last wire and read back as 0, and every lower
  /// bit is delivered intact. Corruption is confined; there is no
  /// out-of-range access through the steering map.
  std::vector<bool> transmit(const std::vector<bool>& bits) const;

  /// True when transmit() is currently the identity for all inputs.
  bool healthy() const;

 private:
  /// Physical wire carrying logical bit i under the current steering map.
  int physical_wire(int logical) const;

  int width_;
  int spares_;
  std::vector<bool> stuck_;        // fault present per wire
  std::vector<bool> stuck_value_;  // value the wire is stuck at
  std::vector<int> skip_;          // sorted faulty wires skipped by steering
  bool steering_configured_ = false;
};

/// LinkTransform pushing each flit's 256-bit data field through a
/// SteeredLink; installed on output controllers by the Network when the
/// fault layer is enabled. Beyond the static stuck-at model it carries the
/// runtime (in-operation) fault modes the chaos engine drives: whole-link
/// death and transient per-flit bit flips.
class FaultyLinkTransform final : public router::LinkTransform {
 public:
  explicit FaultyLinkTransform(SteeredLink link) : link_(std::move(link)) {}

  SteeredLink& link() { return link_; }
  const SteeredLink& link() const { return link_; }

  void apply(router::Flit& flit) override;

  /// Whole-link death: every payload bit of every crossing flit is inverted
  /// (the electrical link still toggles, but carries garbage). Flits are
  /// never dropped, so flit conservation — and Network::idle() — holds; the
  /// end-to-end check layer is what recovers the data.
  void set_dead(bool dead) { dead_ = dead; }
  bool dead() const { return dead_; }

  /// Transient noise: each crossing flit independently suffers one random
  /// single-bit flip with probability `p`. Deterministic for a fixed seed.
  void set_flip_probability(double p, std::uint64_t seed) {
    flip_probability_ = p;
    rng_ = Rng(seed);
  }
  double flip_probability() const { return flip_probability_; }

  std::int64_t corrupted_flits() const { return corrupted_flits_; }
  std::int64_t transient_flips() const { return transient_flips_; }

 private:
  SteeredLink link_;
  bool dead_ = false;
  double flip_probability_ = 0.0;
  Rng rng_;
  std::int64_t corrupted_flits_ = 0;
  std::int64_t transient_flips_ = 0;
};

/// Payload <-> bit-vector conversion helpers (exposed for tests).
std::vector<bool> payload_to_bits(const router::Payload& data, int bits);
router::Payload bits_to_payload(const std::vector<bool>& bits);

}  // namespace ocn::core
