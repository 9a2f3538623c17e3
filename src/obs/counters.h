// Low-overhead counter registry for simulator observability.
//
// Two kinds of instrument, both registered once and sampled in bulk:
//
//   * owned counters — the registry hands out a stable Counter* whose hot
//     path is a single non-atomic increment. Intended for components that
//     do not already keep the statistic;
//   * gauges — a sampling callback over a statistic a component already
//     maintains (router buffer totals, channel send counts, NIC packet
//     counts). Gauges add literally zero hot-path cost: nothing happens
//     until snapshot() reads them.
//
// A registry is single-threaded by design, matching the simulator: one
// registry per Network/Kernel, one per sweep worker. Cross-thread
// aggregation happens by value — each worker snapshots its own registry and
// the snapshots merge() on the coordinating thread (sum by name), the same
// scatter-gather shape as Accumulator/Histogram merging in the sweep
// engine. No locks, no atomics, no false sharing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace ocn::obs {

/// One owned statistic slot. Increment is the entire hot-path cost.
class Counter {
 public:
  void inc(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// A bulk sample of every instrument in a registry at one simulation time.
/// Values appear in registration order, so snapshots of identically built
/// registries (e.g. sweep workers over the same config) align name-for-name.
struct MetricsSnapshot {
  std::int64_t cycle = 0;
  std::vector<std::pair<std::string, std::int64_t>> values;

  bool has(std::string_view name) const;
  /// Value by name; 0 when absent (counters start at zero, so an absent
  /// instrument and a silent one are indistinguishable by design).
  std::int64_t value(std::string_view name) const;

  /// Sum `other` into this snapshot: matching names add, new names append
  /// in other's order, cycle becomes the max. Order-independent up to
  /// permutation of appended names when merged in a fixed order — the sweep
  /// engine merges in point-index order, making results deterministic.
  void merge(const MetricsSnapshot& other);

  Json to_json() const;
  /// Inverse of to_json. Throws std::runtime_error naming the key when
  /// `cycle` or a counter value is not a number or lies outside int64.
  static MetricsSnapshot from_json(const Json& j);
};

class CounterRegistry {
 public:
  /// Register (or fetch) an owned counter. The returned reference is stable
  /// for the registry's lifetime. Registering a name twice returns the same
  /// counter, so independent subsystems can share a statistic. Throws
  /// std::invalid_argument when the name is already a gauge.
  Counter& counter(const std::string& name);

  /// Register a sampling callback. Throws std::invalid_argument when the
  /// name is already taken (a gauge has no meaningful "merge" with another
  /// instrument of the same name inside one registry).
  void gauge(std::string name, std::function<std::int64_t()> read);

  /// Bulk-sample every instrument: owned counters first, then gauges, each
  /// in registration order.
  MetricsSnapshot snapshot(std::int64_t cycle = 0) const;

  std::size_t instruments() const { return counters_.size() + gauges_.size(); }

  /// Zero every owned counter (gauges read live state and are unaffected).
  void reset_counters();

 private:
  /// Marks a gauge in names_; counters map to their index in counters_.
  static constexpr std::size_t kGauge = static_cast<std::size_t>(-1);

  // deque: Counter addresses must survive registration of later counters.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::vector<std::pair<std::string, std::function<std::int64_t()>>> gauges_;
  /// Every registered name, so registration is O(log n) per instrument
  /// rather than a scan of all earlier ones. Ordered (never iterated for
  /// output; snapshots follow counters_/gauges_ registration order).
  std::map<std::string, std::size_t, std::less<>> names_;
};

}  // namespace ocn::obs
