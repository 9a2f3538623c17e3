// Parallel experiment-sweep engine.
//
// A sweep is a list of independent simulation points (Config + harness
// options). Each point runs a whole simulation on a pool worker with its
// own derived Rng seed (optionally sharded internally across the point's
// own kernel pool — see LoadPoint::shards), and the per-point
// statistics merge on the calling thread, in point-index order, through the
// order-sensitive Accumulator::merge / order-free Histogram::merge
// machinery.
//
// Determinism contract:
//   * point i always simulates with seed derive_seed(master_seed, i),
//     regardless of which worker claims it or in what order;
//   * simulations share no mutable state (each point owns its Network,
//     LoadHarness and Rng streams);
//   * merge() folds results in index order on one thread.
// Therefore the merged statistics of a sweep are bit-identical for any
// thread count, including threads == 1; tests assert this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "obs/counters.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/sweep/thread_pool.h"
#include "traffic/generator.h"

namespace ocn::sweep {

struct SweepOptions {
  /// Worker count; <= 0 means default_threads() (OCN_SWEEP_THREADS env
  /// override, else hardware concurrency).
  int threads = 0;
  /// Master seed; point i runs with derive_seed(master_seed, i).
  std::uint64_t master_seed = 42;
};

/// One experiment point: a network build plus a load-harness run on it.
struct LoadPoint {
  core::Config config;
  traffic::HarnessOptions harness;
  /// Spatial shards for the point's Network (see core::Network): 1 = the
  /// kernel steps on the calling thread, N > 1 = intra-point parallelism on
  /// the point's own kernel pool (distinct from the sweep pool, so
  /// nesting is safe). 0 = OCN_SIM_SHARDS env, default 1. Sharding does
  /// not change results — the merged statistics stay bit-identical — only
  /// wall-clock.
  int shards = 0;
};

/// Everything a point's measurement window produced, in mergeable form.
struct LoadResult {
  traffic::HarnessResult harness;
  Accumulator latency;
  Accumulator network_latency;
  Accumulator hops;
  Accumulator link_mm;
  Histogram latency_hist{traffic::kLatencyHistBins, traffic::kLatencyHistBinWidth};
  /// End-of-run bulk sample of the point's own CounterRegistry (each worker
  /// simulation registers its Network's instruments into a registry it owns,
  /// so sampling is thread-free by construction).
  obs::MetricsSnapshot metrics;
};

/// Sweep-wide statistics folded from per-point results in index order.
struct MergedStats {
  Accumulator latency;
  Accumulator network_latency;
  Accumulator hops;
  Accumulator link_mm;
  Histogram latency_hist{traffic::kLatencyHistBins, traffic::kLatencyHistBinWidth};
  std::int64_t measured_packets = 0;
  /// Counter totals summed across points in index order (deterministic for
  /// any worker count, like every other field here).
  obs::MetricsSnapshot metrics;
};

class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options = {});

  int threads() const { return pool_.size(); }
  std::uint64_t master_seed() const { return master_seed_; }

  /// Generic sharded map: runs body(i, derive_seed(master_seed, i)) for
  /// each i in [0, n) across the pool and returns results in index order.
  /// R must be default-constructible and movable. The body must derive all
  /// its randomness from the passed seed and touch no shared mutable state.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t, std::uint64_t)>& body) {
    std::vector<R> out(n);
    pool_.for_each_index(n, [&](std::size_t i) {
      out[i] = body(i, derive_seed(master_seed_, static_cast<std::uint64_t>(i)));
    });
    return out;
  }

  /// Run every point (fresh Network + LoadHarness each, seeded from the
  /// point index) and return per-point results in point order.
  std::vector<LoadResult> run(const std::vector<LoadPoint>& points);

  /// Fold per-point results in index order on the calling thread.
  static MergedStats merge(const std::vector<LoadResult>& results);

  /// Convenience: the common injection-rate grid — one point per rate,
  /// sharing a Config and base harness options.
  static std::vector<LoadPoint> rate_grid(const core::Config& config,
                                          const traffic::HarnessOptions& base,
                                          const std::vector<double>& rates);

 private:
  std::uint64_t master_seed_;
  ThreadPool pool_;
};

}  // namespace ocn::sweep
