// Statistics accumulators used by the measurement harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ocn {

/// Streaming scalar accumulator: count / mean / variance (Welford) / min / max.
class Accumulator {
 public:
  void add(double x);
  void clear();
  /// Merge another accumulator into this one (min/max/count/mean/variance).
  void merge(const Accumulator& other);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? m_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1); 0 if count < 2.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double m_ = 0.0;   // running mean
  double s_ = 0.0;   // sum of squared deviations
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [0, bins*bin_width) with an overflow bin;
/// supports exact percentile queries at bin resolution.
///
/// Negative samples are a measurement bug upstream (latencies cannot be
/// negative); they are NOT folded into bin 0 but counted separately so the
/// bug cannot masquerade as zero-latency traffic. They do not contribute to
/// count() or percentile().
class Histogram {
 public:
  Histogram(std::size_t bins, double bin_width);

  void add(double x);
  void clear();
  /// Merge another histogram's counts into this one. Both histograms must
  /// have the same shape (bin count and width); throws std::invalid_argument
  /// otherwise. Merging is order-independent (integer adds), so sharded
  /// accumulation bit-matches single-pass accumulation.
  void merge(const Histogram& other);

  /// Number of (non-negative) samples recorded.
  std::int64_t count() const { return total_; }
  /// Negative samples rejected by add() — always 0 in a correct experiment.
  std::int64_t negative_samples() const { return negatives_; }
  /// Value below which the given fraction (0..1) of samples fall, at bin
  /// granularity (upper edge of the containing bin). Returns 0 if empty or
  /// fraction == 0. A percentile that lands in the overflow bin has no
  /// finite bin edge and reports +infinity rather than a plausible-looking
  /// finite latency.
  double percentile(double fraction) const;
  std::int64_t overflow() const { return counts_.back(); }
  const std::vector<std::int64_t>& bins() const { return counts_; }
  double bin_width() const { return bin_width_; }

 private:
  double bin_width_;
  std::vector<std::int64_t> counts_;  // last bin is overflow
  std::int64_t total_ = 0;
  std::int64_t negatives_ = 0;
};

/// Counts toggles on a set of wires to compute duty factor (paper section 4.4).
class DutyCounter {
 public:
  explicit DutyCounter(std::size_t wires) : toggles_(wires, 0) {}

  void record_toggle(std::size_t wire, std::int64_t times = 1);

  /// Fraction of cycles each wire toggled, averaged over wires.
  /// Can exceed 1.0 when several bits are sent per cycle per wire.
  double duty_factor(std::int64_t cycles) const;
  std::int64_t total_toggles() const;
  std::size_t wires() const { return toggles_.size(); }

 private:
  std::vector<std::int64_t> toggles_;
};

/// Pretty-prints a table row-by-row with aligned columns; used by the bench
/// harness so every experiment prints in the same shape.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Render to stdout.
  void print() const;
  /// Render to a string (for tests).
  std::string to_string() const;

  /// Structured access for machine-readable emitters (obs::Report tables).
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ocn
