#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ocn {

void Accumulator::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - m_;
  m_ += delta / static_cast<double>(count_);
  s_ += delta * (x - m_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::clear() { *this = Accumulator{}; }

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.m_ - m_;
  const double n = na + nb;
  s_ += other.s_ + delta * delta * na * nb / n;
  m_ += delta * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  return count_ > 1 ? s_ / static_cast<double>(count_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(std::size_t bins, double bin_width)
    : bin_width_(bin_width), counts_(bins + 1, 0) {}

void Histogram::add(double x) {
  if (x < 0) {
    // A negative latency is an accounting bug upstream; recording it as a
    // zero-latency sample would hide the bug inside the distribution.
    ++negatives_;
    return;
  }
  ++total_;
  const auto bin = static_cast<std::size_t>(x / bin_width_);
  if (bin >= counts_.size() - 1) {
    ++counts_.back();
  } else {
    ++counts_[bin];
  }
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  negatives_ = 0;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.bin_width_ != bin_width_) {
    throw std::invalid_argument("Histogram::merge: incompatible bin layout");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  negatives_ += other.negatives_;
}

double Histogram::percentile(double fraction) const {
  if (total_ == 0) return 0.0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  // The rank of the requested percentile is ceil(fraction * total), but the
  // product can overshoot an exact integer by an ulp (0.29 * 100 ==
  // 29.000000000000004), which ceil would round to the next rank — one bin
  // too high whenever the rank sits exactly on a bucket boundary. Nudge
  // below the true product before rounding up; fractions this close to a
  // boundary are indistinguishable at bin resolution anyway.
  const double scaled = fraction * static_cast<double>(total_);
  auto target = static_cast<std::int64_t>(std::ceil(scaled - 1e-9));
  if (target < 1 && fraction > 0.0) target = 1;
  // The 0th percentile is by definition 0.
  if (target <= 0) return 0.0;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) return static_cast<double>(i + 1) * bin_width_;
  }
  // The percentile falls in the overflow bin: there is no finite upper bin
  // edge, and inventing one would look like a real latency.
  return std::numeric_limits<double>::infinity();
}

void DutyCounter::record_toggle(std::size_t wire, std::int64_t times) {
  toggles_.at(wire) += times;
}

double DutyCounter::duty_factor(std::int64_t cycles) const {
  if (cycles <= 0 || toggles_.empty()) return 0.0;
  const double total = static_cast<double>(total_toggles());
  return total / (static_cast<double>(cycles) * static_cast<double>(toggles_.size()));
}

std::int64_t DutyCounter::total_toggles() const {
  return std::accumulate(toggles_.begin(), toggles_.end(), std::int64_t{0});
}

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << "| " << cells[c] << std::string(widths[c] - cells[c].size(), ' ') << ' ';
    }
    out << "|\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << "|" << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TablePrinter::print() const { std::fputs(to_string().c_str(), stdout); }

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace ocn
