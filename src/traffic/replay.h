// Trace-driven workload replay.
//
// Loads a trace of timed message events — (cycle, src, dst, payload_bits,
// class) — and injects them into a network at the recorded times. Traces
// come from a CSV file/string or are synthesized programmatically, letting
// users evaluate the network under application-derived traffic rather than
// synthetic patterns.
//
// CSV format, one event per line, '#' comments allowed:
//   cycle,src,dst,payload_bits[,service_class]
#pragma once

#include <string>
#include <vector>

#include "core/network.h"
#include "sim/stats.h"

namespace ocn::traffic {

struct TraceEntry {
  Cycle cycle = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int payload_bits = 64;
  int service_class = 0;
};

/// Largest payload a trace entry may carry: 64 flits of 256 bits. Traces
/// written by the tests, benches and examples carry at most 512 bits
/// (synthesize_soc_trace at most 256); the bound keeps one line from asking
/// the NIC for millions of flits.
inline constexpr int kMaxTracePayloadBits = 64 * router::kDataBits;

/// Parse trace text. Each line is four or five comma-separated fields, each
/// a whole integer (blanks around it allowed): a cycle >= 0, src, dst,
/// payload_bits in [1, kMaxTracePayloadBits] and an optional class in
/// [0, 4). Throws std::invalid_argument with the line number on anything
/// else: a missing or extra field, trailing characters ("2junk", "1e3"),
/// or a value out of range or too large for its type. Entries are sorted by
/// cycle.
std::vector<TraceEntry> parse_trace(const std::string& csv);

/// Render entries back to CSV (round-trips with parse_trace).
std::string trace_to_csv(const std::vector<TraceEntry>& entries);

/// Shard-count directive from a trace header: the first "# shards: N" comment
/// line, or 0 when the trace carries none. Shard-campaign divergence reports
/// record the shard count this way so --replay reruns the trace under the
/// same kernel partitioning; parse_trace itself ignores the line (it is a
/// comment). Throws std::invalid_argument on a malformed directive
/// ("# shards:" followed by anything but one positive int, by the field
/// rules of parse_trace).
int trace_header_shards(const std::string& csv);

class TraceReplay final : public Clockable {
 public:
  /// Entries must be sorted by cycle (parse_trace guarantees it). Times are
  /// relative to the cycle start() is called. Throws std::invalid_argument,
  /// naming the field, its value and the entry's cycle, when an entry's src
  /// or dst is not a node of `net`, its payload_bits is outside [1,
  /// kMaxTracePayloadBits] or its class has no VC pair there.
  TraceReplay(core::Network& net, std::vector<TraceEntry> entries);

  void start();
  bool finished() const { return started_ && next_ >= entries_.size() && deferred_.empty(); }

  std::int64_t injected() const { return injected_; }
  std::int64_t deferred_injections() const { return deferred_total_; }
  const Accumulator& latency() const { return latency_; }
  std::int64_t delivered() const { return delivered_; }

  void step(Cycle now) override;

 private:
  bool try_inject(const TraceEntry& e, Cycle now);

  core::Network& net_;
  std::vector<TraceEntry> entries_;
  std::size_t next_ = 0;
  std::vector<TraceEntry> deferred_;  ///< NIC-rejected, retried next cycle
  bool started_ = false;
  Cycle base_ = 0;

  std::int64_t injected_ = 0;
  std::int64_t deferred_total_ = 0;
  std::int64_t delivered_ = 0;
  Accumulator latency_;
};

/// Synthesize a bursty multi-phase SoC-like trace: `flows` random
/// (src,dst) pairs each emitting a burst of messages every `period` cycles.
std::vector<TraceEntry> synthesize_soc_trace(int nodes, int flows, int bursts,
                                             int burst_len, Cycle period,
                                             std::uint64_t seed);

}  // namespace ocn::traffic
