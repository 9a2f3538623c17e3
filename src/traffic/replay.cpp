#include "traffic/replay.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sim/parse.h"
#include "sim/rng.h"

namespace ocn::traffic {

namespace {

/// `text` without its leading and trailing blanks.
std::string_view trim(std::string_view text) {
  const std::size_t from = text.find_first_not_of(" \t\r");
  if (from == std::string_view::npos) return {};
  return text.substr(from, text.find_last_not_of(" \t\r") - from + 1);
}

[[noreturn]] void refuse_line(int line_no, const std::string& why) {
  throw std::invalid_argument("trace line " + std::to_string(line_no) + ": " + why);
}

/// Field `name` of a trace line as a whole T (parse_number) within [lo, hi].
template <typename T>
T trace_field(std::string_view text, const char* name, T lo, T hi, int line_no) {
  const std::optional<T> v = parse_number<T>(trim(text));
  if (!v) {
    refuse_line(line_no, std::string(name) + " '" + std::string(trim(text)) +
                             "' is not an integer");
  }
  if (*v < lo || *v > hi) {
    refuse_line(line_no, std::string(name) + " " + std::to_string(*v) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return *v;
}

}  // namespace

std::vector<TraceEntry> parse_trace(const std::string& csv) {
  std::vector<TraceEntry> out;
  std::istringstream in(csv);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (trim(line).empty()) continue;
    std::vector<std::string_view> fields;
    for (std::string_view rest = line;;) {
      const std::size_t comma = rest.find(',');
      fields.push_back(rest.substr(0, comma));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    if (fields.size() < 4 || fields.size() > 5) {
      refuse_line(line_no, "expected cycle,src,dst,bits[,class], got " +
                               std::to_string(fields.size()) + " fields");
    }
    // src and dst take any int here; TraceReplay checks them against the
    // fabric it replays on.
    using Node = std::numeric_limits<NodeId>;
    TraceEntry e;
    e.cycle = trace_field<Cycle>(fields[0], "cycle", 0, std::numeric_limits<Cycle>::max(),
                                 line_no);
    e.src = trace_field<NodeId>(fields[1], "src", Node::min(), Node::max(), line_no);
    e.dst = trace_field<NodeId>(fields[2], "dst", Node::min(), Node::max(), line_no);
    e.payload_bits =
        trace_field<int>(fields[3], "payload_bits", 1, kMaxTracePayloadBits, line_no);
    if (fields.size() == 5) {
      e.service_class = trace_field<int>(fields[4], "service_class", 0, 3, line_no);
    }
    out.push_back(e);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEntry& a, const TraceEntry& b) { return a.cycle < b.cycle; });
  return out;
}

int trace_header_shards(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash == std::string::npos) continue;
    auto pos = line.find_first_not_of(" \t", hash + 1);
    if (pos == std::string::npos) continue;
    constexpr std::string_view kKey = "shards:";
    if (line.compare(pos, kKey.size(), kKey) != 0) continue;
    return trace_field<int>(std::string_view(line).substr(pos + kKey.size()), "'# shards:'", 1,
                            std::numeric_limits<int>::max(), line_no);
  }
  return 0;
}

std::string trace_to_csv(const std::vector<TraceEntry>& entries) {
  std::ostringstream out;
  out << "# cycle,src,dst,payload_bits,service_class\n";
  for (const auto& e : entries) {
    out << e.cycle << ',' << e.src << ',' << e.dst << ',' << e.payload_bits << ','
        << e.service_class << '\n';
  }
  return out.str();
}

TraceReplay::TraceReplay(core::Network& net, std::vector<TraceEntry> entries)
    : net_(net), entries_(std::move(entries)) {
  const int nodes = net_.num_nodes();
  const int vcs = net_.config().router.vcs;
  for (const TraceEntry& e : entries_) {
    const auto refuse = [&e](const char* field, int value, const std::string& rule) {
      throw std::invalid_argument("trace entry at cycle " + std::to_string(e.cycle) +
                                  ": " + field + " " + std::to_string(value) + " " +
                                  rule);
    };
    const std::string fabric = "is outside [0, " + std::to_string(nodes) + ")";
    if (e.src < 0 || e.src >= nodes) refuse("src", e.src, fabric);
    if (e.payload_bits < 1 || e.payload_bits > kMaxTracePayloadBits) {
      refuse("payload_bits", e.payload_bits,
             "is outside [1, " + std::to_string(kMaxTracePayloadBits) + "]");
    }
    if (e.dst < 0 || e.dst >= nodes) refuse("dst", e.dst, fabric);
    if (!core::class_has_vc_pair(e.service_class, vcs)) {
      refuse("service_class", e.service_class,
             "has no VC pair on a " + std::to_string(vcs) + "-VC router");
    }
  }
  net_.kernel().add(this);
}

void TraceReplay::start() {
  started_ = true;
  base_ = net_.now();
}

bool TraceReplay::try_inject(const TraceEntry& e, Cycle now) {
  const int flit_bits = router::kDataBits;
  const int flits = (e.payload_bits + flit_bits - 1) / flit_bits;
  const int last_bits = e.payload_bits - (flits - 1) * flit_bits;
  core::Packet p = core::make_packet(e.dst, e.service_class, flits, last_bits);
  p.flit_payloads[0][0] = static_cast<std::uint64_t>(e.cycle);
  if (!net_.nic(e.src).inject(std::move(p), now)) return false;
  ++injected_;
  return true;
}

void TraceReplay::step(Cycle now) {
  if (!started_) return;
  // Retry NIC-rejected events first (arrival order preserved per source by
  // the stable pass below).
  std::vector<TraceEntry> still_deferred;
  for (const auto& e : deferred_) {
    if (!try_inject(e, now)) still_deferred.push_back(e);
  }
  deferred_ = std::move(still_deferred);

  while (next_ < entries_.size() && base_ + entries_[next_].cycle <= now) {
    const TraceEntry& e = entries_[next_];
    if (!try_inject(e, now)) {
      deferred_.push_back(e);
      ++deferred_total_;
    }
    ++next_;
  }
}

std::vector<TraceEntry> synthesize_soc_trace(int nodes, int flows, int bursts,
                                             int burst_len, Cycle period,
                                             std::uint64_t seed) {
  Rng rng(seed, 0x7ace);
  std::vector<TraceEntry> out;
  struct Flow {
    NodeId src, dst;
    int bits;
    Cycle offset;
  };
  std::vector<Flow> fs;
  for (int f = 0; f < flows; ++f) {
    Flow fl;
    fl.src = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(nodes)));
    fl.dst = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(nodes - 1)));
    if (fl.dst >= fl.src) ++fl.dst;
    fl.bits = 8 << rng.next_below(6);  // 8..256
    fl.offset = static_cast<Cycle>(rng.next_below(static_cast<std::uint64_t>(period)));
    fs.push_back(fl);
  }
  for (int b = 0; b < bursts; ++b) {
    for (const auto& fl : fs) {
      for (int i = 0; i < burst_len; ++i) {
        out.push_back({fl.offset + b * period + i, fl.src, fl.dst, fl.bits, 0});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEntry& a, const TraceEntry& b) { return a.cycle < b.cycle; });
  return out;
}

}  // namespace ocn::traffic
