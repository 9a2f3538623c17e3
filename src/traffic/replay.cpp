#include "traffic/replay.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sim/rng.h"

namespace ocn::traffic {

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
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    TraceEntry e;
    long long cycle = 0;
    int got = std::sscanf(line.c_str(), "%lld ,%d ,%d ,%d ,%d", &cycle, &e.src,
                          &e.dst, &e.payload_bits, &e.service_class);
    if (got < 4) {
      got = std::sscanf(line.c_str(), "%lld,%d,%d,%d,%d", &cycle, &e.src, &e.dst,
                        &e.payload_bits, &e.service_class);
    }
    if (got < 4) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": expected cycle,src,dst,bits[,class]");
    }
    e.cycle = cycle;
    if (e.cycle < 0) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": cycle must be >= 0");
    }
    if (e.payload_bits < 1) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": payload_bits must be >= 1");
    }
    if (e.service_class < 0 || e.service_class >= 4) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": service_class must be in [0, 4)");
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
    constexpr const char kKey[] = "shards:";
    if (line.compare(pos, sizeof(kKey) - 1, kKey) != 0) continue;
    int shards = 0;
    if (std::sscanf(line.c_str() + pos + sizeof(kKey) - 1, "%d", &shards) != 1 ||
        shards < 1) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": '# shards:' needs a positive integer");
    }
    return shards;
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
