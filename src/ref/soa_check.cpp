#include "ref/soa_check.h"

#include <sstream>

#include "core/network.h"

namespace ocn::ref {

namespace {

constexpr std::size_t kMaxLines = 32;

struct Check {
  std::vector<std::string> lines;

  template <typename A, typename B>
  void eq(const std::string& label, const A& recomputed, const B& tracked) {
    if (static_cast<std::int64_t>(recomputed) ==
        static_cast<std::int64_t>(tracked)) {
      return;
    }
    if (lines.size() >= kMaxLines) return;
    std::ostringstream out;
    out << label << ": recomputed=" << static_cast<std::int64_t>(recomputed)
        << " tracked=" << static_cast<std::int64_t>(tracked);
    lines.push_back(out.str());
  }
};

void check_router(Check& c, router::Router& r, const std::string& tag,
                  int vcs) {
  router::RouterStatePool& pool = r.pool();
  const int slot = r.pool_slot();
  for (int p = 0; p < topo::kNumPorts; ++p) {
    const auto port = static_cast<topo::Port>(p);
    if (!r.input(port).attached()) continue;
    const std::string pt = tag + "." + topo::port_name(port);
    const int* count = pool.buf_count_row(slot, p);
    const bool* routed = pool.routed_row(slot, p);
    const VcId* out_vc = pool.out_vc_row(slot, p);
    const bool* primed = pool.alloc_primed_row(slot, p);
    const bool* head = pool.alloc_head_row(slot, p);
    const std::uint8_t* mask = pool.alloc_mask_row(slot, p);
    for (VcId v = 0; v < vcs; ++v) {
      // The allocation-retry cache rows cache pure functions of the decoded
      // head; wherever the allocation stage would consult them (occupied,
      // routed, no VC yet), they must agree with the flit. want_odd is left
      // out: deriving it needs the router's private dateline tables, and it
      // is recomputed from the same head the mask check pins.
      if (count[v] == 0 || !primed[v] || !routed[v] || out_vc[v] != kInvalidVc) continue;
      const std::string vt = pt + ".vc" + std::to_string(v);
      const router::Flit& front = pool.buf_front(slot, p, v);
      c.eq(vt + ".alloc_cache.head", router::is_head(front.type) ? 1 : 0,
           head[v] ? 1 : 0);
      if (router::is_head(front.type)) {
        c.eq(vt + ".alloc_cache.mask", front.vc_mask, mask[v]);
      }
    }
  }
}

void check_nic(Check& c, core::Nic& nic, const std::string& tag) {
  // The incrementally-maintained occupancy counters against the accessors
  // that recompute from the queues.
  c.eq(tag + ".queued_flits", nic.queued_flits(), nic.queued_flit_counter());
  c.eq(tag + ".eject_pending", nic.pending_eject_flits(),
       nic.eject_pending_counter());
  c.eq(tag + ".scheduled_flits", nic.scheduled_flits_queued(),
       nic.scheduled_flit_counter());
}

}  // namespace

std::vector<std::string> soa_crosscheck(core::Network& net) {
  Check c;
  const int vcs = net.config().router.vcs;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const std::string tag = "node" + std::to_string(n);
    check_router(c, net.router_at(n), tag + ".router", vcs);
    check_nic(c, net.nic(n), tag + ".nic");
  }
  return std::move(c.lines);
}

}  // namespace ocn::ref
