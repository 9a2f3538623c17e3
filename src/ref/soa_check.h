// Summary-invariant check over a production network (ref::soa_crosscheck).
//
// Router and NIC state has one home (DESIGN.md §4h): Router's phases read
// and write RouterStatePool rows directly, and VC ownership is one mask,
// so there is no second copy to disagree with. What can drift is state
// that caches or summarizes other state:
//   * the VC-allocation retry cache rows, against the head flit they cache;
//   * the NIC occupancy counters, against recomputation from the queues.
// A phase addressing the wrong pool row is caught by ocn-diff instead,
// which compares buffer contents, credits, VC allocation and every
// rotation pointer against the reference model.
//
// run_lockstep / run_shard_lockstep call this after every tick, so the whole
// 12-cell quick matrix (and every ocn-diff campaign) gates on it.
#pragma once

#include <string>
#include <vector>

namespace ocn::core {
class Network;
}

namespace ocn::ref {

/// Check every router and NIC in `net`. Returns one
/// "label: recomputed=X tracked=Y" line per mismatch (empty when
/// consistent). Capped at 32 lines.
std::vector<std::string> soa_crosscheck(core::Network& net);

}  // namespace ocn::ref
