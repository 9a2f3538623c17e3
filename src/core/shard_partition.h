// Explicit shard-partition description: which shard owns each node.
//
// PR 6's sharded kernel hard-coded the row-strip partition inside
// Network::shard_of; making the assignment a first-class value object lets
// the static concurrency analyzer (src/analyze) consume the *same*
// description the network executes — the partition is proved safe, not the
// formula that happened to generate it — and gives future partitioners
// (min-cut, load-balanced, topology-aware) a concrete interface to target.
#pragma once

#include <string>
#include <vector>

#include "sim/types.h"
#include "topo/topology.h"

namespace ocn::core {

/// Resolve a requested shard count the way core::Network does: 0 consults
/// OCN_SIM_SHARDS (default 1, strictly parsed); results clamp to [1, radix]
/// (row strips: at most one per row).
int resolve_shards(int shards, int radix);

class ShardPartition {
 public:
  /// Single-shard partition over `nodes` nodes (the unsharded kernel).
  static ShardPartition single(int nodes);

  /// The shipped partition: `shards` contiguous horizontal strips of rows,
  /// shard s owning rows [s*radix/shards, (s+1)*radix/shards).
  static ShardPartition row_strips(const topo::Topology& topo, int shards);

  /// Arbitrary node -> shard map (for future partitioners and for the
  /// analyzer's deliberately-broken golden configurations). Throws
  /// std::invalid_argument unless every shard in [0, shards) owns at least
  /// one node and every owner is in range.
  ShardPartition(std::vector<int> owner, int shards);

  int shards() const { return shards_; }
  int num_nodes() const { return static_cast<int>(owner_.size()); }
  int shard_of(NodeId n) const { return owner_[static_cast<std::size_t>(n)]; }

  /// Nodes owned by each shard (index = shard).
  std::vector<int> nodes_per_shard() const;

  /// One-line rendering ("row-strips: 4 shards x 4 rows" or the explicit
  /// shard list for custom maps), for reports and witness paths.
  std::string describe() const;

 private:
  ShardPartition() = default;

  std::vector<int> owner_;  // node -> shard
  int shards_ = 1;
  std::string label_;
};

}  // namespace ocn::core
