#include "core/shard_partition.h"

#include <stdexcept>

#include "sim/sweep/thread_pool.h"

namespace ocn::core {

int resolve_shards(int shards, int radix) {
  if (shards == 0) shards = sweep::positive_env_int("OCN_SIM_SHARDS", 1);
  if (shards < 1) shards = 1;
  if (shards > radix) shards = radix;  // row strips: at most one per row
  return shards;
}

ShardPartition ShardPartition::single(int nodes) {
  ShardPartition p;
  p.owner_.assign(static_cast<std::size_t>(nodes), 0);
  p.shards_ = 1;
  p.label_ = "single shard";
  p.number_slots();
  return p;
}

ShardPartition ShardPartition::row_strips(const topo::Topology& topo, int shards) {
  ShardPartition p;
  p.shards_ = shards;
  const int radix = topo.radix();
  p.owner_.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    p.owner_[static_cast<std::size_t>(n)] = topo.y_of(n) * shards / radix;
  }
  p.label_ = "row-strips: " + std::to_string(shards) + " shards over " +
             std::to_string(radix) + " rows";
  p.number_slots();
  return p;
}

ShardPartition::ShardPartition(std::vector<int> owner, int shards)
    : owner_(std::move(owner)), shards_(shards) {
  if (shards_ < 1) {
    throw std::invalid_argument("ShardPartition: shard count must be >= 1");
  }
  std::vector<int> population(static_cast<std::size_t>(shards_), 0);
  for (std::size_t n = 0; n < owner_.size(); ++n) {
    const int s = owner_[n];
    if (s < 0 || s >= shards_) {
      throw std::invalid_argument("ShardPartition: node " + std::to_string(n) +
                                  " assigned to out-of-range shard " +
                                  std::to_string(s));
    }
    ++population[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < shards_; ++s) {
    if (population[static_cast<std::size_t>(s)] == 0) {
      throw std::invalid_argument("ShardPartition: shard " + std::to_string(s) +
                                  " owns no nodes");
    }
  }
  label_ = "custom: " + std::to_string(shards_) + " shards over " +
           std::to_string(owner_.size()) + " nodes";
  number_slots();
}

void ShardPartition::number_slots() {
  std::vector<int> next(static_cast<std::size_t>(shards_), 0);
  slot_.resize(owner_.size());
  for (std::size_t n = 0; n < owner_.size(); ++n) {
    slot_[n] = next[static_cast<std::size_t>(owner_[n])]++;
  }
}

std::vector<int> ShardPartition::nodes_per_shard() const {
  std::vector<int> population(static_cast<std::size_t>(shards_), 0);
  for (const int s : owner_) ++population[static_cast<std::size_t>(s)];
  return population;
}

std::string ShardPartition::describe() const { return label_; }

}  // namespace ocn::core
