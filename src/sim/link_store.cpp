#include "sim/link_store.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <exception>
#include <stdexcept>

namespace ocn {

namespace {

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

struct Layout {
  std::size_t block_bytes = 0;
  std::array<std::size_t, LinkStore::kMaxKinds> row_off{};
  std::array<std::size_t, LinkStore::kMaxKinds> slots_off{};
};

/// A block starts with the engaged bytes of all its rows, in kind order,
/// so one cache line holds the arrival state of every link into the block;
/// the slots follow, smallest first (a one-byte slot lands in that same
/// line), each kind aligned for its type. Blocks are cache-line aligned.
Layout layout(const std::vector<LinkStore::RowSpec>& kinds) {
  if (kinds.empty() || kinds.size() > static_cast<std::size_t>(LinkStore::kMaxKinds)) {
    throw std::invalid_argument("a link store holds 1 to " +
                                std::to_string(LinkStore::kMaxKinds) + " row kinds");
  }
  Layout l;
  std::size_t at = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const LinkStore::RowSpec& s = kinds[k];
    if (s.latency < 1 || s.latency > LinkStore::kMaxLatency) {
      throw std::invalid_argument("channel latency must be in [1, " +
                                  std::to_string(LinkStore::kMaxLatency) + "], got " +
                                  std::to_string(s.latency));
    }
    l.row_off[k] = at;
    at += static_cast<std::size_t>(s.latency) + 1;
  }
  std::vector<std::size_t> order(kinds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&kinds](std::size_t a, std::size_t b) {
    return kinds[a].slot_bytes < kinds[b].slot_bytes;
  });
  for (const std::size_t k : order) {
    const LinkStore::RowSpec& s = kinds[k];
    at = round_up(at, s.slot_align);
    l.slots_off[k] = at - l.row_off[k];
    at += (static_cast<std::size_t>(s.latency) + 1) * s.slot_bytes;
  }
  l.block_bytes = round_up(at, 64);
  return l;
}

}  // namespace

std::size_t LinkStore::bytes(int blocks, const std::vector<RowSpec>& kinds) {
  return layout(kinds).block_bytes * static_cast<std::size_t>(blocks);
}

LinkStore::LinkStore(int blocks, std::vector<RowSpec> kinds, Slab* slab)
    : blocks_(blocks), kinds_(std::move(kinds)) {
  const Layout l = layout(kinds_);
  block_bytes_ = l.block_bytes;
  row_off_ = l.row_off;
  slots_off_ = l.slots_off;
  for (std::size_t k = 0; k < kinds_.size(); ++k) ring_[k] = kinds_[k].latency + 1;
  const std::size_t total = bytes(blocks, kinds_);
  if (slab == nullptr) {
    own_ = std::make_unique<Slab>(total);
    slab = own_.get();
  }
  base_ = static_cast<std::uint8_t*>(slab->take_bytes(total, 64));
  // The slab is zero-filled, so every engaged byte starts clear; the slots
  // get their objects.
  for (int b = 0; b < blocks_; ++b) {
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      std::uint8_t* row = row_at(row_id(b, static_cast<int>(k)));
      kinds_[k].construct(row + slots_off_[k], static_cast<std::size_t>(ring_[k]));
    }
  }
  attached_.assign(static_cast<std::size_t>(blocks_) * kMaxKinds, false);
}

LinkRef LinkStore::attach(std::uint32_t row, std::atomic<std::uint8_t>* wake,
                          const Clockable* receiver, bool boundary) {
  if (registered_) {
    throw std::logic_error("link '" + name(row) +
                           "' attached after its store was registered with a kernel");
  }
  if ((row >> kKindBits) >= static_cast<std::uint32_t>(blocks_) ||
      kind(row) >= static_cast<int>(kinds_.size())) {
    throw std::logic_error("link row " + std::to_string(row) + " outside its store");
  }
  if (attached_[row]) throw std::logic_error("link '" + name(row) + "' attached twice");
  attached_[row] = true;
  const Attached a{row, -1, wake};
  if (boundary) {
    boundary_.push_back(a);
    boundary_to_.push_back(receiver);
    return LinkRef{this, row, -1};
  }
  interior_.push_back(a);
  interior_to_.push_back(receiver);
  const auto live = static_cast<std::int32_t>(interior_.size() - 1);
  live_.resize((interior_.size() + 63) / 64, 0);
  return LinkRef{this, row, live};
}

std::string LinkStore::name(std::uint32_t row) const {
  return namer_ ? namer_(row) : std::string("<unnamed>");
}

void LinkStore::double_send(std::uint32_t row) const {
  const std::string n = name(row);
  std::fprintf(stderr,
               "ocn: fatal: double send on channel '%s' in one cycle "
               "(one value per channel per cycle)\n",
               n.c_str());
  std::terminate();
}

}  // namespace ocn
