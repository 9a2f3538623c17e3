// Flat link storage: every link's delay line is a row of a store.
//
// A store holds `blocks` blocks of the same row layout, one row per kind
// (at most kMaxKinds). A row is the link's engaged bytes and its slots, one
// slot per pipeline stage plus the output: a link of latency L has a ring
// of L+1 slots. A block leads with the engaged bytes of all its rows, so
// the arrival state of every link into a block is one cache line (with the
// one-byte slots of its credit rows beside it); the wider slots follow.
// core::Network keeps one store per shard, inside the shard's
// RouterStatePool, with one block per node in pool-slot order: the
// router's five inbound flit rows, its five inbound credit rows and the
// NIC's eject and inject-credit rows (router/soa.h names the kinds). A
// standalone delay line in a test is a one-block, one-kind store.
//
// Time-indexed slots. At cycle `now` the output of a row is slot
// now mod (L+1) and a send fills slot (now + L) mod (L+1). Nothing in the
// row moves between cycles, so a receiver computes its slot's address from
// (block, kind, now) with no per-link state to load first, and an idle row
// costs nothing. Within phase A the sender touches only the send slot and
// its engaged byte (plus, for an interior row, the row's live bit) and the
// receiver only the output slot and its byte: L >= 1 keeps the two slots
// apart, so a row crossing shards needs no atomics.
//
// Phase B (sim/kernel.h) advances rows: advance() expires an unconsumed
// output (clears its engaged byte) and stamps the receiver's arrival byte
// when the next cycle's output slot is engaged. Which rows it advances is
// the kernel's worklist: the store's live bitmap over its interior rows
// (a send sets the bit; the kernel clears it once no slot is engaged) and
// every boundary row every cycle.
//
// Registration. attach() declares a row a link into a receiver and returns
// the sender's handle (LinkRef). A row never attached (a mesh edge) is
// never sent into or advanced. Rows have no names: a namer installed by the
// owner generates one from the wiring plan, on error paths only.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/slab.h"
#include "sim/types.h"

namespace ocn {

class Clockable;
class LinkStore;

/// A sender's handle on one row: its store, the row, and the row's index
/// in the store's live bitmap (-1 for a boundary row, whose sender runs on
/// another shard and must not touch the receiver shard's bitmap).
struct LinkRef {
  LinkStore* store = nullptr;
  std::uint32_t row = 0;
  std::int32_t live = -1;

  explicit operator bool() const { return store != nullptr; }
};

class LinkStore {
 public:
  /// One kind of row: its latency and its slot type. `of<T>` constructs a
  /// T in every slot, so the hot paths copy typed values in and out.
  struct RowSpec {
    int latency = 1;
    std::size_t slot_bytes = 1;
    std::size_t slot_align = 1;
    void (*construct)(void* slots, std::size_t count) = nullptr;

    template <typename T>
    static RowSpec of(int latency) {
      static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
      return RowSpec{latency, sizeof(T), alignof(T), [](void* p, std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i) ::new (static_cast<T*>(p) + i) T{};
                     }};
    }
  };

  static constexpr int kKindBits = 4;
  static constexpr int kMaxKinds = 1 << kKindBits;
  /// The ring index is computed in 64 bits, but the row stays small.
  static constexpr int kMaxLatency = 32766;

  /// The id of block `block`'s row of kind `kind`.
  static constexpr std::uint32_t row_id(int block, int kind) {
    return (static_cast<std::uint32_t>(block) << kKindBits) | static_cast<std::uint32_t>(kind);
  }

  /// Throws std::invalid_argument unless every kind has
  /// 1 <= latency <= kMaxLatency: a zero-latency link would couple
  /// same-cycle steps and break determinism. Rows are carved from `slab`
  /// (which must outlive the store), or from a slab of the store's own.
  LinkStore(int blocks, std::vector<RowSpec> kinds, Slab* slab = nullptr);
  LinkStore(const LinkStore&) = delete;  // senders hold its address
  LinkStore& operator=(const LinkStore&) = delete;

  /// Slab bytes a store of this shape takes (64-byte aligned).
  static std::size_t bytes(int blocks, const std::vector<RowSpec>& kinds);

  int latency(std::uint32_t row) const { return ring_[kind(row)] - 1; }

  // --- registration -----------------------------------------------------------
  /// Declare `row` a link into `receiver` (null: none, as for a test
  /// reading the row directly). An advance that leaves a value at the
  /// output stamps `*wake`, a byte of the receiver's wake row. A boundary
  /// row (sender and receiver on two shards) advances every cycle; an
  /// interior one while a slot is engaged. Returns the sender's handle.
  /// Throws std::logic_error for a row attached twice or a store already
  /// registered with a kernel.
  LinkRef attach(std::uint32_t row, std::atomic<std::uint8_t>* wake,
                 const Clockable* receiver, bool boundary);

  /// Install the function that names a row for error messages.
  void set_namer(std::function<std::string(std::uint32_t)> namer) { namer_ = std::move(namer); }
  /// The row's name, or "<unnamed>" without a namer.
  std::string name(std::uint32_t row) const;

  // --- phase A: sender --------------------------------------------------------
  /// Copy `v` into the send slot. Sending twice in one cycle would lose a
  /// value in flight, so it terminates (every build type) naming the link.
  template <typename T>
  void send(const LinkRef& ref, Cycle now, const T& v) {
    std::uint8_t* row = row_at(ref.row);
    const int k = index(now + latency(ref.row), ref.row);
    if (row[k] != 0) double_send(ref.row);
    row[k] = 1;
    *slot<T>(row, ref.row, k) = v;
    if (ref.live >= 0) {
      live_[static_cast<std::size_t>(ref.live) >> 6] |= std::uint64_t{1} << (ref.live & 63);
    }
  }
  /// Start loading, for a write, the row's engaged bytes and the slot a
  /// send at cycle `now` fills.
  template <typename T>
  void prefetch_send(const LinkRef& ref, Cycle now) const {
    const std::uint8_t* r = row_at(ref.row);
    __builtin_prefetch(r, 1);
    const auto* p = reinterpret_cast<const char*>(r + slots_off_[kind(ref.row)]) +
                    static_cast<std::size_t>(index(now + latency(ref.row), ref.row)) * sizeof(T);
    for (std::size_t b = 0; b < sizeof(T); b += 64) __builtin_prefetch(p + b, 1);
  }

  // --- phase A: receiver ------------------------------------------------------
  /// The value arriving at cycle `now`, or nullptr.
  template <typename T>
  const T* receive(std::uint32_t row, Cycle now) const {
    const std::uint8_t* r = row_at(row);
    const int k = index(now, row);
    return r[k] != 0 ? slot<T>(const_cast<std::uint8_t*>(r), row, k) : nullptr;
  }
  /// Start loading the row's engaged bytes and the slot arriving at cycle
  /// `now` (a T), so a receiver can overlap the misses of several rows
  /// before it reads any.
  template <typename T>
  void prefetch(std::uint32_t row, Cycle now) const {
    const std::uint8_t* r = row_at(row);
    __builtin_prefetch(r);
    const auto* p = reinterpret_cast<const char*>(r + slots_off_[kind(row)]) +
                    static_cast<std::size_t>(index(now, row)) * sizeof(T);
    for (std::size_t b = 0; b < sizeof(T); b += 64) __builtin_prefetch(p + b);
  }
  /// Clear the arriving value, if any. A receiver reading in place
  /// (receive()) must call this; take() does it.
  void consume(std::uint32_t row, Cycle now) { row_at(row)[index(now, row)] = 0; }
  /// Copy the arriving value out and consume it.
  template <typename T>
  std::optional<T> take(std::uint32_t row, Cycle now) {
    const T* v = receive<T>(row, now);
    if (v == nullptr) return std::nullopt;
    std::optional<T> out(*v);
    consume(row, now);
    return out;
  }

  /// True when the slot of cycle `t` is engaged: at t = now the arriving
  /// value, at t = now + latency the one sent this cycle.
  bool engaged(std::uint32_t row, Cycle t) const { return row_at(row)[index(t, row)] != 0; }

  // --- phase B ---------------------------------------------------------------
  /// True while some slot of the row is engaged (a value in flight or
  /// visible).
  bool active(std::uint32_t row) const {
    const std::uint8_t* r = row_at(row);
    for (int k = 0; k < ring_[kind(row)]; ++k) {
      if (r[k] != 0) return true;
    }
    return false;
  }
  /// End of cycle `now`: expire the output slot, and when cycle now+1's
  /// output slot is engaged stamp `wake` (if any) and return true.
  bool advance(std::uint32_t row, Cycle now, std::atomic<std::uint8_t>* wake) {
    std::uint8_t* r = row_at(row);
    r[index(now, row)] = 0;
    if (r[index(now + 1, row)] == 0) return false;
    if (wake != nullptr) wake->store(1, std::memory_order_relaxed);
    return true;
  }
  /// The phase-B step of a listed interior row in one visit: advance() if
  /// active(). Returns kAdvanced when it advanced, with kArrived when the
  /// advance stamped a delivery and kStillActive while a slot stays
  /// engaged (the row stays listed).
  static constexpr unsigned kAdvanced = 1;
  static constexpr unsigned kArrived = 2;
  static constexpr unsigned kStillActive = 4;
  unsigned advance_listed(std::uint32_t row, Cycle now, std::atomic<std::uint8_t>* wake) {
    std::uint8_t* r = row_at(row);
    const int n = ring_[kind(row)];
    if (n == 2) {
      // The unit ring: the slot after the output is the only other one.
      const int k = static_cast<int>(now & 1);
      if ((r[0] | r[1]) == 0) return 0;
      r[k] = 0;
      if (r[k ^ 1] == 0) return kAdvanced;
      if (wake != nullptr) wake->store(1, std::memory_order_relaxed);
      return kAdvanced | kArrived | kStillActive;
    }
    if (!active(row)) return 0;
    unsigned out = kAdvanced;
    if (advance(row, now, wake)) out |= kArrived;
    if (active(row)) out |= kStillActive;
    return out;
  }

  /// An attached row and, once a kernel has prepared its lists, the index
  /// of its receiver on the shard list (-1: none or a tail component): what
  /// phase B reads for a row it advances.
  struct Attached {
    std::uint32_t row = 0;
    int receiver_index = -1;
    std::atomic<std::uint8_t>* wake = nullptr;
  };
  /// Attached rows in attach order; bit i of the live bitmap lists
  /// interior()[i].
  const std::vector<Attached>& interior() const { return interior_; }
  const std::vector<Attached>& boundary() const { return boundary_; }
  /// Live bitmap words (see the header notes).
  const std::vector<std::uint64_t>& live() const { return live_; }

 private:
  friend class Kernel;

  static int kind(std::uint32_t row) { return static_cast<int>(row & (kMaxKinds - 1)); }
  std::uint8_t* row_at(std::uint32_t row) const {
    return base_ + static_cast<std::size_t>(row >> kKindBits) * block_bytes_ +
           row_off_[kind(row)];
  }
  /// Ring index of cycle `t` (t >= 0) on `row`.
  int index(Cycle t, std::uint32_t row) const {
    const int n = ring_[kind(row)];
    return n == 2 ? static_cast<int>(t & 1) : static_cast<int>(t % n);
  }
  template <typename T>
  T* slot(std::uint8_t* r, std::uint32_t row, int k) const {
    return std::launder(reinterpret_cast<T*>(r + slots_off_[kind(row)]) + k);
  }
  [[noreturn]] void double_send(std::uint32_t row) const;

  int blocks_;
  std::vector<RowSpec> kinds_;
  std::size_t block_bytes_ = 0;
  std::array<std::size_t, kMaxKinds> row_off_{};    // engaged bytes within a block
  std::array<std::size_t, kMaxKinds> slots_off_{};  // first slot, from the engaged bytes
  std::array<int, kMaxKinds> ring_{};               // latency + 1
  std::unique_ptr<Slab> own_;  // the slab when none was given
  std::uint8_t* base_ = nullptr;
  std::vector<Attached> interior_;
  std::vector<Attached> boundary_;
  // The receivers as attached, parallel to interior_ and boundary_; read
  // only when a kernel prepares its lists.
  std::vector<const Clockable*> interior_to_;
  std::vector<const Clockable*> boundary_to_;
  std::vector<std::uint64_t> live_;
  std::vector<bool> attached_;  // per row id
  bool registered_ = false;     // with a kernel: attach() refuses
  std::function<std::string(std::uint32_t)> namer_;
};

}  // namespace ocn
