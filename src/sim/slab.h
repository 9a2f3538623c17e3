// One anonymous mapping per shard, carved by bump allocation.
//
// A shard's hot rows (its RouterStatePool fields and its LinkStore, see
// router/soa.h and sim/link_store.h) come from one Slab, so they sit in
// one contiguous extent instead of dozens of heap blocks. Construction
// writes every byte of the mapping, so all of it is resident from the
// start. That is what makes the huge-page rule free: the 2 MB-aligned
// extents inside the mapping are advised MADV_HUGEPAGE before the write,
// and an extent that is written in full costs the same memory in huge
// pages as in 4 KB pages. The edges of the mapping stay on 4 KB pages, so
// a slab under 2 MB (a 16x16 shard) gets no advice and is never rounded up
// to a huge page. Nothing else is advised: the flit arena, which fills only
// up to its high-water mark, is a plain vector.
//
// A default-constructed Slab measures: take() returns null and only counts
// bytes, so an owner can size its slab by running its carve sequence once
// against a measuring slab and once against the real one.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace ocn {

class Slab {
 public:
  /// A measuring slab (see the header notes).
  Slab() = default;
  /// A zero-filled mapping of at least `bytes`, its 2 MB-aligned extents
  /// advised as huge pages. Throws std::bad_alloc when the mapping fails.
  explicit Slab(std::size_t bytes);
  ~Slab();
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  Slab(Slab&& other) noexcept { swap(other); }
  Slab& operator=(Slab&& other) noexcept {
    Slab(std::move(other)).swap(*this);
    return *this;
  }

  /// The next `bytes` bytes at an `align`-aligned offset (null when
  /// measuring). Throws std::bad_alloc past the end of the mapping.
  void* take_bytes(std::size_t bytes, std::size_t align);

  /// `n` objects of T, each constructed from `fill`.
  template <typename T, typename Fill = T>
  T* take(std::size_t n, const Fill& fill = Fill{}) {
    static_assert(std::is_trivially_destructible_v<T>, "a slab never runs destructors");
    T* p = static_cast<T*>(take_bytes(n * sizeof(T), alignof(T)));
    if (p != nullptr) {
      for (std::size_t i = 0; i < n; ++i) ::new (static_cast<void*>(p + i)) T(fill);
    }
    return p;
  }

  /// Bytes handed out so far (the size a measuring slab reports).
  std::size_t used() const { return used_; }
  /// Bytes advised as huge pages (0 for a slab under 2 MB).
  std::size_t advised() const { return advised_; }

  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

 private:
  void swap(Slab& other) noexcept;

  std::byte* base_ = nullptr;  // null: measuring
  std::size_t size_ = 0;       // mapped bytes from base_
  std::size_t used_ = 0;
  std::size_t advised_ = 0;
};

}  // namespace ocn
