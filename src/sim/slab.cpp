#include "sim/slab.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <utility>

namespace ocn {

namespace {

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

}  // namespace

Slab::Slab(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  size_ = round_up(bytes == 0 ? 1 : bytes, page);
  // Map one huge page more than needed and start at the first 2 MB
  // boundary, so every whole 2 MB extent of the slab is an aligned one.
  const std::size_t span = size_ + kHugePage;
  void* map = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  auto* const first = static_cast<std::byte*>(map);
  const auto addr = reinterpret_cast<std::uintptr_t>(first);
  base_ = first + (round_up(addr, kHugePage) - addr);
  // Return the slop on both sides; it was never touched.
  if (base_ != first) munmap(first, static_cast<std::size_t>(base_ - first));
  std::byte* const end = base_ + size_;
  const std::size_t tail = static_cast<std::size_t>((first + span) - end);
  if (tail > 0) munmap(end, tail);
#ifdef MADV_HUGEPAGE
  // Only whole 2 MB extents, all of which the memset below writes.
  const std::size_t whole = size_ / kHugePage * kHugePage;
  if (whole > 0 && madvise(base_, whole, MADV_HUGEPAGE) == 0) advised_ = whole;
#endif
  std::memset(base_, 0, size_);
}

Slab::~Slab() {
  if (base_ != nullptr) munmap(base_, size_);
}

void Slab::swap(Slab& other) noexcept {
  std::swap(base_, other.base_);
  std::swap(size_, other.size_);
  std::swap(used_, other.used_);
  std::swap(advised_, other.advised_);
}

void* Slab::take_bytes(std::size_t bytes, std::size_t align) {
  // Offsets are aligned relative to a 2 MB-aligned base, so a measuring
  // slab counts exactly the bytes the real one hands out.
  const std::size_t at = round_up(used_, align);
  if (base_ != nullptr && at + bytes > size_) throw std::bad_alloc();
  used_ = at + bytes;
  return base_ != nullptr ? base_ + at : nullptr;
}

}  // namespace ocn
