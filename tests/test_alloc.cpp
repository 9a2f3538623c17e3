// Construction-allocation gate: building a Network makes a bounded number
// of heap allocations per node. Router and NIC state lives on the shard
// rows (slab-carved) and in arenas that grow only with traffic, so what a
// node may still allocate at construction is its Router and Nic objects
// and the NIC's register filters. The binary replaces the global operator
// new to count, so it is its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/network.h"

// Sanitizer runtimes bring their own allocator; counting through a
// replacement there would measure (and disturb) theirs, so the gate skips.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OCN_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OCN_SANITIZER_ALLOCATOR 1
#endif
#endif

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

#ifndef OCN_SANITIZER_ALLOCATOR
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) { return ::operator new(n, align); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace ocn {
namespace {

/// The most heap allocations building a network may make per node.
constexpr std::int64_t kMaxAllocationsPerNode = 8;

std::int64_t allocations_to_build(const core::Config& config) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  const core::Network net(config);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ConstructionAllocations, AtMostEightPerNodeOn32x32) {
#ifdef OCN_SANITIZER_ALLOCATOR
  GTEST_SKIP() << "sanitizer build: its runtime replaces the allocator";
#else
  core::Config config = core::Config::paper_baseline();
  config.radix = 32;
  const std::int64_t nodes = std::int64_t{config.radix} * config.radix;
  const std::int64_t made = allocations_to_build(config);
  // The counter sees this binary's allocations: a network build makes some.
  EXPECT_GT(made, 0);
  EXPECT_LE(made, kMaxAllocationsPerNode * nodes)
      << made << " allocations building " << nodes << " nodes ("
      << static_cast<double>(made) / static_cast<double>(nodes) << " per node)";
#endif
}

}  // namespace
}  // namespace ocn
