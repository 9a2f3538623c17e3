// The packets a shard's NICs hold by handle (DESIGN.md §4h).
//
// One arena per shard, beside the shard's RouterStatePool: the NICs of that
// pool hold their injection queues (dynamic and scheduled packets), their
// loopback queue and their per-VC reassembly slots as 4-byte PacketRef
// handles into it. A record is the packet plus what its NIC tracks while it
// waits: the route fixed at enqueue, the departure (or loopback delivery)
// cycle, the next flit to cut, and the successor handle that threads a
// queue (router::HandleQueue, a head/tail pair in the pool's NIC rows).
//   * records live in stable chunks, allocated as the arena grows, so a
//     record never moves while a handle or a reference names it;
//   * a record is constructed when it is handed out and destroyed when it
//     is freed, so its packet's payloads are released with it, exactly as
//     a popped queue entry's were; freed handles are reused LIFO and the
//     arena grows only when none is free, so it holds its high-water mark
//     of packets and no per-NIC capacity: an idle NIC holds nothing here;
//   * it is written only by its shard's NICs in phase A (sending,
//     reassembling, delivering, and the register read-back filter replying
//     through its own NIC) and by clients in the serial tail or between
//     ticks (shard.S.packet_arena in src/analyze).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "core/interface.h"
#include "router/soa.h"
#include "routing/source_route.h"

namespace ocn::core {

using router::HandleQueue;
using router::kNoPacket;
using router::PacketRef;

struct PacketRecord {
  Packet packet;
  routing::SourceRoute route;  ///< fixed at enqueue (injection queues)
  /// Exact departure cycle of a scheduled packet, delivery cycle of a
  /// loopback packet; -1 for a dynamic packet.
  Cycle send_at = -1;
  int next_flit = 0;            ///< flits of the packet already sent
  PacketRef next = kNoPacket;   ///< successor on the record's queue
  /// Scheduled packets outrank every service class at the injection
  /// arbiter.
  int priority() const { return send_at >= 0 ? 1000 : packet.service_class; }
};

class PacketArena {
 public:
  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;  // NICs hold its address
  PacketArena& operator=(const PacketArena&) = delete;
  ~PacketArena();

  /// A fresh record holding `packet`: the last freed handle, else the next
  /// never-used one.
  PacketRef alloc(Packet&& packet, const routing::SourceRoute& route, Cycle send_at) {
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
    } else {
      assert(size_ < kNoPacket && "packet handles are 32-bit");
      ref = static_cast<PacketRef>(size_++);
      if (ref % kChunk == 0) chunks_.emplace_back(new Slot[kChunk]);
    }
    ::new (static_cast<void*>(slot(ref)))
        PacketRecord{std::move(packet), route, send_at, 0, kNoPacket};
    return ref;
  }
  /// Destroy the record and return its handle to the free list.
  void free(PacketRef ref) {
    (*this)[ref].~PacketRecord();
    free_.push_back(ref);
  }

  PacketRecord& operator[](PacketRef ref) {
    assert(ref < size_);
    return *std::launder(reinterpret_cast<PacketRecord*>(slot(ref)));
  }
  const PacketRecord& operator[](PacketRef ref) const {
    assert(ref < size_);
    return *std::launder(reinterpret_cast<const PacketRecord*>(slot(ref)));
  }

  /// Append record `ref` to `q`.
  void push(HandleQueue& q, PacketRef ref) {
    (*this)[ref].next = kNoPacket;
    if (q.empty()) {
      q.head = ref;
    } else {
      (*this)[q.tail].next = ref;
    }
    q.tail = ref;
  }
  /// Unlink the front record of `q` and hand over its handle.
  PacketRef pop(HandleQueue& q) {
    assert(!q.empty());
    const PacketRef ref = q.head;
    q.head = (*this)[ref].next;
    if (q.head == kNoPacket) q.tail = kNoPacket;
    return ref;
  }

  /// Handles ever handed out (the high-water mark) and the free ones
  /// among them, for tests.
  std::size_t size() const { return size_; }
  const std::vector<PacketRef>& free_list() const { return free_; }

 private:
  /// Records per chunk.
  static constexpr std::size_t kChunk = 256;
  struct Slot {
    alignas(PacketRecord) unsigned char bytes[sizeof(PacketRecord)];
  };
  Slot* slot(PacketRef ref) const { return &chunks_[ref / kChunk][ref % kChunk]; }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<PacketRef> free_;
};

inline PacketArena::~PacketArena() {
  std::vector<bool> freed(size_, false);
  for (const PacketRef ref : free_) freed[ref] = true;
  for (std::size_t i = 0; i < size_; ++i) {
    if (!freed[i]) (*this)[static_cast<PacketRef>(i)].~PacketRecord();
  }
}

}  // namespace ocn::core
