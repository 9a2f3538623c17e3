// A standalone delay line for tests: a one-block, one-kind LinkStore and
// the cycle it is at. Registered with a kernel (follow()), it takes the
// kernel's cycle; on its own, advance() runs phase B of the current cycle
// and moves to the next one.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "sim/kernel.h"
#include "sim/link_store.h"

namespace ocn::testkit {

template <typename T>
class OneLink {
 public:
  static constexpr std::uint32_t kRow = LinkStore::row_id(0, 0);

  /// A link of `latency` named `name` (unnamed when empty) into `receiver`,
  /// stamping `wake` on delivery; a boundary row advances every cycle.
  explicit OneLink(int latency = 1, std::string name = {},
                   std::atomic<std::uint8_t>* wake = nullptr,
                   const Clockable* receiver = nullptr, bool boundary = false)
      : store_(1, {LinkStore::RowSpec::of<T>(latency)}) {
    if (!name.empty()) store_.set_namer([name](std::uint32_t) { return name; });
    ref_ = store_.attach(kRow, wake, receiver, boundary);
    wake_ = wake;
  }

  LinkStore& store() { return store_; }
  /// Take cycles from `k` (the store is registered with it).
  void follow(const Kernel& k) { kernel_ = &k; }
  Cycle now() const { return kernel_ != nullptr ? kernel_->now() : cycle_; }

  void send(const T& v) { store_.send(ref_, now(), v); }
  /// True when a value was sent on the link this cycle.
  bool send_pending() const { return store_.engaged(kRow, now() + latency()); }
  const T* receive() const { return store_.template receive<T>(kRow, now()); }
  std::optional<T> take() { return store_.template take<T>(kRow, now()); }
  bool active() const { return store_.active(kRow); }
  int latency() const { return store_.latency(kRow); }
  /// Phase B of the current cycle by hand, then the next cycle.
  void advance() {
    store_.advance(kRow, cycle_, wake_);
    ++cycle_;
  }

 private:
  LinkStore store_;
  LinkRef ref_;
  std::atomic<std::uint8_t>* wake_ = nullptr;
  const Kernel* kernel_ = nullptr;
  Cycle cycle_ = 0;
};

}  // namespace ocn::testkit
