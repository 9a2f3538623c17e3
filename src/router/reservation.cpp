#include "router/reservation.h"

#include <cassert>

namespace ocn::router {

bool ReservationTable::reserve(int slot, int input, VcId vc) {
  assert(slot >= 0 && slot < frame());
  if (slots_.empty()) slots_.resize(static_cast<std::size_t>(frame_));
  if (slots_[static_cast<std::size_t>(slot)].reserved()) return false;
  slots_[static_cast<std::size_t>(slot)] = Slot{input, vc};
  pool_->resv_adjust(slot_, port_, 1);
  return true;
}

void ReservationTable::clear(int slot) {
  assert(slot >= 0 && slot < frame());
  if (slots_.empty()) return;  // nothing was ever reserved
  if (slots_[static_cast<std::size_t>(slot)].reserved()) pool_->resv_adjust(slot_, port_, -1);
  slots_[static_cast<std::size_t>(slot)] = Slot{};
}

}  // namespace ocn::router
