#include "core/interface.h"

#include <cassert>

namespace ocn::core {

Packet make_packet(NodeId dst, int service_class, int num_flits, int last_flit_bits) {
  assert(num_flits >= 1);
  assert(last_flit_bits >= 1 && last_flit_bits <= router::kDataBits);
  Packet p;
  p.dst = dst;
  p.service_class = service_class;
  p.flit_payloads.assign(static_cast<std::size_t>(num_flits), router::Payload{});
  p.last_flit_bits = last_flit_bits;
  return p;
}

Packet make_word_packet(NodeId dst, int service_class, std::uint64_t word, int data_bits) {
  Packet p = make_packet(dst, service_class, 1, data_bits);
  p.flit_payloads[0][0] = word;
  return p;
}

std::uint8_t vc_mask_for_class(int service_class) {
  assert(service_class >= 0 && service_class < 4);
  return static_cast<std::uint8_t>(0b11u << (2 * service_class));
}

bool class_has_vc_pair(int service_class, int vcs) {
  return service_class >= 0 &&
         (2 * service_class + 1 < vcs || (vcs == 1 && service_class == 0));
}

std::vector<int> dynamic_classes(const router::RouterParams& params) {
  std::vector<int> classes;
  for (int c = 0; c < 4; ++c) {
    if (!class_has_vc_pair(c, params.vcs)) continue;
    if (params.exclusive_scheduled_vc && c == params.scheduled_vc() / 2) continue;
    classes.push_back(c);
  }
  return classes;
}

}  // namespace ocn::core
