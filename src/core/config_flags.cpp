#include "core/config_flags.h"

#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/parse.h"

namespace ocn::core {

bool parse_config_flag(Config& config, int argc, char** argv, int& i) {
  const std::string_view flag = argv[i];
  const auto value = [&]() -> std::string_view {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(flag) + ": missing value");
    return argv[++i];
  };
  if (flag == "--topology") {
    const std::string_view v = value();
    if (v == "mesh") {
      config.topology = TopologyKind::kMesh;
    } else if (v == "torus") {
      config.topology = TopologyKind::kTorus;
    } else if (v == "folded_torus") {
      config.topology = TopologyKind::kFoldedTorus;
    } else {
      throw std::invalid_argument("--topology: expected mesh, torus or folded_torus, got '" +
                                  std::string(v) + "'");
    }
  } else if (flag == "--radix") {
    config.radix = flag_value<int>(flag, value());
  } else if (flag == "--vcs") {
    config.router.vcs = flag_value<int>(flag, value());
  } else if (flag == "--depth") {
    config.router.buffer_depth = flag_value<int>(flag, value());
  } else if (flag == "--link-latency") {
    config.link_latency = flag_value<int>(flag, value());
  } else if (flag == "--dropping") {
    config.router.flow_control = router::FlowControl::kDropping;
  } else if (flag == "--piggyback") {
    config.router.piggyback_credits = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace ocn::core
