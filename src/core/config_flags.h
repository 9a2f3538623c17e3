// The configuration flags every command-line tool takes (ocnsim, ocn-verify,
// ocn-analyze), parsed in one place so the tools agree on what they mean.
#pragma once

#include "core/config.h"

namespace ocn::core {

/// When argv[i] is one of the shared configuration flags, applies it to
/// `config`, leaves i on the last argument it used (its value, if it takes
/// one) and returns true; otherwise returns false and leaves i alone. A
/// missing or malformed value throws std::invalid_argument naming the flag.
/// The dateline discipline and the scheduled VC follow from the topology,
/// flow control and VC count (Config::dateline_parity,
/// RouterParams::scheduled_vc), so no flag sets them.
///
///   --topology mesh|torus|folded_torus
///   --radix K, --vcs N, --depth N, --link-latency N
///   --dropping                           dropping flow control
///   --piggyback                          piggybacked credits
bool parse_config_flag(Config& config, int argc, char** argv, int& i);

}  // namespace ocn::core
