// Text serialization of workloads: drive the thermal simulator from traces
// produced by external tools (power models, measured activity logs) without
// recompiling.  Format — one record per line, '#' comments, phases in
// order:
//
//   # phase <duration_seconds> [name]
//   phase 0.010 burst
//   uniform 0 2.0                       # die, watts
//   hotspot 0 3.0 1.2e-3 3.4e-3 5e-4    # die, watts, x_m, y_m, radius_m
//   phase 0.020 idle
//   uniform 0 0.5
//
// A trace is parsed against the stack it will play on, so a directive
// naming a die the stack lacks is a parse error.  Parse errors carry line
// numbers.  Serialization round-trips.
#pragma once

#include <iosfwd>
#include <string>

#include "thermal/stack_config.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::thermal {

[[nodiscard]] Workload parse_workload(std::istream& in,
                                      const StackConfig& stack);
[[nodiscard]] Workload parse_workload_string(const std::string& text,
                                             const StackConfig& stack);
[[nodiscard]] Workload load_workload(const std::string& path,
                                     const StackConfig& stack);

[[nodiscard]] std::string to_trace_string(const Workload& workload);
void save_workload(const Workload& workload, const std::string& path);

}  // namespace tsvpt::thermal
