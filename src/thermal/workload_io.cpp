#include "thermal/workload_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace tsvpt::thermal {
namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error{"workload trace line " + std::to_string(line) +
                           ": " + message};
}

double number(std::istringstream& in, int line, const char* what) {
  double value = 0.0;
  if (!(in >> value)) fail(line, std::string{"missing/invalid "} + what);
  return value;
}

std::size_t die_index(std::istringstream& in, int line,
                      const StackConfig& stack) {
  long long value = 0;
  if (!(in >> value) || value < 0) fail(line, "missing/invalid die index");
  const auto die = static_cast<std::size_t>(value);
  if (die >= stack.die_count()) {
    fail(line, "die " + std::to_string(die) + " out of range (the stack has " +
                   std::to_string(stack.die_count()) + " dies)");
  }
  return die;
}

}  // namespace

Workload parse_workload(std::istream& in, const StackConfig& stack) {
  std::vector<WorkloadPhase> phases;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream fields{raw};
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank line

    if (keyword == "phase") {
      const double duration = number(fields, line_number, "phase duration");
      if (duration <= 0.0) fail(line_number, "phase duration must be > 0");
      WorkloadPhase phase;
      phase.duration = Second{duration};
      fields >> phase.name;  // optional
      phases.push_back(std::move(phase));
      continue;
    }
    if (phases.empty()) {
      fail(line_number, "directive before any 'phase' record");
    }
    PowerDirective directive;
    if (keyword == "uniform") {
      directive.kind = PowerDirective::Kind::kUniform;
      directive.die = die_index(fields, line_number, stack);
      directive.total = Watt{number(fields, line_number, "watts")};
    } else if (keyword == "hotspot") {
      directive.kind = PowerDirective::Kind::kHotspot;
      directive.die = die_index(fields, line_number, stack);
      directive.total = Watt{number(fields, line_number, "watts")};
      directive.center.x = number(fields, line_number, "x");
      directive.center.y = number(fields, line_number, "y");
      directive.radius = Meter{number(fields, line_number, "radius")};
      if (directive.radius.value() <= 0.0) {
        fail(line_number, "hotspot radius must be > 0");
      }
    } else {
      fail(line_number, "unknown record '" + keyword + "'");
    }
    if (directive.total.value() < 0.0) {
      fail(line_number, "power must be >= 0");
    }
    std::string extra;
    if (fields >> extra) fail(line_number, "trailing field '" + extra + "'");
    phases.back().directives.push_back(directive);
  }
  if (phases.empty()) throw std::runtime_error{"workload trace: no phases"};
  return Workload{std::move(phases)};
}

Workload parse_workload_string(const std::string& text,
                               const StackConfig& stack) {
  std::istringstream in{text};
  return parse_workload(in, stack);
}

Workload load_workload(const std::string& path, const StackConfig& stack) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open workload trace: " + path};
  return parse_workload(in, stack);
}

std::string to_trace_string(const Workload& workload) {
  std::ostringstream os;
  os.precision(17);
  for (const WorkloadPhase& phase : workload.phases()) {
    os << "phase " << phase.duration.value();
    if (!phase.name.empty()) os << ' ' << phase.name;
    os << '\n';
    for (const PowerDirective& d : phase.directives) {
      if (d.kind == PowerDirective::Kind::kUniform) {
        os << "uniform " << d.die << ' ' << d.total.value() << '\n';
      } else {
        os << "hotspot " << d.die << ' ' << d.total.value() << ' '
           << d.center.x << ' ' << d.center.y << ' ' << d.radius.value()
           << '\n';
      }
    }
  }
  return os.str();
}

void save_workload(const Workload& workload, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write workload trace: " + path};
  out << to_trace_string(workload);
  if (!out) throw std::runtime_error{"write failed: " + path};
}

}  // namespace tsvpt::thermal
