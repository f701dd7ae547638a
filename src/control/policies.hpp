// The policy catalog.  Four ways to keep a 3D stack under its thermal
// ceiling, all speaking the same Policy interface so the eval harness
// (bench_a20) can score them against each other on energy, peak temperature
// and ceiling-violation time:
//
//   static     park every die at one worst-case rung, ignore sensing.  The
//              baseline every sensing policy must beat: always safe, never
//              efficient (it pays the unscalable power floor for the whole
//              stretched-out run).
//   dvfs       per-die ladder governor with hysteresis, one stepper per
//              die (bench_a11).
//   gating     reactive clock/power gating: a hysteretic trip per die cuts
//              the die to a gate fraction on over-temp, releases below the
//              floor.  Blunt but fast (bench_a6, examples/thermal_guard).
//   migration  inter-die task migration: a dvfs backstop plus a persistent
//              set of power moves from the hottest die toward the coolest,
//              grown/retracted one step at a time under a cooldown so two
//              equally-hot dies never ping-pong work between them.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "control/ladder.hpp"
#include "control/policy.hpp"

namespace tsvpt::control {

enum class PolicyKind {
  kStaticWorstCase,
  kDvfsLadder,
  kReactiveGating,
  kMigration,
};

[[nodiscard]] const char* to_string(PolicyKind kind);
/// Parse "static" / "dvfs" / "gating" / "migration"; false on no match.
bool parse_policy_kind(std::string_view text, PolicyKind* out);

/// Marks "the slowest rung, whatever the ladder's length".
inline constexpr std::size_t kLadderBottom = static_cast<std::size_t>(-1);

/// One config drives all four policies; each reads its own slice.
struct PolicyConfig {
  Ladder ladder = typical_ladder();
  /// DVFS stepper thresholds (also the migration policy's backstop).
  Celsius ceiling{85.0};
  Celsius floor{75.0};
  /// Static baseline rung (kLadderBottom = last rung).
  std::size_t static_level = kLadderBottom;
  /// Gating trip/release and the power fraction left while gated.
  Celsius gate_on{85.0};
  Celsius gate_off{75.0};
  double gate_power_scale = 0.05;
  /// Migration: consider moving work only when the hottest die exceeds the
  /// trip AND leads the coolest by more than the margin; move `step` of the
  /// nominal map per decision, at most `cap` cumulative per die, no more
  /// often than every `cooldown_scans` decisions.
  Celsius migrate_trip{80.0};
  double migrate_margin_c = 2.0;
  double migrate_step = 0.1;
  double migrate_cap = 0.5;
  std::uint64_t migrate_cooldown_scans = 4;
};

/// Build a policy for a stack with `die_count` dies.  Throws
/// std::invalid_argument on a nonsensical config (bad ladder, inverted
/// thresholds, out-of-range fractions).
[[nodiscard]] std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                                  const PolicyConfig& config,
                                                  std::size_t die_count);

}  // namespace tsvpt::control
