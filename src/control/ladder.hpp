// Shared DVFS-ladder and hysteresis primitives for thermal control: a
// ladder of (frequency, power) operating points walked one rung at a time
// (the dvfs and migration policies), and a two-threshold hysteretic trip
// (the gating policy).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ptsim/units.hpp"

namespace tsvpt::control {

/// One rung of a DVFS ladder.
struct LadderLevel {
  std::string name;
  /// Relative clock (1.0 = nominal); work accrues at this rate.
  double relative_frequency = 1.0;
  /// Power multiplier applied to the die's map (~ f V^2 scaling).
  double power_scale = 1.0;
};

using Ladder = std::vector<LadderLevel>;

/// Throws std::invalid_argument unless the ladder is non-empty and strictly
/// slows downward (rung i+1 clocks slower than rung i).
void validate_ladder(const Ladder& ladder);

/// A typical 4-level ladder: nominal, -10 %, -25 %, half speed.  Power
/// scales follow ~ f V^2 at each point.
[[nodiscard]] Ladder typical_ladder();

/// Hysteretic one-rung-per-decision ladder walker: step down (slower) when
/// the observed temperature exceeds the ceiling, step back up when it cools
/// below the floor, hold anywhere in between.  Stateless — the caller owns
/// the current level, which makes per-die instances free.
struct LadderStepper {
  Celsius ceiling{85.0};
  Celsius floor{75.0};

  /// One decision; returns the new level (clamped to [0, ladder_size)).
  [[nodiscard]] std::size_t step(std::size_t level, std::size_t ladder_size,
                                 Celsius hottest) const;
};

/// Two-threshold trip: engages when the value exceeds `on`, releases when it
/// drops below `off`, holds state in the dead band (including exactly at
/// either threshold — no flapping at the boundary).
class Hysteresis {
 public:
  /// Throws std::invalid_argument unless off < on.
  Hysteresis(Celsius on, Celsius off);

  /// Feed one observation; returns the (possibly new) engaged state.
  bool update(Celsius value);
  [[nodiscard]] bool engaged() const { return engaged_; }
  void reset() { engaged_ = false; }

 private:
  Celsius on_;
  Celsius off_;
  bool engaged_ = false;
};

}  // namespace tsvpt::control
