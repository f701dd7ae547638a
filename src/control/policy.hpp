// The control plane's vocabulary: what a policy sees (per-die observations
// distilled from one sensor scan), what it commands (per-die DVFS/gating
// levels plus inter-die power migrations), and how a command is applied to
// the simulated plant.
//
// Determinism rules (these make controller-in-the-loop fleet runs
// thread-count-invariant — see DESIGN.md "Closed-loop DTM"):
//   * a policy's decide() is a pure function of its own state and the
//     observation; no clocks, no global RNG, no cross-stack state;
//   * all floating-point reductions iterate sites/dies in index order;
//   * ties (equally hot dies) break toward the lowest die index.
//
// Safety rule: observations only carry *credible* readings — a reading with
// a real conversion behind it from a site the HealthSupervisor has not
// pulled from duty.  Degraded substitutes (quarantined sites, dead sensors,
// chaos placeholders) are excluded, so a policy can never actuate on a
// dead-sensor value; a die with zero credible sites arrives blind() and
// must be driven to its worst-case-safe command.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/stack_monitor.hpp"
#include "ptsim/units.hpp"
#include "thermal/network.hpp"

namespace tsvpt::control {

/// What one die looks like to a policy after one scan.
struct DieObservation {
  std::size_t die = 0;
  /// Hottest / mean credible sensed temperature on this die (meaningless
  /// when blind()).
  Celsius max_sensed{-273.15};
  Celsius mean_sensed{-273.15};
  std::size_t credible_sites = 0;
  std::size_t total_sites = 0;
  /// No credible reading: the policy is flying blind on this die.
  [[nodiscard]] bool blind() const { return credible_sites == 0; }
};

struct StackObservation {
  std::uint64_t scan = 0;
  Second sim_time{0.0};
  std::vector<DieObservation> dies;
};

/// Distill one scan into per-die observations.  A reading is credible when
/// it is not degraded (a real conversion happened) and its site is neither
/// quarantined nor dead.
[[nodiscard]] StackObservation observe_scan(
    std::uint64_t scan, Second sim_time,
    const std::vector<core::StackMonitor::SiteReading>& readings,
    std::size_t die_count);

/// Operating command for one die, held until the next decision.
struct DieCommand {
  /// Ladder rung the command corresponds to (informational for policies
  /// that do not walk a ladder).
  std::size_t level = 0;
  /// Work accrues at this rate (0 while gated).
  double relative_frequency = 1.0;
  /// Multiplier on the die's scalable power.
  double power_scale = 1.0;
  bool gated = false;

  friend bool operator==(const DieCommand& a, const DieCommand& b) {
    return a.level == b.level &&
           a.relative_frequency == b.relative_frequency &&
           a.power_scale == b.power_scale && a.gated == b.gated;
  }
};

/// Move a fraction of one die's programmed power onto another die
/// (task migration).  Fractions are of the *nominal* workload map — the
/// actuation is always applied to a freshly programmed nominal map (a
/// StackLoop caches the result until the phase or the actuation changes),
/// so entries compose without feedback.
struct Migration {
  std::size_t from_die = 0;
  std::size_t to_die = 0;
  double fraction = 0.0;

  friend bool operator==(const Migration& a, const Migration& b) {
    return a.from_die == b.from_die && a.to_die == b.to_die &&
           a.fraction == b.fraction;
  }
};

struct Actuation {
  std::vector<DieCommand> dies;
  std::vector<Migration> migrations;
};

/// How the stack responds to commands.  `unscalable_fraction` is the share
/// of each die's programmed power no command can remove (clock tree,
/// uncore, IO): effective scale = u + (1 - u) * power_scale.  It is what
/// makes race-to-idle real — finishing the work sooner stops paying the
/// unscalable floor sooner, so parking at the bottom rung is *not* the
/// energy-optimal policy.
struct PlantModel {
  double unscalable_fraction = 0.35;
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// One decision; the returned actuation is held until the next scan.
  [[nodiscard]] virtual Actuation decide(const StackObservation& obs) = 0;
  /// Worst-case-safe command: issued before the first observation ever
  /// arrives, and the shape blind dies must be driven to.
  [[nodiscard]] virtual Actuation safe_actuation() const = 0;
  virtual void reset() = 0;
};

/// Apply the actuation on top of the network's programmed (nominal) map:
/// migrations move programmed watts between dies, per-die commands scale
/// what remains (through the plant's unscalable floor).  Leakage sources are
/// physics, not task placement — untouched.
void actuate(thermal::ThermalNetwork& network, const Actuation& act,
             const PlantModel& plant = {});

}  // namespace tsvpt::control
