// Time-varying power workloads for the stack: one period of phases, each a
// set of power-map directives, that repeats for as long as it is played.
// The sim module plays these against the thermal network to produce the
// transient temperature fields the sensors must track.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "process/geometry.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/units.hpp"
#include "thermal/network.hpp"

namespace tsvpt::thermal {

/// One power directive: either a uniform die load or a Gaussian hotspot.
struct PowerDirective {
  enum class Kind { kUniform, kHotspot };
  Kind kind = Kind::kUniform;
  std::size_t die = 0;
  Watt total{0.0};
  // Hotspot-only:
  process::Point center;
  Meter radius{0.5e-3};
};

/// A workload phase: directives that hold for `duration`.
struct WorkloadPhase {
  std::string name;
  Second duration{0.0};
  std::vector<PowerDirective> directives;
};

/// A named sequence of phases, played periodically: after the last phase
/// the first one starts again.
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<WorkloadPhase> phases);

  [[nodiscard]] const std::vector<WorkloadPhase>& phases() const {
    return phases_;
  }
  /// Sum of the phase durations: the time after which the workload repeats.
  [[nodiscard]] Second period() const { return period_; }

  /// Index of the phase active at time t.  t is folded into one period
  /// first, so the cost does not grow with t.  Throws on an empty workload.
  [[nodiscard]] std::size_t phase_at(Second t) const;

  /// Program the network's power map for the phase active at time t.
  void apply(ThermalNetwork& network, Second t) const;

  // -- Canned workloads used by examples and benches ------------------------
  /// Burst-idle pattern: compute bursts on the logic die with a hotspot that
  /// migrates between bursts, idle floors elsewhere.  Mirrors a
  /// neural-recording DSP stack: die 0 = MCU/DSP (hot), die 1..n = AFE/ADC
  /// dies (cool).  `period` is one burst plus one idle, each `period / 2`;
  /// the workload repeats every two of them: a burst at one corner, idle, a
  /// burst at the opposite corner, idle.
  [[nodiscard]] static Workload burst_idle(const StackConfig& config,
                                           Watt peak, Watt idle,
                                           Second period);
  /// Random phases (for property tests): bounded powers, random hotspots.
  [[nodiscard]] static Workload random(const StackConfig& config, Rng& rng,
                                       std::size_t phase_count, Watt max_power,
                                       Second max_phase);

 private:
  std::vector<WorkloadPhase> phases_;
  Second period_{0.0};
};

}  // namespace tsvpt::thermal
