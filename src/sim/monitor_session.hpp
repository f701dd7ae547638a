// Plays a workload against the thermal simulator while the sensor network
// samples on a fixed period — producing the sensed-vs-true tracking traces
// of the stack experiments (F5) and the examples.  Each scan is one
// open-loop control::StackLoop round: advance one sample period, then
// sample.  Closed loops run through control::run_closed_loop.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stack_monitor.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/stats.hpp"
#include "ptsim/units.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::sim {

struct SamplePoint {
  Second time{0.0};
  std::vector<core::StackMonitor::SiteReading> readings;
};

class MonitoringSession {
 public:
  struct Config {
    /// Sensor sampling period.
    Second sample_period{1e-3};
    /// Thermal integration / workload re-application granularity.
    Second thermal_step{2e-4};
    /// Start from the steady state of the first workload phase (true) or
    /// from uniform ambient (false).
    bool start_at_steady_state = true;
    /// Serialized (TDM) readout: when > 0, sites are sampled one at a time
    /// with this much wall-clock between them (a shared readout bus/scan
    /// chain), so later sites see a *newer* thermal state while the sample
    /// point as a whole is skewed.  0 = ideal simultaneous sampling.
    /// Site i of a scan nominally timestamped t therefore reflects the
    /// stack at t + i * readout_slot; each reading's `truth` is taken at
    /// that same instant, so per-reading errors stay conversion-accurate
    /// (pinned by MonitoringSession.TdmReadoutSkewsLaterSitesTowardNewer-
    /// ThermalState).
    Second readout_slot{0.0};
  };

  /// All pointers must outlive the session.
  MonitoringSession(thermal::ThermalNetwork* network,
                    const thermal::Workload* workload,
                    core::StackMonitor* monitor, Config config,
                    std::uint64_t noise_seed);

  /// Initialize the thermal state, run power-on calibration, then scan at
  /// t = k * sample_period for k = 1 .. duration / sample_period (rounded
  /// down), each scan after advancing the stack to its instant.
  void run(Second duration);

  [[nodiscard]] const std::vector<SamplePoint>& trace() const {
    return trace_;
  }

  /// All per-site tracking errors (sensed - true, deg C) across the trace.
  [[nodiscard]] Samples error_samples() const;
  /// Total sensing energy across the trace.
  [[nodiscard]] Joule total_sensing_energy() const;

 private:
  thermal::ThermalNetwork* network_;
  const thermal::Workload* workload_;
  core::StackMonitor* monitor_;
  Config config_;
  Rng noise_;
  std::vector<SamplePoint> trace_;
};

}  // namespace tsvpt::sim
