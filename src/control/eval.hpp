// Single-stack closed-loop evaluation: the policy harness behind bench_a20,
// bench_a6, bench_a11, the closed_loop_dtm and thermal_guard examples and
// the Control* loop tests.
//
// Runs one stack controller-in-the-loop with a fixed *work budget* rather
// than a fixed duration: the run ends when the dies have accrued the budget
// (in relative-frequency-seconds) or the time cap expires.  That makes the
// energy comparison between policies honest — a policy that throttles
// harder takes longer to finish the same work and keeps paying the plant's
// unscalable power floor and leakage the whole time (race-to-idle).
//
// Each scan is one control::StackLoop round, the same loop the
// FleetSampler's workers run, here ordered sample -> supervise -> decide ->
// on_scan -> advance.  Sensor-loss scenarios inject dead-RO windows per
// site; with supervision enabled a site the HealthSupervisor has pulled
// from duty is never converted, so the controller's blind-die fallback —
// not a stale or fabricated reading — is what keeps the stack safe.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "ptsim/units.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {

/// Dead-RO window on one site: every oscillator of the site's sensor stops
/// at `start_scan` and recovers at `end_scan` (exclusive).
struct SensorOutage {
  std::size_t site = 0;
  std::uint64_t start_scan = 0;
  std::uint64_t end_scan = 0;
};

struct EvalConfig {
  Second sample_period{1e-3};
  Second thermal_step{2.5e-4};
  /// Stop once this much work is done (0 = run to max_duration).
  double work_budget = 0.0;
  Second max_duration{1.0};
  /// Start from the uncontrolled steady state instead of ambient.
  bool start_at_steady_state = false;
  /// Abort (EvalResult::runaway) once any true cell temperature exceeds
  /// this — the transient analogue of the network's runaway limit, which
  /// only steady-state solves enforce.  Default far above any survivable
  /// silicon temperature, i.e. effectively off.
  Celsius abort_above{500.0};
  bool supervise = false;
  core::HealthSupervisor::Config health;
  std::vector<SensorOutage> outages;
  /// Diagnostic hook: the post-supervision readings and held actuation
  /// after each scan's decision.
  std::function<void(std::uint64_t scan,
                     const std::vector<core::StackMonitor::SiteReading>&,
                     const Actuation&)>
      on_scan;
};

struct EvalResult {
  /// Work budget met before the time cap (always false with budget 0).
  bool completed = false;
  /// The run was aborted because the plant crossed `abort_above`.
  bool runaway = false;
  Second duration{0.0};
  Controller::Stats stats;
};

/// Deterministic given `noise_seed`.  Resets the controller, power-on
/// calibrates the monitor, then alternates scan/decide with actuated
/// thermal advancement until the budget or the cap is hit.
EvalResult run_closed_loop(thermal::ThermalNetwork& network,
                           const thermal::Workload& workload,
                           core::StackMonitor& monitor,
                           Controller& controller, const EvalConfig& config,
                           std::uint64_t noise_seed);

}  // namespace tsvpt::control
