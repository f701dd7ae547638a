// Thermal guard: closed-loop thermal management driven by the sensor
// network.  A hot workload pushes the stack past its limit; the guard gates
// a die's power when that die's *sensed* temperature crosses the trip point
// (the per-die gating policy, run through control::run_closed_loop).  Runs
// the same scenario unguarded, guarded-by-PT-sensor, and guarded by a
// deliberately miscalibrated monitor, to show what sensing accuracy buys.
//
//   $ ./examples/thermal_guard
#include <algorithm>
#include <iostream>

#include "control/eval.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "thermal/workload.hpp"

namespace {

using namespace tsvpt;

std::vector<core::SensorSite> build_sites(const thermal::StackConfig& stack,
                                          Volt extra_shift) {
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(stack, 2, 2);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(), points};
  Rng rng{11};
  for (std::size_t d = 0; d < stack.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) {
      device::VtDelta delta = die.at(i);
      delta.nmos += extra_shift;
      delta.pmos += extra_shift;
      sites[d * 4 + i].vt_delta = delta;
    }
  }
  return sites;
}

}  // namespace

int main() {
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  const thermal::Workload hot = thermal::Workload::burst_idle(
      stack, Watt{16.0}, Watt{1.0}, Second{60e-3});

  // Gated, a die keeps 25 % of its power; no unscalable floor, so the
  // command scales the die's whole map.
  control::Controller::Config guard_cfg;
  guard_cfg.kind = control::PolicyKind::kReactiveGating;
  guard_cfg.policy.gate_on = Celsius{70.0};
  guard_cfg.policy.gate_off = Celsius{62.0};
  guard_cfg.policy.gate_power_scale = 0.25;
  guard_cfg.plant = control::PlantModel{0.0};
  guard_cfg.violation_ceiling = guard_cfg.policy.gate_on;
  control::EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{0.5e-3};
  eval.max_duration = Second{180e-3};

  struct Scenario {
    const char* name;
    bool enabled;
    Volt sensor_skew;  // extra uncorrected shift injected into sensor sites
    bool calibrated;
  };
  const Scenario scenarios[] = {
      {"unguarded", false, Volt{0.0}, true},
      {"guarded, self-calibrated PT sensors", true, Volt{0.0}, true},
      {"guarded, sensors read through typical model (no self-cal)", true,
       Volt{0.0}, false},
  };

  std::cout << "trip point " << guard_cfg.policy.gate_on.value()
            << " degC; peak power " << 16.0 << " W bursts\n\n";
  for (const Scenario& s : scenarios) {
    thermal::ThermalNetwork network{stack};
    std::vector<core::SensorSite> sites = build_sites(stack, s.sensor_skew);
    core::PtSensor::Config cfg;
    if (!s.calibrated) {
      // Emulate a never-calibrated monitor: zero out its knowledge of the
      // die by inflating the mismatch it cannot correct.
      cfg.ro_mismatch_sigma = Volt{12e-3};  // ~ die-level scatter left in
    }
    core::StackMonitor monitor{&network, cfg, sites, 21};
    control::Controller::Config controller_cfg = guard_cfg;
    if (!s.enabled) {
      controller_cfg.kind = control::PolicyKind::kStaticWorstCase;
      controller_cfg.policy.static_level = 0;  // flat out, never throttled
    }
    control::Controller controller{controller_cfg, stack.die_count()};
    double max_sensed = -273.15;
    std::size_t scans = 0;
    std::size_t gated_scans = 0;
    std::size_t trips = 0;
    bool was_gated = false;
    eval.on_scan = [&](std::uint64_t,
                       const std::vector<core::StackMonitor::SiteReading>& rs,
                       const control::Actuation& act) {
      for (const auto& r : rs) {
        max_sensed = std::max(max_sensed, r.sensed.value());
      }
      // Die 0 carries the bursts; its trip is the one that matters.
      ++scans;
      if (act.dies[0].gated) ++gated_scans;
      if (act.dies[0].gated && !was_gated) ++trips;
      was_gated = act.dies[0].gated;
    };
    const control::EvalResult result =
        control::run_closed_loop(network, hot, monitor, controller, eval, 33);
    std::cout << s.name << ":\n"
              << "  max true " << result.stats.peak_true_c
              << " degC, max sensed " << max_sensed << " degC\n"
              << "  time over the trip point "
              << result.stats.violation_s * 1e3 << " ms, die 0 gated "
              << 100.0 * static_cast<double>(gated_scans) /
                     static_cast<double>(scans)
              << "% of scans (" << trips << " trip events)\n\n";
  }

  std::cout << "Takeaway: the guard only works as well as its sensors — the\n"
               "self-calibrated monitor trips on time; an uncalibrated one\n"
               "mis-times the trip and either overshoots or over-throttles.\n";
  return 0;
}
