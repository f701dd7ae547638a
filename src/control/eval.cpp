#include "control/eval.hpp"

#include <memory>
#include <stdexcept>

#include "control/stack_loop.hpp"
#include "core/pt_sensor.hpp"
#include "ptsim/rng.hpp"

namespace tsvpt::control {

namespace {

void set_site_dead(core::StackMonitor& monitor, std::size_t site, bool dead) {
  if (dead) {
    for (std::size_t r = 0; r < core::kRoCount; ++r) {
      monitor.sensor(site).inject_fault(static_cast<core::RoRole>(r),
                                        core::RoFault::kDead);
    }
  } else {
    monitor.sensor(site).clear_faults();
  }
}

}  // namespace

EvalResult run_closed_loop(thermal::ThermalNetwork& network,
                           const thermal::Workload& workload,
                           core::StackMonitor& monitor,
                           Controller& controller, const EvalConfig& config,
                           std::uint64_t noise_seed) {
  if (config.sample_period.value() <= 0.0 ||
      config.thermal_step.value() <= 0.0) {
    throw std::invalid_argument{"run_closed_loop: non-positive period"};
  }
  if (config.max_duration.value() <= 0.0) {
    throw std::invalid_argument{"run_closed_loop: non-positive duration"};
  }
  for (const SensorOutage& o : config.outages) {
    if (o.site >= monitor.site_count() || o.end_scan <= o.start_scan) {
      throw std::invalid_argument{"run_closed_loop: bad outage"};
    }
  }

  Rng noise{noise_seed};
  controller.reset();
  std::unique_ptr<core::HealthSupervisor> supervisor;
  if (config.supervise) {
    supervisor = std::make_unique<core::HealthSupervisor>(config.health);
  }
  StackLoop loop{network, workload, monitor, noise, supervisor.get(),
                 &controller};
  // Power-on: program the uncontrolled map, pick the start state, calibrate.
  loop.power_on(config.start_at_steady_state);

  // Checked after every thermal substep.  The controller's running peak
  // crosses the abort limit exactly when the substep just taken did.
  const auto runaway = [&] {
    return controller.stats().peak_true_c > config.abort_above.value();
  };
  const std::function<bool()> stop = [&] {
    return runaway() || (config.work_budget > 0.0 &&
                         controller.stats().work_done >= config.work_budget);
  };

  EvalResult result;
  Second t{0.0};
  std::uint64_t scan = 0;
  while (true) {
    for (const SensorOutage& o : config.outages) {
      if (scan == o.start_scan) set_site_dead(monitor, o.site, true);
      if (scan == o.end_scan) set_site_dead(monitor, o.site, false);
    }

    std::vector<core::StackMonitor::SiteReading> readings =
        loop.sample_scan();
    loop.settle(scan, t, readings);
    if (config.on_scan) config.on_scan(scan, readings, controller.actuation());
    ++scan;

    const Second advanced =
        loop.advance(t, config.sample_period, config.thermal_step, stop);
    if (stop()) {
      result.runaway = runaway();
      result.completed = !result.runaway;
      result.duration = t + advanced;
      result.stats = controller.stats();
      return result;
    }
    t += config.sample_period;
    if (t >= config.max_duration) break;
  }

  result.duration = t;
  result.stats = controller.stats();
  return result;
}

}  // namespace tsvpt::control
