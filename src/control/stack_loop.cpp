#include "control/stack_loop.hpp"

#include <algorithm>
#include <utility>

namespace tsvpt::control {

StackLoop::StackLoop(thermal::ThermalNetwork& network,
                     const thermal::Workload& workload,
                     core::StackMonitor& monitor, Rng& noise,
                     core::HealthSupervisor* supervisor,
                     Controller* controller)
    : network_(&network),
      workload_(&workload),
      monitor_(&monitor),
      noise_(&noise),
      supervisor_(supervisor),
      controller_(controller),
      phase_power_(network.node_count(), 0.0),
      actuated_power_(controller != nullptr ? network.node_count() : 0,
                      0.0) {}

void StackLoop::power_on(bool steady_state) {
  program_nominal(Second{0.0});
  if (steady_state) {
    network_->set_temperatures(network_->steady_state());
  } else {
    network_->set_uniform_temperature(network_->config().ambient);
  }
  monitor_->calibrate_all(noise_);
}

void StackLoop::program_nominal(Second t) {
  const std::size_t phase = workload_->phase_at(t);
  if (phase == cached_phase_) {
    network_->set_power_map(phase_power_);
    return;
  }
  workload_->apply(*network_, t);
  const std::vector<double>& map = network_->power_map();
  std::copy(map.begin(), map.end(), phase_power_.begin());
  cached_phase_ = phase;
}

void StackLoop::program_actuated(Second t) {
  const std::size_t phase = workload_->phase_at(t);
  const std::uint64_t changes = controller_->actuation_changes();
  if (phase == actuated_phase_ && changes == actuated_changes_) {
    network_->set_power_map(actuated_power_);
    return;
  }
  program_nominal(t);
  actuate(*network_, controller_->actuation(), controller_->config().plant);
  const std::vector<double>& map = network_->power_map();
  std::copy(map.begin(), map.end(), actuated_power_.begin());
  actuated_total_ = network_->total_power().value();
  actuated_phase_ = phase;
  actuated_changes_ = changes;
}

// hot(alloc): four substeps per scan of every stack; the phase's map comes
// from the cache and the step integrates in the network's own buffers.
void StackLoop::substep(Second t, Second h) {
  if (controller_ == nullptr) {
    program_nominal(t);
    network_->step(h);
    return;
  }
  program_actuated(t);
  network_->step(h);
  const Celsius hottest =
      std::max(Celsius{-273.15}, to_celsius(network_->max_temperature()));
  controller_->note_tick(
      h, hottest, Watt{actuated_total_ + network_->leakage_power().value()});
}

Second StackLoop::advance(Second now, Second period, Second step,
                          const std::function<bool()>& stop) {
  Second advanced{0.0};
  while (advanced < period) {
    const Second h = std::min(step, period - advanced);
    if (h.value() <= 0.0) break;  // float residue; the period is covered
    substep(now + advanced, h);
    advanced += h;
    if (stop && stop()) break;
  }
  return advanced;
}

std::vector<core::StackMonitor::SiteReading> StackLoop::sample_scan() {
  if (supervisor_ == nullptr) return monitor_->sample_all(noise_);
  const std::size_t sites = monitor_->site_count();
  sampled_.assign(sites, true);
  std::vector<core::StackMonitor::SiteReading> readings;
  readings.reserve(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    if (supervisor_->wants_sample(i)) {
      readings.push_back(monitor_->sample_site(i, noise_));
      continue;
    }
    sampled_[i] = false;
    core::StackMonitor::SiteReading placeholder;
    placeholder.site_index = i;
    placeholder.die = monitor_->site(i).die;
    placeholder.location = monitor_->site(i).location;
    placeholder.truth = monitor_->truth_at(i);
    placeholder.degraded = true;  // no conversion behind it
    readings.push_back(placeholder);
  }
  return readings;
}

void StackLoop::settle(std::uint64_t scan, Second now,
                       std::vector<core::StackMonitor::SiteReading>& readings) {
  if (supervisor_ != nullptr) {
    core::HealthSupervisor::ScanResult result =
        supervisor_->observe(readings, sampled_);
    for (const std::size_t i : result.recalibrate) {
      // Forced recalibration on recovery: drop the latched process point;
      // the next conversion self-calibrates afresh.
      monitor_->sensor(i).clear_calibration();
    }
    for (auto& t : result.transitions) transitions_.push_back(std::move(t));
    readings = std::move(result.readings);
  }
  if (controller_ != nullptr) {
    // Post-supervision readings: substituted quarantine placeholders arrive
    // flagged degraded, so no policy can actuate on a dead sensor.
    controller_->on_scan(scan, now, readings);
  }
}

}  // namespace tsvpt::control
