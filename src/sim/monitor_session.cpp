#include "sim/monitor_session.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "control/stack_loop.hpp"

namespace tsvpt::sim {

MonitoringSession::MonitoringSession(thermal::ThermalNetwork* network,
                                     const thermal::Workload* workload,
                                     core::StackMonitor* monitor,
                                     Config config, std::uint64_t noise_seed)
    : network_(network), workload_(workload), monitor_(monitor),
      config_(config), noise_(noise_seed) {
  if (network_ == nullptr || workload_ == nullptr || monitor_ == nullptr) {
    throw std::invalid_argument{"MonitoringSession: null dependency"};
  }
  if (config_.sample_period.value() <= 0.0 ||
      config_.thermal_step.value() <= 0.0) {
    throw std::invalid_argument{"MonitoringSession: non-positive period"};
  }
}

void MonitoringSession::run(Second duration) {
  trace_.clear();
  control::StackLoop loop{*network_, *workload_, *monitor_, noise_,
                          /*supervisor=*/nullptr, /*controller=*/nullptr};
  loop.power_on(config_.start_at_steady_state);

  // A whole number of scans: the epsilon absorbs the float residue of a
  // duration that is an exact multiple of the period (120e-3 / 1e-3 is
  // 119.99999999999999).
  const auto scans = static_cast<std::uint64_t>(
      std::floor(duration.value() / config_.sample_period.value() + 1e-9));
  Second now{0.0};
  for (std::uint64_t scan = 0; scan < scans; ++scan) {
    loop.advance(now, config_.sample_period, config_.thermal_step);
    now += config_.sample_period;
    SamplePoint point;
    point.time = now;
    if (config_.readout_slot.value() <= 0.0) {
      point.readings = loop.sample_scan();
    } else {
      // Serialized readout: the stack keeps evolving between the
      // individual site conversions of one scan.
      point.readings.reserve(monitor_->site_count());
      for (std::size_t i = 0; i < monitor_->site_count(); ++i) {
        point.readings.push_back(monitor_->sample_site(i, &noise_));
        if (i + 1 < monitor_->site_count()) {
          loop.substep(now + config_.readout_slot * static_cast<double>(i),
                       config_.readout_slot);
        }
      }
    }
    loop.settle(scan, now, point.readings);
    trace_.push_back(std::move(point));
  }
}

Samples MonitoringSession::error_samples() const {
  Samples errors;
  for (const SamplePoint& point : trace_) {
    for (const auto& reading : point.readings) errors.add(reading.error());
  }
  return errors;
}

Joule MonitoringSession::total_sensing_energy() const {
  Joule total{0.0};
  for (const SamplePoint& point : trace_) {
    for (const auto& reading : point.readings) total += reading.energy;
  }
  return total;
}

}  // namespace tsvpt::sim
