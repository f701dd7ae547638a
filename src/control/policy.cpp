#include "control/policy.hpp"

#include <stdexcept>

#include "core/health_supervisor.hpp"

namespace tsvpt::control {

namespace {

bool credible(const core::StackMonitor::SiteReading& r) {
  if (r.degraded) return false;
  const auto health = static_cast<core::HealthState>(r.health);
  return health != core::HealthState::kQuarantined &&
         health != core::HealthState::kDead;
}

}  // namespace

StackObservation observe_scan(
    std::uint64_t scan, Second sim_time,
    const std::vector<core::StackMonitor::SiteReading>& readings,
    std::size_t die_count) {
  StackObservation obs;
  obs.scan = scan;
  obs.sim_time = sim_time;
  obs.dies.resize(die_count);
  std::vector<double> sums(die_count, 0.0);
  for (std::size_t d = 0; d < die_count; ++d) obs.dies[d].die = d;
  for (const auto& r : readings) {
    if (r.die >= die_count) continue;  // foreign reading; never actuate on it
    DieObservation& die = obs.dies[r.die];
    die.total_sites += 1;
    if (!credible(r)) continue;
    die.credible_sites += 1;
    sums[r.die] += r.sensed.value();
    if (r.sensed > die.max_sensed) die.max_sensed = r.sensed;
  }
  for (std::size_t d = 0; d < die_count; ++d) {
    if (obs.dies[d].credible_sites > 0) {
      obs.dies[d].mean_sensed =
          Celsius{sums[d] / static_cast<double>(obs.dies[d].credible_sites)};
    }
  }
  return obs;
}

void actuate(thermal::ThermalNetwork& network, const Actuation& act,
             const PlantModel& plant) {
  if (plant.unscalable_fraction < 0.0 || plant.unscalable_fraction > 1.0) {
    throw std::invalid_argument{"actuate: unscalable_fraction"};
  }
  const std::size_t die_count = network.config().die_count();
  // Migrations first: they rebalance the nominal placement; the commands
  // then scale whatever each die ended up hosting.
  for (const Migration& m : act.migrations) {
    if (m.from_die >= die_count || m.to_die >= die_count ||
        m.from_die == m.to_die) {
      throw std::invalid_argument{"actuate: bad migration"};
    }
    if (m.fraction < 0.0 || m.fraction > 1.0) {
      throw std::invalid_argument{"actuate: migration fraction"};
    }
    const Watt moved{network.die_power(m.from_die).value() * m.fraction};
    network.scale_die_power(m.from_die, 1.0 - m.fraction);
    network.add_uniform_power(m.to_die, moved);
  }
  const std::size_t dies = std::min(act.dies.size(), die_count);
  for (std::size_t d = 0; d < dies; ++d) {
    const double u = plant.unscalable_fraction;
    network.scale_die_power(d, u + (1.0 - u) * act.dies[d].power_scale);
  }
}

}  // namespace tsvpt::control
