#include "thermal/workload.hpp"

#include <cmath>
#include <stdexcept>

namespace tsvpt::thermal {

Workload::Workload(std::vector<WorkloadPhase> phases)
    : phases_(std::move(phases)) {
  for (const WorkloadPhase& phase : phases_) {
    if (phase.duration.value() <= 0.0) {
      throw std::invalid_argument{"Workload: non-positive phase duration"};
    }
    period_ += phase.duration;
  }
}

std::size_t Workload::phase_at(Second t) const {
  if (phases_.empty()) throw std::logic_error{"Workload: empty"};
  // fmod is exact, so folding adds no rounding of its own; the walk below
  // then covers a single period.
  double remaining = std::fmod(t.value(), period_.value());
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    remaining -= phases_[i].duration.value();
    if (remaining < 0.0) return i;
  }
  return phases_.size() - 1;
}

void Workload::apply(ThermalNetwork& network, Second t) const {
  const WorkloadPhase& phase = phases_[phase_at(t)];
  network.clear_power();
  for (const PowerDirective& d : phase.directives) {
    switch (d.kind) {
      case PowerDirective::Kind::kUniform:
        network.set_uniform_power(d.die, d.total);
        break;
      case PowerDirective::Kind::kHotspot:
        network.add_hotspot(d.die, d.center, d.radius, d.total);
        break;
    }
  }
}

Workload Workload::burst_idle(const StackConfig& config, Watt peak, Watt idle,
                              Second period) {
  if (config.dies.empty()) throw std::invalid_argument{"burst_idle: no dies"};
  const double w = config.dies[0].width.value();
  const double h = config.dies[0].height.value();
  std::vector<WorkloadPhase> phases;
  for (const process::Point corner :
       {process::Point{0.3 * w, 0.3 * h}, process::Point{0.7 * w, 0.7 * h}}) {
    WorkloadPhase burst;
    burst.name = "burst";
    burst.duration = period * 0.5;
    PowerDirective hot;
    hot.kind = PowerDirective::Kind::kHotspot;
    hot.die = 0;
    hot.total = peak;
    hot.center = corner;
    hot.radius = Meter{0.15 * w};
    burst.directives.push_back(hot);
    for (std::size_t d = 1; d < config.dies.size(); ++d) {
      burst.directives.push_back(
          {PowerDirective::Kind::kUniform, d, idle, {}, Meter{0.0}});
    }
    phases.push_back(std::move(burst));

    WorkloadPhase quiet;
    quiet.name = "idle";
    quiet.duration = period * 0.5;
    for (std::size_t d = 0; d < config.dies.size(); ++d) {
      quiet.directives.push_back(
          {PowerDirective::Kind::kUniform, d, idle, {}, Meter{0.0}});
    }
    phases.push_back(std::move(quiet));
  }
  return Workload{std::move(phases)};
}

Workload Workload::random(const StackConfig& config, Rng& rng,
                          std::size_t phase_count, Watt max_power,
                          Second max_phase) {
  if (phase_count == 0) throw std::invalid_argument{"random: zero phases"};
  std::vector<WorkloadPhase> phases;
  phases.reserve(phase_count);
  for (std::size_t i = 0; i < phase_count; ++i) {
    WorkloadPhase phase;
    phase.name = "rand" + std::to_string(i);
    phase.duration = Second{rng.uniform(0.1, 1.0) * max_phase.value()};
    for (std::size_t d = 0; d < config.dies.size(); ++d) {
      if (rng.bernoulli(0.5)) {
        PowerDirective dir;
        dir.kind = PowerDirective::Kind::kHotspot;
        dir.die = d;
        dir.total = Watt{rng.uniform(0.0, max_power.value())};
        dir.center = {rng.uniform(0.0, config.dies[d].width.value()),
                      rng.uniform(0.0, config.dies[d].height.value())};
        dir.radius = Meter{rng.uniform(0.1, 0.3) *
                           config.dies[d].width.value()};
        phase.directives.push_back(dir);
      } else {
        phase.directives.push_back(
            {PowerDirective::Kind::kUniform, d,
             Watt{rng.uniform(0.0, max_power.value())}, {}, Meter{0.0}});
      }
    }
    phases.push_back(std::move(phase));
  }
  return Workload{std::move(phases)};
}

}  // namespace tsvpt::thermal
