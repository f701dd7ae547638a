// Fleet health: failure injection and on-line fault localization on a live
// stack.  A 36-sensor monitor runs; one sensor dies, one sticks hot.  The
// spatial fault detector localizes both; the health supervisor's temporal
// check tells the stuck sensor's instantaneous jump from a real (gradual)
// hotspot, and serves neighbour estimates in place of the broken sites.
//
//   $ ./examples/fleet_health
#include <cstdio>
#include <memory>

#include "core/fault_detector.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"

int main() {
  using namespace tsvpt;
  using namespace tsvpt::core;

  const thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites = StackMonitor::uniform_sites(cfg, 3, 3);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 9; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(),
                                    points};
  Rng rng{2024};
  for (std::size_t d = 0; d < cfg.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 9; ++i) sites[d * 9 + i].vt_delta = die.at(i);
  }
  network.set_uniform_power(0, Watt{2.0});
  network.set_temperatures(network.steady_state());

  StackMonitor monitor{&network, PtSensor::Config{}, sites, 77};
  monitor.calibrate_all(&rng);
  FaultDetector spatial;
  HealthSupervisor supervisor;

  auto report = [&](const char* label) {
    const auto sample = monitor.sample_all(&rng);
    const auto verdicts = spatial.analyze(sample);
    const HealthSupervisor::ScanResult health = supervisor.observe(sample);
    std::printf("%s\n", label);
    bool any = false;
    for (const auto& v : verdicts) {
      if (!v.suspect) continue;
      any = true;
      std::printf("  spatial:  site %2zu (die %zu) SUSPECT — %s "
                  "(deviation %+.1f degC)\n",
                  v.site_index, sample[v.site_index].die, v.reason.c_str(),
                  v.deviation.value());
    }
    for (const HealthSupervisor::Transition& t : health.transitions) {
      any = true;
      std::printf("  health:   site %2zu %s -> %s — %s\n", t.site_index,
                  to_string(t.from), to_string(t.to), t.reason.c_str());
    }
    if (!any) std::printf("  all %zu sensors consistent\n", sample.size());
    if (any && health.transitions.empty()) {
      std::printf("  health:   no site jumped alone, no transitions\n");
    }
    if (health.substituted > 0) {
      std::printf("  served:   %zu quarantined readings replaced by neighbour "
                  "estimates\n",
                  health.substituted);
    }
    std::printf("\n");
  };

  report("scan 1 (healthy fleet):");

  std::printf(">>> injecting faults: site 7 TDRO dies; site 13 sticks at a "
              "hot frequency\n\n");
  monitor.sensor(7).inject_fault(RoRole::kTdro, RoFault::kDead);
  PtSensor& stuck = monitor.sensor(13);
  stuck.inject_fault(RoRole::kTdro, RoFault::kStuck,
                     stuck.model_frequency(RoRole::kTdro, Volt{0.0},
                                           Volt{0.0}, Kelvin{385.0}));
  report("scan 2 (after fault injection):");

  std::printf(">>> real event: 3 W hotspot appears on die 0 and grows\n\n");
  network.add_hotspot(0, {2.5e-3, 2.5e-3}, Meter{1.5e-3}, Watt{3.0});
  network.step(Second{30e-3});
  report("scan 3 (during the real transient):");
  return 0;
}
