// Stack monitor: the paper's system context.  A 4-die TSV 3D stack (modeled
// on the group's neural-recording microsystems: a hot DSP/MCU die under
// cool analog front-end dies) runs a bursty workload; one PT sensor per die
// quadrant tracks the temperature field and reports the per-die process map.
//
//   $ ./examples/stack_monitor
#include <iomanip>
#include <iostream>

#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "sim/monitor_session.hpp"
#include "thermal/workload.hpp"

int main() {
  using namespace tsvpt;

  // The stack: 4 thinned 5x5 mm dies, TSV field, package heat sink below.
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{stack};

  // Workload: 25 ms compute bursts (migrating hotspot on die 0) over a
  // 0.25 W idle floor on the AFE dies.
  const thermal::Workload workload = thermal::Workload::burst_idle(
      stack, Watt{5.0}, Watt{0.25}, Second{50e-3});

  // Sensor sites: 2x2 per die, with realistic process variation and
  // TSV-stress shifts that grow with die thinning up the stack.
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(stack, 2, 2);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(), points};
  Rng rng{42};
  for (std::size_t d = 0; d < stack.die_count(); ++d) {
    variation.set_tsv_stress(process::TsvStressField{
        stack.tsv.centers, process::TsvStressParams{},
        1.0 + 0.25 * static_cast<double>(d)});
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) {
      sites[d * 4 + i].vt_delta = die.at(i);
      sites[d * 4 + i].supply = circuit::SupplyRail{
          {Volt{1.0}, Volt{3e-3 * static_cast<double>(d)}, Volt{1e-3}}};
    }
  }

  // Supply-compensated sensors: upper dies see real PDN droop.
  core::PtSensor::Config sensor_cfg;
  sensor_cfg.compensate_supply = true;
  core::StackMonitor monitor{&network, sensor_cfg, sites, 7};

  // Run 150 ms with 2 ms sampling.
  sim::MonitoringSession::Config session_cfg;
  session_cfg.sample_period = Second{2e-3};
  session_cfg.thermal_step = Second{0.5e-3};
  sim::MonitoringSession session{&network, &workload, &monitor, session_cfg, 9};
  session.run(Second{150e-3});

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "time(ms)  die0 true/sensed   die1   die2   die3 (hottest site, degC)\n";
  for (std::size_t k = 0; k < session.trace().size(); k += 10) {
    const sim::SamplePoint& point = session.trace()[k];
    std::cout << std::setw(7) << point.time.value() * 1e3 << "  ";
    for (std::size_t d = 0; d < 4; ++d) {
      double best_true = -1e30;
      double best_sensed = 0.0;
      for (const auto& r : point.readings) {
        if (r.die == d && r.truth.value() > best_true) {
          best_true = r.truth.value();
          best_sensed = r.sensed.value();
        }
      }
      std::cout << best_true << "/" << best_sensed << "  ";
    }
    std::cout << '\n';
  }

  const Samples errors = session.error_samples();
  std::cout << "\ntracking error over " << errors.count()
            << " readings: 3-sigma = " << errors.three_sigma()
            << " degC, worst = " << errors.max_abs() << " degC\n";
  std::cout << "total sensing energy: "
            << session.total_sensing_energy().value() * 1e9 << " nJ\n\n";

  // The process map the stack integrator gets for free from calibration.
  std::cout << "process map (die-mean extracted dVtn / dVtp, mV):\n";
  const auto map = monitor.process_map();
  for (std::size_t d = 0; d < 4; ++d) {
    double sum_n = 0.0;
    double sum_p = 0.0;
    int count = 0;
    for (const auto& r : map) {
      if (r.die != d) continue;
      sum_n += r.dvtn_hat.value() * 1e3;
      sum_p += r.dvtp_hat.value() * 1e3;
      ++count;
    }
    std::cout << "  die " << d << ": " << sum_n / count << " / "
              << sum_p / count << '\n';
  }
  return 0;
}
