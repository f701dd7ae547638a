// F5 [R]: 3D-stack thermal tracking — a 4-die TSV stack runs a burst/idle
// workload with a migrating hotspot while one PT sensor per die quadrant
// samples every millisecond.  Prints the sensed-vs-true trace for the
// hottest site of each die and the per-die tracking-error statistics.  This
// is the paper's system-level use case: intra-die temperature monitoring
// for TSV 3D integration.
// GCC 12 reports a spurious -Wmaybe-uninitialized from the inlined
// vector<variant> reallocation path when a Table row grows (GCC PR 105562);
// the rows below are plainly initialized before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <iostream>

#include "bench_util.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "sim/monitor_session.hpp"
#include "thermal/workload.hpp"

using namespace tsvpt;

int main() {
  bench::banner("F5", "4-die TSV stack: sensed vs true transient tracking");
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{stack};
  const thermal::Workload workload = thermal::Workload::burst_idle(
      stack, Watt{6.0}, Watt{0.3}, Second{30e-3});

  // 2x2 sensor sites per die with realistic process variation + TSV stress.
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(stack, 2, 2);
  std::vector<process::Point> per_die_points;
  for (std::size_t i = 0; i < 4; ++i) per_die_points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(),
                                    per_die_points};
  Rng rng{505};
  for (std::size_t d = 0; d < stack.die_count(); ++d) {
    // Thinned upper dies carry more TSV stress.
    process::TsvStressField stress{stack.tsv.centers, process::TsvStressParams{},
                                   1.0 + 0.25 * static_cast<double>(d)};
    variation.set_tsv_stress(stress);
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) {
      sites[d * 4 + i].vt_delta = die.at(i);
      // PDN droop grows up the stack (longer TSV supply path).
      sites[d * 4 + i].supply = circuit::SupplyRail{
          {Volt{1.0}, Volt{3e-3 * static_cast<double>(d)}, Volt{1e-3}}};
    }
  }

  // Upper dies see real PDN droop; use the supply-compensated mode so the
  // monitor keeps its accuracy up the stack (A4 quantifies the plain mode).
  core::PtSensor::Config sensor_cfg;
  sensor_cfg.compensate_supply = true;
  core::StackMonitor monitor{&network, sensor_cfg, sites, 606};
  sim::MonitoringSession::Config session_cfg;
  session_cfg.sample_period = Second{1e-3};
  session_cfg.thermal_step = Second{0.5e-3};
  sim::MonitoringSession session{&network, &workload, &monitor, session_cfg,
                                 707};
  session.run(Second{120e-3});

  Table trace{"F5 trace: true vs sensed (degC), hottest site per die"};
  trace.add_column("t_ms", 1);
  for (std::size_t d = 0; d < 4; ++d) {
    trace.add_column("die" + std::to_string(d) + "_true", 2);
    trace.add_column("die" + std::to_string(d) + "_sensed", 2);
  }
  for (std::size_t k = 0; k < session.trace().size(); k += 5) {
    const sim::SamplePoint& point = session.trace()[k];
    std::vector<Cell> row{point.time.value() * 1e3};
    for (std::size_t d = 0; d < 4; ++d) {
      double best_true = -1e30;
      double best_sensed = -1e30;
      for (const auto& r : point.readings) {
        if (r.die != d) continue;
        if (r.truth.value() > best_true) {
          best_true = r.truth.value();
          best_sensed = r.sensed.value();
        }
      }
      row.push_back(best_true);
      row.push_back(best_sensed);
    }
    trace.add_row(std::move(row));
  }
  bench::emit(trace, "f5_trace");

  Table stats{"F5 per-die tracking error (degC)"};
  stats.add_column("die", 0);
  stats.add_column("mean", 3);
  stats.add_column("3sigma", 3);
  stats.add_column("max|err|", 3);
  for (std::size_t d = 0; d < 4; ++d) {
    Samples errors;
    for (const auto& point : session.trace()) {
      for (const auto& r : point.readings) {
        if (r.die == d) errors.add(r.error());
      }
    }
    stats.add_row({static_cast<long long>(d), errors.mean(),
                   errors.three_sigma(), errors.max_abs()});
  }
  bench::emit(stats, "f5_stats");

  const Samples all = session.error_samples();
  std::cout << "Overall: 3sigma = " << all.three_sigma()
            << " degC, max |err| = " << all.max_abs()
            << " degC over " << all.count() << " readings; total sensing "
            << "energy = " << session.total_sensing_energy().value() * 1e9
            << " nJ.\n";
  std::cout << "Shape check: the sensed trace follows burst/idle swings on "
               "every die with\ndegree-scale worst-case error; the heated die "
               "0 shows the largest swings.\n";
  return 0;
}
