// A12 [R/extension]: Fault-detection operating curve.  Sweeps the spatial
// detector's threshold against (a) detection rate for stuck-sensor faults
// of varying severity and (b) false-positive rate on healthy fleets running
// realistic gradients.  The useful operating region is where multi-degree
// faults are caught with near-zero false alarms.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/fault_detector.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "ptsim/stats.hpp"

using namespace tsvpt;
using namespace tsvpt::core;

namespace {

struct Fleet {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  std::unique_ptr<thermal::ThermalNetwork> network;
  std::unique_ptr<StackMonitor> monitor;
  Rng rng;

  explicit Fleet(std::uint64_t seed) : rng(seed) {
    network = std::make_unique<thermal::ThermalNetwork>(cfg);
    std::vector<SensorSite> sites = StackMonitor::uniform_sites(cfg, 3, 3);
    std::vector<process::Point> points;
    for (std::size_t i = 0; i < 9; ++i) points.push_back(sites[i].location);
    process::VariationModel variation{device::Technology::tsmc65_like(),
                                      points};
    for (std::size_t d = 0; d < cfg.die_count(); ++d) {
      const process::DieVariation die = variation.sample_die(rng);
      for (std::size_t i = 0; i < 9; ++i) {
        sites[d * 9 + i].vt_delta = die.at(i);
      }
    }
    // A realistic operating gradient: hotspot plus idle floors.
    network->add_hotspot(0, {rng.uniform(1e-3, 4e-3), rng.uniform(1e-3, 4e-3)},
                         Meter{1.2e-3}, Watt{rng.uniform(1.0, 3.0)});
    network->set_uniform_power(1, Watt{0.4});
    network->set_temperatures(network->steady_state());
    monitor = std::make_unique<StackMonitor>(network.get(),
                                             PtSensor::Config{}, sites,
                                             derive_seed(seed, 99));
    monitor->calibrate_all(&rng);
  }
};

}  // namespace

int main() {
  bench::banner("A12", "fault-detection threshold sweep");
  constexpr std::size_t kFleets = 30;

  Table table{"A12 detection vs false alarms (36-sensor fleets)"};
  table.add_column("threshold_degC", 1);
  table.add_column("FP_rate_%", 2);
  table.add_column("detect_+10degC_%", 1);
  table.add_column("detect_+20degC_%", 1);
  table.add_column("detect_+40degC_%", 1);

  for (double threshold : {4.0, 6.0, 8.0, 12.0, 16.0}) {
    FaultDetector detector{
        FaultDetector::Config{Celsius{threshold}, 2.0}};

    // False positives on healthy fleets.
    std::size_t fp = 0;
    std::size_t healthy_readings = 0;
    for (std::size_t f = 0; f < kFleets; ++f) {
      Fleet fleet{derive_seed(111, f)};
      const auto sample = fleet.monitor->sample_all(&fleet.rng);
      fp += detector.suspects(sample).size();
      healthy_readings += sample.size();
    }

    // Detection of a stuck fault reading +X degC hot at a random site.
    auto detection_rate = [&](double fault_degC) {
      std::size_t detected = 0;
      for (std::size_t f = 0; f < kFleets; ++f) {
        Fleet fleet{derive_seed(222, f)};
        const auto victim_index = static_cast<std::size_t>(
            fleet.rng.uniform_int(0, 35));
        PtSensor& victim = fleet.monitor->sensor(victim_index);
        const auto truth =
            fleet.network->temperature_at(
                fleet.monitor->site(victim_index).die,
                fleet.monitor->site(victim_index).location);
        victim.inject_fault(
            RoRole::kTdro, RoFault::kStuck,
            victim.model_frequency(RoRole::kTdro, Volt{0.0}, Volt{0.0},
                                   truth + Kelvin{fault_degC}));
        const auto sample = fleet.monitor->sample_all(&fleet.rng);
        for (std::size_t s : detector.suspects(sample)) {
          if (s == victim_index) {
            ++detected;
            break;
          }
        }
      }
      return 100.0 * static_cast<double>(detected) /
             static_cast<double>(kFleets);
    };

    table.add_row({threshold,
                   100.0 * static_cast<double>(fp) /
                       static_cast<double>(healthy_readings),
                   detection_rate(10.0), detection_rate(20.0),
                   detection_rate(40.0)});
  }
  bench::emit(table, "a12_fault");

  std::cout << "Shape check: the classic trade — detection falls and false "
               "alarms vanish as\nthe threshold rises.  At 6-8 degC the "
               "false-alarm rate on hotspot-bearing\nhealthy fleets is zero "
               "while >=40 degC stuck faults are always localized and\n"
               "+20 degC ones mostly (interpolation attenuates the apparent "
               "deviation at\nsparsely-neighboured corner sites).  The "
               "temporal jump detector covers the\nremainder: any stuck "
               "fault jumps alone at onset regardless of magnitude.\n";
  return 0;
}
