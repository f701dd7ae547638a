// A11 [R/extension]: What sensing accuracy is worth, in throughput.  The
// per-die DVFS policy walks each die's 4-level ladder under a temperature
// ceiling using that die's own readings (control::run_closed_loop).  Three
// sets of eyes run the same hot workload: self-calibrated PT sensors,
// uncalibrated RO sensors (their die reads hot or cold by tens of degrees),
// and no sensor at all (every die statically parked at the worst-case-safe
// bottom rung).  Output: stack and hot-die throughput, peak temperature and
// ceiling violations for each.  Exits nonzero when the conclusion fails.
#include <iostream>

#include "bench_util.hpp"
#include "control/eval.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "thermal/workload.hpp"

using namespace tsvpt;

namespace {

thermal::Workload hot_workload(const thermal::StackConfig& /*cfg*/) {
  thermal::WorkloadPhase hot;
  hot.name = "hot";
  hot.duration = Second{0.5};
  hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                            Watt{14.0}, {}, Meter{0.0}});
  thermal::WorkloadPhase cool;
  cool.name = "cool";
  cool.duration = Second{0.25};
  cool.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                             Watt{2.0}, {}, Meter{0.0}});
  return thermal::Workload{{hot, cool, hot, cool}};
}

std::vector<core::SensorSite> make_sites(const thermal::StackConfig& cfg,
                                         std::uint64_t seed) {
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(cfg, 2, 2);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(),
                                    points};
  Rng rng{seed};
  for (std::size_t d = 0; d < cfg.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) sites[d * 4 + i].vt_delta = die.at(i);
  }
  return sites;
}

}  // namespace

int main() {
  bench::banner("A11", "DVFS under a thermal ceiling: sensor quality -> throughput");
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  const thermal::Workload workload = hot_workload(stack);

  // No unscalable floor: a rung scales the die's whole map.
  control::Controller::Config dvfs_cfg;
  dvfs_cfg.kind = control::PolicyKind::kDvfsLadder;
  dvfs_cfg.policy.ceiling = Celsius{50.0};
  dvfs_cfg.policy.floor = Celsius{44.0};
  dvfs_cfg.plant = control::PlantModel{0.0};
  dvfs_cfg.violation_ceiling = Celsius{50.0};
  control::EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{0.5e-3};
  eval.max_duration = Second{1.5};

  Table table{"A11 per-die DVFS comparison (ceiling 50 degC, 1.5 s run)"};
  table.add_column("governor eyes");
  table.add_column("stack_throughput", 3);
  table.add_column("hot_die_throughput", 3);
  table.add_column("max_true_degC", 2);
  table.add_column("violation_s", 4);
  table.add_column("level_changes", 0);

  struct Scenario {
    std::string name;
    double mismatch_mv;  // effective uncorrected error scale
    bool calibrated;
    bool static_bottom;
  };
  const Scenario scenarios[] = {
      {"PT sensor (self-cal)", 0.15e0, true, false},
      {"uncalibrated RO", 12.0, false, false},
      {"no sensor (static P3)", 0.15e0, true, true},
  };

  struct Outcome {
    double stack = 0.0;
    double hot_die = 0.0;
    double violation_s = 0.0;
  };
  Outcome outcomes[3];
  for (std::size_t i = 0; i < 3; ++i) {
    const Scenario& s = scenarios[i];
    thermal::ThermalNetwork network{stack};
    std::vector<core::SensorSite> sites = make_sites(stack, 818181);
    core::PtSensor::Config sensor_cfg;
    if (!s.calibrated) {
      // Model "reads through the typical curve": die-level scatter stays
      // uncorrected, which is what an uncalibrated monitor suffers.
      sensor_cfg.ro_mismatch_sigma = millivolts(s.mismatch_mv);
    }
    core::StackMonitor monitor{&network, sensor_cfg, sites, 929292};

    control::Controller::Config cfg = dvfs_cfg;
    if (s.static_bottom) cfg.kind = control::PolicyKind::kStaticWorstCase;
    control::Controller controller{cfg, stack.die_count()};
    // Die 0 carries the load; each decision holds for one sample period.
    double hot_die_rate = 0.0;
    std::size_t scans = 0;
    eval.on_scan = [&](std::uint64_t,
                       const std::vector<core::StackMonitor::SiteReading>&,
                       const control::Actuation& act) {
      hot_die_rate += act.dies[0].relative_frequency;
      ++scans;
    };
    const control::EvalResult result = control::run_closed_loop(
        network, workload, monitor, controller, eval, 515);
    Outcome& o = outcomes[i];
    o.stack = result.stats.work_done /
              (static_cast<double>(stack.die_count()) *
               result.duration.value());
    o.hot_die = hot_die_rate / static_cast<double>(scans);
    o.violation_s = result.stats.violation_s;
    table.add_row({s.name, o.stack, o.hot_die, result.stats.peak_true_c,
                   o.violation_s,
                   static_cast<long long>(result.stats.level_changes)});
  }
  bench::emit(table, "a11_dvfs");

  const Outcome& cal = outcomes[0];
  const bool accurate = cal.hot_die >= 0.9 && cal.violation_s == 0.0;
  bool beaten = true;
  for (std::size_t i = 1; i < 3; ++i) {
    beaten = beaten && outcomes[i].stack < cal.stack &&
             outcomes[i].hot_die < cal.hot_die;
  }
  std::cout << "Shape check: accurate sensing extracts nearly all the "
               "throughput the ceiling\nallows on the hot die with zero "
               "violation time, and runs the cool dies at the\ntop rung.  "
               "Uncalibrated sensing reads some cool dies hot and throttles "
               "them\nfor nothing, and throttles the hot die early; the "
               "sensorless stack is parked\nat half speed.  Per-die "
               "self-calibration is what lets each die run at its own\n"
               "limit — the paper's economic argument for it.\n";
  std::cout << "Gate: self-calibrated hot-die throughput >= 0.9 with 0 "
               "violation-s: "
            << (accurate ? "PASS" : "FAIL")
            << "; uncalibrated and static below self-calibrated: "
            << (beaten ? "PASS" : "FAIL") << "\n";
  return accurate && beaten ? 0 : 1;
}
