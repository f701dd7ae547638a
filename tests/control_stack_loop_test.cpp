// StackLoop unit tests: power-on, the advance's time arithmetic and early
// stop, the substep's actuation and tick accounting, the cached phase map
// against programming every substep from scratch, the supervised scan's
// placeholders, and forced recalibration when a probe passes.
#include "control/stack_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"

namespace tsvpt::control {
namespace {

using core::HealthState;
using Reading = core::StackMonitor::SiteReading;

constexpr double kHotW = 2.0 + 3 * 0.2;  // first 10 ms: die 0 busy
constexpr double kIdleW = 4 * 0.2;       // next 10 ms: idle floors
constexpr std::size_t kFaulty = 5;       // a die-1 site

thermal::Workload hot_then_idle(std::size_t dies) {
  thermal::WorkloadPhase hot{"hot", Second{10e-3}, {}};
  thermal::WorkloadPhase idle{"idle", Second{10e-3}, {}};
  for (std::size_t d = 0; d < dies; ++d) {
    const auto kind = thermal::PowerDirective::Kind::kUniform;
    hot.directives.push_back({kind, d, Watt{d == 0 ? 2.0 : 0.2}, {}, {}});
    idle.directives.push_back({kind, d, Watt{0.2}, {}, {}});
  }
  return thermal::Workload{{hot, idle}};
}

// Four dies, 2x2 sites each.  Uniform power keeps every die laterally even,
// so no site looks spatially suspect to a supervisor.
struct LoopFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  thermal::Workload workload = hot_then_idle(cfg.die_count());
  core::StackMonitor monitor{&network, core::PtSensor::Config{},
                             core::StackMonitor::uniform_sites(cfg, 2, 2),
                             44};
  Rng noise{7};

  StackLoop powered_loop(core::HealthSupervisor* supervisor = nullptr,
                         Controller* controller = nullptr,
                         bool steady_state = true) {
    StackLoop loop{network, workload, monitor, noise, supervisor, controller};
    loop.power_on(steady_state);
    return loop;
  }
};

// Scans 0 and 1 with a caller's hook marking kFaulty's conversion degraded:
// Healthy -> Suspect, then Suspect -> Quarantined.
void quarantine_faulty_site(StackLoop& loop) {
  for (std::uint64_t scan = 0; scan < 2; ++scan) {
    std::vector<Reading> readings = loop.sample_scan();
    readings[kFaulty].degraded = true;
    loop.settle(scan, Second{1e-3 * static_cast<double>(scan)}, readings);
  }
}

TEST(ControlStackLoop, PowerOnCalibratesEverySiteFromTheChosenStart) {
  for (const bool steady_state : {false, true}) {
    LoopFixture fx;
    fx.powered_loop(nullptr, nullptr, steady_state);
    const std::vector<double> start =
        steady_state ? fx.network.steady_state()
                     : std::vector<double>(fx.network.node_count(),
                                           fx.cfg.ambient.value());
    for (std::size_t n = 0; n < start.size(); ++n) {
      EXPECT_NEAR(fx.network.temperatures()[n], start[n], 1e-6) << n;
    }
    for (std::size_t i = 0; i < fx.monitor.site_count(); ++i) {
      EXPECT_TRUE(fx.monitor.sensor(i).is_calibrated()) << "site " << i;
    }
  }
}

TEST(ControlStackLoop, AdvanceProgramsEachSubstepAtItsOwnInstant) {
  // 3 ms from t = 8.5 ms in 1 ms substeps: 8.5 and 9.5 ms fall in the hot
  // phase, 10.5 ms in the idle one.
  LoopFixture fx;
  StackLoop loop = fx.powered_loop();
  std::vector<double> power;
  const Second advanced =
      loop.advance(Second{8.5e-3}, Second{3e-3}, Second{1e-3}, [&] {
        power.push_back(fx.network.total_power().value());
        return false;
      });
  EXPECT_DOUBLE_EQ(advanced.value(), 3e-3);
  ASSERT_EQ(power.size(), 3u);
  EXPECT_NEAR(power[0], kHotW, 1e-9);
  EXPECT_NEAR(power[1], kHotW, 1e-9);
  EXPECT_NEAR(power[2], kIdleW, 1e-9);
}

TEST(ControlStackLoop, AdvanceEndsWithAShortSubstepOrWhenStopSaysSo) {
  LoopFixture fx;
  StackLoop loop = fx.powered_loop();
  std::size_t substeps = 0;
  // 5 ms in substeps of at most 2 ms: 2 + 2 + 1.
  EXPECT_DOUBLE_EQ(loop.advance(Second{0.0}, Second{5e-3}, Second{2e-3}, [&] {
                         ++substeps;
                         return false;
                       }).value(),
                   5e-3);
  EXPECT_EQ(substeps, 3u);
  // Asked after every substep; true ends the advance where it stands.
  substeps = 0;
  const Second advanced = loop.advance(Second{5e-3}, Second{5e-3},
                                       Second{1e-3},
                                       [&] { return ++substeps == 2; });
  EXPECT_EQ(substeps, 2u);
  EXPECT_DOUBLE_EQ(advanced.value(), 2e-3);
}

TEST(ControlStackLoop, SubstepRunsUnderTheHeldActuationAndAccountsTheTick) {
  LoopFixture open;
  open.powered_loop().substep(Second{0.0}, Second{1e-3});
  EXPECT_NEAR(open.network.total_power().value(), kHotW, 1e-9);

  Controller::Config cfg;
  cfg.kind = PolicyKind::kDvfsLadder;
  cfg.plant.unscalable_fraction = 0.0;
  LoopFixture fx;
  Controller controller{cfg, fx.cfg.die_count()};
  StackLoop loop = fx.powered_loop(nullptr, &controller);
  loop.substep(Second{0.0}, Second{1e-3});
  // Until the first scan the controller holds the worst-case-safe bottom
  // rung; with no unscalable floor the whole map scales down with it.
  EXPECT_LT(fx.network.total_power().value(), 0.5 * kHotW);
  double hottest = -273.15;
  for (std::size_t d = 0; d < fx.cfg.die_count(); ++d) {
    hottest =
        std::max(hottest, to_celsius(fx.network.max_temperature(d)).value());
  }
  EXPECT_EQ(controller.stats().peak_true_c, hottest);
  EXPECT_GT(controller.stats().energy_j, 0.0);
  EXPECT_GT(controller.stats().work_done, 0.0);
  EXPECT_EQ(controller.stats().decisions, 0u);
  std::vector<Reading> readings = loop.sample_scan();
  loop.settle(0, Second{1e-3}, readings);
  EXPECT_EQ(controller.stats().decisions, 1u);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// FleetSampler's shape: four_die_stack() under the default burst/idle load
// in 0.25 ms substeps, 2 s of them (80 phase changes).
struct FleetShape {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::Workload workload = thermal::Workload::burst_idle(
      cfg, Watt{5.0}, Watt{0.25}, Second{50e-3});
  thermal::ThermalNetwork looped{cfg};  // driven by the loop
  thermal::ThermalNetwork direct{cfg};  // programmed from scratch
  core::StackMonitor monitor{&looped, core::PtSensor::Config{},
                             core::StackMonitor::uniform_sites(cfg, 2, 2),
                             44};
  Rng noise{7};
  static constexpr double kStep = 0.25e-3;
  static constexpr std::size_t kSubsteps = 8000;
};

TEST(ControlStackLoop, OpenLoopSubstepsMatchApplyThenStepBitForBit) {
  FleetShape fx;
  StackLoop loop{fx.looped, fx.workload, fx.monitor, fx.noise, nullptr,
                 nullptr};
  loop.power_on(false);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < FleetShape::kSubsteps; ++i) {
    const Second t{FleetShape::kStep * static_cast<double>(i)};
    loop.substep(t, Second{FleetShape::kStep});
    fx.workload.apply(fx.direct, t);
    fx.direct.step(Second{FleetShape::kStep});
    if (!same_bits(fx.looped.power_map(), fx.direct.power_map()) ||
        !same_bits(fx.looped.temperatures(), fx.direct.temperatures())) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// One scan's observation: `hot` over the migration trip and the ceiling,
/// the coolest die rotating through the others, the rest in between.
StackObservation one_hot_die(std::uint64_t scan, std::size_t dies,
                             std::size_t hot) {
  StackObservation obs;
  obs.scan = scan;
  obs.dies.resize(dies);
  const std::size_t cool = (hot + 1 + scan % (dies - 1)) % dies;
  for (std::size_t d = 0; d < dies; ++d) {
    DieObservation& die = obs.dies[d];
    die.die = d;
    die.credible_sites = 4;
    die.total_sites = 4;
    const double c = d == hot ? 90.0 : d == cool ? 55.0 : 65.0;
    die.max_sensed = Celsius{c};
    die.mean_sensed = Celsius{c};
  }
  return obs;
}

TEST(ControlStackLoop, ControlledSubstepsMatchApplyThenActuateBitForBit) {
  // The cached actuated map against Workload::apply() + actuate() at every
  // substep, under migrations, per-die scales and the unscalable floor; the
  // hot die switches every 100 scans, so moves grow and retract.  The tick
  // accounting (energy from the cached map's total, peak from the one-pass
  // maximum) must match the direct die-by-die accounting bit for bit too.
  FleetShape fx;
  Controller::Config cfg;
  cfg.kind = PolicyKind::kMigration;
  cfg.plant.unscalable_fraction = 0.35;
  Controller controller{cfg, fx.cfg.die_count()};
  StackLoop loop{fx.looped, fx.workload, fx.monitor, fx.noise, nullptr,
                 &controller};
  std::size_t mismatches = 0;
  std::size_t with_moves = 0;
  std::size_t with_scaled_die = 0;
  double energy_j = 0.0;
  double peak_c = -273.15;
  for (std::size_t i = 0; i < FleetShape::kSubsteps; ++i) {
    const Second t{FleetShape::kStep * static_cast<double>(i)};
    loop.substep(t, Second{FleetShape::kStep});
    fx.workload.apply(fx.direct, t);
    actuate(fx.direct, controller.actuation(), cfg.plant);
    fx.direct.step(Second{FleetShape::kStep});
    energy_j += (fx.direct.total_power().value() +
                 fx.direct.leakage_power().value()) *
                FleetShape::kStep;
    for (std::size_t d = 0; d < fx.cfg.die_count(); ++d) {
      peak_c = std::max(peak_c,
                        to_celsius(fx.direct.max_temperature(d)).value());
    }
    if (!same_bits(fx.looped.power_map(), fx.direct.power_map()) ||
        !same_bits(fx.looped.temperatures(), fx.direct.temperatures())) {
      ++mismatches;
    }
    const Actuation& act = controller.actuation();
    if (!act.migrations.empty()) ++with_moves;
    if (std::any_of(act.dies.begin(), act.dies.end(),
                    [](const DieCommand& c) { return c.power_scale < 1.0; })) {
      ++with_scaled_die;
    }
    if (i % 4 == 3) {  // a scan every 1 ms
      const std::uint64_t scan = i / 4;
      controller.on_observation(
          one_hot_die(scan, fx.cfg.die_count(), scan / 100 % 2 == 0 ? 0 : 3));
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(with_moves, FleetShape::kSubsteps / 2);
  EXPECT_EQ(with_scaled_die, FleetShape::kSubsteps);
  EXPECT_GT(controller.stats().migrations, 10u);
  EXPECT_EQ(controller.stats().energy_j, energy_j);
  EXPECT_EQ(controller.stats().peak_true_c, peak_c);
}

TEST(ControlStackLoop, QuarantinedSiteGetsAPlaceholderNotAConversion) {
  LoopFixture fx;
  core::HealthSupervisor supervisor;
  StackLoop loop = fx.powered_loop(&supervisor);
  quarantine_faulty_site(loop);
  ASSERT_EQ(supervisor.state(kFaulty), HealthState::kQuarantined);

  std::vector<Reading> readings = loop.sample_scan();
  ASSERT_EQ(readings.size(), fx.monitor.site_count());
  const Reading& slot = readings[kFaulty];
  EXPECT_EQ(slot.site_index, kFaulty);
  EXPECT_EQ(slot.die, fx.monitor.site(kFaulty).die);
  EXPECT_EQ(slot.truth.value(), fx.monitor.truth_at(kFaulty).value());
  EXPECT_TRUE(slot.degraded);
  EXPECT_EQ(slot.energy.value(), 0.0);  // no conversion behind it
  for (std::size_t i = 0; i < readings.size(); ++i) {
    if (i == kFaulty) continue;
    EXPECT_FALSE(readings[i].degraded) << "site " << i;
    EXPECT_GT(readings[i].energy.value(), 0.0) << "site " << i;
  }
  // Settling serves the supervisor's substitute in the placeholder's slot.
  loop.settle(2, Second{2e-3}, readings);
  EXPECT_TRUE(readings[kFaulty].degraded);
  EXPECT_EQ(readings[kFaulty].health,
            static_cast<std::uint8_t>(HealthState::kQuarantined));
}

TEST(ControlStackLoop, PassedProbeClearsTheRecoveredSitesCalibration) {
  LoopFixture fx;
  core::HealthSupervisor supervisor;
  StackLoop loop = fx.powered_loop(&supervisor);
  quarantine_faulty_site(loop);
  // Quarantined on scan 1 with the initial backoff of 2: scans 2 and 3 skip
  // the site and scan 4 probes it.  The sensor is sound, so the probe passes
  // and the site's latched process point is dropped.
  for (std::uint64_t scan = 2; scan <= 4; ++scan) {
    EXPECT_EQ(supervisor.wants_sample(kFaulty), scan == 4) << "scan " << scan;
    std::vector<Reading> readings = loop.sample_scan();
    loop.settle(scan, Second{1e-3 * static_cast<double>(scan)}, readings);
    EXPECT_EQ(fx.monitor.sensor(kFaulty).is_calibrated(), scan < 4)
        << "scan " << scan;
  }
  for (std::size_t i = 0; i < fx.monitor.site_count(); ++i) {
    EXPECT_EQ(fx.monitor.sensor(i).is_calibrated(), i != kFaulty) << i;
  }
  // Healthy -> Suspect -> Quarantined -> Probation; the last is the probe.
  const auto& log = loop.transitions();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.back().site_index, kFaulty);
  EXPECT_EQ(log.back().to, HealthState::kProbation);
  EXPECT_EQ(log.back().scan, 4u);
  // The next conversion self-calibrates afresh.
  (void)loop.sample_scan();
  EXPECT_TRUE(fx.monitor.sensor(kFaulty).is_calibrated());
}

}  // namespace
}  // namespace tsvpt::control
