#include "control/policies.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "control/controller.hpp"
#include "control/ladder.hpp"
#include "control/policy.hpp"
#include "core/health_supervisor.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {
namespace {

// ---------------------------------------------------------------- ladder --

TEST(ControlLadder, ValidateRejectsBadLadders) {
  EXPECT_THROW(validate_ladder({}), std::invalid_argument);
  Ladder flat = typical_ladder();
  flat[2].relative_frequency = flat[1].relative_frequency;  // not descending
  EXPECT_THROW(validate_ladder(flat), std::invalid_argument);
  Ladder rising = typical_ladder();
  rising[3].relative_frequency = 2.0;
  EXPECT_THROW(validate_ladder(rising), std::invalid_argument);
  EXPECT_NO_THROW(validate_ladder(typical_ladder()));
}

TEST(ControlLadder, StepperHoldsAtExactThresholds) {
  const LadderStepper stepper{Celsius{85.0}, Celsius{75.0}};
  const std::size_t n = 4;
  // Strictly above the ceiling steps down; exactly at it holds.
  EXPECT_EQ(stepper.step(1, n, Celsius{85.1}), 2u);
  EXPECT_EQ(stepper.step(1, n, Celsius{85.0}), 1u);
  // Strictly below the floor steps up; exactly at it holds.
  EXPECT_EQ(stepper.step(1, n, Celsius{74.9}), 0u);
  EXPECT_EQ(stepper.step(1, n, Celsius{75.0}), 1u);
  // The dead band holds.
  EXPECT_EQ(stepper.step(2, n, Celsius{80.0}), 2u);
  // Clamped at both ends.
  EXPECT_EQ(stepper.step(n - 1, n, Celsius{200.0}), n - 1);
  EXPECT_EQ(stepper.step(0, n, Celsius{-40.0}), 0u);
  // An out-of-range level is clamped before stepping.
  EXPECT_EQ(stepper.step(99, n, Celsius{80.0}), n - 1);
}

TEST(ControlLadder, HysteresisEngagesReleasesWithoutFlapping) {
  EXPECT_THROW((Hysteresis{Celsius{80.0}, Celsius{80.0}}),
               std::invalid_argument);
  EXPECT_THROW((Hysteresis{Celsius{70.0}, Celsius{80.0}}),
               std::invalid_argument);

  Hysteresis trip{Celsius{85.0}, Celsius{75.0}};
  EXPECT_FALSE(trip.update(Celsius{85.0}));  // exactly at the trip: no engage
  EXPECT_TRUE(trip.update(Celsius{85.1}));
  // Crossing back into the dead band, even to the exact release value,
  // holds engaged; only a strict drop below releases.
  EXPECT_TRUE(trip.update(Celsius{80.0}));
  EXPECT_TRUE(trip.update(Celsius{75.0}));
  EXPECT_FALSE(trip.update(Celsius{74.9}));
  // And at the boundary again it stays released.
  EXPECT_FALSE(trip.update(Celsius{75.0}));
  trip.update(Celsius{90.0});
  EXPECT_TRUE(trip.engaged());
  trip.reset();
  EXPECT_FALSE(trip.engaged());
}

// ----------------------------------------------------------- observation --

core::StackMonitor::SiteReading reading(std::size_t die, double sensed_c,
                                        std::uint8_t health = 0,
                                        bool degraded = false) {
  core::StackMonitor::SiteReading r;
  r.die = die;
  r.sensed = Celsius{sensed_c};
  r.truth = Celsius{sensed_c};
  r.health = health;
  r.degraded = degraded;
  return r;
}

constexpr auto kQuarantined =
    static_cast<std::uint8_t>(core::HealthState::kQuarantined);
constexpr auto kDead = static_cast<std::uint8_t>(core::HealthState::kDead);

TEST(ControlObserve, OnlyCredibleReadingsFeedThePolicy) {
  const std::vector<core::StackMonitor::SiteReading> readings{
      reading(0, 50.0),
      reading(0, 60.0),
      reading(0, 99.0, kQuarantined),      // pulled from duty: excluded
      reading(0, 98.0, kDead),             // dead sensor: excluded
      reading(0, 97.0, 0, true),           // degraded placeholder: excluded
      reading(1, 40.0, kQuarantined),
      reading(1, 41.0, kDead),
      reading(2, 55.0),
      reading(7, 500.0),                   // foreign die: never actuate on it
  };
  const StackObservation obs = observe_scan(3, Second{0.25}, readings, 3);
  EXPECT_EQ(obs.scan, 3u);
  ASSERT_EQ(obs.dies.size(), 3u);

  EXPECT_EQ(obs.dies[0].credible_sites, 2u);
  EXPECT_EQ(obs.dies[0].total_sites, 5u);
  EXPECT_FALSE(obs.dies[0].blind());
  EXPECT_DOUBLE_EQ(obs.dies[0].max_sensed.value(), 60.0);
  EXPECT_DOUBLE_EQ(obs.dies[0].mean_sensed.value(), 55.0);

  // Every reading on die 1 is non-credible: the die arrives blind.
  EXPECT_EQ(obs.dies[1].total_sites, 2u);
  EXPECT_TRUE(obs.dies[1].blind());

  EXPECT_EQ(obs.dies[2].credible_sites, 1u);
  EXPECT_DOUBLE_EQ(obs.dies[2].max_sensed.value(), 55.0);
}

StackObservation obs_at(std::vector<double> die_temps) {
  StackObservation obs;
  obs.dies.resize(die_temps.size());
  for (std::size_t d = 0; d < die_temps.size(); ++d) {
    obs.dies[d].die = d;
    obs.dies[d].credible_sites = 1;
    obs.dies[d].total_sites = 1;
    obs.dies[d].max_sensed = Celsius{die_temps[d]};
    obs.dies[d].mean_sensed = Celsius{die_temps[d]};
  }
  return obs;
}

StackObservation blind_die(StackObservation obs, std::size_t die) {
  obs.dies[die].credible_sites = 0;
  return obs;
}

// -------------------------------------------------------------- policies --

PolicyConfig tight_config() {
  PolicyConfig cfg;
  cfg.ceiling = Celsius{60.0};
  cfg.floor = Celsius{50.0};
  cfg.gate_on = Celsius{60.0};
  cfg.gate_off = Celsius{50.0};
  cfg.migrate_trip = Celsius{55.0};
  cfg.migrate_margin_c = 2.0;
  cfg.migrate_step = 0.1;
  cfg.migrate_cap = 0.3;
  cfg.migrate_cooldown_scans = 0;  // every decision may move
  return cfg;
}

TEST(ControlPolicy, ParseAndPrintRoundTrip) {
  for (const PolicyKind kind :
       {PolicyKind::kStaticWorstCase, PolicyKind::kDvfsLadder,
        PolicyKind::kReactiveGating, PolicyKind::kMigration}) {
    PolicyKind parsed{};
    ASSERT_TRUE(parse_policy_kind(to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind parsed{};
  EXPECT_FALSE(parse_policy_kind("turbo", &parsed));
}

TEST(ControlPolicy, MakePolicyValidatesConfig) {
  PolicyConfig cfg = tight_config();
  cfg.floor = cfg.ceiling;
  EXPECT_THROW(make_policy(PolicyKind::kDvfsLadder, cfg, 4),
               std::invalid_argument);
  cfg = tight_config();
  cfg.gate_power_scale = 1.5;
  EXPECT_THROW(make_policy(PolicyKind::kReactiveGating, cfg, 4),
               std::invalid_argument);
  cfg = tight_config();
  cfg.migrate_cap = 0.05;  // below one step
  EXPECT_THROW(make_policy(PolicyKind::kMigration, cfg, 4),
               std::invalid_argument);
  EXPECT_THROW(make_policy(PolicyKind::kDvfsLadder, tight_config(), 0),
               std::invalid_argument);
}

TEST(ControlPolicy, StaticIgnoresSensing) {
  PolicyConfig cfg = tight_config();
  cfg.static_level = kLadderBottom;
  const auto policy = make_policy(PolicyKind::kStaticWorstCase, cfg, 4);
  const std::size_t bottom = cfg.ladder.size() - 1;
  const Actuation cool = policy->decide(obs_at({20, 20, 20, 20}));
  const Actuation hot = policy->decide(obs_at({200, 200, 200, 200}));
  ASSERT_EQ(cool.dies.size(), 4u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(cool.dies[d].level, bottom);
    EXPECT_TRUE(cool.dies[d] == hot.dies[d]);
  }
}

TEST(ControlPolicy, DvfsWalksPerDieAndParksBlindDiesAtBottom) {
  const PolicyConfig cfg = tight_config();
  const auto policy = make_policy(PolicyKind::kDvfsLadder, cfg, 2);
  const std::size_t bottom = cfg.ladder.size() - 1;

  // Starts worst-case-safe; cool readings walk up one rung per decision.
  EXPECT_EQ(policy->safe_actuation().dies[0].level, bottom);
  Actuation act = policy->decide(obs_at({20, 70}));
  EXPECT_EQ(act.dies[0].level, bottom - 1);  // cooling: one rung up
  EXPECT_EQ(act.dies[1].level, bottom);      // still hot: stays at the bottom
  act = policy->decide(obs_at({20, 70}));
  act = policy->decide(obs_at({20, 70}));
  EXPECT_EQ(act.dies[0].level, 0u);  // reached nominal
  EXPECT_EQ(act.dies[1].level, bottom);

  // The die going blind is forced straight to the bottom rung.
  act = policy->decide(blind_die(obs_at({20, 20}), 0));
  EXPECT_EQ(act.dies[0].level, bottom);
  EXPECT_EQ(act.dies[1].level, bottom - 1);
}

TEST(ControlPolicy, GatingTripsAndReleasesPerDie) {
  const PolicyConfig cfg = tight_config();
  const auto policy = make_policy(PolicyKind::kReactiveGating, cfg, 2);

  Actuation act = policy->decide(obs_at({70, 40}));
  EXPECT_TRUE(act.dies[0].gated);
  EXPECT_DOUBLE_EQ(act.dies[0].relative_frequency, 0.0);  // no work while gated
  EXPECT_DOUBLE_EQ(act.dies[0].power_scale, cfg.gate_power_scale);
  EXPECT_FALSE(act.dies[1].gated);
  EXPECT_EQ(act.dies[1].level, 0u);  // ungated dies run nominal

  // Inside the dead band the trip holds; below the release it lets go.
  act = policy->decide(obs_at({55, 40}));
  EXPECT_TRUE(act.dies[0].gated);
  act = policy->decide(obs_at({45, 40}));
  EXPECT_FALSE(act.dies[0].gated);

  // A blind die fails safe: gated.
  act = policy->decide(blind_die(obs_at({45, 40}), 1));
  EXPECT_TRUE(act.dies[1].gated);
}

TEST(ControlPolicy, MigrationNeverPingPongsBetweenEquallyHotDies) {
  const PolicyConfig cfg = tight_config();
  const auto policy = make_policy(PolicyKind::kMigration, cfg, 4);
  // Two dies equally hot above the trip, two cool: work must flow from the
  // lowest-index hot die only, and two equally-hot dies (gap <= margin)
  // must never trade work between themselves.
  for (int i = 0; i < 20; ++i) {
    const Actuation act = policy->decide(obs_at({70, 70, 30, 30}));
    for (const Migration& m : act.migrations) {
      EXPECT_EQ(m.from_die, 0u);  // tie breaks toward the lower index
      EXPECT_NE(m.to_die, 1u);    // never toward the equally hot peer
    }
  }
  // Equally hot everywhere: gap 0 <= margin, no move at all.
  const auto fresh = make_policy(PolicyKind::kMigration, cfg, 4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fresh->decide(obs_at({70, 70, 70, 70})).migrations.empty());
  }
}

TEST(ControlPolicy, MigrationGrowsToCapAndRetractsBeforeReversing) {
  const PolicyConfig cfg = tight_config();  // step 0.1, cap 0.3, cooldown 0
  const auto policy = make_policy(PolicyKind::kMigration, cfg, 2);

  // Die 0 hot: the 0->1 lane grows one step per decision up to the cap.
  Actuation act;
  for (int i = 0; i < 6; ++i) act = policy->decide(obs_at({70, 30}));
  ASSERT_EQ(act.migrations.size(), 1u);
  EXPECT_EQ(act.migrations[0].from_die, 0u);
  EXPECT_EQ(act.migrations[0].to_die, 1u);
  EXPECT_NEAR(act.migrations[0].fraction, cfg.migrate_cap, 1e-12);

  // Now the roles flip: the policy must retract the inflow into the newly
  // hot die before it ever opens a reverse lane.
  for (int i = 0; i < 2; ++i) {
    act = policy->decide(obs_at({30, 70}));
    for (const Migration& m : act.migrations) {
      EXPECT_EQ(m.from_die, 0u);
      EXPECT_LT(m.fraction, cfg.migrate_cap);
    }
  }
  // Fully retracted: the move list drains to empty, still no reverse lane.
  act = policy->decide(obs_at({30, 70}));
  EXPECT_TRUE(act.migrations.empty());
}

// ------------------------------------------------------------- actuation --

thermal::Workload one_hot_die(double watts) {
  thermal::WorkloadPhase phase;
  phase.name = "hot";
  phase.duration = Second{1.0};
  phase.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                              Watt{watts}, {}, Meter{0.0}});
  phase.directives.push_back({thermal::PowerDirective::Kind::kUniform, 1,
                              Watt{2.0}, {}, Meter{0.0}});
  return thermal::Workload{{phase}};
}

TEST(ControlApply, MigrationConservesTotalPower) {
  thermal::ThermalNetwork network{thermal::StackConfig::four_die_stack()};
  const thermal::Workload workload = one_hot_die(8.0);

  workload.apply(network, Second{0.0});
  actuate(network, Actuation{});  // no commands, no moves: the raw map
  const double before = network.total_power().value();
  const double die0 = network.die_power(0).value();
  const double die1 = network.die_power(1).value();

  Actuation act;
  act.dies.assign(4, DieCommand{});  // all at nominal scale
  act.migrations.push_back({0, 1, 0.25});
  workload.apply(network, Second{0.0});
  actuate(network, act);
  EXPECT_NEAR(network.total_power().value(), before, 1e-9);
  EXPECT_NEAR(network.die_power(0).value(), die0 * 0.75, 1e-9);
  EXPECT_NEAR(network.die_power(1).value(), die1 + die0 * 0.25, 1e-9);
}

TEST(ControlApply, UnscalableFractionFloorsEveryCommand) {
  thermal::ThermalNetwork network{thermal::StackConfig::four_die_stack()};
  const thermal::Workload workload = one_hot_die(8.0);
  PlantModel plant;
  plant.unscalable_fraction = 0.35;

  // Even a zero power-scale command cannot remove the unscalable floor.
  Actuation act;
  act.dies.assign(4, DieCommand{});
  act.dies[0].power_scale = 0.0;
  act.dies[1].power_scale = 0.25;  // P3
  workload.apply(network, Second{0.0});
  actuate(network, act, plant);
  EXPECT_NEAR(network.die_power(0).value(), 8.0 * 0.35, 1e-9);
  EXPECT_NEAR(network.die_power(1).value(), 2.0 * (0.35 + 0.65 * 0.25), 1e-9);
}

TEST(ControlApply, RejectsBadMigrationsAndPlants) {
  thermal::ThermalNetwork network{thermal::StackConfig::four_die_stack()};
  one_hot_die(8.0).apply(network, Second{0.0});
  Actuation act;
  act.migrations.push_back({0, 0, 0.1});  // self-migration
  EXPECT_THROW(actuate(network, act), std::invalid_argument);
  act.migrations[0] = {0, 9, 0.1};  // die out of range
  EXPECT_THROW(actuate(network, act), std::invalid_argument);
  act.migrations[0] = {0, 1, 1.5};  // fraction out of range
  EXPECT_THROW(actuate(network, act), std::invalid_argument);
  act.migrations.clear();
  PlantModel plant;
  plant.unscalable_fraction = -0.1;
  EXPECT_THROW(actuate(network, act, plant), std::invalid_argument);
}

// ------------------------------------------------- controller and plane --

TEST(ControlController, AccountsEnergyWorkAndViolations) {
  Controller::Config cfg;
  cfg.kind = PolicyKind::kDvfsLadder;
  cfg.policy = tight_config();
  cfg.violation_ceiling = Celsius{65.0};
  Controller controller{cfg, 2};

  // Holds the worst-case-safe actuation before the first scan.
  const std::size_t bottom = cfg.policy.ladder.size() - 1;
  ASSERT_EQ(controller.actuation().dies.size(), 2u);
  EXPECT_EQ(controller.actuation().dies[0].level, bottom);

  controller.on_observation(obs_at({20, 20}));
  EXPECT_EQ(controller.stats().decisions, 1u);
  EXPECT_EQ(controller.stats().actuations, 1u);  // both dies moved a rung
  EXPECT_EQ(controller.stats().level_changes, 2u);

  // One tick under the ceiling, one over it.
  const double rate = 2.0 * cfg.policy.ladder[bottom - 1].relative_frequency;
  controller.note_tick(Second{0.5}, Celsius{60.0}, Watt{4.0});
  controller.note_tick(Second{0.5}, Celsius{70.0}, Watt{4.0});
  EXPECT_NEAR(controller.stats().energy_j, 4.0, 1e-12);
  EXPECT_NEAR(controller.stats().work_done, rate, 1e-12);
  EXPECT_NEAR(controller.stats().violation_s, 0.5, 1e-12);
  EXPECT_NEAR(controller.stats().peak_true_c, 70.0, 1e-12);

  controller.on_observation(blind_die(obs_at({20, 20}), 1));
  EXPECT_EQ(controller.stats().blind_scans, 1u);

  controller.reset();
  EXPECT_EQ(controller.stats().decisions, 0u);
  EXPECT_EQ(controller.actuation().dies[0].level, bottom);
}

TEST(ControlPlane, TotalsSumStatsAndMaxThePeak) {
  ControlPlane::Config cfg;
  cfg.controller.kind = PolicyKind::kStaticWorstCase;
  cfg.controller.policy = tight_config();
  cfg.stack_count = 3;
  cfg.die_count = 4;
  ControlPlane plane{cfg};
  ASSERT_EQ(plane.stack_count(), 3u);

  plane.controller(0).note_tick(Second{1.0}, Celsius{40.0}, Watt{1.0});
  plane.controller(1).note_tick(Second{1.0}, Celsius{55.0}, Watt{2.0});
  plane.controller(2).note_tick(Second{1.0}, Celsius{48.0}, Watt{3.0});
  const Controller::Stats total = plane.total();
  EXPECT_NEAR(total.energy_j, 6.0, 1e-12);
  EXPECT_NEAR(total.peak_true_c, 55.0, 1e-12);  // the max, not the sum

  EXPECT_THROW((ControlPlane{ControlPlane::Config{cfg.controller, 0, 4}}),
               std::invalid_argument);
}

TEST(ControlPlane, CanonicalDigestSeparatesOutcomes) {
  ControlPlane::Config cfg;
  cfg.controller.kind = PolicyKind::kStaticWorstCase;
  cfg.controller.policy = tight_config();
  cfg.stack_count = 2;
  cfg.die_count = 4;
  ControlPlane a{cfg};
  ControlPlane b{cfg};
  EXPECT_EQ(canonical_digest(a), canonical_digest(b));
  // One tick of difference on one stack must show in the bytes.
  b.controller(1).note_tick(Second{1e-9}, Celsius{30.0}, Watt{1.0});
  EXPECT_NE(canonical_digest(a), canonical_digest(b));
}

// ------------------------------------------------- thermal actuation API --

TEST(ControlThermal, DiePowerScaleAndAddRoundTrip) {
  thermal::ThermalNetwork network{thermal::StackConfig::four_die_stack()};
  const thermal::Workload workload = one_hot_die(8.0);
  workload.apply(network, Second{0.0});
  EXPECT_NEAR(network.die_power(0).value(), 8.0, 1e-9);
  network.scale_die_power(0, 0.5);
  EXPECT_NEAR(network.die_power(0).value(), 4.0, 1e-9);
  network.add_uniform_power(2, Watt{3.0});
  EXPECT_NEAR(network.die_power(2).value(), 3.0, 1e-9);
  EXPECT_NEAR(network.total_power().value(), 4.0 + 2.0 + 3.0, 1e-9);
}

}  // namespace
}  // namespace tsvpt::control
