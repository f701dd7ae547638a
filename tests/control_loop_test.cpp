// Controller-in-the-loop integration tests: runaway containment, graceful
// degradation on sensor loss, ladder and gating behaviour on a hot die, the
// FleetSampler's hook and decision order, and thread-count invariance of a
// fleet chaos campaign.
#include "control/eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "process/variation.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "thermal/leakage.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {
namespace {

constexpr std::size_t kHotDie = 3;  // top die: every bond layer from sink

thermal::StackConfig weak_sink_stack(double sink_r) {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  cfg.sink_resistance = sink_r;
  return cfg;
}

void attach_leakage(thermal::ThermalNetwork& net) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto cells = static_cast<double>(net.config().dies[0].nx *
                                         net.config().dies[0].ny);
  for (std::size_t d = 0; d < net.config().die_count(); ++d) {
    net.set_leakage_power(
        d, thermal::leakage_source(tech, Volt{1.0}, Watt{0.10 / cells},
                                   Kelvin{318.15}));
  }
}

thermal::Workload top_die_workload(double peak_w) {
  thermal::WorkloadPhase hot;
  hot.name = "hot";
  hot.duration = Second{10.0};
  hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, kHotDie,
                            Watt{peak_w}, {}, Meter{0.0}});
  for (std::size_t d = 0; d < kHotDie; ++d) {
    hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, d,
                              Watt{0.5}, {}, Meter{0.0}});
  }
  return thermal::Workload{{hot}};
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

Controller::Config loop_config(PolicyKind kind) {
  Controller::Config cfg;
  cfg.kind = kind;
  cfg.policy.ceiling = Celsius{69.0};
  cfg.policy.floor = Celsius{63.0};
  cfg.violation_ceiling = Celsius{80.0};
  cfg.plant.unscalable_fraction = 0.5;
  return cfg;
}

EvalResult run_runaway_scenario(PolicyKind kind, std::size_t static_level,
                                const EvalConfig& eval) {
  const thermal::StackConfig stack = weak_sink_stack(5.0);
  thermal::ThermalNetwork network{stack};
  attach_leakage(network);
  const thermal::Workload workload = top_die_workload(8.0);
  std::vector<core::SensorSite> sites = make_sites(stack, 11);
  core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites, 21};
  Controller::Config cfg = loop_config(kind);
  cfg.policy.static_level = static_level;
  Controller controller{cfg, stack.die_count()};
  return run_closed_loop(network, workload, monitor, controller, eval, 33);
}

TEST(ControlLoop, GovernorContainsTheRunawayTheTopRungTrips) {
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 2.4;
  eval.max_duration = Second{3.0};
  eval.abort_above = Celsius{100.0};

  // Every die pinned at the top rung: leakage feedback diverges and the
  // run aborts on the runaway limit with the work budget unmet.
  const EvalResult pinned =
      run_runaway_scenario(PolicyKind::kStaticWorstCase, 0, eval);
  EXPECT_TRUE(pinned.runaway);
  EXPECT_FALSE(pinned.completed);
  EXPECT_LT(pinned.stats.work_done, eval.work_budget);

  // The closed loop finishes the same work with no runaway and no
  // violation time, never nearing the abort limit.
  const EvalResult governed =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  EXPECT_FALSE(governed.runaway);
  EXPECT_TRUE(governed.completed);
  EXPECT_LT(governed.stats.peak_true_c, 80.0);
  EXPECT_DOUBLE_EQ(governed.stats.violation_s, 0.0);
}

TEST(ControlLoop, ReplayIsDeterministicForFixedSeeds) {
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 0.8;
  eval.max_duration = Second{0.5};
  const EvalResult a =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  const EvalResult b =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.stats.level_changes, b.stats.level_changes);
  EXPECT_EQ(a.stats.energy_j, b.stats.energy_j);  // bit-exact, not NEAR
  EXPECT_EQ(a.stats.work_done, b.stats.work_done);
  EXPECT_EQ(a.stats.peak_true_c, b.stats.peak_true_c);
}

TEST(ControlLoop, QuarantinedFallbackNeverReadsTheDeadSite) {
  const thermal::StackConfig stack = weak_sink_stack(2.5);
  thermal::ThermalNetwork network{stack};
  attach_leakage(network);
  const thermal::Workload workload = top_die_workload(10.0);
  std::vector<core::SensorSite> sites = make_sites(stack, 818181);
  core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites,
                             929292};
  Controller::Config cfg = loop_config(PolicyKind::kDvfsLadder);
  cfg.policy.ceiling = Celsius{59.0};
  cfg.policy.floor = Celsius{54.0};
  cfg.violation_ceiling = Celsius{65.0};
  Controller controller{cfg, stack.die_count()};
  const std::size_t bottom = cfg.policy.ladder.size() - 1;

  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 1.0;
  eval.max_duration = Second{0.8};
  eval.supervise = true;
  for (std::size_t site = 0; site < 4; ++site) {  // the hot die goes dark
    eval.outages.push_back({kHotDie * 4 + site, 20, 1'000'000});
  }
  constexpr auto kQuarantined =
      static_cast<std::uint8_t>(core::HealthState::kQuarantined);
  std::uint64_t blind_hot_scans = 0;
  std::uint64_t skipped_conversions = 0;
  eval.on_scan = [&](std::uint64_t scan,
                     const std::vector<core::StackMonitor::SiteReading>& rs,
                     const Actuation& act) {
    for (const core::StackMonitor::SiteReading& r : rs) {
      // A quarantined site is pulled from duty: its reading is always a
      // degraded substitute the policy must ignore, and outside the
      // supervisor's occasional re-probes no conversion runs at all.
      if (r.health == kQuarantined) {
        EXPECT_TRUE(r.degraded) << "scan " << scan << " site " << r.site_index;
        if (r.energy.value() == 0.0) ++skipped_conversions;
      }
    }
    const StackObservation obs =
        observe_scan(scan, Second{0.0}, rs, stack.die_count());
    if (obs.dies[kHotDie].blind()) {
      ++blind_hot_scans;
      // Blind on the hot die: its command must be the worst-case rung, and
      // never sourced from whatever the dead sensors last said.
      ASSERT_EQ(act.dies.size(), stack.die_count());
      EXPECT_EQ(act.dies[kHotDie].level, bottom);
    }
  };

  const EvalResult result =
      run_closed_loop(network, workload, monitor, controller, eval, 515);
  EXPECT_GT(blind_hot_scans, 0u);
  EXPECT_GT(skipped_conversions, 0u);  // the skip path actually engaged
  EXPECT_GT(result.stats.blind_scans, 0u);
  EXPECT_DOUBLE_EQ(result.stats.violation_s, 0.0);
}

/// One central sensor per die; die 0 carries the load.
struct SingleSiteStack {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::unique_ptr<core::StackMonitor> monitor;

  explicit SingleSiteStack(std::uint64_t variation_seed = 3,
                           std::uint64_t monitor_seed = 5) {
    std::vector<core::SensorSite> sites =
        core::StackMonitor::uniform_sites(cfg, 1, 1);
    const process::VariationModel model{device::Technology::tsmc65_like(),
                                        {sites[0].location}};
    Rng rng{variation_seed};
    for (auto& site : sites) site.vt_delta = model.sample_die(rng).at(0);
    monitor = std::make_unique<core::StackMonitor>(
        &network, core::PtSensor::Config{}, sites, monitor_seed);
  }
};

thermal::Workload die0_uniform(double watts) {
  thermal::WorkloadPhase phase;
  phase.name = "hot";
  phase.duration = Second{1.0};
  phase.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                              Watt{watts}, {}, Meter{0.0}});
  return thermal::Workload{{phase}};
}

/// Per-die ladder walk with no unscalable floor (a rung scales the die's
/// whole map), ceiling 45 / floor 40 degC.
Controller::Config ladder_config(PolicyKind kind) {
  Controller::Config cfg;
  cfg.kind = kind;
  cfg.policy.ceiling = Celsius{45.0};
  cfg.policy.floor = Celsius{40.0};
  cfg.plant = PlantModel{0.0};
  return cfg;
}

EvalConfig ladder_eval(Second duration) {
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = duration;
  return eval;
}

/// Die 0's command after every decision and the hottest sensed reading,
/// for the whole run.
struct ScanRecord {
  std::vector<DieCommand> commands;
  double max_sensed = -273.15;

  void attach(EvalConfig& eval) {
    eval.on_scan =
        [this](std::uint64_t,
               const std::vector<core::StackMonitor::SiteReading>& readings,
               const Actuation& act) {
          commands.push_back(act.dies.at(0));
          for (const auto& r : readings) {
            max_sensed = std::max(max_sensed, r.sensed.value());
          }
        };
  }
  [[nodiscard]] double mean_frequency() const {
    double sum = 0.0;
    for (const DieCommand& c : commands) sum += c.relative_frequency;
    return commands.empty() ? 0.0 : sum / static_cast<double>(commands.size());
  }
  [[nodiscard]] std::size_t changes() const {
    std::size_t n = 0;
    for (std::size_t i = 1; i < commands.size(); ++i) {
      if (!(commands[i] == commands[i - 1])) ++n;
    }
    return n;
  }
  [[nodiscard]] std::size_t trips() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < commands.size(); ++i) {
      if (commands[i].gated && (i == 0 || !commands[i - 1].gated)) ++n;
    }
    return n;
  }
};

TEST(ControlLoop, CoolWorkloadClimbsToAndHoldsTheTopRung) {
  SingleSiteStack fx;
  Controller controller{ladder_config(PolicyKind::kDvfsLadder),
                        fx.cfg.die_count()};
  EvalConfig eval = ladder_eval(Second{100e-3});
  ScanRecord die0;
  die0.attach(eval);
  const EvalResult result = run_closed_loop(
      fx.network, die0_uniform(0.5), *fx.monitor, controller, eval, 1);
  // Every die starts worst-case-safe at the bottom rung and climbs one rung
  // per decision; once on top, nothing moves again.
  const std::size_t rungs = ladder_config(PolicyKind::kDvfsLadder)
                                .policy.ladder.size();
  EXPECT_EQ(result.stats.level_changes, (rungs - 1) * fx.cfg.die_count());
  ASSERT_GT(die0.commands.size(), rungs);
  for (std::size_t i = rungs - 1; i < die0.commands.size(); ++i) {
    EXPECT_EQ(die0.commands[i].level, 0u) << "scan " << i;
  }
  EXPECT_DOUBLE_EQ(result.stats.violation_s, 0.0);
}

TEST(ControlLoop, HotWorkloadStepsDownAndCapsTemperature) {
  SingleSiteStack fx;
  Controller controller{ladder_config(PolicyKind::kDvfsLadder),
                        fx.cfg.die_count()};
  EvalConfig eval = ladder_eval(Second{400e-3});
  ScanRecord die0;
  die0.attach(eval);
  const EvalResult result = run_closed_loop(
      fx.network, die0_uniform(14.0), *fx.monitor, controller, eval, 2);
  EXPECT_GT(die0.changes(), 0u);
  EXPECT_LT(die0.mean_frequency(), 1.0);
  EXPECT_GT(die0.mean_frequency(), 0.4);  // not stuck at the bottom
  // Temperature is contained near the ceiling (sampling slack allowed).
  EXPECT_LT(result.stats.peak_true_c, 60.0);
}

TEST(ControlLoop, LadderBeatsStaticWorstCaseRung) {
  // A designer without a sensor must statically pick the rung that is safe
  // for the worst case; the ladder walk adapts and wins throughput.
  SingleSiteStack fx_ladder;
  Controller ladder{ladder_config(PolicyKind::kDvfsLadder),
                    fx_ladder.cfg.die_count()};
  const EvalResult adaptive =
      run_closed_loop(fx_ladder.network, die0_uniform(14.0),
                      *fx_ladder.monitor, ladder, ladder_eval(Second{400e-3}),
                      3);
  SingleSiteStack fx_static;
  Controller fixed{ladder_config(PolicyKind::kStaticWorstCase),
                   fx_static.cfg.die_count()};
  const EvalResult parked =
      run_closed_loop(fx_static.network, die0_uniform(14.0),
                      *fx_static.monitor, fixed, ladder_eval(Second{400e-3}),
                      3);
  EXPECT_GT(adaptive.stats.work_done, parked.stats.work_done);
}

TEST(ControlLoop, HysteresisLimitsTransitionRate) {
  SingleSiteStack fx;
  Controller controller{ladder_config(PolicyKind::kDvfsLadder),
                        fx.cfg.die_count()};
  EvalConfig eval = ladder_eval(Second{400e-3});
  ScanRecord die0;
  die0.attach(eval);
  (void)run_closed_loop(fx.network, die0_uniform(14.0), *fx.monitor,
                        controller, eval, 4);
  // With a 5 degC hysteresis band the hot die must not thrash every
  // decision (400 ms / 2 ms = 200 decisions).
  ASSERT_EQ(die0.commands.size(), 200u);
  EXPECT_LT(die0.changes(), 60u);
}

/// Burst/idle on die 0, run from ambient so the guard has a transient to
/// catch: the static top rung (unguarded) or a per-die gate at 42 / 38 degC
/// that leaves 30 % of the die's power.
EvalResult run_guard(PolicyKind kind, ScanRecord* record) {
  SingleSiteStack fx{5, 44};
  thermal::WorkloadPhase burst;
  burst.name = "burst";
  burst.duration = Second{40e-3};
  burst.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                              Watt{15.0}, {}, Meter{0.0}});
  thermal::WorkloadPhase idle;
  idle.name = "idle";
  idle.duration = Second{40e-3};
  idle.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                             Watt{0.5}, {}, Meter{0.0}});
  const thermal::Workload hot{{burst, idle, burst, idle}};
  Controller::Config cfg;
  cfg.kind = kind;
  cfg.policy.static_level = 0;
  cfg.policy.gate_on = Celsius{42.0};
  cfg.policy.gate_off = Celsius{38.0};
  cfg.policy.gate_power_scale = 0.3;
  cfg.plant = PlantModel{0.0};
  cfg.violation_ceiling = cfg.policy.gate_on;
  Controller controller{cfg, fx.cfg.die_count()};
  EvalConfig eval = ladder_eval(Second{160e-3});
  record->attach(eval);
  return run_closed_loop(fx.network, hot, *fx.monitor, controller, eval, 3);
}

TEST(ControlLoop, GatingReducesPeak) {
  ScanRecord open, guarded;
  const EvalResult unguarded = run_guard(PolicyKind::kStaticWorstCase, &open);
  const EvalResult gated = run_guard(PolicyKind::kReactiveGating, &guarded);
  EXPECT_GT(unguarded.stats.peak_true_c, 42.0);
  EXPECT_LT(gated.stats.peak_true_c, unguarded.stats.peak_true_c);
  EXPECT_LT(gated.stats.violation_s, unguarded.stats.violation_s);
  EXPECT_GT(guarded.trips(), 0u);
  EXPECT_EQ(open.trips(), 0u);
}

TEST(ControlLoop, SensedTracksTrue) {
  ScanRecord record;
  const EvalResult result = run_guard(PolicyKind::kReactiveGating, &record);
  // The true peak is tracked at every thermal substep while the sensed one
  // only exists at scan instants, so the comparison carries sampling slack
  // on top of sensor error.
  EXPECT_NEAR(record.max_sensed, result.stats.peak_true_c, 8.0);
}

/// Records every sampler hook and checks, at each one, how far the stack's
/// scan has progressed: the controller's tick energy moves only in the
/// advance, its decision count only after supervision.
class OrderRecorder final : public telemetry::ScanInterceptor,
                            public telemetry::FrameSink {
 public:
  explicit OrderRecorder(const Controller* controller)
      : controller_(controller) {}

  void before_scan(std::size_t, std::uint64_t scan,
                   core::StackMonitor&) override {
    log("before_scan", scan);
    energy_before_ = controller_->stats().energy_j;
  }
  void after_scan(std::size_t, std::uint64_t scan,
                  std::vector<core::StackMonitor::SiteReading>& readings)
      override {
    log("after_scan", scan);
    advanced_before_sample_ =
        advanced_before_sample_ &&
        controller_->stats().energy_j > energy_before_;
    // Claim every die-3 site is quarantined.  Only the supervisor's
    // re-stamped health reaches the controller, so it never sees a blind
    // die — unless it decided on these raw readings.
    for (auto& r : readings) {
      if (r.die == 3) {
        r.health = static_cast<std::uint8_t>(core::HealthState::kQuarantined);
      }
    }
  }
  void on_frame(const telemetry::Frame& frame,
                const std::vector<std::uint8_t>&) override {
    log("on_frame", frame.sequence);
    captured_before_encode_ = captured_before_encode_ && frame.capture_ns > 0;
  }
  bool before_publish(std::size_t, std::uint64_t scan,
                      std::vector<std::uint8_t>&) override {
    log("before_publish", scan);
    return true;
  }

  [[nodiscard]] const std::vector<std::string>& events() const {
    return events_;
  }
  [[nodiscard]] bool advanced_before_sample() const {
    return advanced_before_sample_;
  }
  [[nodiscard]] bool captured_before_encode() const {
    return captured_before_encode_;
  }

 private:
  /// "<hook> <scan> <decisions so far>".
  void log(const char* hook, std::uint64_t scan) {
    events_.push_back(std::string{hook} + " " + std::to_string(scan) + " " +
                      std::to_string(controller_->stats().decisions));
  }

  const Controller* controller_;
  std::vector<std::string> events_;
  double energy_before_ = 0.0;
  bool advanced_before_sample_ = true;
  bool captured_before_encode_ = true;
};

TEST(ControlLoop, FleetSamplerRunsHooksAndDecisionInOrder) {
  constexpr std::size_t kScans = 4;
  ControlPlane::Config plane_cfg;
  plane_cfg.controller = loop_config(PolicyKind::kDvfsLadder);
  plane_cfg.stack_count = 1;
  ControlPlane plane{plane_cfg};
  OrderRecorder recorder{&plane.controller(0)};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = 1;
  cfg.thread_count = 1;
  cfg.scans_per_stack = kScans;
  cfg.ring_capacity = 2 * kScans;
  cfg.supervise = true;
  cfg.control = &plane;
  cfg.interceptor = &recorder;
  cfg.sink = &recorder;
  telemetry::FleetSampler sampler{cfg};
  sampler.run();

  // before_scan -> advance -> sample -> after_scan -> supervise -> decide
  // -> capture -> encode -> on_frame -> before_publish -> ring.
  std::vector<std::string> expected;
  for (std::size_t s = 0; s < kScans; ++s) {
    const std::string scan = std::to_string(s);
    expected.push_back("before_scan " + scan + " " + scan);
    expected.push_back("after_scan " + scan + " " + scan);
    expected.push_back("on_frame " + scan + " " + std::to_string(s + 1));
    expected.push_back("before_publish " + scan + " " + std::to_string(s + 1));
  }
  EXPECT_EQ(recorder.events(), expected);
  EXPECT_TRUE(recorder.advanced_before_sample());
  EXPECT_TRUE(recorder.captured_before_encode());
  EXPECT_EQ(plane.controller(0).stats().blind_scans, 0u);
  EXPECT_EQ(sampler.rings().front()->size(), kScans);
}

inject::FaultPlan chaos_plan(std::size_t stacks, std::uint64_t scans) {
  inject::FaultPlan plan;
  const std::uint64_t mid = scans / 3;
  for (std::size_t k = 0; k < stacks; k += 2) {
    for (std::size_t site = 0; site < 4; ++site) {
      plan.add({inject::FaultKind::kDeadRo, k, site, mid, scans, 0.0});
    }
  }
  plan.add({inject::FaultKind::kStuckRo, 1, 5, mid / 2, scans, 80.0});
  plan.add({inject::FaultKind::kSupplyDroop, 1, 9, mid, 2 * mid, 0.08});
  return plan;
}

std::string fleet_digest(std::size_t threads) {
  constexpr std::size_t kStacks = 4;
  constexpr std::size_t kScans = 30;
  ControlPlane::Config plane_cfg;
  plane_cfg.controller = loop_config(PolicyKind::kDvfsLadder);
  plane_cfg.controller.policy.ceiling = Celsius{50.0};
  plane_cfg.controller.policy.floor = Celsius{44.0};
  plane_cfg.controller.violation_ceiling = Celsius{55.0};
  plane_cfg.stack_count = kStacks;
  plane_cfg.die_count = 4;
  ControlPlane plane{plane_cfg};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = kStacks;
  cfg.thread_count = threads;
  cfg.scans_per_stack = kScans;
  cfg.peak_power = Watt{8.0};
  cfg.seed = 4242;
  cfg.supervise = true;
  cfg.control = &plane;
  telemetry::FleetSampler sampler{cfg};
  inject::ChaosInjector injector{chaos_plan(kStacks, kScans), &sampler};
  sampler.set_interceptor(&injector);
  sampler.run();

  const Controller::Stats total = plane.total();
  EXPECT_EQ(total.decisions, kStacks * kScans);
  EXPECT_GT(total.energy_j, 0.0);
  return canonical_digest(plane);
}

TEST(ControlLoop, FleetChaosDigestIsThreadCountInvariant) {
  const std::string one = fleet_digest(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(fleet_digest(2), one);
  EXPECT_EQ(fleet_digest(8), one);
}

}  // namespace
}  // namespace tsvpt::control
