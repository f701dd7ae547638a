// HealthSupervisor suite: the per-site state machine that acts on fault
// verdicts — quarantine on decisive evidence, graceful degradation while
// quarantined, bounded re-probe with exponential backoff, recalibration on
// recovery, and Dead as the terminal state when probes run out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/health_supervisor.hpp"
#include "core/pt_sensor.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

// Same physical fleet as core_fault_test: a four-die stack with a 3x3
// sensor grid per die, calibrated at a mild uniform load.
struct FleetFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites;
  std::unique_ptr<StackMonitor> monitor;

  FleetFixture() {
    sites = StackMonitor::uniform_sites(cfg, 3, 3);
    std::vector<process::Point> points;
    for (std::size_t i = 0; i < 9; ++i) points.push_back(sites[i].location);
    const process::VariationModel model{device::Technology::tsmc65_like(),
                                        points};
    Rng rng{5};
    for (std::size_t d = 0; d < cfg.die_count(); ++d) {
      const process::DieVariation die = model.sample_die(rng);
      for (std::size_t i = 0; i < 9; ++i) {
        sites[d * 9 + i].vt_delta = die.at(i);
      }
    }
    network.set_uniform_power(0, Watt{1.5});
    network.set_temperatures(network.steady_state());
    monitor = std::make_unique<StackMonitor>(&network, PtSensor::Config{},
                                             sites, 6);
    monitor->calibrate_all(nullptr);
  }
};

/// One supervised scan exactly as a sampling worker drives it: sample only
/// the sites the supervisor asks for, hand placeholders for the rest, and
/// honour the recalibration list.
HealthSupervisor::ScanResult observe_masked(FleetFixture& fx,
                                            HealthSupervisor& sup) {
  const std::size_t n = fx.monitor->site_count();
  std::vector<StackMonitor::SiteReading> raw;
  std::vector<bool> mask(n, false);
  raw.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sup.wants_sample(i)) {
      mask[i] = true;
      raw.push_back(fx.monitor->sample_site(i, nullptr));
    } else {
      StackMonitor::SiteReading r;
      r.site_index = i;
      r.die = fx.monitor->site(i).die;
      r.location = fx.monitor->site(i).location;
      r.truth = fx.monitor->truth_at(i);
      r.degraded = true;  // no conversion ran
      raw.push_back(r);
    }
  }
  HealthSupervisor::ScanResult result = sup.observe(raw, mask);
  for (const std::size_t i : result.recalibrate) {
    fx.monitor->sensor(i).clear_calibration();
  }
  return result;
}

// Synthetic scans for pure state-machine tests: a flat 3-column grid on die
// 0 where every reading equals `c` unless the test perturbs it.
std::vector<StackMonitor::SiteReading> flat_scan(std::size_t n, double c) {
  std::vector<StackMonitor::SiteReading> readings;
  for (std::size_t i = 0; i < n; ++i) {
    StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = 0;
    r.location = {1e-3 * static_cast<double>(i % 3),
                  1e-3 * static_cast<double>(i / 3)};
    r.sensed = Celsius{c};
    r.truth = Celsius{c};
    readings.push_back(r);
  }
  return readings;
}

std::vector<std::string> reasons_of(
    const std::vector<HealthSupervisor::Transition>& transitions) {
  std::vector<std::string> reasons;
  for (const auto& t : transitions) reasons.push_back(t.reason);
  return reasons;
}

// The disambiguation FaultDetector's header defers to this layer (and pins
// by name): electronics break between two scans, silicon heats over many.
// A broad hotspot ramping up on thermal time constants moves the whole
// neighbourhood together and must pass; a stuck oscillator moving one site
// alone in a single scan must quarantine immediately.
TEST(HealthSupervisorTest, SingleScanJumpQuarantinedHotspotRampIsNot) {
  FleetFixture fx;
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(fx.monitor->sample_all(nullptr));  // primes history

  // Multi-scan ramp: the hotspot grows scan over scan as the die warms.
  fx.network.add_hotspot(0, {1.5e-3, 1.5e-3}, Meter{1.8e-3}, Watt{3.0});
  for (int s = 0; s < 6; ++s) {
    fx.network.step(Second{5e-3});
    const auto result = sup.observe(fx.monitor->sample_all(nullptr));
    for (const auto& t : result.transitions) {
      EXPECT_NE(t.to, HealthState::kQuarantined)
          << "ramp scan " << s << ": " << t.reason;
    }
  }
  EXPECT_TRUE(sup.all_healthy());

  // Single-scan jump: site 4's TDRO sticks at a much hotter frequency
  // between two scans — only that site moves.
  PtSensor& victim = fx.monitor->sensor(4);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  const auto result = sup.observe(fx.monitor->sample_all(nullptr));
  EXPECT_EQ(sup.state(4), HealthState::kQuarantined);
  ASSERT_EQ(result.transitions.size(), 1u);
  EXPECT_EQ(result.transitions[0].site_index, 4u);
  EXPECT_EQ(result.transitions[0].to, HealthState::kQuarantined);
  EXPECT_EQ(result.transitions[0].reason,
            "temporal jump isolated from neighbours");
  // The served reading is a flagged substitute, not the stuck value.
  EXPECT_EQ(result.substituted, 1u);
  EXPECT_TRUE(result.readings[4].degraded);
  EXPECT_EQ(result.readings[4].health,
            static_cast<std::uint8_t>(HealthState::kQuarantined));
  EXPECT_NEAR(result.readings[4].sensed.value(),
              result.readings[4].truth.value(), 8.0);
  for (std::size_t i = 0; i < fx.monitor->site_count(); ++i) {
    if (i != 4) {
      EXPECT_EQ(sup.state(i), HealthState::kHealthy) << i;
    }
  }
}

TEST(HealthSupervisorTest, DegradedStreakQuarantinesThroughSuspect) {
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(flat_scan(9, 40.0));

  // A degraded conversion that still reports a plausible value (so the
  // temporal check stays silent): suspicion first, quarantine on streak.
  auto raw = flat_scan(9, 40.0);
  raw[4].degraded = true;
  auto result = sup.observe(raw);
  EXPECT_EQ(sup.state(4), HealthState::kSuspect);
  ASSERT_EQ(result.transitions.size(), 1u);
  EXPECT_EQ(result.transitions[0].reason, "degraded conversion");

  result = sup.observe(raw);
  EXPECT_EQ(sup.state(4), HealthState::kQuarantined);
  ASSERT_EQ(result.transitions.size(), 1u);
  EXPECT_EQ(result.transitions[0].reason, "persistently degraded conversions");
  EXPECT_TRUE(result.readings[4].degraded);
  EXPECT_NEAR(result.readings[4].sensed.value(), 40.0, 0.5);  // substituted
}

TEST(HealthSupervisorTest, TransientSuspicionClears) {
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(flat_scan(9, 40.0));

  auto raw = flat_scan(9, 40.0);
  raw[4].degraded = true;
  (void)sup.observe(raw);
  EXPECT_EQ(sup.state(4), HealthState::kSuspect);

  // suspect_clear_scans clean scans return the site to Healthy.
  (void)sup.observe(flat_scan(9, 40.0));
  const auto result = sup.observe(flat_scan(9, 40.0));
  EXPECT_TRUE(sup.all_healthy());
  ASSERT_EQ(result.transitions.size(), 1u);
  EXPECT_EQ(result.transitions[0].reason, "suspicion cleared");
}

TEST(HealthSupervisorTest, SlowSpatialDriftQuarantinesOnSustainedStreak) {
  // Calibration drift: the reading walks away a little every scan — never
  // fast enough to be a jump, never self-degraded.  Only the *sustained*
  // spatial inconsistency catches it.
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(flat_scan(9, 40.0));

  std::vector<std::string> reasons;
  double offset = 0.0;
  for (int s = 0; s < 12 && sup.state(4) != HealthState::kQuarantined; ++s) {
    offset += 4.0;  // below the 6 C jump threshold
    auto raw = flat_scan(9, 40.0);
    raw[4].sensed = Celsius{40.0 + offset};
    const auto result = sup.observe(raw);
    for (const auto& r : reasons_of(result.transitions)) reasons.push_back(r);
  }
  EXPECT_EQ(sup.state(4), HealthState::kQuarantined);
  EXPECT_NE(std::find(reasons.begin(), reasons.end(),
                      "spatially inconsistent with neighbours"),
            reasons.end());
  EXPECT_EQ(reasons.back(), "sustained spatial inconsistency");
}

TEST(HealthSupervisorTest, ProbeRecoveryRecalibratesAndRestores) {
  FleetFixture fx;
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(fx.monitor->sample_all(nullptr));

  // Break site 4, let the jump quarantine it, then repair the hardware —
  // the supervisor must notice on its own schedule.
  PtSensor& victim = fx.monitor->sensor(4);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  (void)sup.observe(fx.monitor->sample_all(nullptr));
  ASSERT_EQ(sup.state(4), HealthState::kQuarantined);
  victim.clear_faults();

  std::vector<std::string> reasons;
  bool saw_skipped_sample = false;
  for (int s = 0; s < 20 && !sup.all_healthy(); ++s) {
    if (!sup.wants_sample(4)) saw_skipped_sample = true;
    const auto result = observe_masked(fx, sup);
    for (const auto& r : reasons_of(result.transitions)) reasons.push_back(r);
    if (sup.state(4) == HealthState::kQuarantined) {
      // Graceful degradation between probes: a flagged substitute near
      // truth, stamped with the quarantined health byte.
      EXPECT_TRUE(result.readings[4].degraded);
      EXPECT_EQ(result.readings[4].health,
                static_cast<std::uint8_t>(HealthState::kQuarantined));
      EXPECT_NEAR(result.readings[4].sensed.value(),
                  result.readings[4].truth.value(), 8.0);
    }
  }
  EXPECT_TRUE(sup.all_healthy());
  EXPECT_TRUE(saw_skipped_sample);  // conversions were actually saved
  EXPECT_NE(std::find(reasons.begin(), reasons.end(),
                      "probe consistent; recalibrating"),
            reasons.end());
  EXPECT_EQ(reasons.back(), "probation complete");

  // The recalibrated sensor tracks again.
  const auto sample = fx.monitor->sample_all(nullptr);
  EXPECT_FALSE(sample[4].degraded);
  EXPECT_NEAR(sample[4].sensed.value(), sample[4].truth.value(), 2.0);
}

TEST(HealthSupervisorTest, ExhaustedProbesDeclareDeadWithBackoff) {
  const HealthSupervisor::Config cfg;
  HealthSupervisor sup{cfg};
  (void)sup.observe(flat_scan(9, 40.0));

  // Site 4 degrades for good: every probe fails, backoff stretches, and
  // after max_probe_attempts the site is Dead and never sampled again.
  std::vector<std::uint64_t> probe_scans;
  for (int s = 0; s < 220 && sup.state(4) != HealthState::kDead; ++s) {
    std::vector<bool> mask(9, true);
    for (std::size_t i = 0; i < 9; ++i) mask[i] = sup.wants_sample(i);
    if (mask[4] && sup.state(4) == HealthState::kQuarantined) {
      probe_scans.push_back(sup.scans_observed());
    }
    auto raw = flat_scan(9, 40.0);
    raw[4].degraded = true;
    const auto result = sup.observe(raw, mask);
    if (sup.state(4) == HealthState::kQuarantined ||
        sup.state(4) == HealthState::kDead) {
      EXPECT_TRUE(result.readings[4].degraded);
      EXPECT_NEAR(result.readings[4].sensed.value(), 40.0, 0.5);
    }
  }
  EXPECT_EQ(sup.state(4), HealthState::kDead);
  EXPECT_FALSE(sup.wants_sample(4));
  EXPECT_EQ(sup.quarantined_count(), 1u);

  // Exactly the configured probe budget was spent, at gaps that grow
  // geometrically and saturate at the backoff cap.
  ASSERT_EQ(probe_scans.size(), cfg.max_probe_attempts);
  std::vector<std::uint64_t> gaps;
  for (std::size_t p = 1; p < probe_scans.size(); ++p) {
    gaps.push_back(probe_scans[p] - probe_scans[p - 1]);
  }
  for (std::size_t g = 0; g < gaps.size(); ++g) {
    if (g > 0) {
      EXPECT_GE(gaps[g], gaps[g - 1]) << "backoff shrank";
    }
    EXPECT_LE(gaps[g], 1 + cfg.probe_backoff_max);
  }
}

TEST(HealthSupervisorTest, LoneSensorFallsBackToLastServed) {
  // One sensor on its die: no leave-one-out reference exists, so the
  // substitute is the last served value, and a probe (which cannot be
  // cross-checked) succeeds on any clean conversion.
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(flat_scan(1, 40.0));

  auto raw = flat_scan(1, 40.0);
  raw[0].degraded = true;
  (void)sup.observe(raw);
  const auto result = sup.observe(raw);
  ASSERT_EQ(sup.state(0), HealthState::kQuarantined);
  EXPECT_TRUE(result.readings[0].degraded);
  EXPECT_NEAR(result.readings[0].sensed.value(), 40.0, 1e-9);

  bool recovered = false;
  for (int s = 0; s < 20 && !recovered; ++s) {
    std::vector<bool> mask{sup.wants_sample(0)};
    auto scan = flat_scan(1, 40.0);
    scan[0].degraded = !mask[0];  // hardware is fine again when probed
    (void)sup.observe(scan, mask);
    recovered = sup.all_healthy();
  }
  EXPECT_TRUE(recovered);
}

TEST(HealthSupervisorTest, ObserveValidatesInput) {
  HealthSupervisor sup{HealthSupervisor::Config{}};
  auto raw = flat_scan(9, 40.0);
  EXPECT_THROW((void)sup.observe(raw, std::vector<bool>(8, true)),
               std::invalid_argument);

  (void)sup.observe(raw);
  EXPECT_THROW((void)sup.observe(flat_scan(4, 40.0)), std::invalid_argument);

  auto shuffled = flat_scan(9, 40.0);
  std::swap(shuffled[0], shuffled[1]);
  EXPECT_THROW((void)sup.observe(shuffled), std::invalid_argument);

  // Before the set is sized (and for unknown indices) sampling is wanted.
  EXPECT_TRUE(sup.wants_sample(42));
}

TEST(HealthSupervisorTest, ResetForgetsHistory) {
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(flat_scan(9, 40.0));
  auto raw = flat_scan(9, 40.0);
  raw[4].sensed = Celsius{90.0};
  (void)sup.observe(raw);
  ASSERT_EQ(sup.state(4), HealthState::kQuarantined);

  sup.reset();
  EXPECT_EQ(sup.site_count(), 0u);
  EXPECT_EQ(sup.scans_observed(), 0u);
  // The first scan after reset primes silently no matter how far the field
  // moved while the supervisor was away.
  const auto result = sup.observe(flat_scan(9, 75.0));
  EXPECT_TRUE(result.transitions.empty());
  EXPECT_TRUE(sup.all_healthy());
}

TEST(HealthSupervisorTest, RecoveryStepBackToRawIsNotAJump) {
  // Regression: while quarantined the served value is an estimate; when the
  // site comes back, the step from that estimate to the first raw reading
  // is estimation error, not a sensor breaking.  It must not re-quarantine.
  HealthSupervisor::Config cfg;
  cfg.jump_threshold = Celsius{2.0};  // make any real step look scary
  HealthSupervisor sup{cfg};
  (void)sup.observe(flat_scan(9, 40.0));

  auto raw = flat_scan(9, 40.0);
  raw[4].degraded = true;
  (void)sup.observe(raw);
  (void)sup.observe(raw);
  ASSERT_EQ(sup.state(4), HealthState::kQuarantined);

  bool relapsed = false;
  for (int s = 0; s < 20 && !sup.all_healthy(); ++s) {
    std::vector<bool> mask(9, true);
    for (std::size_t i = 0; i < 9; ++i) mask[i] = sup.wants_sample(i);
    auto scan = flat_scan(9, 40.0);
    if (!mask[4]) scan[4].degraded = true;
    // The repaired sensor reads 3.5 C off the substitute's estimate —
    // within spatial tolerance, but past the (tightened) jump threshold.
    if (mask[4]) scan[4].sensed = Celsius{43.5};
    const auto result = sup.observe(scan, mask);
    for (const auto& t : result.transitions) {
      relapsed |= t.reason == "relapse during probation" ||
                  t.reason == "temporal jump isolated from neighbours";
    }
  }
  EXPECT_TRUE(sup.all_healthy());
  EXPECT_FALSE(relapsed);
}

TEST(HealthSupervisorTest, FaultJumpIsCaughtRealTransientIsNot) {
  FleetFixture fx;
  HealthSupervisor sup{HealthSupervisor::Config{}};
  (void)sup.observe(fx.monitor->sample_all(nullptr));  // primes history

  // Real transient: the whole die steps to a hotter steady state between
  // two scans.  Every site moves past the jump threshold, but so do its
  // neighbours -> no quarantine.
  fx.network.set_uniform_power(0, Watt{6.0});
  fx.network.set_temperatures(fx.network.steady_state());
  const auto step = sup.observe(fx.monitor->sample_all(nullptr));
  for (const auto& t : step.transitions) {
    EXPECT_NE(t.to, HealthState::kQuarantined) << t.site_index << ": "
                                               << t.reason;
  }
  EXPECT_EQ(step.substituted, 0u);

  // Fault: one sensor's TDRO sticks at a hot frequency between scans ->
  // only that site moves -> quarantined as a jump.
  PtSensor& victim = fx.monitor->sensor(4);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  const auto result = sup.observe(fx.monitor->sample_all(nullptr));
  ASSERT_EQ(result.transitions.size(), 1u);
  EXPECT_EQ(result.transitions[0].site_index, 4u);
  EXPECT_EQ(result.transitions[0].reason,
            "temporal jump isolated from neighbours");
}

TEST(HealthSupervisorTest, PointHotspotDisambiguatedFromFault) {
  // The case the spatial detector cannot crack: a hotspot landing on one
  // sensor.  Temporally it is NOT a lone jump once lateral diffusion has
  // moved the neighbours too, even with a tight neighbour allowance.
  // (Scanned at a period long enough for lateral diffusion to reach the
  // neighbours; a scan much faster than the die's lateral time constant
  // cannot tell a point hotspot's first milliseconds from a fault.)
  FleetFixture fx;
  HealthSupervisor::Config cfg;
  cfg.jump_threshold = Celsius{6.0};
  cfg.neighbour_allowance = Celsius{0.8};
  HealthSupervisor sup{cfg};
  (void)sup.observe(fx.monitor->sample_all(nullptr));  // primes history
  fx.network.add_hotspot(0, {0.83e-3, 0.83e-3}, Meter{0.4e-3}, Watt{4.0});
  fx.network.step(Second{25e-3});
  const auto result = sup.observe(fx.monitor->sample_all(nullptr));
  for (const auto& t : result.transitions) {
    EXPECT_NE(t.to, HealthState::kQuarantined) << t.site_index << ": "
                                               << t.reason;
  }
  EXPECT_EQ(result.substituted, 0u);
}

}  // namespace
}  // namespace tsvpt::core
