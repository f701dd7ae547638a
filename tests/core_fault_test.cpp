// Failure-injection suite: oscillator faults injected into live sensors,
// the sensor's own degradation behaviour, and the fleet-level detector
// that localizes the faulty site.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/fault_detector.hpp"
#include "core/field_estimator.hpp"
#include "core/pt_sensor.hpp"
#include "core/stack_monitor.hpp"
#include "obs/metrics.hpp"
#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

PtSensor::Config clean_config() {
  PtSensor::Config cfg;
  cfg.ro_mismatch_sigma = Volt{0.0};
  return cfg;
}

DieEnvironment environment(double t_celsius) {
  DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t_celsius});
  return env;
}

TEST(FaultInjection, DeadTdroDegradesTrackingRead) {
  PtSensor sensor{clean_config(), 1};
  (void)sensor.self_calibrate(environment(40.0), nullptr);
  sensor.inject_fault(RoRole::kTdro, RoFault::kDead);
  const auto reading = sensor.read(environment(40.0), nullptr);
  EXPECT_TRUE(reading.degraded);
  EXPECT_DOUBLE_EQ(reading.temperature.value(),
                   clean_config().t_min.value());
}

TEST(FaultInjection, DeadPsroFailsCalibrationGracefully) {
  PtSensor sensor{clean_config(), 2};
  sensor.inject_fault(RoRole::kPsroN, RoFault::kDead);
  const auto est = sensor.self_calibrate(environment(40.0), nullptr);
  EXPECT_FALSE(est.converged);  // no throw, no poisoned solve
}

TEST(FaultInjection, StuckTdroGivesConfidentWrongAnswer) {
  // The dangerous failure mode: a stuck oscillator still yields a plausible
  // reading that does NOT track temperature — undetectable locally.
  PtSensor sensor{clean_config(), 3};
  const DieEnvironment base = environment(40.0);
  (void)sensor.self_calibrate(base, nullptr);
  const Hertz frozen = sensor.model_frequency(RoRole::kTdro, Volt{0.0},
                                              Volt{0.0},
                                              to_kelvin(Celsius{40.0}));
  sensor.inject_fault(RoRole::kTdro, RoFault::kStuck, frozen);
  const auto hot = sensor.read(base.at_celsius(Celsius{90.0}), nullptr);
  EXPECT_FALSE(hot.degraded);  // looks healthy...
  EXPECT_NEAR(hot.temperature.value(), 40.0, 2.0);  // ...but reads 40.
}

TEST(FaultInjection, ClearFaultsRestoresOperation) {
  PtSensor sensor{clean_config(), 4};
  (void)sensor.self_calibrate(environment(40.0), nullptr);
  sensor.inject_fault(RoRole::kTdro, RoFault::kDead);
  sensor.clear_faults();
  const auto reading = sensor.read(environment(70.0), nullptr);
  EXPECT_FALSE(reading.degraded);
  EXPECT_NEAR(reading.temperature.value(), 70.0, 0.7);
}

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

TEST(FaultDetectorTest, HealthyFleetHasNoSuspects) {
  FleetFixture fx;
  const auto sample = fx.monitor->sample_all(nullptr);
  FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, LocalizesDeadSensor) {
  FleetFixture fx;
  fx.monitor->sensor(7).inject_fault(RoRole::kTdro, RoFault::kDead);
  const auto sample = fx.monitor->sample_all(nullptr);
  FaultDetector detector;
  const auto suspects = detector.suspects(sample);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 7u);
  const auto verdicts = detector.analyze(sample);
  EXPECT_EQ(verdicts[7].reason, "self-reported degraded");
}

TEST(FaultDetectorTest, LocalizesStuckSensorSpatially) {
  FleetFixture fx;
  // Freeze site 4's TDRO at a frequency corresponding to a much hotter die:
  // locally plausible, spatially absurd.
  PtSensor& victim = fx.monitor->sensor(4);
  const Hertz frozen = victim.model_frequency(
      RoRole::kTdro, Volt{0.0}, Volt{0.0}, to_kelvin(Celsius{110.0}));
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck, frozen);

  const auto sample = fx.monitor->sample_all(nullptr);
  FaultDetector detector;
  const auto verdicts = detector.analyze(sample);
  ASSERT_EQ(verdicts.size(), sample.size());
  EXPECT_TRUE(verdicts[4].suspect);
  EXPECT_EQ(verdicts[4].reason, "spatially inconsistent with neighbours");
  // And nobody else got blamed.
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i != 4) {
      EXPECT_FALSE(verdicts[i].suspect) << i;
    }
  }
}

TEST(FaultDetectorTest, LoneSensorCannotBeCrossChecked) {
  // One sensor per die: a stuck (non-degraded) fault is undetectable —
  // the detector must stay silent rather than guess.
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites = StackMonitor::uniform_sites(cfg, 1, 1);
  StackMonitor monitor{&network, PtSensor::Config{}, sites, 8};
  network.set_temperatures(network.steady_state());
  monitor.calibrate_all(nullptr);
  PtSensor& victim = monitor.sensor(0);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  const auto sample = monitor.sample_all(nullptr);
  FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, SmoothGradientsAreNotFlagged) {
  // A broad hotspot creates a real but smooth gradient across the grid;
  // the threshold must tolerate it.
  FleetFixture fx;
  fx.network.add_hotspot(0, {1.5e-3, 1.5e-3}, Meter{1.8e-3}, Watt{3.0});
  fx.network.set_temperatures(fx.network.steady_state());
  const auto sample = fx.monitor->sample_all(nullptr);
  FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, PointHotspotOnASensorAliasesAsFault) {
  // Known limitation, pinned down: a hotspot concentrated on exactly one
  // sensor is spatially indistinguishable from that sensor sticking high.
  // The detector flags it — callers must disambiguate temporally (real
  // hotspots grow on thermal time constants; faults jump instantly).
  FleetFixture fx;
  fx.network.add_hotspot(0, {0.83e-3, 0.83e-3}, Meter{0.4e-3}, Watt{4.0});
  fx.network.set_temperatures(fx.network.steady_state());
  const auto sample = fx.monitor->sample_all(nullptr);
  FaultDetector detector;
  const auto suspects = detector.suspects(sample);
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects[0], 0u);  // the sensor under the hotspot
}

// ---- The spatial check against the algorithm it replaced.

using Sample = std::vector<StackMonitor::SiteReading>;

/// FaultDetector::analyze before it kept a weight table, kept as the
/// reference: every deviation copies the die's healthy readings and asks
/// FieldEstimator::estimate_at, and a final pass recomputes every healthy
/// deviation against the cleaned set.
std::vector<FaultDetector::Verdict> reference_analyze(
    const FaultDetector::Config& config, const Sample& sample) {
  std::vector<FaultDetector::Verdict> verdicts(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    verdicts[i].site_index = sample[i].site_index;
    if (sample[i].degraded) {
      verdicts[i].suspect = true;
      verdicts[i].reason = "self-reported degraded";
    }
  }
  FieldEstimator::Config est_cfg;
  est_cfg.power = config.idw_power;
  est_cfg.skip_degraded = true;
  const FieldEstimator estimator{est_cfg};
  auto deviation_of = [&](std::size_t i) -> std::optional<double> {
    Sample reference;
    for (std::size_t j = 0; j < sample.size(); ++j) {
      if (j == i || verdicts[j].suspect) continue;
      if (sample[j].die != sample[i].die) continue;
      reference.push_back(sample[j]);
    }
    if (reference.empty()) return std::nullopt;
    try {
      return sample[i].sensed.value() -
             estimator.estimate_at(reference, sample[i].die, sample[i].location)
                 .value();
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  };
  for (std::size_t round = 0; round < sample.size(); ++round) {
    double worst = config.threshold.value();
    std::ptrdiff_t worst_index = -1;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (verdicts[i].suspect) continue;
      const auto deviation = deviation_of(i);
      if (!deviation) continue;
      verdicts[i].deviation = Celsius{*deviation};
      if (std::abs(*deviation) > worst) {
        worst = std::abs(*deviation);
        worst_index = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (worst_index < 0) break;
    verdicts[static_cast<std::size_t>(worst_index)].suspect = true;
    verdicts[static_cast<std::size_t>(worst_index)].reason =
        "spatially inconsistent with neighbours";
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (verdicts[i].suspect) continue;
    if (const auto deviation = deviation_of(i)) {
      verdicts[i].deviation = Celsius{*deviation};
    }
  }
  return verdicts;
}

/// Verdicts equal to the reference's: site, suspect, reason and the bits
/// of the deviation.  Returns the number of suspects.
std::size_t expect_reference_verdicts(FaultDetector& detector,
                                      const FaultDetector::Config& config,
                                      const Sample& sample,
                                      const std::string& what) {
  const auto got = detector.analyze(sample);
  const auto want = reference_analyze(config, sample);
  std::size_t suspects = 0;
  EXPECT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].site_index, want[i].site_index) << what << " @" << i;
    EXPECT_EQ(got[i].suspect, want[i].suspect) << what << " @" << i;
    EXPECT_EQ(got[i].reason, want[i].reason) << what << " @" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].deviation.value()),
              std::bit_cast<std::uint64_t>(want[i].deviation.value()))
        << what << " @" << i << ": " << got[i].deviation.value() << " vs "
        << want[i].deviation.value();
    if (want[i].suspect) ++suspects;
  }
  return suspects;
}

struct LayoutSpec {
  std::size_t dies = 4;
  std::size_t grid = 4;  // grid x grid sites per die
  double pitch = 1.2e-3;
  bool co_located = false;  // one more site on die 0, on an existing one
  bool lone_die = false;    // one more die carrying a single site
  bool shuffled = false;    // positions not grouped by die
};

/// Positions of a layout (readings with die, location and site_index only),
/// jittered off the exact grid so pair distances differ.
Sample make_layout(const LayoutSpec& spec, Rng& rng) {
  Sample layout;
  for (std::size_t d = 0; d < spec.dies; ++d) {
    for (std::size_t k = 0; k < spec.grid * spec.grid; ++k) {
      StackMonitor::SiteReading r;
      r.die = d;
      r.location = {
          (static_cast<double>(k % spec.grid) + 0.5) * spec.pitch +
              rng.uniform(-0.1, 0.1) * spec.pitch,
          (static_cast<double>(k / spec.grid) + 0.5) * spec.pitch +
              rng.uniform(-0.1, 0.1) * spec.pitch};
      layout.push_back(r);
    }
  }
  if (spec.co_located) {
    StackMonitor::SiteReading twin = layout[1];
    layout.push_back(twin);
  }
  if (spec.lone_die) {
    StackMonitor::SiteReading lone;
    lone.die = spec.dies;
    lone.location = {spec.pitch, spec.pitch};
    layout.push_back(lone);
  }
  for (std::size_t i = 0; i < layout.size(); ++i) layout[i].site_index = i;
  if (spec.shuffled) {
    for (std::size_t i = layout.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(layout[i - 1], layout[j]);
    }
  }
  return layout;
}

/// One scan over `layout`: a smooth per-die field plus conversion noise,
/// with stuck-high, stuck-low and degraded sites at `fault_rate`.
Sample make_scan(const Sample& layout, double fault_rate, Rng& rng) {
  Sample scan = layout;
  for (StackMonitor::SiteReading& r : scan) {
    const double t = 40.0 + 7.0 * static_cast<double>(r.die) +
                     3.0 * std::sin(r.location.x * 900.0) +
                     2.0 * std::cos(r.location.y * 700.0) +
                     0.3 * rng.gaussian();
    r.truth = Celsius{t};
    r.sensed = Celsius{t};
    if (rng.uniform() >= fault_rate) continue;
    const double kind = rng.uniform();
    if (kind < 0.4) {
      r.sensed = Celsius{t + rng.uniform(12.0, 60.0)};  // stuck high
    } else if (kind < 0.8) {
      r.sensed = Celsius{t - rng.uniform(12.0, 60.0)};  // stuck low
    } else {
      r.sensed = Celsius{-40.0};  // failed conversion
      r.degraded = true;
    }
  }
  return scan;
}

TEST(FaultDetectorTest, MatchesTheReferenceBitForBit) {
  const LayoutSpec specs[] = {
      {.dies = 4, .grid = 2},
      {.dies = 4, .grid = 4},
      {.dies = 2, .grid = 4, .co_located = true, .lone_die = true,
       .shuffled = true},
      {.dies = 3, .grid = 2, .lone_die = true, .shuffled = true},
      {.dies = 1, .grid = 4, .co_located = true},
  };
  const FaultDetector::Config configs[] = {
      {Celsius{8.0}, 2.0}, {Celsius{15.0}, 2.0}, {Celsius{6.0}, 1.5}};
  Rng rng{1601};
  std::size_t frames = 0;
  std::size_t suspects = 0;
  for (std::size_t s = 0; s < std::size(specs); ++s) {
    for (const FaultDetector::Config& config : configs) {
      const Sample layout = make_layout(specs[s], rng);
      FaultDetector detector{config};
      for (std::size_t f = 0; f < 40; ++f) {
        const double fault_rate = f % 4 == 0 ? 0.0 : 0.15;
        suspects += expect_reference_verdicts(
            detector, config, make_scan(layout, fault_rate, rng),
            "layout " + std::to_string(s) + " frame " + std::to_string(f));
        ++frames;
      }
    }
  }
  EXPECT_EQ(frames, 600u);
  EXPECT_GT(suspects, 1000u);  // the greedy loop ran many marking rounds
}

TEST(FaultDetectorTest, CoLocatedNeighbourReadingIsTheEstimate) {
  // Site 1 and its twin share a location, so the first healthy one of
  // them is the other's whole estimate.
  Rng rng{77};
  const Sample layout =
      make_layout({.dies = 1, .grid = 2, .co_located = true}, rng);
  const Sample scan = make_scan(layout, 0.0, rng);
  FaultDetector detector;
  const auto verdicts = detector.analyze(scan);
  ASSERT_EQ(verdicts.size(), 5u);
  EXPECT_EQ(verdicts[4].deviation.value(),
            scan[4].sensed.value() - scan[1].sensed.value());
  EXPECT_EQ(verdicts[1].deviation.value(),
            scan[1].sensed.value() - scan[4].sensed.value());
  (void)expect_reference_verdicts(detector, FaultDetector::Config{}, scan,
                                  "co-located");
}

std::uint64_t layout_builds() {
  return obs::counter("tsvpt_fault_layout_builds_total").value();
}

TEST(FaultDetectorTest, AlternatingLayoutsNeverUseAStaleTable) {
  // Same size and die assignment with other locations, then another die
  // assignment: either a stale table would misweigh every estimate.
  Rng rng{42};
  const Sample a = make_layout({.dies = 4, .grid = 4}, rng);
  const Sample b = make_layout({.dies = 4, .grid = 4, .pitch = 0.9e-3}, rng);
  Sample c = a;
  for (StackMonitor::SiteReading& r : c) r.die = (r.die + 1) % 2;
  const Sample* layouts[] = {&a, &a, &b, &a, &c, &c, &b};
  FaultDetector detector;
  const std::uint64_t builds_before = layout_builds();
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t f = 0; f < std::size(layouts); ++f) {
      (void)expect_reference_verdicts(
          detector, FaultDetector::Config{}, make_scan(*layouts[f], 0.15, rng),
          "round " + std::to_string(round) + " frame " + std::to_string(f));
    }
  }
  // One build per analysis whose layout differs from the one before (the
  // first included): five per round, none for a repeat.
  EXPECT_EQ(layout_builds() - builds_before, 3u * 5u);
}

TEST(FaultDetectorTest, OverCapLayoutKeepsNoTableAndMatchesTheReference) {
  Rng rng{9};
  FaultDetector detector;
  // 16x16 on one die fills the table exactly.
  const Sample at_cap = make_layout({.dies = 1, .grid = 16}, rng);
  (void)expect_reference_verdicts(detector, FaultDetector::Config{},
                                  make_scan(at_cap, 0.03, rng), "at cap");
  EXPECT_EQ(detector.stored_weights(), FaultDetector::kMaxWeights);
  // One more site on that die needs 257 * 257 weights: none are stored, and
  // each row is computed as it is needed.
  const Sample over_cap =
      make_layout({.dies = 1, .grid = 16, .co_located = true}, rng);
  for (std::size_t f = 0; f < 3; ++f) {
    (void)expect_reference_verdicts(detector, FaultDetector::Config{},
                                    make_scan(over_cap, 0.03, rng),
                                    "over cap " + std::to_string(f));
    EXPECT_EQ(detector.stored_weights(), 0u);
  }
  const Sample small = make_layout({.dies = 4, .grid = 2}, rng);
  (void)expect_reference_verdicts(detector, FaultDetector::Config{},
                                  make_scan(small, 0.1, rng), "small");
  EXPECT_EQ(detector.stored_weights(), 4u * 4u * 4u);
}

}  // namespace
}  // namespace tsvpt::core
