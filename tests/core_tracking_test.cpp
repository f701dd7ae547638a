// Tracking conversion held to a full-box Brent reference.
//
// A tracking read counts the TDRO and bisects a per-latch table of the
// latched model, whose rows are evaluated the first time a read visits
// them, for the segment that brackets its count.  An uncompensated read
// then interpolates T(ln f) through the six rows around that segment; a
// supply-compensated read solves inside it at its rail estimate.  These
// tests compare every read with what a full-box calib::brent_root
// inversion of the same count returns.  The count
// is recovered from the reading itself: the counter reports whole counts
// over its nominal window, so the model frequency at a reading that lies
// within ~0.05 K of its root rounds back to exactly the count the sensor
// measured.
#include "core/pt_sensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "calib/newton.hpp"
#include "circuit/counter.hpp"
#include "obs/metrics.hpp"
#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

/// A full-box brent_root inversion of TDRO frequency `f_hz` at rail
/// estimate `vdd`: the root, or the nearer box end when the box does not
/// bracket one.
struct Reference {
  double t_celsius = 0.0;
  bool clamped = false;
};

Reference brent_reference(const PtSensor& sensor, double f_hz, Volt vdd,
                          double tolerance) {
  const PtSensor::ProcessEstimate& p = sensor.latched_process();
  const double target = std::log(f_hz);
  const auto g = [&](double t_kelvin) {
    return std::log(sensor
                        .model_frequency(RoRole::kTdro, p.dvtn, p.dvtp,
                                         Kelvin{t_kelvin}, vdd)
                        .value()) -
           target;
  };
  const double lo = to_kelvin(sensor.config().t_min).value();
  const double hi = to_kelvin(sensor.config().t_max).value();
  Reference ref;
  double t = 0.0;
  try {
    t = calib::brent_root(g, lo, hi, tolerance);
  } catch (const std::runtime_error&) {
    t = std::abs(g(lo)) < std::abs(g(hi)) ? lo : hi;
    ref.clamped = true;
  }
  ref.t_celsius = to_celsius(Kelvin{t}).value();
  return ref;
}

/// The TDRO frequency the sensor counted for a reading of `t` at rail
/// estimate `vdd`.
double counted_frequency(const PtSensor& sensor, Celsius t, Volt vdd) {
  const double window = circuit::FrequencyCounter{sensor.config().counter}
                            .nominal_window()
                            .value();
  const PtSensor::ProcessEstimate& p = sensor.latched_process();
  const double f = sensor
                       .model_frequency(RoRole::kTdro, p.dvtn, p.dvtp,
                                        to_kelvin(t), vdd)
                       .value();
  return static_cast<double>(std::llround(f * window)) / window;
}

std::uint64_t model_evals() {
  return obs::counter("tsvpt_sensor_model_evals_total").value();
}

/// Supply-compensated, with a rail estimate the test can compute: the rail
/// is noise-free and the monitor has no gain, offset or sampling error, so
/// the estimate is the monitor's quantization of the rail.  The counter
/// keeps its window jitter and phase noise.
PtSensor::Config compensated_config() {
  PtSensor::Config cfg;
  cfg.compensate_supply = true;
  cfg.vdd_monitor.gain_sigma = 0.0;
  cfg.vdd_monitor.offset_sigma = Volt{0.0};
  cfg.vdd_monitor.noise_rms = Volt{0.0};
  return cfg;
}

Volt rail_estimate(const PtSensor& sensor, Volt rail) {
  if (!sensor.config().compensate_supply) return sensor.config().model_vdd;
  return circuit::VddMonitor{sensor.config().vdd_monitor, 0}.measure(
      rail, nullptr);
}

DieEnvironment environment(double t_celsius, double dvtn_mv, double dvtp_mv,
                           Volt rail) {
  DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t_celsius});
  env.vt_delta = {millivolts(dvtn_mv), millivolts(dvtp_mv)};
  env.supply = circuit::SupplyRail{{rail, Volt{0.0}, Volt{0.0}}};
  return env;
}

/// One noisy tracking read against the exact (tight Brent) root of its
/// count, next to the Brent call the table-driven read replaced.
struct Checked {
  double read_error_k = 0.0;   // |read - root|
  double brent_error_k = 0.0;  // |1e-9-tolerance full-box Brent - root|
};

Checked check_read(PtSensor& sensor, const DieEnvironment& env, Rng& rng) {
  const TemperatureReading reading = sensor.read(env, &rng);
  const Volt vdd = rail_estimate(sensor, env.supply.nominal());
  const double f = counted_frequency(sensor, reading.temperature, vdd);
  const Reference exact = brent_reference(sensor, f, vdd, 1e-13);
  const Reference replaced = brent_reference(sensor, f, vdd, 1e-9);
  EXPECT_FALSE(reading.degraded);
  EXPECT_FALSE(exact.clamped);
  EXPECT_NEAR(reading.temperature.value(), exact.t_celsius, 1e-6);
  return {std::abs(reading.temperature.value() - exact.t_celsius),
          std::abs(replaced.t_celsius - exact.t_celsius)};
}

/// The F4 sweep, shrunk: Monte-Carlo dies self-calibrated at a random
/// power-on temperature, then read at 0..100 degC twice over.  Every read
/// is compared with the exact root of its count.  The first pass fills the
/// table rows its bisections visit; reads at every degree of the box fill
/// the rest before the second.
struct Sweep {
  std::uint64_t reads = 0;
  double worst_read_k = 0.0;   // this sensor vs the exact root
  double worst_brent_k = 0.0;  // a 1e-9-tolerance Brent call vs the root
  std::uint64_t max_first_pass_evals = 0;  // per die, rows filled included
  std::uint64_t max_evals = 0;             // per second-pass read
  std::uint64_t segment_reads = 0;  // compensated: <= 4 evaluations
  std::uint64_t widened_reads = 0;  // compensated: >= 5 evaluations
};

Sweep f4_sweep(const PtSensor::Config& cfg, Volt rail, std::size_t dies) {
  obs::Registry::instance().set_enabled(true);
  const process::VariationModel variation{
      device::Technology::tsmc65_like(), {process::Point{2.5e-3, 2.5e-3}}};
  Rng rng{424242};
  Sweep out;
  for (std::size_t die = 0; die < dies; ++die) {
    DieEnvironment env = environment(0.0, 0.0, 0.0, rail);
    env.vt_delta = variation.sample_die(rng).at(0);
    env.temperature = to_kelvin(Celsius{rng.uniform(15.0, 45.0)});
    PtSensor sensor{cfg, derive_seed(1000, die)};
    (void)sensor.self_calibrate(env, &rng);
    const std::uint64_t latched = model_evals();
    for (const bool second_pass : {false, true}) {
      for (double t = 0.0; t <= 100.0 + 1e-9; t += 10.0) {
        const std::uint64_t before = model_evals();
        const Checked c =
            check_read(sensor, env.at_celsius(Celsius{t}), rng);
        const std::uint64_t evals = model_evals() - before;
        out.worst_read_k = std::max(out.worst_read_k, c.read_error_k);
        out.worst_brent_k = std::max(out.worst_brent_k, c.brent_error_k);
        ++out.reads;
        if (!second_pass) continue;
        out.max_evals = std::max(out.max_evals, evals);
        (evals <= 4 ? out.segment_reads : out.widened_reads) += 1;
      }
      if (second_pass) continue;
      out.max_first_pass_evals =
          std::max(out.max_first_pass_evals, model_evals() - latched);
      for (double t = -39.5; t < 140.0; t += 1.0) {
        (void)sensor.read(env.at_celsius(Celsius{t}), &rng);
      }
    }
  }
  return out;
}

TEST(PtSensorTracking, MatchesFullBoxBrentOverTheF4Sweep) {
  const Sweep s = f4_sweep(PtSensor::Config{}, Volt{1.0}, 40);
  EXPECT_EQ(s.reads, 40u * 22u);
  // At least as close to the root as the Brent call it replaces...
  EXPECT_LE(s.worst_read_k, s.worst_brent_k);
  // ...for no model evaluation at all on a filled table...
  EXPECT_EQ(s.max_evals, 0u);
  // ...and, filling them, no more than a full table's worth for a die's
  // first eleven reads (46 here), where eleven full-box Brent searches
  // made 84.
  EXPECT_LE(s.max_first_pass_evals, 64u);
}

TEST(PtSensorTracking, ShortLatchesPayOnlyForTheRowsTheyVisit) {
  obs::Registry::instance().set_enabled(true);
  const auto at = [](double t) {
    return environment(t, 10.0, -8.0, Volt{1.0});
  };
  PtSensor sensor{PtSensor::Config{}, 3};
  Rng rng{11};
  // tsvpt_cli montecarlo's pattern: a latch, then reads at 10, 50, 90 degC.
  (void)sensor.self_calibrate(at(30.0), &rng);
  std::uint64_t before = model_evals();
  (void)check_read(sensor, at(10.0), rng);
  const std::uint64_t first = model_evals() - before;
  (void)check_read(sensor, at(50.0), rng);
  (void)check_read(sensor, at(90.0), rng);
  const std::uint64_t three = model_evals() - before;
  // A read fills the rows it visits: the bisection's rows and the six-row
  // window around its segment.  The window holds the segment's two ends
  // and an end of the bracket the bisection halved last, so it adds at
  // most three rows.
  // The reads land in segments 17, 31 and 45 of the 63:
  //   10 degC: end rows 0 and 63, bisection 31 15 23 19 17 18, window
  //            15..20 adds 16 and 20: 2 + 6 + 2 = 10, where a full-box
  //            Brent search paid 7.6...
  EXPECT_LE(first, 10u);
  //   50 degC: bisection 31 47 39 35 33 32 (31 filled), window 29..34 adds
  //            29 30 34: 5 + 3 = 8;
  //   90 degC: bisection 31 47 39 43 45 46 (three filled), window 43..48
  //            adds 44 and 48: 3 + 2 = 5.
  // ...so three reads fill 23 rows, next to three searches' 22.8.
  EXPECT_LE(three, 23u);

  // However many reads a latch serves, it fills each row at most once, and
  // an uncompensated read makes no evaluation beyond its rows.
  (void)sensor.self_calibrate(at(30.0), &rng);
  before = model_evals();
  for (double t = -39.0; t < 140.0; t += 0.5) {
    (void)sensor.read(at(t), &rng);
  }
  EXPECT_LE(model_evals() - before, 64u);
}

TEST(PtSensorTracking, WithinAMicrokelvinOfTheRootOverTheWholeBox) {
  // 400 latches anywhere in the +-80 mV solver box, each read every 3 K
  // across -40..140 degC from a random start, so the reads reach every
  // table segment, the three at each end included.  Every in-range read
  // lands within 1e-6 K of the exact root of its count.
  obs::Registry::instance().set_enabled(true);
  const PtSensor::Config cfg;
  const double t_lo = to_kelvin(cfg.t_min).value();
  const double t_hi = to_kelvin(cfg.t_max).value();
  constexpr std::size_t kSegments = 63;
  const double step = (t_hi - t_lo) / static_cast<double>(kSegments);
  std::array<std::uint64_t, kSegments> per_segment{};
  Rng rng{97};
  for (std::uint64_t latch = 0; latch < 400; ++latch) {
    const double dvtn = rng.uniform(-80.0, 80.0);
    const double dvtp = rng.uniform(-80.0, 80.0);
    const auto at = [&](double t) {
      return environment(t, dvtn, dvtp, Volt{1.0});
    };
    PtSensor sensor{cfg, derive_seed(2000, latch)};
    (void)sensor.self_calibrate(at(rng.uniform(-40.0, 140.0)), &rng);
    for (double t = cfg.t_min.value() + rng.uniform(0.0, 3.0);
         t <= cfg.t_max.value(); t += 3.0) {
      const TemperatureReading reading = sensor.read(at(t), &rng);
      if (reading.degraded) {
        // A count beyond the box clamps to a box end.
        EXPECT_TRUE(reading.temperature.value() == cfg.t_min.value() ||
                    reading.temperature.value() == cfg.t_max.value())
            << reading.temperature.value();
        continue;
      }
      const double f =
          counted_frequency(sensor, reading.temperature, cfg.model_vdd);
      const Reference exact = brent_reference(sensor, f, cfg.model_vdd, 1e-13);
      ASSERT_FALSE(exact.clamped);
      EXPECT_NEAR(reading.temperature.value(), exact.t_celsius, 1e-6)
          << latch << " " << t;
      const double root_k = to_kelvin(Celsius{exact.t_celsius}).value();
      const auto seg = static_cast<std::size_t>((root_k - t_lo) / step);
      ++per_segment[std::min(seg, kSegments - 1)];
    }
  }
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    EXPECT_GT(per_segment[seg], 0u) << seg;
  }
}

TEST(PtSensorTracking, CompensatedMatchesFullBoxBrentOverTheF4Sweep) {
  // At 1.0 V the rail estimate sits one monitor LSB off model_vdd, so most
  // reads confirm their table segment; a 30 mV droop or lift moves the root
  // segments away, and the read keeps the segment end nearer the root and
  // widens to the box end on that side.
  const Sweep near = f4_sweep(compensated_config(), Volt{1.0}, 20);
  EXPECT_GT(near.segment_reads, 0u);
  EXPECT_LE(near.worst_read_k, near.worst_brent_k);
  for (const double rail : {0.97, 1.03}) {
    const Sweep off = f4_sweep(compensated_config(), Volt{rail}, 20);
    EXPECT_GT(off.widened_reads, 0u) << rail;
    // Two segment ends, one box end and at most five solver steps.
    EXPECT_LE(off.max_evals, 8u) << rail;
    EXPECT_LE(off.worst_read_k, off.worst_brent_k) << rail;
  }
}

TEST(PtSensorTracking, ClampsAtBothEndsAndReadsDeadTdroAsTmin) {
  for (const bool compensated : {false, true}) {
    PtSensor::Config cfg =
        compensated ? compensated_config() : PtSensor::Config{};
    cfg.t_min = Celsius{0.0};
    cfg.t_max = Celsius{60.0};
    PtSensor sensor{cfg, 12};
    Rng rng{7};
    (void)sensor.self_calibrate(environment(25.0, 8.0, -5.0, Volt{1.0}),
                                &rng);
    const Volt vdd = rail_estimate(sensor, Volt{1.0});
    const PtSensor::ProcessEstimate& p = sensor.latched_process();
    for (const double t : {-30.0, 95.0}) {
      const DieEnvironment env = environment(t, 8.0, -5.0, Volt{1.0});
      const TemperatureReading reading = sensor.read(env, &rng);
      const double f =
          sensor.model_frequency(RoRole::kTdro, p.dvtn, p.dvtp,
                                 env.temperature, vdd)
              .value();
      const Reference ref = brent_reference(sensor, f, vdd, 1e-13);
      ASSERT_TRUE(ref.clamped);
      EXPECT_TRUE(reading.degraded) << t;
      EXPECT_EQ(reading.temperature.value(), ref.t_celsius) << t;
    }

    sensor.inject_fault(RoRole::kTdro, RoFault::kDead);
    const std::uint64_t before = model_evals();
    const TemperatureReading dead =
        sensor.read(environment(40.0, 8.0, -5.0, Volt{1.0}), &rng);
    EXPECT_TRUE(dead.degraded);
    EXPECT_EQ(dead.temperature.value(), cfg.t_min.value());
    EXPECT_EQ(model_evals(), before);
  }
}

TEST(PtSensorTracking, NewLatchNeverReusesAStaleTable) {
  for (const bool compensated : {false, true}) {
    const PtSensor::Config cfg =
        compensated ? compensated_config() : PtSensor::Config{};
    PtSensor sensor{cfg, 21};
    Rng rng{5};
    const auto at = [](double t, double dvtn, double dvtp) {
      return environment(t, dvtn, dvtp, Volt{1.0});
    };
    (void)sensor.self_calibrate(at(40.0, 25.0, -20.0), &rng);
    (void)check_read(sensor, at(70.0, 25.0, -20.0), rng);

    // Cleared, then latched at a far slower process point.
    sensor.clear_calibration();
    (void)sensor.self_calibrate(at(40.0, -25.0, 20.0), &rng);
    for (const double t : {10.0, 40.0, 70.0, 100.0}) {
      (void)check_read(sensor, at(t, -25.0, 20.0), rng);
    }
    // Re-latched without a clear.
    (void)sensor.self_calibrate(at(40.0, 25.0, -20.0), &rng);
    for (const double t : {10.0, 40.0, 70.0, 100.0}) {
      (void)check_read(sensor, at(t, 25.0, -20.0), rng);
    }
  }
}

}  // namespace
}  // namespace tsvpt::core
