#include "core/pt_sensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "ptsim/stats.hpp"

namespace tsvpt::core {
namespace {

PtSensor::Config clean_config() {
  // An idealized instance: no RO mismatch, so the only residual error
  // sources are quantization and the instance's reference-clock ppm draw.
  PtSensor::Config cfg;
  cfg.ro_mismatch_sigma = Volt{0.0};
  return cfg;
}

DieEnvironment environment(double t_celsius, double dvtn_mv, double dvtp_mv) {
  DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t_celsius});
  env.vt_delta = {millivolts(dvtn_mv), millivolts(dvtp_mv)};
  return env;
}

TEST(PtSensor, ModelFrequencyMatchesOscillatorBank) {
  const PtSensor::Config cfg = clean_config();
  const PtSensor sensor{cfg, 1};
  const circuit::RingOscillator tdro = circuit::RingOscillator::make(
      cfg.tech, circuit::RoTopology::kThermal, 15);
  circuit::OperatingPoint op;
  op.vdd = Volt{1.0};
  op.temperature = Kelvin{320.0};
  EXPECT_DOUBLE_EQ(
      sensor.model_frequency(RoRole::kTdro, Volt{0.0}, Volt{0.0},
                             Kelvin{320.0})
          .value(),
      tdro.frequency(op).value());
}

TEST(PtSensor, CopyConvertsAfterItsSourceIsDestroyed) {
  // A copy's oscillator bank must not read the source's technology card
  // (ASan reports the use after free when it does).
  const DieEnvironment env = environment(55.0, 0.0, 0.0);
  auto source = std::make_unique<PtSensor>(clean_config(), 11);
  (void)source->self_calibrate(env, nullptr);
  PtSensor copy = *source;
  source.reset();
  PtSensor twin{clean_config(), 11};
  (void)twin.self_calibrate(env, nullptr);
  const TemperatureReading want =
      twin.read(env.at_celsius(Celsius{70.0}), nullptr);
  const TemperatureReading got =
      copy.read(env.at_celsius(Celsius{70.0}), nullptr);
  EXPECT_EQ(got.temperature.value(), want.temperature.value());
  EXPECT_EQ(got.energy.value(), want.energy.value());
  EXPECT_NEAR(got.temperature.value(), 70.0, 0.7);
}

TEST(PtSensor, SelfCalibrationRecoversStateNoiseFree) {
  PtSensor sensor{clean_config(), 2};
  const DieEnvironment env = environment(63.0, 18.0, -12.0);
  const auto est = sensor.self_calibrate(env, nullptr);
  ASSERT_TRUE(est.converged);
  // Quantization-limited: sub-mV / sub-0.5C recovery expected.
  EXPECT_NEAR(est.dvtn.value(), 18e-3, 1e-3);
  EXPECT_NEAR(est.dvtp.value(), -12e-3, 1e-3);
  EXPECT_NEAR(to_celsius(est.temperature).value(), 63.0, 0.5);
}

TEST(PtSensor, SelfCalibrationAcrossCorners) {
  for (device::Corner corner : device::all_corners()) {
    PtSensor sensor{clean_config(), 3};
    const device::CornerShift shift =
        clean_config().tech.corner_shift(corner);
    DieEnvironment env;
    env.temperature = to_kelvin(Celsius{45.0});
    env.vt_delta = {shift.nmos, shift.pmos};
    const auto est = sensor.self_calibrate(env, nullptr);
    ASSERT_TRUE(est.converged) << device::to_string(corner);
    EXPECT_NEAR(est.dvtn.value(), shift.nmos.value(), 1.5e-3)
        << device::to_string(corner);
    EXPECT_NEAR(est.dvtp.value(), shift.pmos.value(), 1.5e-3)
        << device::to_string(corner);
    EXPECT_NEAR(to_celsius(est.temperature).value(), 45.0, 0.7)
        << device::to_string(corner);
  }
}

TEST(PtSensor, TrackingReadFollowsTemperature) {
  PtSensor sensor{clean_config(), 4};
  const DieEnvironment base = environment(25.0, 10.0, 8.0);
  (void)sensor.self_calibrate(base, nullptr);
  for (double t = 0.0; t <= 100.0; t += 12.5) {
    const auto reading = sensor.read(base.at_celsius(Celsius{t}), nullptr);
    EXPECT_FALSE(reading.degraded);
    EXPECT_NEAR(reading.temperature.value(), t, 0.6) << "T=" << t;
  }
}

TEST(PtSensor, FirstReadAutoCalibrates) {
  PtSensor sensor{clean_config(), 5};
  EXPECT_FALSE(sensor.is_calibrated());
  const auto reading = sensor.read(environment(40.0, -15.0, 9.0), nullptr);
  EXPECT_TRUE(sensor.is_calibrated());
  EXPECT_NEAR(reading.temperature.value(), 40.0, 0.7);
}

TEST(PtSensor, LatchedProcessThrowsBeforeCalibration) {
  PtSensor sensor{clean_config(), 6};
  EXPECT_THROW((void)sensor.latched_process(), std::logic_error);
  (void)sensor.self_calibrate(environment(25.0, 0.0, 0.0), nullptr);
  EXPECT_NO_THROW((void)sensor.latched_process());
  sensor.clear_calibration();
  EXPECT_FALSE(sensor.is_calibrated());
}

TEST(PtSensor, TrackingCheaperThanCalibration) {
  const PtSensor sensor{PtSensor::Config{}, 7};
  EXPECT_LT(sensor.tracking_energy().value(),
            sensor.calibration_energy().value());
}

TEST(PtSensor, CalibrationEnergyNearHeadline) {
  // The default configuration is tuned to the paper's 367.5 pJ/conversion.
  const PtSensor sensor{PtSensor::Config{}, 8};
  DieEnvironment env = environment(25.0, 0.0, 0.0);
  PtSensor probe = sensor;
  const auto est = probe.self_calibrate(env, nullptr);
  EXPECT_NEAR(est.energy.value() * 1e12, 367.5, 8.0);
}

TEST(PtSensor, MismatchLimitsAccuracyButStaysBounded) {
  // Realistic instances: 1 mV RO mismatch. Errors grow but stay within the
  // abstract's +-1.6 mV / +-1.5 C style bounds for typical draws.
  PtSensor::Config cfg;  // default mismatch sigma = 1 mV
  double worst_t = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    PtSensor sensor{cfg, seed};
    const DieEnvironment env = environment(50.0, 20.0, -15.0);
    const auto est = sensor.self_calibrate(env, nullptr);
    ASSERT_TRUE(est.converged);
    worst_t = std::max(worst_t,
                       std::abs(to_celsius(est.temperature).value() - 50.0));
  }
  EXPECT_LT(worst_t, 3.0);
}

TEST(PtSensor, NoiseDeterministicPerSeed) {
  PtSensor a{PtSensor::Config{}, 9};
  PtSensor b{PtSensor::Config{}, 9};
  Rng na{13};
  Rng nb{13};
  const DieEnvironment env = environment(33.0, 5.0, -5.0);
  const auto ea = a.self_calibrate(env, &na);
  const auto eb = b.self_calibrate(env, &nb);
  EXPECT_DOUBLE_EQ(ea.dvtn.value(), eb.dvtn.value());
  EXPECT_DOUBLE_EQ(ea.temperature.value(), eb.temperature.value());
}

TEST(PtSensor, SupplyCompensationRejectsDroop) {
  // 5 % rail droop, unknown to the 3-RO solver: it aliases into (dVt, T).
  // The 4-RO mode solves for VDD as a fourth unknown and must recover both
  // the droop and the true temperature.
  PtSensor::Config plain_cfg = clean_config();
  PtSensor::Config comp_cfg = clean_config();
  comp_cfg.compensate_supply = true;

  DieEnvironment droopy = environment(55.0, 0.0, 0.0);
  droopy.supply = circuit::SupplyRail{{Volt{1.0}, Volt{50e-3}, Volt{0.0}}};

  PtSensor plain{plain_cfg, 10};
  PtSensor comp{comp_cfg, 10};
  const auto est_plain = plain.self_calibrate(droopy, nullptr);
  const auto est_comp = comp.self_calibrate(droopy, nullptr);
  const double err_plain =
      std::abs(to_celsius(est_plain.temperature).value() - 55.0);
  const double err_comp =
      std::abs(to_celsius(est_comp.temperature).value() - 55.0);
  EXPECT_GT(err_plain, 5.0);  // droop costs the plain sensor dearly
  // The 4-unknown solve amplifies counter quantization somewhat, so the
  // compensated error is bounded by ~2 C rather than the sub-degree plain
  // no-droop case — still an order of magnitude better than uncompensated.
  EXPECT_LT(err_comp, 2.0);
  EXPECT_NEAR(est_comp.vdd.value(), 0.95, 0.01);  // droop was identified
  // Compensated tracking reads stay accurate too.
  const auto tracked = comp.read(droopy.at_celsius(Celsius{70.0}), nullptr);
  EXPECT_NEAR(tracked.temperature.value(), 70.0, 2.0);
}

TEST(PtSensor, CompensationRejectsRailNoiseInTracking) {
  // Random rail noise shifts each conversion's effective VDD; the monitor
  // samples the same realization and cancels it.
  auto three_sigma = [](bool compensate) {
    PtSensor::Config cfg = clean_config();
    cfg.compensate_supply = compensate;
    PtSensor sensor{cfg, 21};
    DieEnvironment env = environment(50.0, 0.0, 0.0);
    env.supply = circuit::SupplyRail{{Volt{1.0}, Volt{0.0}, Volt{5e-3}}};
    Rng noise{22};
    (void)sensor.self_calibrate(env, &noise);
    Samples err;
    for (int i = 0; i < 60; ++i) {
      err.add(sensor.read(env, &noise).temperature.value() - 50.0);
    }
    return err.three_sigma();
  };
  EXPECT_LT(three_sigma(true), 0.4 * three_sigma(false));
}

TEST(PtSensor, CompensationChargesMonitorEnergy) {
  PtSensor::Config plain_cfg;
  PtSensor::Config comp_cfg;
  comp_cfg.compensate_supply = true;
  const PtSensor plain{plain_cfg, 23};
  const PtSensor comp{comp_cfg, 23};
  const double extra =
      comp.tracking_energy().value() - plain.tracking_energy().value();
  EXPECT_NEAR(extra, comp_cfg.vdd_monitor.sample_energy.value(), 1e-13);
}

TEST(PtSensor, EstimateExposesRailVoltage) {
  PtSensor::Config cfg = clean_config();
  cfg.compensate_supply = true;
  cfg.vdd_monitor.gain_sigma = 0.0;
  cfg.vdd_monitor.offset_sigma = Volt{0.0};
  cfg.vdd_monitor.noise_rms = Volt{0.0};
  PtSensor sensor{cfg, 24};
  DieEnvironment env = environment(40.0, 0.0, 0.0);
  env.supply = circuit::SupplyRail{{Volt{1.0}, Volt{30e-3}, Volt{0.0}}};
  const auto est = sensor.self_calibrate(env, nullptr);
  EXPECT_NEAR(est.vdd.value(), 0.97, 1e-3);
  // Plain mode reports the assumed model rail.
  PtSensor::Config plain = clean_config();
  PtSensor plain_sensor{plain, 24};
  const auto plain_est = plain_sensor.self_calibrate(env, nullptr);
  EXPECT_DOUBLE_EQ(plain_est.vdd.value(), plain.model_vdd.value());
}

TEST(PtSensor, AveragedReadReducesNoise) {
  PtSensor::Config cfg = clean_config();
  PtSensor sensor{cfg, 31};
  DieEnvironment env = environment(50.0, 0.0, 0.0);
  env.supply = circuit::SupplyRail{{Volt{1.0}, Volt{0.0}, Volt{3e-3}}};
  Rng noise{32};
  (void)sensor.self_calibrate(env, &noise);
  // Eight back-to-back conversions averaged: quantization and rail noise
  // shrink as 1/sqrt(8).
  Samples single;
  Samples averaged;
  for (int i = 0; i < 40; ++i) {
    single.add(sensor.read(env, &noise).temperature.value() - 50.0);
    double sum = 0.0;
    for (int k = 0; k < 8; ++k) {
      sum += sensor.read(env, &noise).temperature.value();
    }
    averaged.add(sum / 8.0 - 50.0);
  }
  EXPECT_LT(averaged.stddev(), 0.6 * single.stddev());
}

TEST(PtSensor, SaturatedCounterFlagsDegraded) {
  PtSensor::Config cfg = clean_config();
  cfg.counter.counter_bits = 6;  // 63 max: everything saturates
  PtSensor sensor{cfg, 11};
  (void)sensor.self_calibrate(environment(25.0, 0.0, 0.0), nullptr);
  const auto reading = sensor.read(environment(25.0, 0.0, 0.0), nullptr);
  EXPECT_TRUE(reading.degraded);
}

TEST(PtSensor, OutOfRangeTemperatureClampsAndFlags) {
  PtSensor::Config cfg = clean_config();
  cfg.t_min = Celsius{0.0};
  cfg.t_max = Celsius{60.0};
  PtSensor sensor{cfg, 12};
  (void)sensor.self_calibrate(environment(25.0, 0.0, 0.0), nullptr);
  const auto reading = sensor.read(environment(90.0, 0.0, 0.0), nullptr);
  EXPECT_TRUE(reading.degraded);
  EXPECT_NEAR(reading.temperature.value(), 60.0, 1.0);
}

TEST(PtSensor, DistinctSeedsDistinctMismatch) {
  PtSensor a{PtSensor::Config{}, 100};
  PtSensor b{PtSensor::Config{}, 101};
  EXPECT_NE(a.mismatch()[0].nmos.value(), b.mismatch()[0].nmos.value());
}

TEST(PtSensor, WiderWindowImprovesQuantization) {
  // Property of the F2D stage: 8 us window must beat 0.5 us on the same
  // noise-free environment.
  auto error_with_window = [](double window_us) {
    PtSensor::Config cfg = clean_config();
    cfg.counter.window = Second{window_us * 1e-6};
    PtSensor sensor{cfg, 500};
    const DieEnvironment env = environment(37.3, 12.0, -7.0);
    const auto est = sensor.self_calibrate(env, nullptr);
    return std::abs(to_celsius(est.temperature).value() - 37.3);
  };
  EXPECT_LT(error_with_window(8.0), error_with_window(0.5) + 1e-9);
}

/// Round-trip decoupling property over a grid of true states.
class DecouplingSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(DecouplingSweep, RoundTripWithinQuantization) {
  const auto [t_c, dvtn_mv, dvtp_mv] = GetParam();
  PtSensor sensor{clean_config(), 77};
  const auto est =
      sensor.self_calibrate(environment(t_c, dvtn_mv, dvtp_mv), nullptr);
  ASSERT_TRUE(est.converged);
  EXPECT_NEAR(est.dvtn.value() * 1e3, dvtn_mv, 1.2);
  EXPECT_NEAR(est.dvtp.value() * 1e3, dvtp_mv, 1.2);
  EXPECT_NEAR(to_celsius(est.temperature).value(), t_c, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecouplingSweep,
    ::testing::Combine(::testing::Values(0.0, 25.0, 60.0, 100.0),
                       ::testing::Values(-30.0, 0.0, 30.0),
                       ::testing::Values(-30.0, 0.0, 30.0)));

}  // namespace
}  // namespace tsvpt::core
