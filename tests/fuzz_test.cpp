// Robustness fuzzing: random-but-plausible configurations and environments
// must never crash, hang, or emit non-finite results.  These tests exercise
// the API surfaces a downstream user is most likely to stress with odd
// parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "calib/lut.hpp"
#include "calib/polyfit.hpp"
#include "core/pt_sensor.hpp"
#include "process/variation.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt {
namespace {

TEST(Fuzz, SensorSurvivesRandomEnvironments) {
  Rng rng{0xF122};
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  for (int trial = 0; trial < 200; ++trial) {
    core::DieEnvironment env;
    env.temperature = to_kelvin(Celsius{rng.uniform(-35.0, 135.0)});
    env.vt_delta = {millivolts(rng.uniform(-60.0, 60.0)),
                    millivolts(rng.uniform(-60.0, 60.0))};
    env.supply = circuit::SupplyRail{{Volt{rng.uniform(0.9, 1.1)},
                                      millivolts(rng.uniform(0.0, 30.0)),
                                      millivolts(rng.uniform(0.0, 5.0))}};
    const auto est = sensor.self_calibrate(env, &rng);
    EXPECT_TRUE(std::isfinite(est.temperature.value()));
    EXPECT_TRUE(std::isfinite(est.dvtn.value()));
    EXPECT_TRUE(std::isfinite(est.energy.value()));
    const auto reading = sensor.read(env, &rng);
    EXPECT_TRUE(std::isfinite(reading.temperature.value()));
    // The solver's box bounds the answer even when the environment is wild.
    EXPECT_GE(reading.temperature.value(), -40.0 - 1e-9);
    EXPECT_LE(reading.temperature.value(), 140.0 + 1e-9);
  }
}

TEST(Fuzz, SensorSurvivesRandomConfigs) {
  Rng rng{0xF123};
  for (int trial = 0; trial < 60; ++trial) {
    core::PtSensor::Config cfg;
    cfg.psro_stages = 3 + 2 * static_cast<std::size_t>(rng.uniform_int(0, 30));
    cfg.tdro_stages = 3 + 2 * static_cast<std::size_t>(rng.uniform_int(0, 30));
    cfg.counter.window = Second{rng.uniform(0.5e-6, 10e-6)};
    cfg.counter.counter_bits =
        static_cast<unsigned>(rng.uniform_int(12, 24));
    cfg.ro_mismatch_sigma = millivolts(rng.uniform(0.0, 2.0));
    cfg.compensate_supply = rng.bernoulli(0.5);
    core::PtSensor sensor{cfg, static_cast<std::uint64_t>(trial)};
    core::DieEnvironment env;
    env.temperature = to_kelvin(Celsius{rng.uniform(0.0, 100.0)});
    const auto est = sensor.self_calibrate(env, &rng);
    EXPECT_TRUE(std::isfinite(est.temperature.value())) << trial;
  }
}

TEST(Fuzz, ThermalNetworkRandomWorkloadsStayFinite) {
  Rng rng{0xF124};
  const thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  for (int trial = 0; trial < 10; ++trial) {
    Rng wl_rng = rng.fork(trial);
    const thermal::Workload workload = thermal::Workload::random(
        cfg, wl_rng, 4, Watt{6.0}, Second{5e-3});
    workload.apply(network, Second{0.0});
    const auto steady = network.steady_state();
    for (double t : steady) {
      EXPECT_TRUE(std::isfinite(t));
      EXPECT_GE(t, network.config().ambient.value() - 1e-6);
      EXPECT_LT(t, 500.0);  // 6 W through ~2 K/W cannot melt the model
    }
    network.set_temperatures(steady);
    for (int step = 0; step < 5; ++step) {
      workload.apply(network, Second{step * 2e-3});
      network.step(Second{2e-3});
    }
    for (double t : network.temperatures()) EXPECT_TRUE(std::isfinite(t));
  }
}

TEST(Fuzz, MonotoneLutsAlwaysInvertRoundTrip) {
  Rng rng{0xF125};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    std::vector<double> values;
    double acc = rng.uniform(-10.0, 10.0);
    for (std::size_t i = 0; i < n; ++i) {
      acc += rng.uniform(0.01, 2.0);  // strictly increasing
      values.push_back(acc);
    }
    const calib::Lut1D lut{0.0, 1.0, values};
    ASSERT_TRUE(lut.is_monotone());
    for (int q = 0; q < 10; ++q) {
      const double x = rng.uniform(0.0, 1.0);
      EXPECT_NEAR(lut.invert(lut(x)), x, 1e-9);
    }
  }
}

TEST(Fuzz, PolyfitNeverDivergesOnTameData) {
  Rng rng{0xF126};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t degree =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    const std::size_t count =
        degree + 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<double> x;
    std::vector<double> y;
    const double offset = rng.uniform(-1e3, 1e3);
    for (std::size_t i = 0; i < count; ++i) {
      x.push_back(offset + static_cast<double>(i) * rng.uniform(0.1, 2.0));
      y.push_back(rng.gaussian(0.0, 10.0));
    }
    const calib::Polynomial p = calib::polyfit(x, y, degree);
    for (double xi : x) {
      EXPECT_TRUE(std::isfinite(p(xi)));
      EXPECT_LT(std::abs(p(xi)), 1e4);
    }
  }
}

TEST(Fuzz, VariationModelRandomPointSets) {
  Rng rng{0xF128};
  const device::Technology tech = device::Technology::tsmc65_like();
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    std::vector<process::Point> points;
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(0.0, 5e-3), rng.uniform(0.0, 5e-3)});
    }
    const process::VariationModel model{tech, points};
    const process::DieVariation die = model.sample_die(rng);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(die.at(i).nmos.value()));
      EXPECT_LT(std::abs(die.at(i).nmos.value()), 0.2);
    }
  }
}

}  // namespace
}  // namespace tsvpt
