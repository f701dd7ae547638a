#include <gtest/gtest.h>

#include <cmath>

#include "core/field_estimator.hpp"
#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

// ------------------------------------------------------------ FieldEstimator

struct FieldFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites;
  std::unique_ptr<StackMonitor> monitor;

  explicit FieldFixture(std::size_t grid) {
    sites = StackMonitor::uniform_sites(cfg, grid, grid);
    std::vector<process::Point> points;
    for (std::size_t i = 0; i < grid * grid; ++i) {
      points.push_back(sites[i].location);
    }
    const process::VariationModel model{device::Technology::tsmc65_like(),
                                        points};
    Rng rng{17};
    for (std::size_t d = 0; d < cfg.die_count(); ++d) {
      const process::DieVariation die = model.sample_die(rng);
      for (std::size_t i = 0; i < grid * grid; ++i) {
        sites[d * grid * grid + i].vt_delta = die.at(i);
      }
    }
    monitor = std::make_unique<StackMonitor>(&network, PtSensor::Config{},
                                             sites, 23);
  }
};

TEST(FieldEstimator, UniformFieldReconstructsFlat) {
  FieldFixture fx{2};
  fx.network.set_uniform_temperature(Kelvin{320.0});
  fx.monitor->calibrate_all(nullptr);
  const auto sample = fx.monitor->sample_all(nullptr);
  const FieldEstimator estimator;
  const auto field = estimator.reconstruct(fx.network, 0, sample);
  for (double t : field) {
    EXPECT_NEAR(t, to_celsius(Kelvin{320.0}).value(), 2.5);
  }
}

TEST(FieldEstimator, ExactAtSensorSites) {
  FieldFixture fx{2};
  fx.network.set_uniform_power(0, Watt{2.0});
  fx.network.set_temperatures(fx.network.steady_state());
  fx.monitor->calibrate_all(nullptr);
  const auto sample = fx.monitor->sample_all(nullptr);
  const FieldEstimator estimator;
  for (const auto& reading : sample) {
    if (reading.die != 0) continue;
    EXPECT_DOUBLE_EQ(
        estimator.estimate_at(sample, 0, reading.location).value(),
        reading.sensed.value());
  }
}

TEST(FieldEstimator, EstimateBoundedByReadings) {
  FieldFixture fx{2};
  fx.network.add_hotspot(0, {1e-3, 1e-3}, Meter{0.5e-3}, Watt{3.0});
  fx.network.set_temperatures(fx.network.steady_state());
  fx.monitor->calibrate_all(nullptr);
  const auto sample = fx.monitor->sample_all(nullptr);
  double lo = 1e30;
  double hi = -1e30;
  for (const auto& r : sample) {
    if (r.die != 0) continue;
    lo = std::min(lo, r.sensed.value());
    hi = std::max(hi, r.sensed.value());
  }
  const FieldEstimator estimator;
  const auto field = estimator.reconstruct(fx.network, 0, sample);
  for (double t : field) {
    EXPECT_GE(t, lo - 1e-9);  // IDW is a convex combination
    EXPECT_LE(t, hi + 1e-9);
  }
}

TEST(FieldEstimator, DenserGridReconstructsBetter) {
  auto error_with_grid = [](std::size_t grid) {
    FieldFixture fx{grid};
    fx.network.add_hotspot(0, {1.2e-3, 3.6e-3}, Meter{0.6e-3}, Watt{4.0});
    fx.network.set_temperatures(fx.network.steady_state());
    fx.monitor->calibrate_all(nullptr);
    const auto sample = fx.monitor->sample_all(nullptr);
    return FieldEstimator{}.max_error(fx.network, 0, sample);
  };
  EXPECT_LT(error_with_grid(4), error_with_grid(1));
}

TEST(FieldEstimator, ThrowsWithoutReadings) {
  const FieldEstimator estimator;
  EXPECT_THROW((void)estimator.estimate_at({}, 0, {0.0, 0.0}),
               std::runtime_error);
}

TEST(FieldEstimator, SkipsDegradedReadings) {
  FieldFixture fx{2};
  fx.network.set_uniform_temperature(Kelvin{320.0});
  fx.monitor->calibrate_all(nullptr);
  auto sample = fx.monitor->sample_all(nullptr);
  // Corrupt one reading and mark it degraded: it must not pull the field.
  for (auto& r : sample) {
    if (r.die == 0) {
      r.sensed = Celsius{500.0};
      r.degraded = true;
      break;
    }
  }
  const FieldEstimator estimator;
  const auto field = estimator.reconstruct(fx.network, 0, sample);
  for (double t : field) EXPECT_LT(t, 60.0);
}

}  // namespace
}  // namespace tsvpt::core
