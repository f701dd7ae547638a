// Microbenchmarks (google-benchmark): computational cost of the simulator's
// hot paths.  These are not paper artifacts; they document that the
// behavioral models are cheap enough for million-die Monte Carlo and
// real-time-scale thermal co-simulation.
#include <benchmark/benchmark.h>

#include "calib/linalg.hpp"
#include "circuit/ring_oscillator.hpp"
#include "core/pt_sensor.hpp"
#include "process/variation.hpp"
#include "thermal/network.hpp"

namespace {

using namespace tsvpt;

void BM_RoFrequency(benchmark::State& state) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto ro = circuit::RingOscillator::make(
      tech, circuit::RoTopology::kThermal);
  circuit::OperatingPoint op;
  op.vdd = Volt{1.0};
  op.temperature = Kelvin{330.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ro.frequency(op));
  }
}
BENCHMARK(BM_RoFrequency);

void BM_SelfCalibrate(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  env.vt_delta = {millivolts(15.0), millivolts(-10.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.self_calibrate(env, nullptr));
  }
}
BENCHMARK(BM_SelfCalibrate);

void BM_TrackingRead(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  (void)sensor.self_calibrate(env, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.read(env, nullptr));
  }
}
BENCHMARK(BM_TrackingRead);

// Supply-compensated reads on F5's top-die rail (9 mV static droop, 1 mV
// rms noise): the rail estimate moves every conversion, so each read
// confirms its table segment at that estimate.
void BM_TrackingReadCompensated(benchmark::State& state) {
  core::PtSensor::Config cfg;
  cfg.compensate_supply = true;
  core::PtSensor sensor{cfg, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  env.supply = circuit::SupplyRail{{Volt{1.0}, Volt{9e-3}, Volt{1e-3}}};
  Rng rng{2};
  (void)sensor.self_calibrate(env, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.read(env, &rng));
  }
}
BENCHMARK(BM_TrackingReadCompensated);

void BM_ThermalSteadyState(benchmark::State& state) {
  thermal::ThermalNetwork net{thermal::StackConfig::four_die_stack()};
  net.set_uniform_power(0, Watt{2.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.steady_state());
  }
}
BENCHMARK(BM_ThermalSteadyState);

void BM_ThermalTransientMillisecond(benchmark::State& state) {
  thermal::ThermalNetwork net{thermal::StackConfig::four_die_stack()};
  net.set_uniform_power(0, Watt{2.0});
  net.set_temperatures(net.steady_state());
  for (auto _ : state) {
    net.step(Second{1e-3});
    benchmark::DoNotOptimize(net.temperatures());
  }
}
BENCHMARK(BM_ThermalTransientMillisecond);

void BM_SpatialFieldSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({1e-4 * static_cast<double>(i % 10),
                      1e-4 * static_cast<double>(i / 10)});
  }
  const process::SpatialField field{points, 8e-3, 1e-3};
  Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.sample(rng));
  }
}
BENCHMARK(BM_SpatialFieldSample)->Arg(9)->Arg(36)->Arg(100);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  calib::Matrix a{n, n};
  calib::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
    a(i, i) += 4.0;
    b[i] = rng.gaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(calib::lu_solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(3)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
