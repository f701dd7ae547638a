// Microbenchmarks (google-benchmark): computational cost of the simulator's
// hot paths.  These are not paper artifacts; they document that the
// behavioral models are cheap enough for million-die Monte Carlo and
// real-time-scale thermal co-simulation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "calib/linalg.hpp"
#include "circuit/ring_oscillator.hpp"
#include "control/controller.hpp"
#include "control/stack_loop.hpp"
#include "core/fault_detector.hpp"
#include "core/pt_sensor.hpp"
#include "core/stack_monitor.hpp"
#include "obs/metrics.hpp"
#include "process/variation.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/codec_util.hpp"
#include "telemetry/frame.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace {

using namespace tsvpt;

std::uint64_t model_evals() {
  return obs::counter("tsvpt_sensor_model_evals_total").value();
}

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

/// Model evaluations tracking reads made since `since`, table rows
/// included, averaged over the benchmark's `reads_per_iteration` reads.
benchmark::Counter evals_per_read(std::uint64_t since,
                                  double reads_per_iteration) {
  const std::uint64_t evals = model_evals() - since;
  return benchmark::Counter(static_cast<double>(evals) / reads_per_iteration,
                            benchmark::Counter::kAvgIterations);
}

void BM_TrackingRead(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  (void)sensor.self_calibrate(env, nullptr);
  const std::uint64_t before = model_evals();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.read(env, nullptr));
  }
  state.counters["evals_per_read"] = evals_per_read(before, 1.0);
}
BENCHMARK(BM_TrackingRead);

// `tsvpt_cli mc`'s pattern: a fresh latch, then reads at 10, 50 and 90 degC.
// The latch (a full self-calibration) runs with the timer paused, so an
// iteration times the three reads and the table rows they fill.
void BM_TrackingReadShortLatch(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.vt_delta = {millivolts(10.0), millivolts(-8.0)};
  env.temperature = to_kelvin(Celsius{30.0});
  const std::uint64_t before = model_evals();
  for (auto _ : state) {
    state.PauseTiming();
    (void)sensor.self_calibrate(env, nullptr);
    state.ResumeTiming();
    for (const double t : {10.0, 50.0, 90.0}) {
      const core::DieEnvironment at = env.at_celsius(Celsius{t});
      benchmark::DoNotOptimize(sensor.read(at, nullptr));
    }
  }
  state.counters["evals_per_read"] = evals_per_read(before, 3.0);
}
BENCHMARK(BM_TrackingReadShortLatch);

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

/// Assembling four_die_stack()'s network (what every stack pays at fleet
/// construction, and perfbench counts in setup_s).
void BM_ThermalNetworkBuild(benchmark::State& state) {
  const thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  for (auto _ : state) {
    thermal::ThermalNetwork net{cfg};
    benchmark::DoNotOptimize(net.stable_substep());
  }
}
BENCHMARK(BM_ThermalNetworkBuild);

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

/// One FleetSampler stack: four_die_stack() under the fleet's default
/// burst/idle load (5 W bursts, 0.25 W idle, 50 ms period), sensed on a 2x2
/// grid per die, looped open or under `controller`.
struct FleetStack {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::Workload workload = thermal::Workload::burst_idle(
      cfg, Watt{5.0}, Watt{0.25}, Second{50e-3});
  thermal::ThermalNetwork network{cfg};
  core::StackMonitor monitor{&network, core::PtSensor::Config{},
                             core::StackMonitor::uniform_sites(cfg, 2, 2), 1};
  Rng noise{1};
  control::StackLoop loop;

  explicit FleetStack(control::Controller* controller)
      : loop(network, workload, monitor, noise, nullptr, controller) {
    loop.power_on(true);
  }
};

/// One workload-programmed 0.25 ms substep, as FleetSampler runs it: the
/// clock runs on across iterations, so the burst/idle phase changes once
/// every 100 substeps.
void BM_ThermalSubstepFleetShape(benchmark::State& state) {
  FleetStack stack{nullptr};
  const Second step{0.25e-3};
  Second now{0.0};
  for (auto _ : state) {
    stack.loop.substep(now, step);
    now += step;
    benchmark::DoNotOptimize(stack.network.temperatures().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ThermalSubstepFleetShape);

/// One 1 ms advance (four substeps) under a migration controller holding a
/// move from the hot bottom die and a rung per die, with the tick
/// accounting a controlled fleet or run_closed_loop pays.
void BM_StackLoopAdvanceControlled(benchmark::State& state) {
  control::Controller::Config config;
  config.kind = control::PolicyKind::kMigration;
  control::Controller controller{config, 4};
  control::StackObservation obs;
  obs.dies.resize(4);
  for (std::size_t d = 0; d < 4; ++d) {
    obs.dies[d].die = d;
    obs.dies[d].credible_sites = 4;
    obs.dies[d].total_sites = 4;
    obs.dies[d].max_sensed = Celsius{d == 0 ? 90.0 : d == 1 ? 55.0 : 65.0};
  }
  controller.on_observation(obs);
  FleetStack stack{&controller};
  const Second period{1e-3};
  Second now{0.0};
  for (auto _ : state) {
    stack.loop.advance(now, period, Second{0.25e-3});
    now += period;
    benchmark::DoNotOptimize(stack.network.temperatures().data());
    benchmark::ClobberMemory();
  }
  if (controller.actuation().migrations.empty()) {
    state.SkipWithError("the controller holds no move");
  }
}
BENCHMARK(BM_StackLoopAdvanceControlled);

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

/// A 64-site scan shaped like perfbench's ingest_fanin frames: four dies of
/// 4x4 sites over 5 mm, healthy readings around 55 degC, no capture stamp.
/// `shift` moves every site, giving another layout.
telemetry::Frame fanin_frame(std::uint32_t stack, std::uint64_t sequence,
                             Rng& rng, double shift = 0.0) {
  telemetry::Frame frame;
  frame.stack_id = stack;
  frame.sequence = sequence;
  frame.sim_time = Second{1e-3 * static_cast<double>(sequence)};
  for (std::size_t s = 0; s < 64; ++s) {
    core::StackMonitor::SiteReading r;
    r.site_index = s;
    r.die = s / 16;
    r.location = {5e-3 * (static_cast<double>(s % 16 / 4) + 0.5) / 4 + shift,
                  5e-3 * (static_cast<double>(s % 4) + 0.5) / 4};
    r.truth = Celsius{55.0 + 2.0 * static_cast<double>(3 - r.die) +
                      rng.uniform(-1.0, 1.0)};
    r.sensed = Celsius{r.truth.value() + rng.gaussian(0.0, 0.4)};
    r.energy = Joule{367.5e-12};
    frame.readings.push_back(r);
  }
  return frame;
}

/// The shard aggregator's spatial check on one 64-site frame, with the
/// layout of the scan before (every perfbench workload's case).
void BM_FaultDetectorAnalyze64(benchmark::State& state) {
  Rng rng{3};
  const telemetry::Frame frame = fanin_frame(0, 0, rng);
  core::FaultDetector detector{telemetry::Aggregator::Config{}.fault};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(frame.readings));
  }
}
BENCHMARK(BM_FaultDetectorAnalyze64);

/// The weight table's worst case: two layouts alternate, so every scan's
/// layout differs from the one before.
void BM_FaultDetectorAnalyze64NewLayout(benchmark::State& state) {
  Rng rng{3};
  const telemetry::Frame frames[] = {fanin_frame(0, 0, rng),
                                     fanin_frame(0, 1, rng, 1e-5)};
  core::FaultDetector detector{telemetry::Aggregator::Config{}.fault};
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(frames[next].readings));
    next ^= 1;
  }
}
BENCHMARK(BM_FaultDetectorAnalyze64NewLayout);

/// Aggregator::ingest of encoded 64-site frames (decode, fold, alerts and
/// the spatial check), round-robin over 256 stacks.
void BM_AggregatorIngest64(benchmark::State& state) {
  Rng rng{4};
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    for (std::uint32_t stack = 0; stack < 256; ++stack) {
      wire.push_back(telemetry::encode(fanin_frame(stack, seq, rng)));
    }
  }
  telemetry::Aggregator aggregator{telemetry::Aggregator::Config{}};
  std::size_t next = 0;
  for (auto _ : state) {
    aggregator.ingest(wire[next]);
    next = (next + 1) % wire.size();
  }
  benchmark::DoNotOptimize(aggregator.summary().frames);
}
BENCHMARK(BM_AggregatorIngest64);

/// The wire encode of one scan of the first `sites` sites of an
/// ingest_fanin-shaped scan: 16 is a fleet stack's site count, 64 an
/// ingest_fanin stack's.
void BM_EncodeFrame(benchmark::State& state, std::size_t sites) {
  Rng rng{6};
  telemetry::Frame frame = fanin_frame(1, 7, rng);
  frame.readings.resize(sites);
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::encode(frame));
  }
}
void BM_EncodeFrame16(benchmark::State& state) { BM_EncodeFrame(state, 16); }
void BM_EncodeFrame64(benchmark::State& state) { BM_EncodeFrame(state, 64); }
BENCHMARK(BM_EncodeFrame16);
BENCHMARK(BM_EncodeFrame64);

/// CRC-32 over 3,250 bytes, about one encoded 64-site frame.
void BM_Crc32Frame(benchmark::State& state) {
  Rng rng{5};
  std::vector<std::uint8_t> bytes(3250);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32Frame);

}  // namespace

BENCHMARK_MAIN();
