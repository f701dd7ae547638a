// A17 [R]: self-observability overhead on the fleet sampling hot path.
//
// The observability layer's contract is "cheap enough to leave on": every
// frame pays a handful of relaxed atomic ops (counters), four histogram
// observations, and four flight-recorder span publishes.  This bench prices
// that contract: the same deterministic fleet runs with observability fully
// enabled and fully disabled, interleaved A/B/A/B so thermal drift and
// frequency scaling hit both sides equally, taking the best wall time per
// side (the standard best-of-N noise filter for throughput gates).
//
// Gate: enabled throughput must be within 5% of disabled throughput
// (--smoke loosens to 25% and shrinks the fleet for sanitizer/CI runners,
// where scheduling noise dwarfs the real cost).  Exit 1 on a miss, so CI
// fails when someone adds a hot-path span that is not actually cheap.
// Each timed run lasts >= 100 ms in smoke mode and >= 0.5 s in full mode on
// a 4-core x86 box (4 x 3000 and 12 x 4000 frames): a few-ms window reads
// scheduler noise, not the observability cost.
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ptsim/table.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"

namespace {

using namespace tsvpt;

/// One full fleet run; returns sampler wall time in seconds.
double run_fleet(std::size_t stacks, std::size_t scans) {
  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = stacks;
  cfg.thread_count = 4;
  cfg.scans_per_stack = scans;
  cfg.ring_capacity = 1024;
  cfg.seed = 13;

  telemetry::FleetSampler sampler{cfg};
  telemetry::Aggregator aggregator{telemetry::Aggregator::Config{}};
  aggregator.start(sampler.rings());
  sampler.run();
  aggregator.stop();
  return sampler.elapsed().value();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t stacks = smoke ? 4 : 12;
  const std::size_t scans = smoke ? 3000 : 4000;
  const int reps = smoke ? 3 : 5;
  const double gate = smoke ? 0.25 : 0.05;

  bench::banner("A17", "self-observability overhead on fleet sampling");
  std::printf("hardware threads: %u, mode: %s\n\n",
              std::thread::hardware_concurrency(),
              smoke ? "smoke" : "full");

  double best_on = 1e300;
  double best_off = 1e300;
  for (int r = 0; r < reps; ++r) {
    for (const bool enabled : {true, false}) {
      obs::set_enabled(enabled);
      obs::Registry::instance().reset_values();
      obs::FlightRecorder::instance().clear();
      const double elapsed = run_fleet(stacks, scans);
      (enabled ? best_on : best_off) =
          std::min(enabled ? best_on : best_off, elapsed);
    }
  }
  obs::set_enabled(true);

  const double frames =
      static_cast<double>(stacks) * static_cast<double>(scans);
  const double tput_on = frames / best_on;
  const double tput_off = frames / best_off;
  const double overhead = tput_off / tput_on - 1.0;

  Table table{"best-of-" + std::to_string(reps) + ", " +
              std::to_string(stacks) + " stacks x " + std::to_string(scans) +
              " scans, 4 workers, 16 sites/stack"};
  table.add_column("obs", 0);
  table.add_column("wall s", 4);
  table.add_column("frames/s", 1);
  table.add_row({1.0, best_on, tput_on});
  table.add_row({0.0, best_off, tput_off});
  bench::emit(table, "a17_obs_overhead");

  std::printf("overhead: %.2f%% (gate %.0f%%)\n", overhead * 100.0,
              gate * 100.0);
  if (overhead > gate) {
    std::fprintf(stderr,
                 "A17 FAIL: observability costs %.2f%% of sampler "
                 "throughput (gate %.0f%%)\n",
                 overhead * 100.0, gate * 100.0);
    return 1;
  }
  return 0;
}
