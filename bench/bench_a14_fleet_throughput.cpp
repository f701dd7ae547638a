// A14 [R]: fleet telemetry throughput and end-to-end latency.
//
// The production question behind the telemetry subsystem: how many stacks
// can one host monitor, and how does sampling scale with worker threads?
// Each row runs the same deterministic fleet (16 stacks x 24 scans, 16
// sensors each) on a different pool size while the aggregator drains
// concurrently, and reports wall time, frames/s, sites/s, speedup over one
// thread, ring drops, and collector-side capture-to-decode latency.
//
// Scaling expectation: stacks are independent (no shared mutable state), so
// frames/s should scale near-linearly until workers exceed physical cores;
// on an 8-core host 8 threads should clear 3x over 1 thread.  On fewer
// cores the speedup column saturates accordingly (the row count is still
// printed so CI on small runners stays meaningful).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "ptsim/table.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"

int main() {
  using namespace tsvpt;

  bench::banner("A14", "fleet telemetry throughput vs worker threads");
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  Table table{"16 stacks x 24 scans, 2x2 sites/die (64 sites/stack)"};
  table.add_column("threads", 0);
  table.add_column("wall s", 3);
  table.add_column("frames/s", 1);
  table.add_column("sites/s", 0);
  table.add_column("speedup", 2);
  table.add_column("drops", 0);
  table.add_column("lat p50 us", 1);
  table.add_column("lat p95 us", 1);

  double base_elapsed = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    telemetry::FleetSampler::Config cfg;
    cfg.stack_count = 16;
    cfg.thread_count = threads;
    cfg.scans_per_stack = 24;
    cfg.ring_capacity = 512;
    cfg.seed = 7;

    telemetry::FleetSampler sampler{cfg};
    telemetry::Aggregator aggregator{telemetry::Aggregator::Config{}};
    aggregator.start(sampler.rings());
    sampler.run();
    aggregator.stop();

    const auto& sum = aggregator.summary();
    const double elapsed = sampler.elapsed().value();
    if (threads == 1) base_elapsed = elapsed;
    const auto frames = static_cast<double>(sampler.total_frames());
    const double sites_per_frame = 4.0 * 2.0 * 2.0;
    table.add_row({static_cast<double>(threads), elapsed, frames / elapsed,
                   frames * sites_per_frame / elapsed,
                   base_elapsed / elapsed,
                   static_cast<double>(sampler.total_dropped()),
                   sum.latency.empty() ? 0.0 : sum.latency.quantile(0.5) * 1e6,
                   sum.latency.empty() ? 0.0
                                       : sum.latency.quantile(0.95) * 1e6});
  }
  bench::emit(table, "a14_fleet_throughput");
  return 0;
}
