// Heap allocations on the shard ingest path, in fleet construction, in the
// thermal substep and in tracking reads, counted (calls and bytes) by
// replacing the global operator new.  The replacement applies to a whole
// program, so these tests are an executable of their own: in the main
// suite it would hide new/delete mismatches from the sanitizer jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "control/controller.hpp"
#include "control/stack_loop.hpp"
#include "circuit/supply.hpp"
#include "core/fault_detector.hpp"
#include "core/pt_sensor.hpp"
#include "core/stack_monitor.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::size_t allocated_bytes() { return g_bytes.load(std::memory_order_relaxed); }

// Out of line so that operator new stays small enough to inline: GCC then
// sees its malloc paired with operator delete's free and does not report
// -Wmismatched-new-delete where a new-expression's cleanup frees.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tsvpt::telemetry {
namespace {

/// An ingest_fanin-shaped scan: four dies of 4x4 sites, smooth and healthy.
/// No capture stamp, so ingest keeps no latency sample (that vector grows
/// by amortized doubling, which is not the per-frame cost measured here).
Frame clean_frame(std::uint64_t sequence) {
  Frame frame;
  frame.stack_id = 3;
  frame.sequence = sequence;
  frame.sim_time = Second{1e-3 * static_cast<double>(sequence + 1)};
  for (std::size_t i = 0; i < 64; ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = i / 16;
    const double x = static_cast<double>(i % 4);
    const double y = static_cast<double>(i % 16 / 4);
    r.location = {1.2e-3 * (x + 0.5), 1.2e-3 * (y + 0.5)};
    r.sensed = Celsius{45.0 + 5.0 * static_cast<double>(r.die) + 0.4 * x -
                       0.3 * y + 0.01 * static_cast<double>(sequence % 7)};
    r.truth = r.sensed;
    frame.readings.push_back(r);
  }
  return frame;
}

TEST(AllocationCount, WarmedCleanIngestOf64SitesAllocatesAtMostTwice) {
  // One allocation for the decoded readings, one for the verdicts.
  Aggregator aggregator{Aggregator::Config{}};
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    aggregator.ingest(encode(clean_frame(seq)));
  }
  for (std::uint64_t seq = 4; seq < 40; ++seq) {
    const std::vector<std::uint8_t> wire = encode(clean_frame(seq));
    const std::size_t before = allocations();
    aggregator.ingest(wire);
    EXPECT_LE(allocations() - before, 2u) << "frame " << seq;
  }
  EXPECT_EQ(aggregator.summary().frames, 40u);
  EXPECT_EQ(aggregator.summary().alerts, 0u);
}

TEST(AllocationCount, AnalyzeOnAKnownLayoutAllocatesOnlyItsVerdicts) {
  core::FaultDetector detector;
  const Frame first = clean_frame(0);
  (void)detector.analyze(first.readings);
  const Frame next = clean_frame(1);
  const std::size_t before = allocations();
  const auto verdicts = detector.analyze(next.readings);
  EXPECT_EQ(allocations() - before, 1u);
  EXPECT_EQ(verdicts.size(), 64u);
}

/// Bytes requested while a default sampler of `stacks` stacks is built and
/// torn down.  One worker, so every size has the same rings (their
/// over-aligned cells bypass the counting operator new anyway).
std::size_t construction_bytes(std::size_t stacks) {
  FleetSampler::Config config;
  config.stack_count = stacks;
  config.thread_count = 1;
  const std::size_t before = allocated_bytes();
  { const FleetSampler sampler{config}; }
  return allocated_bytes() - before;
}

TEST(AllocationCount, FleetConstructionBytesPerStackAreBounded) {
  // Measured: 88,776 B per stack (four dies of 2x2 sites; the network
  // records one flat list of links, sized once, and packs it into its
  // sliced edge arrays), so the bound leaves 2.9x headroom.  A per-stack
  // copy of a workload sized for a million burst cycles requested ~0.8 GB.
  constexpr std::size_t kPerStackBound = 256 * 1024;
  (void)construction_bytes(1);  // first-use statics stay out of the count
  const std::size_t one = construction_bytes(1);
  // One stack over the per-stack bound would make 64 of them exhaust the
  // host long before the comparison below could fail.
  ASSERT_LT(one, kPerStackBound) << "one stack requests " << one << " B";
  const std::size_t many = construction_bytes(64);
  const std::size_t per_stack = (many - one) / 63;
  std::printf("fleet construction: %zu B for 1 stack, %zu B per further "
              "stack\n", one, per_stack);
  EXPECT_LT(per_stack, kPerStackBound);
}

/// Die `hot` over the migration trip, die 1 the coolest: the policy answers
/// with a move from the hot die to die 1 and per-die rungs.
control::StackObservation hot_die(std::size_t dies, std::size_t hot) {
  control::StackObservation obs;
  obs.dies.resize(dies);
  for (std::size_t d = 0; d < dies; ++d) {
    obs.dies[d].die = d;
    obs.dies[d].credible_sites = 4;
    obs.dies[d].total_sites = 4;
    const double c = d == hot ? 90.0 : d == 1 ? 55.0 : 65.0;
    obs.dies[d].max_sensed = Celsius{c};
    obs.dies[d].mean_sensed = Celsius{c};
  }
  return obs;
}

TEST(AllocationCount, WarmedSubstepsAllocateNothing) {
  // FleetSampler's shape: 1 ms scans of four 0.25 ms substeps on
  // four_die_stack() under the default burst/idle load, whose phase changes
  // every 25 ms.  The counted 1,000 scans cross 40 phase changes, each of
  // which reprograms the map through Workload::apply.  Under the controller
  // the hot die also swaps every 50 scans, so the held actuation changes
  // inside the window and the actuated map is rebuilt; the decisions
  // themselves allocate and are left out of the count.
  const thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  const thermal::Workload workload = thermal::Workload::burst_idle(
      cfg, Watt{5.0}, Watt{0.25}, Second{50e-3});
  const Second period{1e-3};
  const Second step{0.25e-3};
  for (const bool controlled : {false, true}) {
    thermal::ThermalNetwork network{cfg};
    core::StackMonitor monitor{&network, core::PtSensor::Config{},
                               core::StackMonitor::uniform_sites(cfg, 2, 2),
                               44};
    Rng noise{7};
    control::Controller::Config control;
    control.kind = control::PolicyKind::kMigration;
    control::Controller controller{control, cfg.die_count()};
    control::StackLoop loop{network, workload, monitor, noise, nullptr,
                            controlled ? &controller : nullptr};
    loop.power_on(false);
    if (controlled) {
      controller.on_observation(hot_die(cfg.die_count(), 0));
      ASSERT_EQ(controller.actuation().migrations.size(), 1u);
    }
    Second now{0.0};
    for (int scan = 0; scan < 100; ++scan) {  // two periods: every phase
      loop.advance(now, period, step);
      now += period;
    }
    std::size_t phase_changes = 0;
    std::size_t phase = workload.phase_at(now - step);
    const std::uint64_t changes = controller.actuation_changes();
    std::size_t made = 0;
    for (int scan = 0; scan < 1000; ++scan) {
      if (controlled && scan % 50 == 25) {
        controller.on_observation(
            hot_die(cfg.die_count(), scan / 50 % 2 == 0 ? 3 : 0));
      }
      const std::size_t before = allocations();
      loop.advance(now, period, step);
      made += allocations() - before;
      for (int k = 0; k < 4; ++k) {
        const std::size_t next = workload.phase_at(now + step * k);
        phase_changes += next != phase ? 1 : 0;
        phase = next;
      }
      now += period;
    }
    EXPECT_EQ(made, 0u) << (controlled ? "migration controller" : "open loop");
    EXPECT_GE(phase_changes, 40u);
    if (controlled) {
      EXPECT_GE(controller.actuation_changes() - changes, 10u);
    }
  }
}

TEST(AllocationCount, TrackingReadsAllocateNothing) {
  // Both supply modes, on a noisy drooping rail, from a fresh latch (the
  // first pass fills the table rows its reads visit) through a filled
  // table, counts past both box ends included.  Self-calibration allocates
  // and is left out; one read before the count creates the metric handles
  // a conversion adds to.
  for (const bool compensated : {false, true}) {
    core::PtSensor::Config cfg;
    cfg.compensate_supply = compensated;
    core::PtSensor sensor{cfg, 9};
    core::DieEnvironment env;
    env.vt_delta = {millivolts(12.0), millivolts(-7.0)};
    env.supply = circuit::SupplyRail{{Volt{1.0}, Volt{9e-3}, Volt{1e-3}}};
    Rng noise{3};
    const core::DieEnvironment power_on = env.at_celsius(Celsius{30.0});
    (void)sensor.self_calibrate(power_on, &noise);
    (void)sensor.read(power_on, &noise);
    (void)sensor.self_calibrate(power_on, &noise);
    std::size_t reads = 0;
    std::size_t made = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (double t = -45.0; t <= 145.0; t += 0.5, ++reads) {
        const core::DieEnvironment at = env.at_celsius(Celsius{t});
        const std::size_t before = allocations();
        (void)sensor.read(at, &noise);
        made += allocations() - before;
      }
    }
    EXPECT_EQ(reads, 762u);
    EXPECT_EQ(made, 0u) << (compensated ? "compensated" : "uncompensated");
  }
}

}  // namespace
}  // namespace tsvpt::telemetry
