// Heap allocations on the shard ingest path and in fleet construction,
// counted (calls and bytes) by replacing the global operator new.  The
// replacement applies to a whole program, so these tests are an executable
// of their own: in the main suite it would hide new/delete mismatches from
// the sanitizer jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/fault_detector.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"

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
  // Measured: 104,456 B per stack (four dies of 2x2 sites), so the bound
  // leaves 2.5x headroom.  A per-stack copy of a workload sized for a
  // million burst cycles requested ~0.8 GB.
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

}  // namespace
}  // namespace tsvpt::telemetry
