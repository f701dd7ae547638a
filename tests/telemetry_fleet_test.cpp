#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"

namespace tsvpt::telemetry {
namespace {

FleetSampler::Config small_fleet() {
  FleetSampler::Config cfg;
  cfg.stack_count = 3;
  cfg.thread_count = 2;
  cfg.scans_per_stack = 5;
  cfg.grid_columns = 1;
  cfg.grid_rows = 1;
  cfg.ring_capacity = 64;
  cfg.seed = 11;
  return cfg;
}

TEST(FleetPipeline, EndToEndCountsAndStats) {
  FleetSampler sampler{small_fleet()};
  Aggregator aggregator{Aggregator::Config{}};
  aggregator.start(sampler.rings());
  sampler.run();
  aggregator.stop();

  const auto& sum = aggregator.summary();
  EXPECT_EQ(sampler.total_frames(), 15u);
  EXPECT_EQ(sampler.total_dropped(), 0u);  // ring far larger than the run
  EXPECT_EQ(sum.frames, 15u);
  EXPECT_EQ(sum.decode_errors, 0u);
  ASSERT_EQ(sum.stacks.size(), 3u);
  for (const auto& [stack_id, stats] : sum.stacks) {
    EXPECT_EQ(stats.frames, 5u) << "stack " << stack_id;
    EXPECT_EQ(stats.missed, 0u);
    ASSERT_EQ(stats.dies.size(), 4u);  // 1x1 grid on each of 4 dies
    for (const auto& [die, die_stats] : stats.dies) {
      EXPECT_EQ(die_stats.sensed_c.count(), 5u);
      // Sensible temperatures and paper-grade tracking accuracy.
      EXPECT_GT(die_stats.sensed_c.mean(), 15.0);
      EXPECT_LT(die_stats.sensed_c.mean(), 100.0);
      EXPECT_LT(std::abs(die_stats.error_c.mean()), 2.0) << "die " << die;
    }
  }
  EXPECT_EQ(sum.latency.count(), 15u);
  EXPECT_GT(sum.latency.quantile(0.5), 0.0);
}

TEST(FleetPipeline, FrameContentIndependentOfThreadCount) {
  // Stacks evolve from per-stack seeds, so threading must change only the
  // interleaving, never the telemetry itself.
  auto run_with = [](std::size_t threads) {
    FleetSampler::Config cfg = small_fleet();
    cfg.thread_count = threads;
    FleetSampler sampler{cfg};
    Aggregator aggregator{Aggregator::Config{}};
    aggregator.start(sampler.rings());
    sampler.run();
    aggregator.stop();
    return aggregator.summary();  // copy survives the aggregator
  };

  const Aggregator::Summary a = run_with(1);
  const Aggregator::Summary b = run_with(3);
  ASSERT_EQ(a.stacks.size(), b.stacks.size());
  for (const auto& [stack_id, stats_a] : a.stacks) {
    const auto& stats_b = b.stacks.at(stack_id);
    ASSERT_EQ(stats_a.dies.size(), stats_b.dies.size());
    for (const auto& [die, die_a] : stats_a.dies) {
      const auto& die_b = stats_b.dies.at(die);
      // Per-stack folds see that stack's frames in sequence order on both
      // runs, so the statistics match bit-for-bit.
      EXPECT_EQ(die_a.sensed_c.mean(), die_b.sensed_c.mean());
      EXPECT_EQ(die_a.sensed_c.max(), die_b.sensed_c.max());
      EXPECT_EQ(die_a.error_c.mean(), die_b.error_c.mean());
    }
  }
}

TEST(FleetPipeline, DropOldestAccountingUnderBackpressure) {
  // No collector while sampling: the tiny rings must evict, and every
  // produced frame must be accounted as received or dropped afterwards.
  FleetSampler::Config cfg = small_fleet();
  cfg.scans_per_stack = 20;
  cfg.ring_capacity = 2;
  FleetSampler sampler{cfg};
  sampler.run();

  EXPECT_GT(sampler.total_dropped(), 0u);

  Aggregator aggregator{Aggregator::Config{}};
  aggregator.start(sampler.rings());
  aggregator.stop();  // drains what is left, then joins

  const auto& sum = aggregator.summary();
  EXPECT_EQ(sum.frames + sampler.total_dropped(), sampler.total_frames());
  // The collector sees the per-stack sequence gaps the drops created.
  std::uint64_t missed = 0;
  for (const auto& [stack_id, stats] : sum.stacks) missed += stats.missed;
  EXPECT_EQ(missed, sampler.total_dropped());
}

TEST(FleetPipeline, AlertCallbackMatchesSummary) {
  Aggregator::Config alert_cfg;
  alert_cfg.alert_threshold = Celsius{1.0};  // everything alerts once

  std::atomic<std::uint64_t> delivered{0};
  FleetSampler sampler{small_fleet()};
  Aggregator aggregator{alert_cfg, [&](const Alert& alert) {
                          EXPECT_LT(alert.stack_id, 3u);
                          delivered.fetch_add(1, std::memory_order_relaxed);
                        }};
  aggregator.start(sampler.rings());
  sampler.run();
  aggregator.stop();

  const auto& sum = aggregator.summary();
  EXPECT_GT(sum.alerts, 0u);
  EXPECT_EQ(delivered.load(std::memory_order_relaxed), sum.alerts);
  // Edge-triggered: one over-temperature alert per site, not per frame.
  EXPECT_EQ(sum.alerts_by_kind.at(AlertKind::kOverTemperature),
            3u * 4u);  // 3 stacks x 4 sites all sit above 1 C
}

// ---- Synthetic-frame aggregation logic (no sampler, fully deterministic).

Frame synthetic_frame(std::uint32_t stack, std::uint64_t seq, double t_s,
                      const std::vector<double>& sensed_c,
                      const std::vector<bool>& degraded = {}) {
  Frame frame;
  frame.stack_id = stack;
  frame.sequence = seq;
  frame.sim_time = Second{t_s};
  for (std::size_t i = 0; i < sensed_c.size(); ++i) {
    core::StackMonitor::SiteReading r;
    r.site_index = i;
    r.die = 0;
    // A 3x3 grid so the spatial cross-check has neighbours to lean on.
    r.location = {1e-3 * static_cast<double>(i % 3),
                  1e-3 * static_cast<double>(i / 3)};
    r.sensed = Celsius{sensed_c[i]};
    r.truth = Celsius{sensed_c[i]};
    r.degraded = i < degraded.size() && degraded[i];
    frame.readings.push_back(r);
  }
  return frame;
}

TEST(FleetAggregation, OverTemperatureIsEdgeTriggered) {
  Aggregator::Config cfg;
  cfg.alert_threshold = Celsius{80.0};
  cfg.spatial_check = false;
  Aggregator agg{cfg};

  agg.ingest(encode(synthetic_frame(0, 0, 0.001, {90.0})));  // crossing: fire
  agg.ingest(encode(synthetic_frame(0, 1, 0.002, {91.0})));  // still high
  agg.ingest(encode(synthetic_frame(0, 2, 0.003, {30.0})));  // re-arm
  agg.ingest(encode(synthetic_frame(0, 3, 0.004, {92.0})));  // fire again
  EXPECT_EQ(agg.summary().alerts_by_kind.at(AlertKind::kOverTemperature), 2u);
}

TEST(FleetAggregation, RunawayRateDetected) {
  Aggregator::Config cfg;
  cfg.runaway_rate = 400.0;  // degC/s
  cfg.spatial_check = false;
  Aggregator agg{cfg};

  agg.ingest(encode(synthetic_frame(0, 0, 0.010, {30.0})));
  agg.ingest(encode(synthetic_frame(0, 1, 0.020, {33.0})));  // 300 C/s: ok
  agg.ingest(encode(synthetic_frame(0, 2, 0.030, {40.0})));  // 700 C/s: fire
  const auto& sum = agg.summary();
  ASSERT_EQ(sum.alerts_by_kind.count(AlertKind::kThermalRunaway), 1u);
  EXPECT_EQ(sum.alerts_by_kind.at(AlertKind::kThermalRunaway), 1u);
}

TEST(FleetAggregation, DeadSensorNeedsConsecutiveDegradedScans) {
  Aggregator::Config cfg;
  cfg.dead_scan_limit = 3;
  cfg.spatial_check = false;
  Aggregator agg{cfg};

  agg.ingest(encode(synthetic_frame(0, 0, 0.001, {30.0}, {true})));
  agg.ingest(encode(synthetic_frame(0, 1, 0.002, {30.0}, {false})));  // reset
  agg.ingest(encode(synthetic_frame(0, 2, 0.003, {30.0}, {true})));
  agg.ingest(encode(synthetic_frame(0, 3, 0.004, {30.0}, {true})));
  EXPECT_EQ(agg.summary().alerts_by_kind.count(AlertKind::kDeadSensor), 0u);
  agg.ingest(encode(synthetic_frame(0, 4, 0.005, {30.0}, {true})));  // third
  EXPECT_EQ(agg.summary().alerts_by_kind.at(AlertKind::kDeadSensor), 1u);
}

TEST(FleetAggregation, SpatialOutlierFlagged) {
  Aggregator agg{Aggregator::Config{}};
  // A 3x3 die at 30 C with one sensor reading 55 C: spatially impossible,
  // exactly what core::FaultDetector exists to catch.
  std::vector<double> sensed(9, 30.0);
  sensed[4] = 55.0;
  agg.ingest(encode(synthetic_frame(0, 0, 0.001, sensed)));
  const auto& sum = agg.summary();
  ASSERT_EQ(sum.alerts_by_kind.count(AlertKind::kSpatialSuspect), 1u);
  EXPECT_GE(sum.alerts_by_kind.at(AlertKind::kSpatialSuspect), 1u);
}

TEST(FleetAggregation, SequenceGapsCountAsMissed) {
  Aggregator agg{Aggregator::Config{}};
  agg.ingest(encode(synthetic_frame(7, 0, 0.001, {30.0})));
  agg.ingest(encode(synthetic_frame(7, 3, 0.002, {30.0})));  // lost 1, 2
  agg.ingest(encode(synthetic_frame(7, 4, 0.003, {30.0})));
  EXPECT_EQ(agg.summary().stacks.at(7).missed, 2u);
  EXPECT_EQ(agg.summary().stacks.at(7).frames, 3u);
}

TEST(FleetAggregation, WireIdsAreKeysNotIndexesAndRunawayKeepsDieOrder) {
  // stack_id and die are any u32 off the wire; a stack's site count may
  // grow between frames.  Runaway is judged per die in ascending die order
  // whatever the order the frame lists them in.
  Aggregator::Config cfg;
  cfg.spatial_check = false;
  std::vector<Alert> alerts;
  Aggregator agg{cfg, [&](const Alert& a) { alerts.push_back(a); }};
  const std::uint32_t stack = 0xFFFFFFFFu;
  const std::size_t dies[] = {0xFFFFFFFFu, 7, 0xFFFF0000u, 7};
  auto frame = [&](std::uint64_t seq, std::size_t sites, double t_c) {
    const double t_s = 0.01 * static_cast<double>(seq + 1);
    Frame f = synthetic_frame(stack, seq, t_s, std::vector<double>(sites, t_c));
    for (std::size_t i = 0; i < sites; ++i) f.readings[i].die = dies[i % 4];
    return f;
  };
  agg.ingest(encode(frame(0, 2, 30.0)));
  agg.ingest(encode(frame(1, 4, 31.0)));
  agg.ingest(encode(frame(2, 4, 60.0)));  // 2900 C/s on every die
  const auto& sum = agg.summary();
  EXPECT_EQ(sum.decode_errors, 0u);
  ASSERT_EQ(sum.stacks.count(stack), 1u);
  const auto& stats = sum.stacks.at(stack);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.missed, 0u);
  ASSERT_EQ(stats.dies.size(), 3u);
  EXPECT_EQ(stats.dies.at(7).sensed_c.count(), 1u + 2u + 2u);
  ASSERT_EQ(alerts.size(), 3u);
  const std::size_t ascending[] = {7, 0xFFFF0000u, 0xFFFFFFFFu};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(alerts[i].kind, AlertKind::kThermalRunaway);
    EXPECT_EQ(alerts[i].stack_id, stack);
    EXPECT_EQ(alerts[i].die, ascending[i]);
  }
}

TEST(FleetAggregation, GarbageCountsAsDecodeError) {
  Aggregator agg{Aggregator::Config{}};
  agg.ingest(std::vector<std::uint8_t>{1, 2, 3});
  std::vector<std::uint8_t> corrupt = encode(synthetic_frame(0, 0, 0.0, {30.0}));
  corrupt[corrupt.size() / 2] ^= 0xFF;
  agg.ingest(corrupt);
  EXPECT_EQ(agg.summary().decode_errors, 2u);
  EXPECT_EQ(agg.summary().frames, 0u);
}

}  // namespace
}  // namespace tsvpt::telemetry
