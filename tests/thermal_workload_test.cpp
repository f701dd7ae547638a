#include "thermal/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsvpt::thermal {
namespace {

StackConfig two_die_stack() {
  StackConfig cfg;
  DieGeometry die;
  die.nx = 4;
  die.ny = 4;
  cfg.dies.assign(2, die);
  cfg.bonds.assign(1, BondLayer{});
  return cfg;
}

Workload simple_workload() {
  WorkloadPhase a;
  a.name = "a";
  a.duration = Second{1e-3};
  a.directives.push_back(
      {PowerDirective::Kind::kUniform, 0, Watt{1.0}, {}, Meter{0.0}});
  WorkloadPhase b;
  b.name = "b";
  b.duration = Second{2e-3};
  b.directives.push_back(
      {PowerDirective::Kind::kUniform, 1, Watt{0.5}, {}, Meter{0.0}});
  return Workload{{a, b}};
}

TEST(Workload, Period) {
  EXPECT_DOUBLE_EQ(simple_workload().period().value(), 3e-3);
}

TEST(Workload, PhaseAtWrapsEveryPeriod) {
  const Workload w = simple_workload();
  EXPECT_EQ(w.phase_at(Second{0.0}), 0u);
  EXPECT_EQ(w.phase_at(Second{0.9e-3}), 0u);
  EXPECT_EQ(w.phase_at(Second{1.0e-3}), 1u);
  EXPECT_EQ(w.phase_at(Second{2.9e-3}), 1u);
  // Past the end the list starts over instead of holding its last phase.
  EXPECT_EQ(w.phase_at(Second{3.5e-3}), 0u);
  for (const double t : {0.1e-3, 0.5e-3, 0.9e-3, 1.1e-3, 2.0e-3, 2.9e-3}) {
    for (const double k : {1.0, 2.0, 7.0, 1e3, 123456.0, 1e6}) {
      EXPECT_EQ(w.phase_at(Second{t + k * w.period().value()}),
                w.phase_at(Second{t}))
          << "t = " << t << ", k = " << k;
    }
  }
}

/// Reference lookup over an explicit list unrolled for the whole run:
/// subtract the phase durations one by one from t.
std::size_t unrolled_phase_at(const std::vector<double>& durations, double t) {
  double remaining = t;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    remaining -= durations[i];
    if (remaining < 0.0) return i;
  }
  return durations.size() - 1;
}

TEST(Workload, PeriodicLookupMatchesRepeatedSubtractionAwayFromBoundaries) {
  // FleetSampler's defaults: 50 ms burst/idle cycles (25 ms phases),
  // scanned every 1 ms in 0.25 ms thermal substeps, here for 20 s.
  const Second cycle{50e-3};
  const Second sample_period{1e-3};
  const Second thermal_step{2.5e-4};
  const Workload w = Workload::burst_idle(StackConfig::four_die_stack(),
                                          Watt{5.0}, Watt{0.25}, cycle);
  ASSERT_EQ(w.phases().size(), 4u);
  const double phase = 0.5 * cycle.value();
  const std::size_t scans = 20000;
  const std::vector<double> unrolled(800, phase);  // 20 s of phases

  std::size_t instants = 0;
  std::size_t disagreements = 0;
  // Substep instants accumulated exactly as the worker (now += period) and
  // StackLoop::advance (now + advanced, advanced += h) accumulate them.
  Second now{0.0};
  for (std::size_t scan = 0; scan < scans; ++scan) {
    Second advanced{0.0};
    while (advanced < sample_period) {
      const Second h = std::min(thermal_step, sample_period - advanced);
      if (h.value() <= 0.0) break;
      const Second t = now + advanced;
      ++instants;
      const std::size_t expected = unrolled_phase_at(unrolled, t.value()) % 4;
      if (w.phase_at(t) != expected) {
        ++disagreements;
        const double distance =
            std::abs(t.value() - std::round(t.value() / phase) * phase);
        EXPECT_LT(distance, 1e-12) << "t = " << t.value();
      }
      advanced += h;
    }
    now += sample_period;
  }
  EXPECT_EQ(instants, 4 * scans);
  // Only instants that land on a phase boundary, give or take the rounding
  // of the accumulated clock, may pick the other neighbour.
  EXPECT_EQ(disagreements, 5u);
}

TEST(Workload, EmptyWorkloadThrows) {
  const Workload empty;
  EXPECT_DOUBLE_EQ(empty.period().value(), 0.0);
  EXPECT_THROW((void)empty.phase_at(Second{0.0}), std::logic_error);
  ThermalNetwork net{two_die_stack()};
  EXPECT_THROW(empty.apply(net, Second{1e-3}), std::logic_error);
}

TEST(Workload, RejectsNonPositiveDurations) {
  WorkloadPhase bad;
  bad.duration = Second{0.0};
  EXPECT_THROW((Workload{{bad}}), std::invalid_argument);
}

TEST(Workload, ApplyProgramsTheActivePhase) {
  ThermalNetwork net{two_die_stack()};
  const Workload w = simple_workload();
  w.apply(net, Second{0.5e-3});
  EXPECT_NEAR(net.total_power().value(), 1.0, 1e-12);
  EXPECT_NEAR(net.cell_power(0, 0, 0).value(), 1.0 / 16.0, 1e-12);
  w.apply(net, Second{1.5e-3});
  EXPECT_NEAR(net.total_power().value(), 0.5, 1e-12);
  EXPECT_NEAR(net.cell_power(0, 0, 0).value(), 0.0, 1e-12);
}

TEST(Workload, BurstIdleAlternates) {
  const StackConfig cfg = two_die_stack();
  const Workload w =
      Workload::burst_idle(cfg, Watt{2.0}, Watt{0.1}, Second{2e-3});
  ASSERT_EQ(w.phases().size(), 4u);
  EXPECT_DOUBLE_EQ(w.period().value(), 4e-3);

  ThermalNetwork net{cfg};
  w.apply(net, Second{0.0});  // burst phase
  const double burst_power = net.total_power().value();
  w.apply(net, Second{1.5e-3});  // idle phase
  const double idle_power = net.total_power().value();
  EXPECT_GT(burst_power, idle_power);
  EXPECT_NEAR(idle_power, 0.2, 1e-9);  // 2 dies x 0.1 W
  for (const double t : {2.5e-3, 4.5e-3, 1000.5e-3}) {  // later bursts
    w.apply(net, Second{t});
    EXPECT_NEAR(net.total_power().value(), burst_power, 1e-12) << t;
  }
}

TEST(Workload, BurstIdleHotspotMigrates) {
  const StackConfig cfg = two_die_stack();
  const Workload w =
      Workload::burst_idle(cfg, Watt{2.0}, Watt{0.0}, Second{2e-3});
  ThermalNetwork net{cfg};
  w.apply(net, Second{0.0});
  const double corner_a_first = net.cell_power(0, 0, 0).value();
  w.apply(net, Second{2.0e-3});  // second cycle's burst
  const double corner_a_second = net.cell_power(0, 0, 0).value();
  EXPECT_GT(corner_a_first, corner_a_second);
  w.apply(net, Second{4.0e-3});  // the next period starts at corner A again
  EXPECT_DOUBLE_EQ(net.cell_power(0, 0, 0).value(), corner_a_first);
}

TEST(Workload, BurstIdleNeedsDiesAndAPositivePeriod) {
  EXPECT_THROW(
      (void)Workload::burst_idle(StackConfig{}, Watt{1.0}, Watt{0.1},
                                 Second{1e-3}),
      std::invalid_argument);
  EXPECT_THROW((void)Workload::burst_idle(two_die_stack(), Watt{1.0},
                                          Watt{0.1}, Second{0.0}),
               std::invalid_argument);
}

TEST(Workload, RandomWorkloadIsBoundedAndReproducible) {
  const StackConfig cfg = two_die_stack();
  Rng rng_a{42};
  Rng rng_b{42};
  const Workload a = Workload::random(cfg, rng_a, 5, Watt{3.0}, Second{1e-3});
  const Workload b = Workload::random(cfg, rng_b, 5, Watt{3.0}, Second{1e-3});
  ASSERT_EQ(a.phases().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.phases()[i].duration.value(),
                     b.phases()[i].duration.value());
    EXPECT_LE(a.phases()[i].duration.value(), 1e-3);
    for (const PowerDirective& d : a.phases()[i].directives) {
      EXPECT_LE(d.total.value(), 3.0);
      EXPECT_GE(d.total.value(), 0.0);
    }
  }
}

TEST(Workload, RandomWorkloadRepeats) {
  Rng rng{7};
  const Workload w =
      Workload::random(two_die_stack(), rng, 5, Watt{3.0}, Second{1e-3});
  double start = 0.0;
  for (std::size_t i = 0; i < w.phases().size(); ++i) {
    const double mid = start + 0.5 * w.phases()[i].duration.value();
    EXPECT_EQ(w.phase_at(Second{mid}), i);
    EXPECT_EQ(w.phase_at(Second{mid + w.period().value()}), i);
    EXPECT_EQ(w.phase_at(Second{mid + 50.0 * w.period().value()}), i);
    start += w.phases()[i].duration.value();
  }
}

}  // namespace
}  // namespace tsvpt::thermal
