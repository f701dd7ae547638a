#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "process/variation.hpp"
#include "sim/monitor_session.hpp"

namespace tsvpt::sim {
namespace {

struct SessionFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  thermal::Workload workload = thermal::Workload::burst_idle(
      cfg, Watt{2.0}, Watt{0.2}, Second{20e-3});
  std::vector<core::SensorSite> sites;
  std::unique_ptr<core::StackMonitor> monitor;

  SessionFixture() {
    sites = core::StackMonitor::uniform_sites(cfg, 1, 1);
    const process::VariationModel model{
        device::Technology::tsmc65_like(), {sites[0].location}};
    Rng rng{5};
    for (auto& site : sites) {
      site.vt_delta = model.sample_die(rng).at(0);
    }
    monitor = std::make_unique<core::StackMonitor>(
        &network, core::PtSensor::Config{}, sites, 44);
  }
};

TEST(MonitoringSession, ProducesExpectedSampleCount) {
  SessionFixture fx;
  MonitoringSession::Config cfg;
  cfg.sample_period = Second{5e-3};
  cfg.thermal_step = Second{1e-3};
  MonitoringSession session{&fx.network, &fx.workload, fx.monitor.get(), cfg,
                            7};
  session.run(Second{60e-3});
  EXPECT_EQ(session.trace().size(), 12u);
  EXPECT_EQ(session.trace().front().readings.size(), 4u);
}

TEST(MonitoringSession, WholeNumberOfScansDespiteFloatResidue) {
  // 120e-3 / 1e-3 is not exactly 120 in floating point; the session must
  // still produce every scan, each at its exact instant.
  SessionFixture fx;
  MonitoringSession::Config cfg;
  cfg.sample_period = Second{1e-3};
  cfg.thermal_step = Second{0.5e-3};
  MonitoringSession session{&fx.network, &fx.workload, fx.monitor.get(), cfg,
                            7};
  session.run(Second{120e-3});
  ASSERT_EQ(session.trace().size(), 120u);
  for (std::size_t k = 0; k < session.trace().size(); ++k) {
    EXPECT_NEAR(session.trace()[k].time.value(),
                static_cast<double>(k + 1) * 1e-3, 1e-12);
  }
}

TEST(MonitoringSession, TrackingErrorsSmall) {
  SessionFixture fx;
  MonitoringSession::Config cfg;
  cfg.sample_period = Second{5e-3};
  cfg.thermal_step = Second{1e-3};
  MonitoringSession session{&fx.network, &fx.workload, fx.monitor.get(), cfg,
                            8};
  session.run(Second{60e-3});
  const Samples errors = session.error_samples();
  ASSERT_GT(errors.count(), 0u);
  EXPECT_LT(errors.max_abs(), 3.0);
  EXPECT_GT(session.total_sensing_energy().value(), 0.0);
}

TEST(MonitoringSession, TdmReadoutStillProducesFullScans) {
  SessionFixture fx;
  MonitoringSession::Config cfg;
  cfg.sample_period = Second{10e-3};
  cfg.thermal_step = Second{1e-3};
  cfg.readout_slot = Second{0.5e-3};
  MonitoringSession session{&fx.network, &fx.workload, fx.monitor.get(), cfg,
                            12};
  session.run(Second{60e-3});
  ASSERT_FALSE(session.trace().empty());
  for (const auto& point : session.trace()) {
    EXPECT_EQ(point.readings.size(), 4u);
  }
  // Per-reading errors remain conversion-accurate (truth is per-instant).
  EXPECT_LT(session.error_samples().max_abs(), 4.0);
}

TEST(MonitoringSession, TdmReadoutSkewsLaterSitesTowardNewerThermalState) {
  // Pin the documented readout_slot semantics: during a heating transient,
  // a serialized (TDM) scan visits sites one slot apart, so later sites see
  // a *newer* (here: hotter) thermal state, while simultaneous readout
  // (readout_slot = 0) sees one instant.  Four sites sit at symmetric
  // locations on die 0 under a uniform load, so at any single instant their
  // true temperatures are identical — any spread is pure readout skew.
  const thermal::StackConfig stack_cfg = thermal::StackConfig::four_die_stack();
  thermal::WorkloadPhase heat;
  heat.name = "heat";
  heat.duration = Second{1.0};
  heat.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                             Watt{8.0}, {}, Meter{0.0}});
  const thermal::Workload workload{{heat}};

  auto run_session = [&](Second slot) {
    thermal::ThermalNetwork network{stack_cfg};
    std::vector<core::SensorSite> sites;
    const double w = stack_cfg.dies[0].width.value();
    const double h = stack_cfg.dies[0].height.value();
    const double fractions[4][2] = {
        {0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75}};
    for (const auto& f : fractions) {
      core::SensorSite site;
      site.die = 0;
      site.location = {f[0] * w, f[1] * h};
      sites.push_back(site);
    }
    core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites, 21};
    MonitoringSession::Config cfg;
    cfg.sample_period = Second{10e-3};
    cfg.thermal_step = Second{1e-3};
    cfg.start_at_steady_state = false;  // heat up from ambient
    cfg.readout_slot = slot;
    MonitoringSession session{&network, &workload, &monitor, cfg, 31};
    session.run(Second{10e-3});
    return session.trace().at(0).readings;
  };

  const auto simultaneous = run_session(Second{0.0});
  const auto serialized = run_session(Second{2e-3});
  ASSERT_EQ(simultaneous.size(), 4u);
  ASSERT_EQ(serialized.size(), 4u);

  // Simultaneous readout: symmetric sites agree to the stack's tiny
  // physical asymmetry (the TSV field), far below the TDM skew tested next.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(simultaneous[i].truth.value(), simultaneous[0].truth.value(),
                0.01);
  }
  // Site 0 is read at the scan instant in both modes: identical trajectory,
  // identical truth.
  EXPECT_DOUBLE_EQ(serialized[0].truth.value(), simultaneous[0].truth.value());
  // TDM readout: site i is read i slots later, so (relative to the same
  // site's simultaneous reading, which cancels any spatial asymmetry) its
  // truth reflects a strictly newer, hotter state — and monotonically more
  // so down the scan chain.
  double previous_skew = 0.0;
  for (std::size_t i = 1; i < 4; ++i) {
    const double skew =
        serialized[i].truth.value() - simultaneous[i].truth.value();
    EXPECT_GT(skew, previous_skew + 0.05) << "site " << i;
    previous_skew = skew;
  }
}

TEST(StackMonitorSampleSite, MatchesSampleAllOrdering) {
  SessionFixture fx;
  fx.network.set_uniform_power(0, Watt{1.0});
  fx.network.set_temperatures(fx.network.steady_state());
  fx.monitor->calibrate_all(nullptr);
  const auto all = fx.monitor->sample_all(nullptr);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto one = fx.monitor->sample_site(i, nullptr);
    EXPECT_EQ(one.site_index, all[i].site_index);
    EXPECT_EQ(one.die, all[i].die);
    EXPECT_DOUBLE_EQ(one.truth.value(), all[i].truth.value());
  }
  EXPECT_THROW((void)fx.monitor->sample_site(99, nullptr), std::out_of_range);
}

TEST(MonitoringSession, ReplaysTheWorkloadPastItsPeriod) {
  // The fixture's burst/idle repeats every 40 ms.  A 65 ms session ends
  // with a substep 24.5 ms into the second period: the corner-B burst, not
  // the idle phase that ends the first period.
  SessionFixture fx;
  MonitoringSession::Config cfg;
  cfg.sample_period = Second{1e-3};
  cfg.thermal_step = Second{0.5e-3};
  MonitoringSession session{&fx.network, &fx.workload, fx.monitor.get(), cfg,
                            7};
  session.run(Second{65e-3});
  ASSERT_EQ(session.trace().size(), 65u);
  thermal::ThermalNetwork expected{fx.cfg};
  fx.workload.apply(expected, Second{24.5e-3});
  EXPECT_NEAR(expected.die_power(0).value(), 2.0, 1e-9);
  for (std::size_t d = 0; d < fx.cfg.die_count(); ++d) {
    EXPECT_DOUBLE_EQ(fx.network.die_power(d).value(),
                     expected.die_power(d).value())
        << "die " << d;
  }
  EXPECT_DOUBLE_EQ(fx.network.cell_power(0, 0, 0).value(),
                   expected.cell_power(0, 0, 0).value());
}

TEST(MonitoringSession, ValidatesArguments) {
  SessionFixture fx;
  MonitoringSession::Config cfg;
  EXPECT_THROW(
      (MonitoringSession{nullptr, &fx.workload, fx.monitor.get(), cfg, 1}),
      std::invalid_argument);
  cfg.sample_period = Second{0.0};
  EXPECT_THROW((MonitoringSession{&fx.network, &fx.workload, fx.monitor.get(),
                                  cfg, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsvpt::sim
