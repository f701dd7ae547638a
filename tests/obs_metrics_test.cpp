#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/stats.hpp"

namespace tsvpt::obs {
namespace {

/// Every test starts from zeroed values with the layer enabled; handles
/// registered by other tests (or the instrumented libraries) stay valid.
class ObsMetrics : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().set_enabled(true);
    Registry::instance().reset_values();
  }
  void TearDown() override {
    Registry::instance().set_enabled(true);
    Registry::instance().reset_values();
  }
};

TEST_F(ObsMetrics, CounterFindOrCreateDedupes) {
  const Counter a = counter("obs_test_dedupe_total");
  const Counter b = counter("obs_test_dedupe_total");
  a.inc();
  b.add(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObsMetrics, DefaultConstructedHandlesAreInertNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  EXPECT_NO_THROW(c.inc());
  EXPECT_NO_THROW(g.set(1.0));
  EXPECT_NO_THROW(h.observe(1.0));
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsMetrics, GaugeSetAndAdd) {
  const Gauge g = gauge("obs_test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST_F(ObsMetrics, DisabledRegistryDropsEverything) {
  const Counter c = counter("obs_test_killswitch_total");
  const Histogram h = histogram("obs_test_killswitch_seconds");
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  c.add(100);
  h.observe(1.0);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // handle survived the off/on cycle
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsMetrics, ResetZeroesValuesButKeepsHandles) {
  const Counter c = counter("obs_test_reset_total");
  c.add(7);
  Registry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

// The registry's whole reason to exist: exact totals under concurrent
// hammering from more threads than shards.  Run under TSan in CI.
TEST_F(ObsMetrics, ConcurrentCounterHammerIsExact) {
  constexpr std::size_t kThreads = 2 * kShards;
  constexpr std::uint64_t kPerThread = 50'000;
  const Counter c = counter("obs_test_hammer_total");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsMetrics, ConcurrentHistogramHammerKeepsEveryObservation) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20'000;
  const Histogram h = histogram("obs_test_hammer_seconds");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng{derive_seed(17, t)};
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.observe(rng.uniform(1e-6, 1e-3));
      }
    });
  }
  for (auto& t : threads) t.join();
  const Snapshot snap = Registry::instance().snapshot();
  for (const HistogramSnapshot& hs : snap.histograms) {
    if (hs.name != "obs_test_hammer_seconds") continue;
    EXPECT_EQ(hs.count, kThreads * kPerThread);
    EXPECT_GT(hs.sum, 0.0);
    EXPECT_LE(hs.p50, hs.p90);
    EXPECT_LE(hs.p90, hs.p99);
    EXPECT_LE(hs.p99, hs.max * (1.0 + 1e-12));
    return;
  }
  FAIL() << "histogram missing from snapshot";
}

HistogramSnapshot snapshot_of(const std::string& name) {
  const Snapshot snap = Registry::instance().snapshot();
  for (const HistogramSnapshot& hs : snap.histograms) {
    if (hs.name == name) return hs;
  }
  ADD_FAILURE() << name << " missing from snapshot";
  return {};
}

// Log-bucketed quantiles against the exact reference: with 8 sub-buckets
// per octave the relative error is bounded by the bucket width (~12.5%);
// assert 15% to leave room for the bucket-midpoint convention.
TEST_F(ObsMetrics, HistogramQuantilesTrackExactReference) {
  const Histogram h = histogram("obs_test_quantile_seconds");
  Samples reference;
  Rng rng{99};
  for (std::size_t i = 0; i < 20'000; ++i) {
    // Log-uniform over six decades: exercises many octaves, not one bucket.
    const double v = std::pow(10.0, rng.uniform(-7.0, -1.0));
    h.observe(v);
    reference.add(v);
  }
  const HistogramSnapshot hs = snapshot_of("obs_test_quantile_seconds");
  ASSERT_EQ(hs.count, reference.count());
  EXPECT_NEAR(hs.sum, 20'000 * reference.mean(), 1e-6 * hs.sum);
  EXPECT_DOUBLE_EQ(hs.max, reference.max());
  for (const auto& [q, got] : {std::pair{0.5, hs.p50},
                               std::pair{0.9, hs.p90},
                               std::pair{0.99, hs.p99}}) {
    const double want = reference.quantile(q);
    EXPECT_NEAR(got, want, 0.15 * want)
        << "q=" << q << " got " << got << " want " << want;
  }
}

TEST_F(ObsMetrics, HistogramEdgeBucketsAndExactMax) {
  const Histogram h = histogram("obs_test_edges_seconds");
  h.observe(0.0);      // zero bucket
  h.observe(-1.0);     // negative clamps into the zero bucket
  h.observe(1e-12);    // below 2^-30: clamps into the first log bucket
  h.observe(123.456);  // mid-range
  h.observe(1e9);      // above 2^12: overflow bucket, max still exact
  const HistogramSnapshot hs = snapshot_of("obs_test_edges_seconds");
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.max, 1e9);
  EXPECT_TRUE(std::isfinite(hs.p50));
  EXPECT_TRUE(std::isfinite(hs.p99));
  // p99 of five samples lands in the overflow bucket, whose reported value
  // is the exact max (not a bucket midpoint past the clamp).
  EXPECT_DOUBLE_EQ(hs.p99, 1e9);
}

TEST_F(ObsMetrics, EmptyHistogramExportsFiniteZeros) {
  (void)histogram("obs_test_empty_seconds");
  const HistogramSnapshot hs = snapshot_of("obs_test_empty_seconds");
  EXPECT_EQ(hs.count, 0u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.0);
  EXPECT_DOUBLE_EQ(hs.max, 0.0);
  EXPECT_DOUBLE_EQ(hs.p50, 0.0);
}

TEST_F(ObsMetrics, ScopedTimerObservesElapsedSeconds) {
  const Histogram h = histogram("obs_test_timer_seconds");
  { const ScopedTimer timer{h}; }
  const HistogramSnapshot hs = snapshot_of("obs_test_timer_seconds");
  EXPECT_EQ(hs.count, 1u);
  EXPECT_GE(hs.max, 0.0);
  EXPECT_LT(hs.max, 1.0);  // an empty scope does not take a second
}

TEST_F(ObsMetrics, SnapshotIsSortedByName) {
  (void)counter("obs_test_zz_total");
  (void)counter("obs_test_aa_total");
  const Snapshot snap = Registry::instance().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// -- golden-schema checks on the exposition formats ----------------------

/// One line of the Prometheus text exposition format: a `# TYPE` header,
/// or a sample whose optional label set is `{name="value"(,name="value")*}`
/// with backslash escapes inside the quoted values.
bool exposition_line_ok(const std::string& line) {
  static const std::regex type_line{
      R"re(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary))re"};
  static const std::string label =
      R"re([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")re";
  static const std::regex sample_line{
      R"re([a-zA-Z_:][a-zA-Z0-9_:]*(\{)re" + label + "(," + label +
      R"re()*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)re"};
  return std::regex_match(line, type_line) ||
         std::regex_match(line, sample_line);
}

TEST_F(ObsMetrics, PrometheusTextMatchesExpositionGrammar) {
  counter("obs_test_prom_total").add(3);
  gauge("obs_test_prom_gauge").set(1.5);
  const Histogram h = histogram("obs_test_prom_seconds");
  h.observe(0.5);
  h.observe(2.0);
  // A labelled family, so `{stage="...",quantile="..."}` lines are checked
  // on every run, not only when an earlier test in the process left one.
  histogram("obs_test_prom_stage_seconds", "stage", "seal_to_wire")
      .observe(0.25);
  const std::string text = metrics_prometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  std::istringstream lines{text};
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(exposition_line_ok(line)) << "bad exposition line: " << line;
  }
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_seconds_max gauge"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_stage_seconds{stage=\"seal_to_wire\","
                      "quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(
      text.find("obs_test_prom_stage_seconds_count{stage=\"seal_to_wire\"} 1"),
      std::string::npos);
}

TEST_F(ObsMetrics, ExpositionGrammarRejectsMalformedLabels) {
  EXPECT_TRUE(exposition_line_ok(R"(m_seconds{stage="a\"b",quantile="0.5"} 1)"));
  EXPECT_FALSE(exposition_line_ok("m_seconds{stage=seal_to_wire} 1"));
  EXPECT_FALSE(exposition_line_ok(R"(m_seconds{stage="a",} 1)"));
  EXPECT_FALSE(exposition_line_ok(R"(m_seconds{="a"} 1)"));
  EXPECT_FALSE(exposition_line_ok(R"(m_seconds{stage="a"}1)"));
  EXPECT_FALSE(exposition_line_ok(R"(m_seconds{stage="a" 1)"));
}

TEST_F(ObsMetrics, JsonExportParsesAndHoldsTheSections) {
  counter("obs_test_json_total").inc();
  histogram("obs_test_json_seconds").observe(1.0);
  const std::string json = metrics_json();
  EXPECT_TRUE(tsvpt::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_total\": 1"), std::string::npos);
}

}  // namespace
}  // namespace tsvpt::obs
