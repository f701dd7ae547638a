#include "thermal/workload_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "ptsim/rng.hpp"

namespace tsvpt::thermal {
namespace {

const StackConfig kStack = StackConfig::four_die_stack();

Workload parse(const std::string& text) {
  return parse_workload_string(text, kStack);
}

TEST(WorkloadIo, ParsesMixedTrace) {
  const Workload workload = parse(
      "# burst/idle trace\n"
      "phase 0.010 burst\n"
      "uniform 0 2.0\n"
      "hotspot 0 3.0 1.2e-3 3.4e-3 5e-4\n"
      "\n"
      "phase 0.020 idle\n"
      "uniform 0 0.5\n");
  ASSERT_EQ(workload.phases().size(), 2u);
  EXPECT_EQ(workload.phases()[0].name, "burst");
  EXPECT_DOUBLE_EQ(workload.phases()[0].duration.value(), 0.010);
  ASSERT_EQ(workload.phases()[0].directives.size(), 2u);
  const PowerDirective& hotspot = workload.phases()[0].directives[1];
  EXPECT_EQ(hotspot.kind, PowerDirective::Kind::kHotspot);
  EXPECT_DOUBLE_EQ(hotspot.total.value(), 3.0);
  EXPECT_DOUBLE_EQ(hotspot.center.x, 1.2e-3);
  EXPECT_DOUBLE_EQ(hotspot.radius.value(), 5e-4);
  EXPECT_DOUBLE_EQ(workload.period().value(), 0.030);
}

TEST(WorkloadIo, RoundTripsRandomWorkloads) {
  Rng rng{55};
  const Workload original =
      Workload::random(kStack, rng, 5, Watt{4.0}, Second{2e-3});
  const Workload reparsed = parse(to_trace_string(original));
  ASSERT_EQ(reparsed.phases().size(), original.phases().size());
  for (std::size_t p = 0; p < original.phases().size(); ++p) {
    const WorkloadPhase& a = original.phases()[p];
    const WorkloadPhase& b = reparsed.phases()[p];
    EXPECT_DOUBLE_EQ(a.duration.value(), b.duration.value());
    ASSERT_EQ(a.directives.size(), b.directives.size());
    for (std::size_t d = 0; d < a.directives.size(); ++d) {
      EXPECT_EQ(a.directives[d].kind, b.directives[d].kind);
      EXPECT_EQ(a.directives[d].die, b.directives[d].die);
      EXPECT_DOUBLE_EQ(a.directives[d].total.value(),
                       b.directives[d].total.value());
    }
  }
}

TEST(WorkloadIo, ErrorsCarryLineNumbers) {
  try {
    (void)parse("phase 0.01\nuniform 0 1.0\nbogus 1 2\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
  }
}

TEST(WorkloadIo, RejectsMalformedRecords) {
  EXPECT_THROW((void)parse("uniform 0 1.0\n"),
               std::runtime_error);  // directive before phase
  EXPECT_THROW((void)parse("phase 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse("phase 0.01\nuniform 0 -1\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse("phase 0.01\nuniform 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse("phase 0.01\nuniform 0 1.0 extra\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse("phase 0.01\nhotspot 0 1 0 0 0\n"),
      std::runtime_error);  // zero radius
  EXPECT_THROW((void)parse("# only comments\n"),
               std::runtime_error);
}

TEST(WorkloadIo, FileRoundTrip) {
  const std::string path = "/tmp/tsvpt_workload_test.trace";
  const Workload original = parse(
      "phase 0.005 a\nuniform 1 1.5\nphase 0.007 b\nuniform 2 0.25\n");
  save_workload(original, path);
  const Workload loaded = load_workload(path, kStack);
  EXPECT_DOUBLE_EQ(loaded.period().value(), 0.012);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_workload("/nonexistent/trace", kStack),
               std::runtime_error);
}

TEST(WorkloadIo, ParsedTraceDrivesTheNetwork) {
  const Workload workload =
      parse("phase 0.01\nuniform 0 2.0\nphase 0.01\nuniform 1 1.0\n");
  ThermalNetwork net{kStack};
  workload.apply(net, Second{0.0});
  EXPECT_NEAR(net.total_power().value(), 2.0, 1e-12);
  workload.apply(net, Second{0.015});
  EXPECT_NEAR(net.total_power().value(), 1.0, 1e-12);
}

TEST(WorkloadIo, ParsedTraceRepeats) {
  // A trace is one period: past its end it plays from the first phase.
  const Workload workload =
      parse("phase 0.01\nuniform 0 2.0\nphase 0.01\nuniform 1 1.0\n");
  ThermalNetwork net{kStack};
  workload.apply(net, Second{0.025});
  EXPECT_NEAR(net.die_power(0).value(), 2.0, 1e-12);
  EXPECT_NEAR(net.die_power(1).value(), 0.0, 1e-12);
  workload.apply(net, Second{10.035});
  EXPECT_NEAR(net.die_power(1).value(), 1.0, 1e-12);
}

TEST(WorkloadIo, TraceNamingAMissingDieFailsAtParseWithItsLine) {
  try {
    (void)parse("phase 0.010 burst\nuniform 0 2.0\nuniform 7 2.0\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("workload trace line 3: "), std::string::npos)
        << what;
    EXPECT_NE(what.find("die 7"), std::string::npos) << what;
  }
  EXPECT_THROW((void)parse("phase 0.01\nhotspot 4 1.0 0 0 1e-3\n"),
               std::runtime_error);
}

TEST(WorkloadIo, TraceNamingAMissingDieThrowsWhenApplied) {
  // A workload built in code is not checked against a stack; programming a
  // four-die network with a directive for die 7 must fail cleanly, not
  // index past the dies.
  PowerDirective directive;
  directive.die = 7;
  directive.total = Watt{2.0};
  const Workload workload{
      {WorkloadPhase{"burst", Second{0.01}, {directive}}}};
  ThermalNetwork net{kStack};
  EXPECT_THROW(workload.apply(net, Second{0.0}), std::out_of_range);
}

}  // namespace
}  // namespace tsvpt::thermal
