// dtm_chaos: closed-loop thermal management under sensor faults.  4 stacks
// of 2x2 sites per die on 2 sampler workers with health supervision, a
// ControlPlane running the migration policy at `tsvpt_cli control`
// defaults, the `control --chaos` sensor-fault campaign (dead and stuck
// oscillators, supply droop; 4 events per kind) and an in-process
// Aggregator on the sampler rings.  Closed, no TCP, no store: the only
// workload that runs supervision, forced recalibration, per-substep
// actuation and controller decisions, and the one a transport change must
// leave untouched.
#include <memory>
#include <optional>
#include <thread>

#include "control/controller.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tsvpt;

constexpr std::size_t kStacks = 4;
constexpr std::size_t kGrid = 2;
constexpr std::size_t kSitesPerStack = kGrid * kGrid * 4;  // four_die_stack
constexpr std::size_t kFaultsPerKind = 4;
constexpr std::size_t kRounds = 5;
/// Frames per host second on the 4-core reference box; sizes the work only.
constexpr double kSizingFramesPerS = 36000.0;

struct Round : ClosedRound {
  control::Controller::Stats control;
  std::size_t faults = 0;
  /// Faults whose site the supervisor took out of service.
  std::size_t taken_out = 0;
  std::optional<RegistryView> registry;
};

/// The supervisor took the fault's site out of service: quarantined or
/// retired as dead at or after the fault's onset, or already out when it
/// began.  Sites on these sparse grids flap through quarantine, so a fault
/// can land on a site that is out already and cannot be quarantined again.
bool taken_out_of_service(
    const inject::FaultEvent& e,
    const std::vector<core::HealthSupervisor::Transition>& transitions) {
  const auto out = [](core::HealthState s) {
    return s == core::HealthState::kQuarantined ||
           s == core::HealthState::kDead;
  };
  core::HealthState at_onset = core::HealthState::kHealthy;
  for (const auto& t : transitions) {
    if (t.site_index != e.site) continue;
    if (t.scan < e.start_scan) {
      at_onset = t.to;
    } else if (out(t.to)) {
      return true;
    }
  }
  return out(at_onset);
}

Round run_round(std::uint64_t seed, std::size_t scans, SpanLog* spans,
                Result& result) {
  Round round;
  const std::uint64_t t0 = now_ns();

  control::ControlPlane::Config plane_cfg;
  plane_cfg.controller.kind = control::PolicyKind::kMigration;
  plane_cfg.controller.policy.ceiling = Celsius{65.0};
  plane_cfg.controller.policy.floor = Celsius{58.0};
  plane_cfg.controller.policy.gate_on = Celsius{65.0};
  plane_cfg.controller.policy.gate_off = Celsius{58.0};
  plane_cfg.controller.policy.migrate_trip = Celsius{60.0};
  plane_cfg.controller.violation_ceiling = Celsius{75.0};
  plane_cfg.stack_count = kStacks;
  plane_cfg.die_count = 4;
  control::ControlPlane plane{plane_cfg};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = kStacks;
  cfg.thread_count = 2;
  cfg.scans_per_stack = scans;
  cfg.grid_columns = cfg.grid_rows = kGrid;
  // 16x the `control` default of 512, which dropped 162 frames in one of
  // some 120 rounds on the 4-core reference box when the collector lost
  // its CPU for ~30 ms; a drop fails the run.
  cfg.ring_capacity = 8192;
  cfg.seed = seed;
  cfg.peak_power = Watt{8.0};
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;
  cfg.supervise = true;
  cfg.health.fault.threshold = Celsius{25.0};
  cfg.control = &plane;

  const inject::FaultPlan plan = inject::FaultPlan::random_campaign(
      seed, kStacks, kSitesPerStack, scans,
      {inject::FaultKind::kDeadRo, inject::FaultKind::kStuckRo,
       inject::FaultKind::kSupplyDroop},
      kFaultsPerKind);
  round.faults = plan.size();
  // Faulted sites stay out of the accuracy statistic: it rates the sensors
  // that are working; the supervisor's handling of the rest is checked
  // below and counted in core.health_transitions.
  std::vector<std::vector<bool>> faulted(
      kStacks, std::vector<bool>(kSitesPerStack, false));
  for (const inject::FaultEvent& e : plan.events()) {
    faulted[e.stack][e.site] = true;
  }
  FleetTap tap{kStacks, spans, faulted};
  cfg.sink = &tap;

  const double rss_before = rss_mb();
  const std::uint64_t build0 = now_ns();
  auto sampler = std::make_unique<telemetry::FleetSampler>(cfg);
  round.build_s = seconds_between(build0, now_ns());
  round.rss_per_stack_mb = (rss_mb() - rss_before) / kStacks;
  // The injector needs the sampler, so it joins after construction; traced
  // rounds time the hooks through the tap, which delegates to it.
  inject::ChaosInjector injector{plan, sampler.get()};
  tap.wrap(&injector);
  sampler->set_interceptor(spans != nullptr
                               ? static_cast<telemetry::ScanInterceptor*>(&tap)
                               : &injector);

  telemetry::Aggregator aggregator{telemetry::Aggregator::Config{}};
  aggregator.start(sampler->rings());
  round.setup_s = seconds_between(t0, now_ns());

  const long switches0 = involuntary_switches();
  const std::uint64_t run0 = now_ns();
  ThreadProbe probe;
  sampler->run();
  aggregator.stop();
  const std::uint64_t run1 = now_ns();
  round.involuntary_switches = involuntary_switches() - switches0;
  round.threads = probe.join();
  round.produced = sampler->total_frames();
  round.frames_per_s =
      static_cast<double>(round.produced) / seconds_between(run0, run1);

  round.failed = failed_frames(view_of(aggregator, {}),
                               std::vector<std::uint64_t>(kStacks, scans));
  result.check(round.produced == kStacks * scans, "every scan produced");
  result.check(sampler->total_dropped() == 0, "no sampler ring drops");
  result.check(round.failed == 0, "every frame ingested exactly once");
  result.check(tap.undegraded_out_of_service() == 0,
               "quarantined and dead sites serve only degraded substitutes");
  for (const inject::FaultEvent& e : plan.events()) {
    const bool out = taken_out_of_service(e, sampler->transitions(e.stack));
    round.taken_out += out ? 1 : 0;
    // A dead oscillator degrades every conversion, and two degraded
    // conversions in a row quarantine a site: that much the supervisor
    // promises.  A stuck or drooping oscillator is caught only once its
    // readings leave the supervisor's bounds (a 6 degC step against quiet
    // neighbours, or 25 degC off them), and on a process-shifted site a
    // stuck one can read within a few degrees of truth (NOTES.md), so
    // those are counted, not required.
    if (e.kind == inject::FaultKind::kDeadRo) {
      result.check(out, "dead oscillator taken out of service: stack " +
                            std::to_string(e.stack) + " site " +
                            std::to_string(e.site) + " from scan " +
                            std::to_string(e.start_scan));
    }
  }
  round.take(tap, aggregator.summary().latency);
  round.control = plane.total();
  if (spans != nullptr) round.registry.emplace();
  return round;
}

void add_layers(Result& result, const Round& round, const SpanLog& spans) {
  const RegistryView& reg = *round.registry;
  const auto count = [&reg](const char* name) {
    return static_cast<double>(reg.counter(name));
  };
  const auto& sampler_scan = reg.histogram("tsvpt_sampler_scan_seconds");
  const auto& encode = reg.histogram("tsvpt_sampler_encode_seconds");
  const auto& agg = reg.histogram("tsvpt_agg_ingest_seconds");
  const char* unsplit =
      "not split on the supervised path (see sampler.advance_sample_s)";
  result.add("setup.build_s", round.build_s, "s",
             "span: FleetSampler construction");
  result.add("setup.rss_per_stack_mb", round.rss_per_stack_mb, "MB",
             "RSS delta over FleetSampler construction / stacks");
  result.na("gen.lateness_ms_p99", "ms", "closed loop: no schedule");
  result.na("thermal.advance_s", "s", unsplit);
  result.na("core.convert_s", "s", unsplit);
  result.na("core.convert_us", "us", unsplit);
  result.na("core.scan_us_p99", "us", unsplit);
  result.add("sampler.scan_us_p50", sampler_scan.p50 * 1e6, "us",
             "tsvpt_sampler_scan_seconds p50");
  result.add("sampler.scan_us_p99", sampler_scan.p99 * 1e6, "us",
             "tsvpt_sampler_scan_seconds p99");
  result.add("sampler.advance_sample_s",
             spans.total_s("sampler", "advance_sample"), "s",
             "sum[before_scan->after_scan]");
  result.add("core.supervise_decide_s",
             spans.total_s("core", "post_scan") - encode.sum, "s",
             "sum[after_scan->on_frame] - tsvpt_sampler_encode_seconds");
  result.add("core.sampled_ratio",
             count("tsvpt_sensor_conversions_total") /
                 static_cast<double>(round.produced * kSitesPerStack),
             "ratio", "tsvpt_sensor_conversions_total / (frames x sites)");
  result.add("core.health_transitions",
             count("tsvpt_health_transitions_total"), "count",
             "tsvpt_health_transitions_total");
  result.add("control.decisions", count("tsvpt_control_decisions_total"),
             "count", "tsvpt_control_decisions_total");
  result.add("control.actuations", count("tsvpt_control_actuations_total"),
             "count", "tsvpt_control_actuations_total");
  result.add("control.migrations", count("tsvpt_control_migrations_total"),
             "count", "tsvpt_control_migrations_total");
  result.add("control.energy_j", round.control.energy_j, "J",
             "ControlPlane::total().energy_j (simulated)");
  result.add("control.violation_s", round.control.violation_s, "s",
             "ControlPlane::total().violation_s (simulated)");
  result.add("inject.faults", count("tsvpt_chaos_faults_total"), "count",
             "tsvpt_chaos_faults_total");
  result.add("telemetry.encode_s", encode.sum, "s",
             "tsvpt_sampler_encode_seconds sum");
  result.add("telemetry.ring_push_s",
             reg.histogram("tsvpt_sampler_ring_push_seconds").sum, "s",
             "tsvpt_sampler_ring_push_seconds sum");
  result.add("telemetry.ring_drops", count("tsvpt_sampler_dropped_total"),
             "count", "tsvpt_sampler_dropped_total");
  result.add("telemetry.agg_ingest_s", agg.sum, "s",
             "tsvpt_agg_ingest_seconds sum");
  result.add("telemetry.agg_ingest_us_p99", agg.p99 * 1e6, "us",
             "tsvpt_agg_ingest_seconds p99");
  result.add("telemetry.alerts", count("tsvpt_agg_alerts_total"), "count",
             "tsvpt_agg_alerts_total");
}

}  // namespace

Result run_dtm_chaos(const Options& options) {
  Result result;
  if (options.trace) {
    const std::size_t scans =
        closed_scans(options, 2, kSizingFramesPerS, kStacks);
    SpanLog spans{kStacks + 1};
    set_tracing(true);
    const Round traced = run_round(options.seed, scans, &spans, result);
    set_tracing(false);
    const Round plain = run_round(options.seed, scans, nullptr, result);
    add_layers(result, traced, spans);
    add_traced_round(result, traced, plain, spans,
                     options.work_dir + "/spans-dtm_chaos.jsonl");
    return result;
  }

  set_tracing(false);
  const std::size_t count = options.smoke ? 1 : kRounds;
  const std::size_t scans =
      closed_scans(options, count, kSizingFramesPerS, kStacks);
  std::vector<Round> rounds;
  rounds.reserve(count);  // `views` points into it
  std::vector<const ClosedRound*> views;
  for (std::size_t r = 0; r < count; ++r) {
    const Round& round = rounds.emplace_back(
        run_round(derive_seed(options.seed, r), scans, nullptr, result));
    views.push_back(&round);
    result.note("round " + std::to_string(r) + " control: energy " +
                std::to_string(round.control.energy_j) + " J, violation " +
                std::to_string(round.control.violation_s) + " s, " +
                std::to_string(round.faults) + " faults injected, " +
                std::to_string(round.taken_out) +
                " of their sites taken out of service");
  }
  add_closed_loop_results(
      result, views, "Aggregator latency capture -> ingest, one clock",
      "3 sigma of sensed - truth, non-degraded readings of unfaulted sites");
  return result;
}

}  // namespace perfbench
