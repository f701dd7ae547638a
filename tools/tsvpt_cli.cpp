// tsvpt command-line tool: drive the library without writing C++.
//
//   tsvpt_cli tech [--card FILE]
//       Print the (default or loaded) technology card.
//   tsvpt_cli sense --t 63.2 [--dvtn-mv 18] [--dvtp-mv -12] [--seed 1]
//                   [--card FILE] [--compensate]
//       One self-calibrating conversion on a synthetic die; prints the
//       estimate vs the truth you specified.
//   tsvpt_cli mc [--dies 500] [--seed 42] [--card FILE]
//       Monte-Carlo accuracy summary (mini F3/F4).
//   tsvpt_cli trace [--trace FILE] [--sample-ms 2] [--duration-ms 150]
//                   [--seed 9]
//       Play a workload trace (or the built-in burst/idle) against the
//       4-die stack with a 16-sensor monitor; prints tracking statistics.
//       A --duration-ms longer than the trace replays it from the start.
//   tsvpt_cli fleet [--stacks 32] [--threads 8] [--scans 50] [--sample-ms 1]
//                   [--ring 256] [--grid 2] [--alert-c 85] [--seed 1]
//       Concurrent fleet telemetry: sample N independent stacks on a worker
//       pool, stream wire frames through lock-free rings into the
//       aggregator, print a JSON summary (frame/drop/alert counts).
//       Exit status: 0 only when the run is clean — nonzero when any alert
//       fired or any frame failed to decode, so scripts can gate on it.
//   tsvpt_cli chaos [--stacks 8] [--threads 4] [--scans 120] [--grid 2]
//                   [--events-per-kind 1] [--watchdog-ms 50] [--seed 7]
//       Chaos campaign: run a supervised fleet under a seeded random fault
//       plan (stuck/dead oscillators, bit flips, supply droop, calibration
//       drift, frame corruption, ring and worker stalls) and print a JSON
//       report: per-fault detection latency, false-positive count,
//       degraded-mode temperature error, recovery status.  Exit 0 when
//       every sensor fault was detected, nothing healthy was permanently
//       quarantined, and the fleet converged back to all-healthy.
//   tsvpt_cli control [--policy dvfs] [--stacks 8] [--threads 4]
//                     [--scans 120] [--peak-w 8] [--ceiling-c 65]
//                     [--floor-c 58] [--violation-c 75] [--chaos 0]
//       Closed-loop DTM over a fleet: every stack is driven by its own
//       controller (static worst-case, DVFS ladder, reactive gating or
//       inter-die migration) actuating the plant between scans.  --chaos N
//       injects N sensor faults per kind (dead/stuck oscillators, supply
//       droop) under health supervision — quarantined sites are never
//       actuated on; affected dies degrade to the worst-case rung.  Prints
//       a JSON report (energy, peak true temperature, violation-seconds,
//       actuation/migration/blind-scan counters).  Exit 0 only when the
//       fleet accrued zero violation-seconds.
//       Both fleet and chaos take --store DIR to persist every produced
//       frame into the telemetry historian while sampling; fleet also takes
//       --summary-interval S for periodic progress lines on stderr.
//   tsvpt_cli store <info|query|replay|compact> --dir DIR
//       Operate on a historian directory: `info` prints stats and verifies
//       every block CRC (exit 1 on corruption — the post-crash integrity
//       gate), `query` filters by time/stack/site, `replay` feeds stored
//       frames through the aggregator for offline alert analysis and prints
//       the replayed fleet view's canonical digest (compare against a serve
//       report's digest to prove the store holds exactly what the server
//       ingested), and `compact` applies --max-bytes / --max-age-s
//       retention.
//   tsvpt_cli serve [--port 0] [--shards 2] [--ring 4096] [--alert-c 85]
//                   [--store DIR] [--duration-s S] [--idle-exit-s 10]
//                   [--idle-conn-s S]
//       Sharded fleet ingest server: accept framed-TCP publisher
//       connections, ack every consumed batch (deduping retransmits per
//       publisher), partition stacks across per-shard aggregators, and on
//       exit print a JSON report with the merged cross-shard fleet view
//       (including its canonical digest) plus ack/dedup/heartbeat counters.
//       Runs until --duration-s elapses or, once idle with no open
//       connections, --idle-exit-s; --idle-conn-s reaps connections that go
//       silent (publishers heartbeat to stay alive).  Exit 0 only when no
//       alert fired and every frame decoded.
//   tsvpt_cli publish --port N [--host H] [--stacks 8] [--threads 2]
//                     [--scans 50] [--stack-base 0] [--batch-frames 64]
//                     [--flush-ms 5] [--queue 64] [--seed 1]
//                     [--spill-dir DIR] [--publisher-id N]
//                     [--heartbeat-ms MS] [--jitter 0.5] [--drain-s 2]
//       Fleet publisher: sample N stacks and stream their frames to a serve
//       instance over framed TCP (size/time-bounded batches, bounded-queue
//       backpressure, exponential-backoff reconnect with seeded jitter).
//       --stack-base offsets wire stack ids so several publishers occupy
//       disjoint fleet ranges.  --spill-dir upgrades delivery to
//       at-least-once: sealed batches persist to a crash-safe spill log
//       until the server acks them, and a rerun on the same directory
//       (--scans 0 for a pure resume) retransmits whatever a SIGKILL left
//       unacked.  Without a spill dir, exit 0 only when the server was
//       reached and every produced frame was sent; with one, exit 0 only
//       when the FIN/drained handshake completed and nothing was shed.
//   tsvpt_cli obs dump [--format prom|json] [--exercise 1]
//       Print the self-observability metric registry (Prometheus text or
//       JSON); --exercise runs a mini fleet first so the dump holds live
//       numbers.  fleet and chaos take --metrics-out FILE / --trace-out
//       FILE to export the run's metrics and a Chrome trace-event JSON of
//       its flight-recorder spans, and every command takes --log-level
//       (or the TSVPT_LOG environment variable).
//   tsvpt_cli obs scrape --port N [--host H] [--path /metrics|/healthz]
//       One-shot HTTP client for a serve instance's scrape endpoint
//       (--http-port): prints the response body (Prometheus text or health
//       JSON); exit 0 only on a 200.
//   tsvpt_cli obs merge-trace [--out FILE] FILE[:offset_ns[:label]] ...
//       Stitch per-process Chrome traces (--trace-out dumps) into one
//       timeline: each input gets its own pid lane and its events shift by
//       the given clock offset (the publisher's ClockAlign estimate), so
//       spans from different processes line up on one clock.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "control/controller.hpp"
#include "control/policies.hpp"
#include "core/stack_monitor.hpp"
#include "device/tech_io.hpp"
#include "ingest/fleet_view.hpp"
#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "process/montecarlo.hpp"
#include "process/variation.hpp"
#include "ptsim/args.hpp"
#include "ptsim/log.hpp"
#include "ptsim/stats.hpp"
#include "sim/monitor_session.hpp"
#include "store/store.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "thermal/workload_io.hpp"

namespace {

using namespace tsvpt;

/// Shared --log-level handling.  The flag wins over the TSVPT_LOG
/// environment default the Logger picked up at startup.
void apply_log_level(const Args& args) {
  const std::string text = args.get("log-level", std::string{});
  if (text.empty()) return;
  const auto level = parse_log_level(text);
  if (!level) {
    throw std::invalid_argument{
        "--log-level: expected debug|info|warn|error, got '" + text + "'"};
  }
  Logger::instance().set_level(*level);
}

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot open for writing: " + path};
  out << body;
  if (!out) throw std::runtime_error{"write failed: " + path};
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Shared --metrics-out / --trace-out handling, run after a command's
/// workload so the files hold the whole run.  The metrics format follows
/// the extension (.json -> JSON, anything else -> Prometheus text); the
/// trace file is always Chrome trace-event JSON (load via about:tracing or
/// https://ui.perfetto.dev).
void export_obs(const Args& args) {
  const std::string metrics = args.get("metrics-out", std::string{});
  if (!metrics.empty()) {
    write_text_file(metrics, ends_with(metrics, ".json")
                                 ? obs::metrics_json()
                                 : obs::metrics_prometheus());
  }
  const std::string trace = args.get("trace-out", std::string{});
  if (!trace.empty()) write_text_file(trace, obs::trace_chrome_json());
}

device::Technology technology_from(const Args& args) {
  const std::string card = args.get("card", std::string{});
  return card.empty() ? device::Technology::tsmc65_like()
                      : device::load_technology(card);
}

int cmd_tech(const Args& args) {
  args.check_known({"card", "log-level"});
  std::cout << device::to_card_string(technology_from(args));
  return 0;
}

int cmd_sense(const Args& args) {
  args.check_known(
      {"card", "t", "dvtn-mv", "dvtp-mv", "seed", "compensate", "log-level"});
  core::PtSensor::Config cfg;
  cfg.tech = technology_from(args);
  cfg.model_vdd = cfg.tech.vdd_nominal;
  if (args.has("compensate")) cfg.compensate_supply = true;
  core::PtSensor sensor{cfg,
                        static_cast<std::uint64_t>(args.get("seed", 1LL))};

  const double t = args.get("t", 25.0);
  const double dvtn = args.get("dvtn-mv", 0.0);
  const double dvtp = args.get("dvtp-mv", 0.0);
  core::DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t});
  env.vt_delta = {millivolts(dvtn), millivolts(dvtp)};
  env.supply = circuit::SupplyRail{{cfg.model_vdd, Volt{0.0}, Volt{0.0}}};
  Rng noise{static_cast<std::uint64_t>(args.get("seed", 1LL)) + 1};

  const auto est = sensor.self_calibrate(env, &noise);
  std::printf("self-calibration: %s (%d iterations)\n",
              est.converged ? "converged" : "FAILED", est.iterations);
  std::printf("  dVtn  %8.3f mV   (true %8.3f)\n", est.dvtn.value() * 1e3,
              dvtn);
  std::printf("  dVtp  %8.3f mV   (true %8.3f)\n", est.dvtp.value() * 1e3,
              dvtp);
  std::printf("  T     %8.3f degC (true %8.3f)\n",
              to_celsius(est.temperature).value(), t);
  std::printf("  energy %7.1f pJ\n", est.energy.value() * 1e12);
  return est.converged ? 0 : 1;
}

int cmd_mc(const Args& args) {
  args.check_known({"card", "dies", "seed", "log-level"});
  const device::Technology tech = technology_from(args);
  core::PtSensor::Config cfg;
  cfg.tech = tech;
  cfg.model_vdd = tech.vdd_nominal;
  const auto dies = static_cast<std::size_t>(args.get("dies", 500LL));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 42LL));

  const process::VariationModel variation{tech,
                                          {process::Point{2.5e-3, 2.5e-3}}};
  Samples err_n;
  Samples err_p;
  Samples err_t;
  const process::MonteCarlo mc{seed, dies};
  mc.run([&](std::size_t trial, Rng& rng) {
    const process::DieVariation die = variation.sample_die(rng);
    core::PtSensor sensor{cfg, derive_seed(seed, trial)};
    core::DieEnvironment env;
    env.vt_delta = die.at(0);
    env.supply = circuit::SupplyRail{{cfg.model_vdd, Volt{0.0}, Volt{0.0}}};
    env.temperature = to_kelvin(Celsius{rng.uniform(15.0, 45.0)});
    const auto est = sensor.self_calibrate(env, &rng);
    if (!est.converged) return;
    err_n.add((est.dvtn.value() - die.at(0).nmos.value()) * 1e3);
    err_p.add((est.dvtp.value() - die.at(0).pmos.value()) * 1e3);
    for (double t : {10.0, 50.0, 90.0}) {
      err_t.add(sensor.read(env.at_celsius(Celsius{t}), &rng)
                    .temperature.value() -
                t);
    }
  });
  std::printf("%zu dies on %s:\n", dies, tech.name.c_str());
  std::printf("  dVtn error: 3sigma %.3f mV, max |e| %.3f mV\n",
              err_n.three_sigma(), err_n.max_abs());
  std::printf("  dVtp error: 3sigma %.3f mV, max |e| %.3f mV\n",
              err_p.three_sigma(), err_p.max_abs());
  std::printf("  T error:    3sigma %.3f degC, max |e| %.3f degC\n",
              err_t.three_sigma(), err_t.max_abs());
  return 0;
}

int cmd_trace(const Args& args) {
  args.check_known(
      {"trace", "sample-ms", "duration-ms", "seed", "log-level"});
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  const std::string trace = args.get("trace", std::string{});
  const thermal::Workload workload =
      trace.empty() ? thermal::Workload::burst_idle(stack, Watt{5.0},
                                                    Watt{0.25}, Second{50e-3})
                    : thermal::load_workload(trace, stack);

  thermal::ThermalNetwork network{stack};
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(stack, 2, 2);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(),
                                    points};
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 9LL));
  Rng rng{seed};
  for (std::size_t d = 0; d < stack.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) sites[d * 4 + i].vt_delta = die.at(i);
  }
  core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites,
                             derive_seed(seed, 1)};
  sim::MonitoringSession::Config session_cfg;
  session_cfg.sample_period =
      Second{args.get("sample-ms", 2.0) * 1e-3};
  session_cfg.thermal_step = Second{0.5e-3};
  sim::MonitoringSession session{&network, &workload, &monitor, session_cfg,
                                 derive_seed(seed, 2)};
  // A trace plays once by default (the built-in one for three burst/idle
  // cycles); a longer --duration-ms replays it.
  const double duration_ms = args.get(
      "duration-ms", trace.empty() ? 150.0 : workload.period().value() * 1e3);
  session.run(Second{duration_ms * 1e-3});

  const Samples errors = session.error_samples();
  std::printf("trace: %s, %.1f ms simulated, %zu scans of %zu sensors\n",
              trace.empty() ? "(built-in burst/idle)" : trace.c_str(),
              duration_ms, session.trace().size(), monitor.site_count());
  std::printf("  tracking error: mean %+.3f, 3sigma %.3f, max |e| %.3f degC\n",
              errors.mean(), errors.three_sigma(), errors.max_abs());
  std::printf("  sensing energy: %.1f nJ\n",
              session.total_sensing_energy().value() * 1e9);
  return 0;
}

/// Periodic progress reporter for long fleet runs: a thread printing the
/// aggregator's live counters to stderr every `interval` until stopped.
class SummaryReporter {
 public:
  SummaryReporter(const telemetry::Aggregator& aggregator, double interval_s)
      : aggregator_(aggregator), interval_s_(interval_s) {
    if (interval_s_ > 0.0) thread_ = std::thread{[this] { loop(); }};
  }
  ~SummaryReporter() { stop(); }

  void stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    const auto t0 = std::chrono::steady_clock::now();
    double next = interval_s_;
    while (!done_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (elapsed < next) continue;
      next += interval_s_;
      const telemetry::Aggregator::Progress p = aggregator_.progress();
      // Through the Logger, not raw stderr: progress must never pollute the
      // machine-parsed stdout report, and the default sink's monotonic
      // timestamps line up with trace spans.
      char line[128];
      std::snprintf(line, sizeof line,
                    "[fleet %6.1fs] frames=%llu decode_errors=%llu "
                    "alerts=%llu",
                    elapsed, static_cast<unsigned long long>(p.frames),
                    static_cast<unsigned long long>(p.decode_errors),
                    static_cast<unsigned long long>(p.alerts));
      Logger::instance().log(LogLevel::kInfo, line);
    }
  }

  const telemetry::Aggregator& aggregator_;
  double interval_s_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

int cmd_fleet(const Args& args) {
  args.check_known({"stacks", "threads", "scans", "sample-ms", "ring", "grid",
                    "alert-c", "seed", "card", "store", "summary-interval",
                    "log-level", "metrics-out", "trace-out"});
  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = static_cast<std::size_t>(args.get("stacks", 8LL));
  cfg.thread_count = static_cast<std::size_t>(args.get("threads", 0LL));
  cfg.scans_per_stack = static_cast<std::size_t>(args.get("scans", 50LL));
  cfg.sample_period = Second{args.get("sample-ms", 1.0) * 1e-3};
  cfg.ring_capacity = static_cast<std::size_t>(args.get("ring", 256LL));
  cfg.grid_columns = cfg.grid_rows =
      static_cast<std::size_t>(args.get("grid", 2LL));
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
  cfg.sensor.tech = technology_from(args);
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;

  telemetry::Aggregator::Config agg_cfg;
  agg_cfg.alert_threshold = Celsius{args.get("alert-c", 85.0)};

  std::unique_ptr<store::StoreWriter> writer;
  const std::string store_dir = args.get("store", std::string{});
  if (!store_dir.empty()) {
    writer = std::make_unique<store::StoreWriter>(store_dir);
    cfg.sink = writer.get();
  }

  const double summary_interval = args.get("summary-interval", 0.0);
  // Explicitly requested progress must not be filtered by the default WARN
  // level; an explicit --log-level (or TSVPT_LOG) still wins.
  if (summary_interval > 0.0 && !args.has("log-level") &&
      std::getenv("TSVPT_LOG") == nullptr) {
    Logger::instance().set_level(LogLevel::kInfo);
  }

  telemetry::FleetSampler sampler{cfg};
  telemetry::Aggregator aggregator{agg_cfg};
  SummaryReporter reporter{aggregator, summary_interval};
  aggregator.start(sampler.rings());
  sampler.run();
  aggregator.stop();
  reporter.stop();
  if (writer != nullptr) writer->close();

  const telemetry::Aggregator::Summary& sum = aggregator.summary();
  std::ostringstream json;
  json << "{\n"
       << "  \"stacks\": " << sampler.stack_count() << ",\n"
       << "  \"threads\": " << sampler.worker_count() << ",\n"
       << "  \"scans_per_stack\": " << cfg.scans_per_stack << ",\n"
       << "  \"elapsed_s\": " << sampler.elapsed().value() << ",\n"
       << "  \"frames_produced\": " << sampler.total_frames() << ",\n"
       << "  \"frames_received\": " << sum.frames << ",\n"
       << "  \"frames_dropped\": " << sampler.total_dropped() << ",\n"
       << "  \"decode_errors\": " << sum.decode_errors << ",\n"
       << "  \"frames_per_s\": "
       << (sampler.elapsed().value() > 0.0
               ? static_cast<double>(sampler.total_frames()) /
                     sampler.elapsed().value()
               : 0.0)
       << ",\n"
       << "  \"latency_p50_us\": " << sum.latency.quantile(0.5) * 1e6 << ",\n"
       << "  \"latency_p95_us\": " << sum.latency.quantile(0.95) * 1e6
       << ",\n"
       << "  \"alerts\": {";
  {
    bool first = true;
    for (const auto& [kind, count] : sum.alerts_by_kind) {
      json << (first ? "" : ", ") << '"' << telemetry::to_string(kind)
           << "\": " << count;
      first = false;
    }
  }
  json << "},\n";
  if (writer != nullptr) {
    const store::StoreStats st = writer->stats();
    json << "  \"store\": {\"dir\": \"" << store_dir
         << "\", \"segments\": " << st.segments
         << ", \"blocks\": " << st.blocks << ", \"frames\": " << st.frames
         << ", \"bytes_on_disk\": " << st.bytes_on_disk
         << ", \"bytes_raw\": " << st.bytes_raw
         << ", \"compression_ratio\": " << st.compression_ratio() << "},\n";
  }
  json << "  \"per_stack\": [\n";
  for (std::size_t k = 0; k < sampler.stack_count(); ++k) {
    const auto id = static_cast<std::uint32_t>(k);
    const auto it = sum.stacks.find(id);
    std::uint64_t received = 0;
    std::uint64_t missed = 0;
    std::uint64_t alerts = 0;
    double max_sensed = 0.0;
    if (it != sum.stacks.end()) {
      received = it->second.frames;
      missed = it->second.missed;
      alerts = it->second.alerts;
      for (const auto& [die, stats] : it->second.dies) {
        max_sensed = std::max(max_sensed, stats.sensed_c.max());
      }
    }
    json << "    {\"stack\": " << k
         << ", \"frames\": " << sampler.production()[k].frames
         << ", \"received\": " << received
         << ", \"dropped\": " << sampler.production()[k].dropped
         << ", \"missed\": " << missed << ", \"alerts\": " << alerts
         << ", \"max_sensed_c\": " << max_sensed << "}"
         << (k + 1 < sampler.stack_count() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"obs\": " << obs::metrics_json() << "\n}\n";
  std::cout << json.str();
  export_obs(args);
  // Nonzero when anything alerted (or failed to decode): `tsvpt_cli fleet`
  // doubles as a scriptable health gate for the simulated fleet.
  return (sum.decode_errors == 0 && sum.alerts == 0) ? 0 : 1;
}

int cmd_chaos(const Args& args) {
  args.check_known({"stacks", "threads", "scans", "sample-ms", "ring", "grid",
                    "events-per-kind", "watchdog-ms", "seed", "card", "store",
                    "log-level", "metrics-out", "trace-out"});
  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = static_cast<std::size_t>(args.get("stacks", 8LL));
  cfg.thread_count = static_cast<std::size_t>(args.get("threads", 4LL));
  cfg.scans_per_stack = static_cast<std::size_t>(args.get("scans", 120LL));
  cfg.sample_period = Second{args.get("sample-ms", 1.0) * 1e-3};
  cfg.ring_capacity = static_cast<std::size_t>(args.get("ring", 512LL));
  cfg.grid_columns = cfg.grid_rows =
      static_cast<std::size_t>(args.get("grid", 2LL));
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 7LL));
  cfg.sensor.tech = technology_from(args);
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;
  cfg.supervise = true;
  // Sparse fleet grids see real gradients past the single-stack default:
  // the burst workload's die-0 hotspot reaches ~20 degC of leave-one-out
  // deviation on a 2x2 grid.  Quarantine decisions need the threshold
  // above that, or healthy hotspot sensors get false-quarantined.
  cfg.health.fault.threshold = Celsius{25.0};

  const auto sites_per_stack =
      cfg.grid_columns * cfg.grid_rows * 4;  // four_die_stack
  const inject::FaultPlan plan = inject::FaultPlan::random_campaign(
      cfg.seed, cfg.stack_count, sites_per_stack, cfg.scans_per_stack,
      {inject::FaultKind::kStuckRo, inject::FaultKind::kDeadRo,
       inject::FaultKind::kCounterBitFlip, inject::FaultKind::kSupplyDroop,
       inject::FaultKind::kCalDrift, inject::FaultKind::kFrameCorrupt,
       inject::FaultKind::kRingStall, inject::FaultKind::kWorkerStall},
      static_cast<std::size_t>(args.get("events-per-kind", 1LL)));

  // Recording under chaos: the sink sees pristine frames before the
  // injector corrupts the wire, so the store stays replayable even while
  // the live path is being battered (and a SIGKILL mid-run leaves at most
  // a torn tail for recovery to truncate — the CI soak relies on this).
  std::unique_ptr<store::StoreWriter> writer;
  const std::string store_dir = args.get("store", std::string{});
  if (!store_dir.empty()) {
    writer = std::make_unique<store::StoreWriter>(store_dir);
    cfg.sink = writer.get();
  }

  telemetry::FleetSampler sampler{cfg};
  inject::ChaosInjector injector{plan, &sampler};
  sampler.set_interceptor(&injector);

  telemetry::Aggregator::Config agg_cfg;
  agg_cfg.alert_threshold = Celsius{200.0};  // alerts are not under test here
  agg_cfg.watchdog_timeout = Second{args.get("watchdog-ms", 50.0) * 1e-3};
  agg_cfg.on_stalled_ring = [&sampler](std::size_t ring) {
    sampler.resume_worker(ring);
  };
  telemetry::Aggregator aggregator{agg_cfg};
  aggregator.start(sampler.rings());
  sampler.run();
  aggregator.stop();
  if (writer != nullptr) writer->close();

  // Detection latency per sensor-level fault: scans from the fault's onset
  // to the site's quarantine transition.
  const auto is_sensor_fault = [](inject::FaultKind k) {
    return k == inject::FaultKind::kStuckRo ||
           k == inject::FaultKind::kDeadRo ||
           k == inject::FaultKind::kCounterBitFlip ||
           k == inject::FaultKind::kSupplyDroop ||
           k == inject::FaultKind::kCalDrift;
  };
  struct Detection {
    const inject::FaultEvent* event;
    long latency = -1;  // scans; -1 = never quarantined
  };
  std::vector<Detection> detections;
  std::set<std::pair<std::size_t, std::size_t>> faulted_sites;
  for (const auto& e : plan.events()) {
    if (!is_sensor_fault(e.kind)) continue;
    faulted_sites.insert({e.stack, e.site});
    Detection d{&e, -1};
    for (const auto& t : sampler.transitions(e.stack)) {
      if (t.site_index == e.site &&
          t.to == core::HealthState::kQuarantined && t.scan >= e.start_scan) {
        d.latency = static_cast<long>(t.scan - e.start_scan);
        break;
      }
    }
    detections.push_back(d);
  }

  std::size_t detected = 0;
  for (const auto& d : detections) {
    if (d.latency >= 0) ++detected;
  }
  // False positive: a never-faulted site that was quarantined; permanent
  // when it is still not healthy at the end of the run.
  std::uint64_t false_quarantines = 0;
  std::uint64_t permanent_false_positives = 0;
  bool all_healthy = true;
  for (std::size_t k = 0; k < sampler.stack_count(); ++k) {
    for (const auto& t : sampler.transitions(k)) {
      if (t.to == core::HealthState::kQuarantined &&
          faulted_sites.count({k, t.site_index}) == 0) {
        false_quarantines += 1;
      }
    }
    const auto health = sampler.health(k);
    for (std::size_t i = 0; i < health.size(); ++i) {
      if (health[i] != core::HealthState::kHealthy) {
        all_healthy = false;
        if (faulted_sites.count({k, i}) == 0) permanent_false_positives += 1;
      }
    }
  }

  const telemetry::Aggregator::Summary& sum = aggregator.summary();
  RunningStats degraded_error;
  RunningStats healthy_error;
  for (const auto& [id, stack] : sum.stacks) {
    for (const auto& [die, stats] : stack.dies) {
      degraded_error.merge(stats.degraded_error_c);
      healthy_error.merge(stats.error_c);
    }
  }

  const inject::ChaosInjector::Stats inj = injector.stats();
  std::ostringstream json;
  json << "{\n"
       << "  \"stacks\": " << sampler.stack_count() << ",\n"
       << "  \"scans_per_stack\": " << cfg.scans_per_stack << ",\n"
       << "  \"fault_events\": " << plan.size() << ",\n"
       << "  \"sensor_faults\": " << detections.size() << ",\n"
       << "  \"detected\": " << detected << ",\n"
       << "  \"detections\": [\n";
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const auto& d = detections[i];
    json << "    {\"kind\": \"" << inject::to_string(d.event->kind)
         << "\", \"stack\": " << d.event->stack
         << ", \"site\": " << d.event->site
         << ", \"start_scan\": " << d.event->start_scan
         << ", \"detection_latency_scans\": " << d.latency << "}"
         << (i + 1 < detections.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"false_quarantines\": " << false_quarantines << ",\n"
       << "  \"permanent_false_positives\": " << permanent_false_positives
       << ",\n"
       << "  \"recovered_all_healthy\": " << (all_healthy ? "true" : "false")
       << ",\n"
       << "  \"health_transitions_on_wire\": "
       << sum.health_transitions.size() << ",\n"
       << "  \"substituted_readings\": " << sum.substituted_readings << ",\n"
       << "  \"degraded_error_mean_c\": " << degraded_error.mean() << ",\n"
       << "  \"degraded_error_max_abs_c\": " << degraded_error.max_abs()
       << ",\n"
       << "  \"healthy_error_max_abs_c\": " << healthy_error.max_abs()
       << ",\n"
       << "  \"decode_errors\": " << sum.decode_errors << ",\n"
       << "  \"frames_corrupted\": " << inj.frames_corrupted << ",\n"
       << "  \"publishes_suppressed\": " << inj.publishes_suppressed << ",\n"
       << "  \"worker_stalls\": " << inj.worker_stalls_requested << ",\n"
       << "  \"watchdog_kicks\": " << sum.watchdog_kicks << ",\n"
       << "  \"obs\": " << obs::metrics_json() << "\n"
       << "}\n";
  std::cout << json.str();
  export_obs(args);

  const bool ok = detected == detections.size() &&
                  permanent_false_positives == 0 && all_healthy;
  return ok ? 0 : 1;
}

int cmd_control(const Args& args) {
  args.check_known({"policy", "stacks", "threads", "scans", "sample-ms",
                    "ring", "grid", "seed", "peak-w", "ceiling-c", "floor-c",
                    "violation-c", "chaos", "card", "log-level",
                    "metrics-out", "trace-out"});

  const std::string policy_name = args.get("policy", std::string{"dvfs"});
  control::PolicyKind kind;
  if (!control::parse_policy_kind(policy_name, &kind)) {
    throw std::invalid_argument{"control: unknown policy '" + policy_name +
                                "' (static|dvfs|gating|migration)"};
  }

  const double ceiling_c = args.get("ceiling-c", 65.0);
  const double floor_c = args.get("floor-c", 58.0);
  control::ControlPlane::Config plane_cfg;
  plane_cfg.controller.kind = kind;
  plane_cfg.controller.policy.ceiling = Celsius{ceiling_c};
  plane_cfg.controller.policy.floor = Celsius{floor_c};
  plane_cfg.controller.policy.gate_on = Celsius{ceiling_c};
  plane_cfg.controller.policy.gate_off = Celsius{floor_c};
  plane_cfg.controller.policy.migrate_trip = Celsius{floor_c + 2.0};
  plane_cfg.controller.violation_ceiling =
      Celsius{args.get("violation-c", 75.0)};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = static_cast<std::size_t>(args.get("stacks", 8LL));
  cfg.thread_count = static_cast<std::size_t>(args.get("threads", 4LL));
  cfg.scans_per_stack = static_cast<std::size_t>(args.get("scans", 120LL));
  cfg.sample_period = Second{args.get("sample-ms", 1.0) * 1e-3};
  cfg.ring_capacity = static_cast<std::size_t>(args.get("ring", 512LL));
  cfg.grid_columns = cfg.grid_rows =
      static_cast<std::size_t>(args.get("grid", 2LL));
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 4242LL));
  cfg.peak_power = Watt{args.get("peak-w", 8.0)};
  cfg.sensor.tech = technology_from(args);
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;
  // Controller-in-the-loop needs supervision: quarantined/dead sites must
  // read as non-credible so a dark die degrades to the worst-case rung
  // instead of being actuated on dead readings.
  cfg.supervise = true;
  cfg.health.fault.threshold = Celsius{25.0};  // same caveat as cmd_chaos

  plane_cfg.stack_count = cfg.stack_count;
  plane_cfg.die_count = 4;  // four_die_stack
  control::ControlPlane plane{plane_cfg};
  cfg.control = &plane;

  telemetry::FleetSampler sampler{cfg};

  // Optional sensor-fault chaos (kinds a controller must survive without
  // ever acting on a dead reading; frame/ring faults are cmd_chaos's job).
  std::unique_ptr<inject::ChaosInjector> injector;
  const auto chaos_events =
      static_cast<std::size_t>(args.get("chaos", 0LL));
  inject::FaultPlan plan;
  if (chaos_events > 0) {
    const auto sites_per_stack = cfg.grid_columns * cfg.grid_rows * 4;
    plan = inject::FaultPlan::random_campaign(
        cfg.seed, cfg.stack_count, sites_per_stack, cfg.scans_per_stack,
        {inject::FaultKind::kDeadRo, inject::FaultKind::kStuckRo,
         inject::FaultKind::kSupplyDroop},
        chaos_events);
    injector = std::make_unique<inject::ChaosInjector>(plan, &sampler);
    sampler.set_interceptor(injector.get());
  }

  sampler.run();

  const control::Controller::Stats total = plane.total();
  std::ostringstream json;
  json << "{\n"
       << "  \"policy\": \"" << control::to_string(kind) << "\",\n"
       << "  \"stacks\": " << cfg.stack_count << ",\n"
       << "  \"threads\": " << cfg.thread_count << ",\n"
       << "  \"scans_per_stack\": " << cfg.scans_per_stack << ",\n"
       << "  \"fault_events\": " << plan.size() << ",\n"
       << "  \"decisions\": " << total.decisions << ",\n"
       << "  \"actuations\": " << total.actuations << ",\n"
       << "  \"level_changes\": " << total.level_changes << ",\n"
       << "  \"migrations\": " << total.migrations << ",\n"
       << "  \"blind_scans\": " << total.blind_scans << ",\n"
       << "  \"energy_j\": " << total.energy_j << ",\n"
       << "  \"work_done\": " << total.work_done << ",\n"
       << "  \"violation_seconds\": " << total.violation_s << ",\n"
       << "  \"peak_true_c\": " << total.peak_true_c << ",\n"
       << "  \"control_digest_bytes\": "
       << control::canonical_digest(plane).size() << ",\n"
       << "  \"obs\": " << obs::metrics_json() << "\n"
       << "}\n";
  std::cout << json.str();
  export_obs(args);

  // Scripts gate on this: the fleet stayed under the scoring ceiling for
  // the whole campaign.
  return total.violation_s == 0.0 ? 0 : 1;
}

int cmd_serve(const Args& args) {
  args.check_known({"port", "shards", "ring", "alert-c", "spatial", "store",
                    "duration-s", "idle-exit-s", "idle-conn-s", "http-port",
                    "log-level", "metrics-out", "trace-out"});
  ingest::IngestServer::Config cfg;
  cfg.port = static_cast<std::uint16_t>(args.get("port", 0LL));
  cfg.shard_count = static_cast<std::size_t>(args.get("shards", 2LL));
  cfg.shard_ring_capacity = static_cast<std::size_t>(args.get("ring", 4096LL));
  cfg.aggregator.alert_threshold = Celsius{args.get("alert-c", 85.0)};
  // Sparse 2x2 publisher grids see real hotspot gradients past the spatial
  // check's threshold (the same caveat cmd_chaos documents); --spatial 0
  // gates a soak on transport cleanliness without the detector's opinion.
  cfg.aggregator.spatial_check = args.get("spatial", 1LL) != 0;
  cfg.store_dir = args.get("store", std::string{});
  // Reap connections silent past this long; publishers on a heartbeat
  // interval below it stay alive while idle.  0 (default) disables.
  cfg.idle_conn_timeout = Second{args.get("idle-conn-s", 0.0)};
  // --http-port N turns on the live scrape endpoint (0 = ephemeral; the
  // bound port is printed on stderr next to the ingest port).
  if (args.has("http-port")) {
    cfg.http_enabled = true;
    cfg.http_port = static_cast<std::uint16_t>(args.get("http-port", 0LL));
  }

  const double duration_s = args.get("duration-s", 0.0);
  const double idle_exit_s = args.get("idle-exit-s", 10.0);

  ingest::IngestServer server{cfg};
  server.start();
  // The bound port on stderr immediately, so scripts wrapping an ephemeral
  // port (--port 0) can discover it before the JSON report exists.
  std::fprintf(stderr, "tsvpt_cli serve: listening on %s:%u (%zu shards)\n",
               cfg.bind_host.c_str(), server.port(), server.shard_count());
  if (cfg.http_enabled) {
    std::fprintf(stderr, "tsvpt_cli serve: scrape endpoint on %s:%u\n",
                 cfg.bind_host.c_str(), server.http_port());
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (duration_s > 0.0 && elapsed >= duration_s) break;
    if (idle_exit_s > 0.0 && server.stats().open_connections == 0 &&
        server.idle_for().value() >= idle_exit_s) {
      break;
    }
  }
  server.stop();

  const ingest::IngestServer::Stats st = server.stats();
  const ingest::FleetView view = server.fleet_view();
  std::ostringstream json;
  json << "{\n"
       << "  \"port\": " << server.port() << ",\n"
       << "  \"shards\": " << server.shard_count() << ",\n"
       << "  \"connections\": " << st.connections << ",\n"
       << "  \"disconnects\": " << st.disconnects << ",\n"
       << "  \"partial_disconnects\": " << st.partial_disconnects << ",\n"
       << "  \"protocol_errors\": " << st.protocol_errors << ",\n"
       << "  \"batches\": " << st.batches << ",\n"
       << "  \"frames\": " << st.frames << ",\n"
       << "  \"bytes\": " << st.bytes << ",\n"
       << "  \"ring_drops\": " << st.ring_drops << ",\n"
       << "  \"acks_sent\": " << st.acks_sent << ",\n"
       << "  \"nacks_sent\": " << st.nacks_sent << ",\n"
       << "  \"duplicate_batches\": " << st.duplicate_batches << ",\n"
       << "  \"duplicate_frames\": " << st.duplicate_frames << ",\n"
       << "  \"heartbeats\": " << st.heartbeats << ",\n"
       << "  \"batch_gaps\": " << st.batch_gaps << ",\n"
       << "  \"fin_drains\": " << st.fin_drains << ",\n"
       << "  \"reaped_connections\": " << st.reaped_connections << ",\n"
       << "  \"http_requests\": " << st.http_requests << ",\n"
       << "  \"publishers\": " << st.publishers << ",\n"
       << "  \"frames_per_shard\": [";
  for (std::size_t s = 0; s < st.frames_per_shard.size(); ++s) {
    json << (s == 0 ? "" : ", ") << st.frames_per_shard[s];
  }
  json << "],\n"
       << "  \"fleet\": {\n"
       << "    \"frames\": " << view.frames() << ",\n"
       << "    \"decode_errors\": " << view.decode_errors() << ",\n"
       << "    \"missed\": " << view.missed() << ",\n"
       << "    \"stacks\": " << view.stacks().size() << ",\n"
       << "    \"alerts\": {";
  {
    bool first = true;
    for (const auto& [kind, count] : view.alerts_by_kind()) {
      json << (first ? "" : ", ") << '"' << telemetry::to_string(kind)
           << "\": " << count;
      first = false;
    }
  }
  json << "},\n"
       << "    \"latency_source\": \"" << view.latency_source() << "\",\n"
       << "    \"latency_aligned_samples\": " << view.latency_aligned()
       << ",\n"
       << "    \"digest\": " << view.digest() << "\n"
       << "  },\n"
       << "  \"slo\": " << obs::to_json(view.slo_status()) << ",\n"
       << "  \"per_stack\": [\n";
  {
    std::size_t i = 0;
    for (const auto& [stack_id, sv] : view.stacks()) {
      json << "    {\"stack\": " << stack_id << ", \"frames\": " << sv.frames
           << ", \"missed\": " << sv.missed << ", \"alerts\": " << sv.alerts
           << "}" << (++i < view.stacks().size() ? "," : "") << "\n";
    }
  }
  json << "  ],\n"
       << "  \"obs\": " << obs::metrics_json() << "\n}\n";
  std::cout << json.str();
  export_obs(args);
  // The same scriptable gate as `fleet`: nonzero when anything alerted or
  // failed to decode anywhere in the (possibly multi-publisher) fleet.
  return (view.decode_errors() == 0 && view.alerts() == 0) ? 0 : 1;
}

int cmd_publish(const Args& args) {
  args.check_known({"host", "port", "stacks", "threads", "scans", "sample-ms",
                    "ring", "grid", "seed", "card", "stack-base",
                    "batch-frames", "batch-bytes", "flush-ms", "queue",
                    "spill-dir", "publisher-id", "heartbeat-ms", "jitter",
                    "drain-s", "log-level", "metrics-out", "trace-out"});
  if (!args.has("port")) {
    std::fprintf(stderr, "tsvpt_cli publish: --port is required\n");
    return 2;
  }
  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = static_cast<std::size_t>(args.get("stacks", 8LL));
  cfg.thread_count = static_cast<std::size_t>(args.get("threads", 2LL));
  cfg.scans_per_stack = static_cast<std::size_t>(args.get("scans", 50LL));
  cfg.sample_period = Second{args.get("sample-ms", 1.0) * 1e-3};
  cfg.ring_capacity = static_cast<std::size_t>(args.get("ring", 1024LL));
  cfg.grid_columns = cfg.grid_rows =
      static_cast<std::size_t>(args.get("grid", 2LL));
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
  cfg.stack_id_base =
      static_cast<std::uint32_t>(args.get("stack-base", 0LL));
  cfg.sensor.tech = technology_from(args);
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;

  ingest::FleetPublisher::Config pub_cfg;
  pub_cfg.host = args.get("host", std::string{"127.0.0.1"});
  pub_cfg.port = static_cast<std::uint16_t>(args.get("port", 0LL));
  pub_cfg.batch_max_frames =
      static_cast<std::size_t>(args.get("batch-frames", 64LL));
  pub_cfg.batch_max_bytes =
      static_cast<std::size_t>(args.get("batch-bytes", 262144LL));
  pub_cfg.flush_interval = Second{args.get("flush-ms", 5.0) * 1e-3};
  pub_cfg.queue_max_batches =
      static_cast<std::size_t>(args.get("queue", 64LL));
  // At-least-once knobs.  A spill dir makes the run crash-safe: sealed
  // batches hit the log before their first send, and a rerun on the same
  // dir (e.g. --scans 0 for a pure resume) retransmits the unacked window.
  pub_cfg.spill_dir = args.get("spill-dir", std::string{});
  pub_cfg.publisher_id =
      static_cast<std::uint64_t>(args.get("publisher-id", 0LL));
  pub_cfg.heartbeat_interval = Second{args.get("heartbeat-ms", 0.0) * 1e-3};
  pub_cfg.backoff_jitter = args.get("jitter", 0.5);
  pub_cfg.drain_deadline = Second{args.get("drain-s", 2.0)};

  // --scans 0: pure resume.  No sampler at all — construct the publisher on
  // its spill dir (replaying whatever a killed run left unacked), let the
  // sender thread retransmit, and run the FIN/drained handshake.  This is
  // how a supervisor finishes the job of a publisher that was SIGKILL'd.
  if (cfg.scans_per_stack == 0) {
    if (pub_cfg.spill_dir.empty()) {
      std::fprintf(stderr,
                   "tsvpt_cli publish: --scans 0 (resume-only) needs"
                   " --spill-dir\n");
      return 2;
    }
    ingest::FleetPublisher publisher{pub_cfg};
    publisher.start({});
    publisher.stop();
    const ingest::FleetPublisher::Stats st = publisher.stats();
    std::ostringstream json;
    json << "{\n"
         << "  \"resume_only\": true,\n"
         << "  \"publisher_id\": " << publisher.publisher_id() << ",\n"
         << "  \"acked_seq\": " << publisher.acked_seq() << ",\n"
         << "  \"resumed_batches\": " << st.resumed_batches << ",\n"
         << "  \"resumed_frames\": " << st.resumed_frames << ",\n"
         << "  \"retransmitted_batches\": " << st.retransmitted_batches
         << ",\n"
         << "  \"retransmitted_frames\": " << st.retransmitted_frames << ",\n"
         << "  \"acks_received\": " << st.acks_received << ",\n"
         << "  \"unacked_batches\": " << st.unacked_batches << ",\n"
         << "  \"fin_sent\": " << st.fin_sent << ",\n"
         << "  \"drained\": " << (st.drained ? "true" : "false") << ",\n"
         << "  \"connected\": " << (st.connected_once ? "true" : "false")
         << ",\n"
         << "  \"clock_offset_ns\": " << st.clock_offset_ns << ",\n"
         << "  \"clock_rtt_ns\": " << st.clock_rtt_ns << ",\n"
         << "  \"clock_samples\": " << st.clock_samples << ",\n"
         << "  \"obs\": " << obs::metrics_json() << "\n}\n";
    std::cout << json.str();
    export_obs(args);
    return (st.connected_once && st.drained) ? 0 : 1;
  }

  telemetry::FleetSampler sampler{cfg};
  ingest::FleetPublisher publisher{pub_cfg};
  publisher.start(sampler.rings());
  sampler.run();
  publisher.stop();

  const ingest::FleetPublisher::Stats st = publisher.stats();
  std::ostringstream json;
  json << "{\n"
       << "  \"stacks\": " << sampler.stack_count() << ",\n"
       << "  \"stack_base\": " << cfg.stack_id_base << ",\n"
       << "  \"frames_produced\": " << sampler.total_frames() << ",\n"
       << "  \"frames_ring_dropped\": " << sampler.total_dropped() << ",\n"
       << "  \"frames_enqueued\": " << st.frames_enqueued << ",\n"
       << "  \"frames_sent\": " << st.frames_sent << ",\n"
       << "  \"batches_sent\": " << st.batches_sent << ",\n"
       << "  \"bytes_sent\": " << st.bytes_sent << ",\n"
       << "  \"connects\": " << st.connects << ",\n"
       << "  \"reconnects\": " << st.reconnects << ",\n"
       << "  \"send_failures\": " << st.send_failures << ",\n"
       << "  \"queue_dropped_batches\": " << st.queue_dropped_batches << ",\n"
       << "  \"queue_dropped_frames\": " << st.queue_dropped_frames << ",\n"
       << "  \"publisher_id\": " << publisher.publisher_id() << ",\n"
       << "  \"acked_seq\": " << publisher.acked_seq() << ",\n"
       << "  \"acks_received\": " << st.acks_received << ",\n"
       << "  \"frames_acked\": " << st.frames_acked << ",\n"
       << "  \"batches_acked\": " << st.batches_acked << ",\n"
       << "  \"retransmitted_batches\": " << st.retransmitted_batches << ",\n"
       << "  \"retransmitted_frames\": " << st.retransmitted_frames << ",\n"
       << "  \"nacks_received\": " << st.nacks_received << ",\n"
       << "  \"heartbeats_sent\": " << st.heartbeats_sent << ",\n"
       << "  \"fin_sent\": " << st.fin_sent << ",\n"
       << "  \"spilled_batches\": " << st.spilled_batches << ",\n"
       << "  \"resumed_batches\": " << st.resumed_batches << ",\n"
       << "  \"resumed_frames\": " << st.resumed_frames << ",\n"
       << "  \"unacked_batches\": " << st.unacked_batches << ",\n"
       << "  \"drained\": " << (st.drained ? "true" : "false") << ",\n"
       << "  \"connected\": " << (st.connected_once ? "true" : "false")
       << ",\n"
       << "  \"clock_offset_ns\": " << st.clock_offset_ns << ",\n"
       << "  \"clock_rtt_ns\": " << st.clock_rtt_ns << ",\n"
       << "  \"clock_samples\": " << st.clock_samples << ",\n"
       << "  \"obs\": " << obs::metrics_json() << "\n}\n";
  std::cout << json.str();
  export_obs(args);
  // Clean publish, two delivery regimes:
  //   - best-effort (no spill dir): the server was reachable and nothing
  //     was shed anywhere on the way out (ring, queue, wire).
  //   - at-least-once (spill dir): the FIN handshake completed — every
  //     batch that ever entered the log (this run or a resumed one) is
  //     covered by the server's cumulative ack — and the sampler-side ring
  //     shed nothing.  frames_sent == frames_enqueued is the wrong gate
  //     here: a resumed window is retransmitted, not "sent".
  if (!pub_cfg.spill_dir.empty()) {
    return (st.connected_once && st.drained && sampler.total_dropped() == 0 &&
            st.queue_dropped_frames == 0)
               ? 0
               : 1;
  }
  return (st.connected_once && st.frames_sent == st.frames_enqueued &&
          st.frames_enqueued == sampler.total_frames())
             ? 0
             : 1;
}

void print_ids(std::ostringstream& json, const std::vector<std::uint32_t>& ids) {
  json << "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    json << (i == 0 ? "" : ", ") << ids[i];
  }
  json << "]";
}

store::StoreReader::Query query_from(const Args& args) {
  store::StoreReader::Query query;
  if (args.has("t-min")) query.t_min = args.get("t-min", 0.0);
  if (args.has("t-max")) query.t_max = args.get("t-max", 0.0);
  if (args.has("stack")) {
    query.stack_ids.push_back(
        static_cast<std::uint32_t>(args.get("stack", 0LL)));
  }
  if (args.has("site")) {
    query.site_ids.push_back(
        static_cast<std::size_t>(args.get("site", 0LL)));
  }
  return query;
}

int cmd_store_info(const std::string& dir) {
  const store::StoreReader reader{dir};
  const store::StoreStats stats = reader.stats();
  const std::uint64_t corrupt = reader.verify();
  std::ostringstream json;
  json << "{\n"
       << "  \"dir\": \"" << dir << "\",\n"
       << "  \"segments\": " << stats.segments << ",\n"
       << "  \"blocks\": " << stats.blocks << ",\n"
       << "  \"frames\": " << stats.frames << ",\n"
       << "  \"bytes_on_disk\": " << stats.bytes_on_disk << ",\n"
       << "  \"bytes_raw\": " << stats.bytes_raw << ",\n"
       << "  \"compression_ratio\": " << stats.compression_ratio() << ",\n"
       << "  \"torn_tails\": " << stats.torn_tail_recoveries << ",\n"
       << "  \"corrupt_blocks\": " << corrupt << ",\n"
       << "  \"t_min\": " << stats.t_min << ",\n"
       << "  \"t_max\": " << stats.t_max << ",\n"
       << "  \"stack_ids\": ";
  print_ids(json, stats.stack_ids);
  json << ",\n  \"segment_files\": [\n";
  const auto& segments = reader.segments();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& s = segments[i];
    json << "    {\"path\": \"" << s.path << "\", \"blocks\": "
         << s.blocks.size() << ", \"frames\": " << s.frames()
         << ", \"valid_bytes\": " << s.valid_bytes
         << ", \"torn_tail\": " << (s.torn_tail() ? "true" : "false") << "}"
         << (i + 1 < segments.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << json.str();
  // Scriptable integrity gate: nonzero on any corrupt block, so `store
  // info` doubles as the post-crash soak check.
  return corrupt == 0 ? 0 : 1;
}

int cmd_store_query(const Args& args, const std::string& dir) {
  const store::StoreReader reader{dir};
  const auto limit = static_cast<std::size_t>(args.get("limit", 20LL));
  auto cursor = reader.scan(query_from(args));
  telemetry::Frame frame;
  std::size_t printed = 0;
  std::uint64_t matched = 0;
  while (cursor.next(frame)) {
    matched += 1;
    if (printed >= limit) continue;  // keep counting for the summary line
    printed += 1;
    double max_sensed = 0.0;
    for (const auto& r : frame.readings) {
      max_sensed = std::max(max_sensed, r.sensed.value());
    }
    std::printf(
        "{\"stack\": %u, \"sequence\": %llu, \"sim_time\": %.6f, "
        "\"sites\": %zu, \"max_sensed_c\": %.3f}\n",
        frame.stack_id, static_cast<unsigned long long>(frame.sequence),
        frame.sim_time.value(), frame.readings.size(), max_sensed);
  }
  std::fprintf(stderr, "%llu frames matched, %zu printed, %llu corrupt blocks\n",
               static_cast<unsigned long long>(matched), printed,
               static_cast<unsigned long long>(cursor.corrupt_blocks()));
  return cursor.corrupt_blocks() == 0 ? 0 : 1;
}

int cmd_store_replay(const Args& args, const std::string& dir) {
  const store::StoreReader reader{dir};
  telemetry::Aggregator::Config agg_cfg;
  agg_cfg.alert_threshold = Celsius{args.get("alert-c", 85.0)};
  agg_cfg.spatial_check = args.get("spatial", 1LL) != 0;
  std::vector<telemetry::Alert> alert_log;
  telemetry::Aggregator aggregator{
      agg_cfg, [&](const telemetry::Alert& a) { alert_log.push_back(a); }};
  const auto result = reader.replay(query_from(args), aggregator);
  const telemetry::Aggregator::Summary& sum = aggregator.summary();
  // The replayed run folded into a canonical FleetView: `store replay` on a
  // serve --store directory must digest-equal the serve report's fleet view
  // (the store holds exactly the frames the server emitted post-dedup) —
  // the offline half of the kill-and-resume zero-loss gate.
  ingest::FleetView view;
  view.add_shard(sum, alert_log);
  view.finalize();
  std::ostringstream json;
  json << "{\n"
       << "  \"frames_replayed\": " << result.frames_replayed << ",\n"
       << "  \"corrupt_blocks\": " << result.corrupt_blocks << ",\n"
       << "  \"decode_errors\": " << sum.decode_errors << ",\n"
       << "  \"missed\": " << view.missed() << ",\n"
       << "  \"digest\": " << view.digest() << ",\n"
       << "  \"alerts\": {";
  bool first = true;
  for (const auto& [kind, count] : sum.alerts_by_kind) {
    json << (first ? "" : ", ") << '"' << telemetry::to_string(kind)
         << "\": " << count;
    first = false;
  }
  json << "},\n  \"health_transitions\": " << sum.health_transitions.size()
       << ",\n  \"substituted_readings\": " << sum.substituted_readings
       << "\n}\n";
  std::cout << json.str();
  // Stored frames are pristine wire images: any decode error on replay
  // means the store (not the run) is damaged.
  return (result.corrupt_blocks == 0 && sum.decode_errors == 0) ? 0 : 1;
}

int cmd_store_compact(const Args& args, const std::string& dir) {
  store::Retention retention;
  retention.max_bytes = static_cast<std::uint64_t>(args.get("max-bytes", 0LL));
  retention.max_age = Second{args.get("max-age-s", 0.0)};
  const store::CompactionReport report = store::compact_store(dir, retention);
  std::printf(
      "{\"segments_removed\": %zu, \"segments_rewritten\": %zu, "
      "\"blocks_dropped\": %zu, \"frames_dropped\": %llu, "
      "\"bytes_before\": %llu, \"bytes_after\": %llu}\n",
      report.segments_removed, report.segments_rewritten,
      report.blocks_dropped,
      static_cast<unsigned long long>(report.frames_dropped),
      static_cast<unsigned long long>(report.bytes_before),
      static_cast<unsigned long long>(report.bytes_after));
  return 0;
}

int cmd_store(const Args& args) {
  args.check_known({"dir", "t-min", "t-max", "stack", "site", "limit",
                    "alert-c", "spatial", "max-bytes", "max-age-s",
                    "log-level"});
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: tsvpt_cli store <info|query|replay|compact> "
                 "--dir DIR [flags]\n");
    return 2;
  }
  const std::string sub = args.positionals().front();
  const std::string dir = args.get("dir", std::string{});
  if (dir.empty()) {
    std::fprintf(stderr, "tsvpt_cli store %s: --dir is required\n",
                 sub.c_str());
    return 2;
  }
  if (sub == "info") return cmd_store_info(dir);
  if (sub == "query") return cmd_store_query(args, dir);
  if (sub == "replay") return cmd_store_replay(args, dir);
  if (sub == "compact") return cmd_store_compact(args, dir);
  std::fprintf(stderr, "tsvpt_cli store: unknown subcommand '%s'\n",
               sub.c_str());
  return 2;
}

int cmd_obs_scrape(const Args& args) {
  args.check_known({"host", "port", "path", "log-level"});
  if (!args.has("port")) {
    std::fprintf(stderr, "tsvpt_cli obs scrape: --port is required\n");
    return 2;
  }
  const std::string host = args.get("host", std::string{"127.0.0.1"});
  const auto port = static_cast<std::uint16_t>(args.get("port", 0LL));
  const std::string path = args.get("path", std::string{"/metrics"});
  net::Socket sock = net::tcp_connect(host, port);
  if (!sock.valid()) {
    std::fprintf(stderr, "tsvpt_cli obs scrape: cannot connect to %s:%u\n",
                 host.c_str(), port);
    return 1;
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  if (!net::send_all(sock,
                     reinterpret_cast<const std::uint8_t*>(request.data()),
                     request.size())) {
    std::fprintf(stderr, "tsvpt_cli obs scrape: send failed\n");
    return 1;
  }
  // HTTP/1.0 responses are close-delimited: read until the server hangs up.
  std::string response;
  std::uint8_t buf[4096];
  for (;;) {
    const net::IoResult r = net::recv_some(sock, buf, sizeof buf);
    if (r.status != net::IoStatus::kOk) break;
    response.append(reinterpret_cast<const char*>(buf), r.bytes);
  }
  const std::size_t header_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 ||
      header_end == std::string::npos) {
    std::fprintf(stderr, "tsvpt_cli obs scrape: malformed response\n");
    return 1;
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  std::cout << response.substr(header_end + 4);
  if (status_line.find(" 200 ") == std::string::npos) {
    std::fprintf(stderr, "tsvpt_cli obs scrape: %s\n", status_line.c_str());
    return 1;
  }
  return 0;
}

int cmd_obs_merge(const Args& args) {
  args.check_known({"out", "log-level"});
  const auto& inputs = args.positionals();
  if (inputs.size() < 2) {  // front() is "merge-trace"
    std::fprintf(stderr,
                 "usage: tsvpt_cli obs merge-trace [--out FILE]"
                 " FILE[:offset_ns[:label]] ...\n");
    return 2;
  }
  obs::TraceMerge merge;
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    // FILE[:offset_ns[:label]] — offset in nanoseconds, added to every
    // event timestamp of that input (obs::ClockAlign's estimate, so all
    // processes land on the ingest server's clock).
    const std::string& spec = inputs[i];
    std::string file = spec;
    std::int64_t offset_ns = 0;
    std::string label;
    const std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      file = spec.substr(0, colon);
      std::string rest = spec.substr(colon + 1);
      const std::size_t colon2 = rest.find(':');
      if (colon2 != std::string::npos) {
        label = rest.substr(colon2 + 1);
        rest = rest.substr(0, colon2);
      }
      offset_ns = std::strtoll(rest.c_str(), nullptr, 10);
    }
    std::ifstream in{file};
    if (!in) {
      std::fprintf(stderr, "tsvpt_cli obs merge-trace: cannot read %s\n",
                   file.c_str());
      return 1;
    }
    std::ostringstream content;
    content << in.rdbuf();
    merge.add(content.str(), offset_ns,
              label.empty() ? file : label);
  }
  const obs::TraceMerge::Result merged = merge.merge();
  const std::string out_path = args.get("out", std::string{});
  if (out_path.empty()) {
    std::cout << merged.json;
  } else {
    std::ofstream out{out_path};
    out << merged.json;
    if (!out) {
      std::fprintf(stderr, "tsvpt_cli obs merge-trace: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "tsvpt_cli obs merge-trace: %zu events from %zu"
               " inputs (",
               merged.total_events, merged.events_per_input.size());
  for (std::size_t i = 0; i < merged.events_per_input.size(); ++i) {
    std::fprintf(stderr, "%s%zu", i == 0 ? "" : ", ",
                 merged.events_per_input[i]);
  }
  std::fprintf(stderr, ")\n");
  return 0;
}

int cmd_obs(const Args& args) {
  const std::string sub =
      args.positionals().empty() ? std::string{} : args.positionals().front();
  if (sub == "scrape") return cmd_obs_scrape(args);
  if (sub == "merge-trace") return cmd_obs_merge(args);
  if (sub != "dump") {
    std::fprintf(stderr,
                 "usage: tsvpt_cli obs dump [--format prom|json]"
                 " [--metrics-out FILE] [--trace-out FILE]"
                 " [--exercise 1 [--stacks N] [--scans N]]\n"
                 "       tsvpt_cli obs scrape --port N [--host H]"
                 " [--path /metrics|/healthz]\n"
                 "       tsvpt_cli obs merge-trace [--out FILE]"
                 " FILE[:offset_ns[:label]] ...\n");
    return 2;
  }
  args.check_known({"format", "metrics-out", "trace-out", "exercise",
                    "stacks", "scans", "log-level"});
  if (args.has("exercise")) {
    // A mini supervised fleet run so the dump holds live numbers — the
    // quickest way to see the full metric inventory and a real trace.
    telemetry::FleetSampler::Config cfg;
    cfg.stack_count = static_cast<std::size_t>(args.get("stacks", 2LL));
    cfg.thread_count = 2;
    cfg.scans_per_stack = static_cast<std::size_t>(args.get("scans", 20LL));
    cfg.sample_period = Second{1e-3};
    cfg.ring_capacity = 64;
    cfg.grid_columns = cfg.grid_rows = 1;
    cfg.seed = 1;
    cfg.sensor.tech = device::Technology::tsmc65_like();
    cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;
    telemetry::FleetSampler sampler{cfg};
    telemetry::Aggregator aggregator{{}};
    aggregator.start(sampler.rings());
    sampler.run();
    aggregator.stop();
  }
  const std::string format = args.get("format", std::string{"prom"});
  if (format == "prom") {
    std::cout << obs::metrics_prometheus();
  } else if (format == "json") {
    std::cout << obs::metrics_json() << "\n";
  } else {
    std::fprintf(stderr, "tsvpt_cli obs: unknown --format '%s'\n",
                 format.c_str());
    return 2;
  }
  export_obs(args);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tsvpt_cli"
               " <tech|sense|mc|trace|fleet|chaos|control|serve|publish|"
               "store|obs>"
               " [flags]\n"
               "  tech   [--card FILE]\n"
               "  sense  --t DEGC [--dvtn-mv MV] [--dvtp-mv MV] [--seed N]"
               " [--card FILE] [--compensate 1]\n"
               "  mc     [--dies N] [--seed N] [--card FILE]\n"
               "  trace  [--trace FILE] [--sample-ms MS] [--duration-ms MS]"
               " [--seed N]\n"
               "         (a --duration-ms longer than the trace replays it)\n"
               "  fleet  [--stacks N] [--threads N] [--scans N]"
               " [--sample-ms MS] [--ring N] [--grid N] [--alert-c DEGC]"
               " [--seed N] [--card FILE]\n"
               "         (exit 0 only when no alert fired and every frame"
               " decoded)\n"
               "  chaos  [--stacks N] [--threads N] [--scans N]"
               " [--sample-ms MS] [--ring N] [--grid N] [--events-per-kind N]"
               " [--watchdog-ms MS] [--seed N] [--card FILE] [--store DIR]\n"
               "  control [--policy static|dvfs|gating|migration]"
               " [--stacks N] [--threads N] [--scans N] [--sample-ms MS]"
               " [--ring N] [--grid N]\n"
               "          [--seed N] [--peak-w W] [--ceiling-c DEGC]"
               " [--floor-c DEGC] [--violation-c DEGC] [--chaos N]"
               " [--card FILE]\n"
               "         controller-in-the-loop fleet: every stack runs the"
               " chosen DTM policy; --chaos N injects N sensor faults per"
               " kind;\n"
               "         prints a JSON report (energy, peak, violation"
               " seconds, actuation counters); exit 0 only with zero"
               " violation-seconds\n"
               "  serve  [--port N] [--shards N] [--ring N] [--alert-c DEGC]"
               " [--store DIR] [--duration-s S] [--idle-exit-s S]"
               " [--idle-conn-s S]\n"
               "         sharded TCP ingest server with per-publisher"
               " ack/dedup; prints the merged fleet view (exit 0 only when"
               " clean); --idle-conn-s reaps silent connections\n"
               "  publish --port N [--host H] [--stacks N] [--threads N]"
               " [--scans N] [--stack-base N] [--batch-frames N]"
               " [--flush-ms MS] [--queue N] [--seed N]\n"
               "          [--spill-dir DIR] [--publisher-id N]"
               " [--heartbeat-ms MS] [--jitter X] [--drain-s S]\n"
               "         sample a fleet and stream it to a serve instance;"
               " --spill-dir makes delivery at-least-once and crash-safe\n"
               "         (rerun on the same dir, e.g. with --scans 0, to"
               " resume a killed run; exit 0 = drained, else = all sent)\n"
               "  store  <info|query|replay|compact> --dir DIR\n"
               "         info                   print stats + integrity"
               " (exit 1 on corrupt blocks)\n"
               "         query   [--t-min S] [--t-max S] [--stack N]"
               " [--site N] [--limit N]\n"
               "         replay  [--t-min S] [--t-max S] [--stack N]"
               " [--alert-c DEGC] [--spatial 0|1]"
               " (prints the replayed fleet-view digest)\n"
               "         compact [--max-bytes N] [--max-age-s S]\n"
               "  obs    dump [--format prom|json] [--metrics-out FILE]"
               " [--trace-out FILE] [--exercise 1]\n"
               "         print the self-observability metric registry"
               " (--exercise runs a mini fleet first)\n"
               "  obs    scrape --port N [--host H]"
               " [--path /metrics|/healthz]\n"
               "         fetch a serve --http-port endpoint (exit 0 only on"
               " a 200)\n"
               "  obs    merge-trace [--out FILE]"
               " FILE[:offset_ns[:label]] ...\n"
               "         stitch per-process Chrome traces onto one clock"
               " (one pid lane per input)\n"
               "  serve also takes [--http-port N] (live /metrics +"
               " /healthz; 0 = ephemeral)\n"
               "  fleet also takes [--store DIR] [--summary-interval S]\n"
               "  fleet and chaos also take [--metrics-out FILE]"
               " [--trace-out FILE] (metrics format by extension:"
               " .json -> JSON, else Prometheus text)\n"
               "  every command takes [--log-level debug|info|warn|error]"
               " (default warn, or the TSVPT_LOG environment variable)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args{argc - 2, argv + 2};
    apply_log_level(args);
    if (command == "tech") return cmd_tech(args);
    if (command == "sense") return cmd_sense(args);
    if (command == "mc") return cmd_mc(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "control") return cmd_control(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "publish") return cmd_publish(args);
    if (command == "store") return cmd_store(args);
    if (command == "obs") return cmd_obs(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsvpt_cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
