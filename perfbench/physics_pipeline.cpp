// physics_pipeline: the users' `publish -> serve --store` path with real
// physics.  4 stacks of 2x2 sites per die (16 sites/frame) on 1 sampler
// worker, a threaded FleetPublisher at `tsvpt_cli publish` defaults, a
// loopback IngestServer with 1 shard at `serve` aggregator defaults and the
// historian on.  Closed: the sampler runs flat out.
//
// Each round builds the whole pipeline from its own derived seed, times it,
// checks it and tears it down (see add_closed_loop_results for how rounds
// become end-to-end numbers).
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tsvpt;
namespace fs = std::filesystem;

constexpr std::size_t kStacks = 4;
constexpr std::size_t kGrid = 2;
constexpr std::size_t kSitesPerStack = kGrid * kGrid * 4;  // four_die_stack
constexpr std::size_t kRounds = 5;
/// Frames per host second on the 4-core reference box; sizes the work only.
constexpr double kSizingFramesPerS = 22000.0;

struct Round : ClosedRound {
  Readback readback;
  /// Traced rounds: the registry after the pipeline, before read-back.
  std::optional<RegistryView> pipeline;
  std::optional<RegistryView> after_readback;
};

Round run_round(const Options& options, std::uint64_t seed, std::size_t scans,
                int index, SpanLog* spans, Result& result) {
  Round round;
  const std::uint64_t t0 = now_ns();

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = kStacks;
  cfg.thread_count = 1;
  cfg.scans_per_stack = scans;
  cfg.grid_columns = cfg.grid_rows = kGrid;
  // 8x the `publish` default: a drained ring never holds more than a batch,
  // and the headroom keeps a descheduled publisher thread on a shared box
  // from turning into dropped frames, which would fail the run.
  cfg.ring_capacity = 8192;
  cfg.seed = seed;
  cfg.sensor.model_vdd = cfg.sensor.tech.vdd_nominal;
  FleetTap tap{kStacks, spans};
  cfg.sink = &tap;
  if (spans != nullptr) cfg.interceptor = &tap;

  const double rss_before = rss_mb();
  const std::uint64_t build0 = now_ns();
  auto sampler = std::make_unique<telemetry::FleetSampler>(cfg);
  round.build_s = seconds_between(build0, now_ns());
  round.rss_per_stack_mb = (rss_mb() - rss_before) / kStacks;

  const std::string store_dir =
      options.work_dir + "/physics-store-" + std::to_string(index);
  fs::remove_all(store_dir);
  ingest::IngestServer::Config server_cfg;
  server_cfg.shard_count = 1;
  server_cfg.store_dir = store_dir;
  ingest::IngestServer server{server_cfg};
  {
    const ScopedSpan span{spans, "ingest", "server_start"};
    server.start();
  }
  ingest::FleetPublisher::Config pub_cfg;
  pub_cfg.port = server.port();
  ingest::FleetPublisher publisher{pub_cfg};
  publisher.start(sampler->rings());
  round.setup_s = seconds_between(t0, now_ns());

  const long switches0 = involuntary_switches();
  const std::uint64_t run0 = now_ns();
  ThreadProbe probe;
  sampler->run();
  publisher.stop();
  round.produced = sampler->total_frames();
  const telemetry::Aggregator& shard = server.shard_aggregator(0);
  for (int i = 0; i < 30'000 && shard.progress().frames < round.produced;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t run1 = now_ns();
  round.involuntary_switches = involuntary_switches() - switches0;
  round.threads = probe.join();
  {
    const ScopedSpan span{spans, "ingest", "server_stop"};
    server.stop();
  }
  round.frames_per_s =
      static_cast<double>(round.produced) / seconds_between(run0, run1);

  const ingest::FleetView view = server.fleet_view();
  round.failed =
      failed_frames(view, std::vector<std::uint64_t>(kStacks, scans));
  const ingest::FleetPublisher::Stats pub = publisher.stats();
  const ingest::IngestServer::Stats srv = server.stats();
  result.check(round.produced == kStacks * scans, "every scan produced");
  result.check(sampler->total_dropped() == 0, "no sampler ring drops");
  result.check(pub.queue_dropped_frames == 0, "no publisher queue drops");
  result.check(pub.frames_sent == round.produced, "every frame sent once");
  result.check(srv.ring_drops == 0, "no shard ring drops");
  result.check(srv.duplicate_frames == 0, "no duplicate frames");
  result.check(round.failed == 0, "every frame ingested exactly once");
  round.take(tap, view.latency());

  if (spans != nullptr) round.pipeline.emplace();
  round.readback = read_back(store_dir, server_cfg.aggregator, spans);
  if (spans != nullptr) round.after_readback.emplace();
  result.check(round.readback.replayed.digest() == view.digest(),
               "server digest equals store replay digest");
  result.check(round.readback.replayed_frames == round.produced,
               "store replays every frame");
  fs::remove_all(store_dir);
  return round;
}

void add_layers(Result& result, const Round& round, const SpanLog& spans,
                const RegistryView& reg) {
  const auto& sensor_scan = reg.histogram("tsvpt_sensor_scan_seconds");
  const auto& sampler_scan = reg.histogram("tsvpt_sampler_scan_seconds");
  const auto& encode = reg.histogram("tsvpt_sampler_encode_seconds");
  const double advance_sample = spans.total_s("sampler", "advance_sample");
  const std::uint64_t conversions =
      reg.counter("tsvpt_sensor_conversions_total");
  result.add("setup.build_s", round.build_s, "s",
             "span: FleetSampler construction");
  result.add("setup.rss_per_stack_mb", round.rss_per_stack_mb, "MB",
             "RSS delta over FleetSampler construction / stacks");
  result.na("gen.lateness_ms_p99", "ms", "closed loop: no schedule");
  result.add("thermal.advance_s", advance_sample - sensor_scan.sum, "s",
             "sum[before_scan->after_scan] - tsvpt_sensor_scan_seconds");
  result.add("core.convert_s", sensor_scan.sum, "s",
             "tsvpt_sensor_scan_seconds sum");
  result.add("core.convert_us",
             conversions == 0 ? 0.0
                              : sensor_scan.sum /
                                    static_cast<double>(conversions) * 1e6,
             "us",
             "tsvpt_sensor_scan_seconds / tsvpt_sensor_conversions_total");
  result.add("core.scan_us_p99", sensor_scan.p99 * 1e6, "us",
             "tsvpt_sensor_scan_seconds p99");
  result.add("sampler.scan_us_p50", sampler_scan.p50 * 1e6, "us",
             "tsvpt_sampler_scan_seconds p50");
  result.add("sampler.scan_us_p99", sampler_scan.p99 * 1e6, "us",
             "tsvpt_sampler_scan_seconds p99");
  result.add("sampler.advance_sample_s", advance_sample, "s",
             "sum[before_scan->after_scan]");
  result.add("core.supervise_decide_s",
             spans.total_s("core", "post_scan") - encode.sum, "s",
             "sum[after_scan->on_frame] - tsvpt_sampler_encode_seconds");
  result.add("core.sampled_ratio",
             static_cast<double>(conversions) /
                 static_cast<double>(round.produced * kSitesPerStack),
             "ratio", "tsvpt_sensor_conversions_total / (frames x sites)");
  result.add("core.health_transitions",
             static_cast<double>(reg.counter("tsvpt_health_transitions_total")),
             "count", "tsvpt_health_transitions_total");
  result.add("telemetry.encode_s", encode.sum, "s",
             "tsvpt_sampler_encode_seconds sum");
  result.add("telemetry.ring_push_s",
             reg.histogram("tsvpt_sampler_ring_push_seconds").sum, "s",
             "tsvpt_sampler_ring_push_seconds sum");
  result.add("telemetry.ring_drops",
             static_cast<double>(reg.counter("tsvpt_sampler_dropped_total")),
             "count", "tsvpt_sampler_dropped_total");
  add_transport_layers(result, reg, round.produced);
  result.na("ingest.offer_us_p99", "us",
            "threaded publisher: no caller-side offer/pump");
  result.na("ingest.pump_us_p99", "us",
            "threaded publisher: no caller-side offer/pump");
}

}  // namespace

Result run_physics_pipeline(const Options& options) {
  Result result;
  if (options.trace) {
    // Traced round first (fresh process, so the RSS delta over fleet
    // construction is real), then one untraced round of the same size for
    // the tracing overhead.
    const std::size_t scans =
        closed_scans(options, 2, kSizingFramesPerS, kStacks);
    SpanLog spans{kStacks + 1};
    set_tracing(true);
    const Round traced =
        run_round(options, options.seed, scans, 0, &spans, result);
    set_tracing(false);
    const Round plain =
        run_round(options, options.seed, scans, 1, nullptr, result);
    add_layers(result, traced, spans, *traced.pipeline);
    add_readback_layers(result, *traced.after_readback, traced.readback);
    add_traced_round(result, traced, plain, spans,
                     options.work_dir + "/spans-physics_pipeline.jsonl");
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
    rounds.push_back(run_round(options, derive_seed(options.seed, r), scans,
                               static_cast<int>(r), nullptr, result));
    views.push_back(&rounds.back());
  }
  add_closed_loop_results(
      result, views,
      "FleetView::latency() capture -> shard ingest, aligned clocks",
      "3 sigma of sensed - truth, non-degraded readings");
  return result;
}

}  // namespace perfbench
