// ingest_fanin: the transport and historian with no physics behind them.
// 256 synthetic stacks of 4x4 sites per die (64 sites/frame) whose readings
// are a seeded random walk, a few stacks riding above the alert threshold.
// One generator thread drives a FleetPublisher caller-side (offer / flush /
// pump), sealing on the publisher's own batch limits and flush interval,
// into a loopback IngestServer with 2 shards, the spatial check on and the
// historian on.  Open: frames are offered on a fixed schedule, and each
// frame's latency counts from the moment it was due.
//
// Each rate is its own round with a fresh server, publisher and store, so
// rounds neither share a backlog nor a thread placement.  Three rounds at
// the nominal rate give the latency figures and carry the full checks:
// the read-back step indexes, queries and replays the round's store, and
// the generator folds its own frames.  A search over offered rates then
// finds the highest rate the program holds under the latency limit.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "ingest/publisher.hpp"
#include "ingest/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tsvpt;

FanInGenerator::FanInGenerator(std::uint64_t seed)
    : rng_(derive_seed(seed, 0xFA11Eu)) {
  for (std::size_t i = 0; i < kGrid; ++i) {
    for (std::size_t j = 0; j < kGrid; ++j) {
      locations_.push_back(
          {5e-3 * (static_cast<double>(i) + 0.5) / kGrid,
           5e-3 * (static_cast<double>(j) + 0.5) / kGrid});
    }
  }
  stacks_.resize(kStacks);
  for (std::size_t k = 0; k < kStacks; ++k) {
    StackWalk& stack = stacks_[k];
    // One stack in 64 idles just under the 85 degC alert threshold, so its
    // walk crosses it now and then and the alert path carries real edges.
    stack.baseline_c = k % 64 == 7 ? rng_.uniform(84.0, 86.0)
                                   : rng_.uniform(40.0, 70.0);
    stack.sites.resize(kSites);
    for (std::size_t s = 0; s < kSites; ++s) {
      const double die_offset = 2.0 * static_cast<double>(kDies - 1 - s / (kGrid * kGrid));
      stack.sites[s].truth_c = stack.baseline_c - 6.0 + die_offset +
                               rng_.uniform(-1.0, 1.0);
      stack.sites[s].bias_c = rng_.gaussian(0.0, 0.4);
    }
  }
}

void FanInGenerator::next(telemetry::Frame& frame) {
  const std::size_t k = generated_ % kStacks;
  StackWalk& stack = stacks_[k];
  frame.stack_id = static_cast<std::uint32_t>(k);
  frame.sequence = generated_ / kStacks;
  frame.sim_time = Second{1e-3 * static_cast<double>(frame.sequence)};
  frame.capture_ns = 0;
  frame.readings.resize(kSites);
  for (std::size_t s = 0; s < kSites; ++s) {
    SiteWalk& site = stack.sites[s];
    // Mean-reverting walk around the stack baseline.
    site.truth_c += 0.02 * (stack.baseline_c - site.truth_c) +
                    rng_.gaussian(0.0, 0.05);
    auto& r = frame.readings[s];
    r.site_index = s;
    r.die = s / (kGrid * kGrid);
    r.location = locations_[s % (kGrid * kGrid)];
    r.truth = Celsius{site.truth_c};
    r.sensed = Celsius{site.truth_c + site.bias_c + rng_.gaussian(0.0, 0.1)};
    r.energy = Joule{367.5e-12 * (1.0 + rng_.gaussian(0.0, 0.01))};
    r.degraded = false;
    r.health = 0;
  }
  ++generated_;
}

namespace {

namespace fs = std::filesystem;

/// The nominal rate: three rounds, whose latencies are pooled.
constexpr double kNominalRate = 4000.0;
constexpr int kNominalRounds = 3;
/// The sustained rate is searched by geometric bisection between the
/// nominal rate and kMaxRate: each step halves the log-interval, so six
/// steps resolve it to (64000 / 4000)^(1/64), 4.4 %.  kMaxRate is well
/// past what the reference box holds (~10k frames/s) and within what the
/// generator can offer.
constexpr double kMaxRate = 64000.0;
constexpr int kSearchSteps = 6;
/// Share of --seconds spent in the nominal rounds; the search gets the rest.
constexpr double kNominalShare = 0.4;
/// p99 limit for a rate to count as sustained.
constexpr double kLatencyLimitMs = 50.0;
/// The generator stops sleeping this long before a frame is due.
constexpr std::uint64_t kSpinNs = 300'000;

struct Round {
  double rate = 0.0;
  double setup_s = 0.0;
  double achieved_fps = 0.0;
  double drain_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  Samples latency;
  double lateness_ms_p99 = 0.0;
  double sense_err_3sigma_c = 0.0;
  double conv_energy_pj = 0.0;
  long involuntary_switches = 0;
  int threads = 0;
  /// Frames offered (all of the schedule unless the round was overloaded).
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  /// Stopped early, twice the latency limit behind the schedule.
  bool overloaded = false;
  bool sustained = false;
  /// Verified rounds only: the read-back of the round's store.
  std::optional<Readback> readback;
  Samples offer_us;
  Samples pump_us;
  double encode_s = 0.0;
  std::optional<RegistryView> pipeline;
  std::optional<RegistryView> after_readback;
};

/// The generator's own single-Aggregator fold of the first `frames` frames
/// it offers, regenerated from the seed (the digest leaves out wall-clock
/// fields, so capture stamps do not matter), and the mean modelled energy
/// of their readings.
struct Reference {
  ingest::FleetView view;
  double energy_pj = 0.0;
};

Reference reference(std::uint64_t seed, std::uint64_t frames,
                    const telemetry::Aggregator::Config& cfg) {
  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator aggregator{
      cfg, [&alerts](const telemetry::Alert& a) { alerts.push_back(a); }};
  FanInGenerator generator{seed};
  telemetry::Frame frame;
  double energy_j = 0.0;
  for (std::uint64_t i = 0; i < frames; ++i) {
    generator.next(frame);
    for (const auto& r : frame.readings) energy_j += r.energy.value();
    aggregator.ingest(telemetry::encode(frame));
  }
  Reference out{view_of(aggregator, alerts), 0.0};
  out.energy_pj = energy_j /
                  static_cast<double>(frames * FanInGenerator::kSites) * 1e12;
  return out;
}

std::size_t frames_for(double rate, double seconds) {
  const std::size_t stacks = FanInGenerator::kStacks;
  return static_cast<std::size_t>(std::ceil(rate * seconds / stacks)) * stacks;
}

/// Frames per stack among the first `frames` offered (stack i % stacks).
std::vector<std::uint64_t> per_stack(std::uint64_t frames) {
  const std::size_t stacks = FanInGenerator::kStacks;
  std::vector<std::uint64_t> out(stacks, frames / stacks);
  for (std::size_t k = 0; k < frames % stacks; ++k) out[k] += 1;
  return out;
}

/// One round at `rate` for `seconds`.  `verify` adds the read-back step and
/// the generator's fold to the exactly-once checks every round makes.
Round run_round(const Options& options, double rate, double seconds,
                bool verify, SpanLog* spans, Result& result) {
  Round round;
  round.rate = rate;
  const std::size_t frames_total = frames_for(rate, seconds);
  const std::uint64_t t0 = now_ns();

  FanInGenerator generator{options.seed};
  const std::string store_dir = options.work_dir + "/fanin-store";
  fs::remove_all(store_dir);
  ingest::IngestServer::Config server_cfg;
  server_cfg.shard_count = 2;
  server_cfg.store_dir = store_dir;
  ingest::IngestServer server{server_cfg};
  {
    const ScopedSpan span{spans, "ingest", "server_start"};
    server.start();
  }
  ingest::FleetPublisher::Config pub_cfg;
  pub_cfg.port = server.port();
  ingest::FleetPublisher publisher{pub_cfg};
  const auto flush_ns =
      static_cast<std::uint64_t>(pub_cfg.flush_interval.value() * 1e9);
  round.setup_s = seconds_between(t0, now_ns());

  const auto ingested = [&server] {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < server.shard_count(); ++s) {
      n += server.shard_aggregator(s).progress().frames;
    }
    return n;
  };
  // A rate past capacity is given up once the round is twice the latency
  // limit behind, in lateness or in backlog: it cannot hold by then.  The
  // backlog is also kept to half of what the publisher queue holds, so
  // neither that queue nor a shard ring overflows and drops frames at any
  // rate the search tries.
  const auto overload_ns = static_cast<std::uint64_t>(2.0 * kLatencyLimitMs * 1e6);
  const std::uint64_t overload_frames = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(2.0 * kLatencyLimitMs * 1e-3 * rate),
      pub_cfg.queue_max_batches * pub_cfg.batch_max_frames / 2);

  const long switches0 = involuntary_switches();
  const double period_ns = 1e9 / rate;
  Samples lateness_ms;
  lateness_ms.reserve(frames_total);
  telemetry::Frame frame;
  std::size_t open_frames = 0;
  std::size_t open_bytes = 0;
  std::uint64_t open_since = 0;
  std::uint64_t encode_ns = 0;
  const auto pump = [&](std::uint64_t key) {
    const std::uint64_t p0 = now_ns();
    {
      const ScopedSpan span{spans, "ingest", "pump", key};
      (void)publisher.pump();
    }
    if (spans != nullptr) round.pump_us.add(seconds_between(p0, now_ns()) * 1e6);
  };
  const std::uint64_t start = now_ns() + 1'000'000;  // first frame due in 1 ms
  const auto due_ns = [&](std::uint64_t i) {
    return start + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };
  for (std::size_t i = 0; i < frames_total; ++i) {
    const std::uint64_t due = due_ns(i);
    generator.next(frame);
    frame.capture_ns = due;  // latency counts from the due time
    const std::uint64_t e0 = now_ns();
    std::vector<std::uint8_t> wire = telemetry::encode(frame);
    encode_ns += now_ns() - e0;

    // Sleep to just short of the due time, then yield-spin onto it: a
    // wake-up from sleep waits for a free CPU, and that wait would be
    // charged to the system as latency.
    std::uint64_t now = now_ns();
    if (now + kSpinNs < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while ((now = now_ns()) < due) std::this_thread::yield();
    if (now - due > overload_ns) {
      round.overloaded = true;
      break;
    }
    lateness_ms.add(static_cast<double>(now - due) * 1e-6);
    // One frame per stack in: the server's threads are all up, and an
    // overloaded rate is not given up before 100 ms of frames.
    if (i == FanInGenerator::kStacks) round.threads = thread_count();
    if (open_frames == 0) open_since = now;
    open_frames += 1;
    open_bytes += wire.size();
    {
      const ScopedSpan span{spans, "ingest", "offer",
                            frame_key(frame.stack_id, frame.sequence)};
      publisher.offer(std::move(wire));
    }
    round.sent = i + 1;
    if (spans != nullptr) {
      round.offer_us.add(seconds_between(now, now_ns()) * 1e6);
    }
    // The publisher seals on its own limits inside offer(); mirror them to
    // know when a batch is ready, and flush on its interval.
    const bool sealed = open_frames >= pub_cfg.batch_max_frames ||
                        open_bytes >= pub_cfg.batch_max_bytes;
    const bool stale = now_ns() - open_since >= flush_ns;
    if (!sealed && stale) publisher.flush();
    if (sealed || stale) {
      open_frames = 0;
      open_bytes = 0;
      pump(i);
      if (round.sent > ingested() + overload_frames) {
        round.overloaded = true;
        break;
      }
    }
  }
  publisher.flush();
  while (!publisher.pump()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (int i = 0; i < 30'000 && ingested() < round.sent; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t end = now_ns();
  round.involuntary_switches = involuntary_switches() - switches0;
  (void)publisher.drain(Second{2.0});
  {
    const ScopedSpan span{spans, "ingest", "server_stop"};
    server.stop();
  }
  round.drain_s =
      round.sent == 0 ? 0.0 : seconds_between(due_ns(round.sent - 1), end);
  round.achieved_fps =
      static_cast<double>(round.sent) / seconds_between(start, end);
  round.encode_s = static_cast<double>(encode_ns) * 1e-9;

  const ingest::FleetView view = server.fleet_view();
  round.failed = failed_frames(view, per_stack(round.sent));
  const ingest::IngestServer::Stats srv = server.stats();
  const ingest::FleetPublisher::Stats pub = publisher.stats();
  result.check(pub.queue_dropped_frames == 0, "no publisher queue drops");
  result.check(pub.frames_sent == round.sent, "every frame sent once");
  result.check(srv.ring_drops == 0, "no shard ring drops");
  result.check(srv.duplicate_frames == 0, "no duplicate frames");
  result.check(round.failed == 0, "every frame ingested exactly once");

  round.latency = view.latency();
  round.latency_p50_ms = round.latency.quantile(0.50) * 1e3;
  round.latency_p99_ms = round.latency.quantile(0.99) * 1e3;
  round.lateness_ms_p99 = lateness_ms.quantile(0.99);
  RunningStats error;
  for (const auto& [id, stack] : view.stacks()) {
    for (const auto& [die, stats] : stack.dies) error.merge(stats.error_c);
  }
  round.sense_err_3sigma_c = 3.0 * error.stddev();
  // Sustained: the whole schedule offered, under the latency limit, and
  // the backlog cleared within the limit once the schedule ended.
  round.sustained = !round.overloaded && round.failed == 0 &&
                    round.latency_p99_ms < kLatencyLimitMs &&
                    round.drain_s * 1e3 < kLatencyLimitMs;

  if (verify) {
    if (spans != nullptr) round.pipeline.emplace();
    round.readback = read_back(store_dir, server_cfg.aggregator, spans);
    if (spans != nullptr) round.after_readback.emplace();
    const Reference ref =
        reference(options.seed, round.sent, server_cfg.aggregator);
    round.conv_energy_pj = ref.energy_pj;
    result.check(round.readback->replayed.digest() == view.digest(),
                 "server digest equals store replay digest");
    result.check(ref.view.digest() == view.digest(),
                 "server digest equals the generator's own fold");
    result.check(round.readback->replayed_frames == round.sent,
                 "store replays every frame");
  }
  fs::remove_all(store_dir);
  return round;
}

void add_layers(Result& result, const Round& round) {
  const std::string no_sampler =
      "no FleetSampler: frames are generated in the send loop";
  result.na("setup.build_s", "s", no_sampler);
  result.na("setup.rss_per_stack_mb", "MB", no_sampler);
  result.add("gen.lateness_ms_p99", round.lateness_ms_p99, "ms",
             "benchmark: due -> offered");
  result.add("telemetry.encode_s", round.encode_s, "s",
             "benchmark span: telemetry::encode on the generator thread");
  add_transport_layers(result, *round.pipeline, round.sent);
  add_readback_layers(result, *round.after_readback, *round.readback);
  result.add("ingest.offer_us_p99", round.offer_us.quantile(0.99), "us",
             "span: FleetPublisher::offer");
  result.add("ingest.pump_us_p99", round.pump_us.quantile(0.99), "us",
             "span: FleetPublisher::pump");
}

std::string describe(const Round& round) {
  return "rate " + std::to_string(round.rate) + " frames/s: setup " +
         std::to_string(round.setup_s) + " s, " + std::to_string(round.sent) +
         " frames, achieved " + std::to_string(round.achieved_fps) +
         " frames/s, latency p50 " + std::to_string(round.latency_p50_ms) +
         " ms p99 " + std::to_string(round.latency_p99_ms) + " ms (" +
         std::to_string(round.latency.count()) + " samples), lateness p99 " +
         std::to_string(round.lateness_ms_p99) + " ms, drain " +
         std::to_string(round.drain_s * 1e3) + " ms, " +
         (round.sustained    ? "sustained"
          : round.overloaded ? "NOT sustained (overloaded, stopped early)"
                             : "NOT sustained") +
         ", " + std::to_string(round.threads) + " threads on " +
         std::to_string(nproc()) + " cpus, " +
         std::to_string(round.involuntary_switches) + " involuntary switches";
}

}  // namespace

Result run_ingest_fanin(const Options& options) {
  Result result;
  if (options.trace) {
    // Traced and untraced rounds at the nominal rate.  An open loop pins
    // throughput to the offered rate, so the overhead ratio compares the
    // one closed-loop step of the round, the store replay.
    const double seconds = options.smoke ? 0.25 : options.seconds / 2.0;
    SpanLog spans{1};
    set_tracing(true);
    const Round traced =
        run_round(options, kNominalRate, seconds, true, &spans, result);
    set_tracing(false);
    const Round plain =
        run_round(options, kNominalRate, seconds, true, nullptr, result);
    result.attempted = traced.sent + plain.sent;
    result.failed = traced.failed + plain.failed;
    add_layers(result, traced);
    result.add("proc.involuntary_switches",
               static_cast<double>(traced.involuntary_switches), "count",
               "getrusage ru_nivcsw over the timed phase");
    result.add("proc.threads", traced.threads, "count",
               "/proc/self/status Threads once every stack has sent a frame");
    const auto replay_fps = [](const Round& r) {
      return static_cast<double>(r.readback->replayed_frames) /
             r.readback->replay_s;
    };
    result.add("obs.overhead_ratio", replay_fps(plain) / replay_fps(traced),
               "ratio", "untraced / traced store replay frames/s");
    spans.write(options.work_dir + "/spans-ingest_fanin.jsonl");
    return result;
  }

  set_tracing(false);
  const double nominal_s =
      options.smoke ? 0.25 : kNominalShare * options.seconds / kNominalRounds;
  const double rung_s = options.smoke
                            ? 0.25
                            : (1.0 - kNominalShare) * options.seconds /
                                  kSearchSteps;
  std::vector<Round> rounds;
  const auto run = [&](double rate, double seconds, bool verify) {
    rounds.push_back(run_round(options, rate, seconds, verify, nullptr, result));
    result.attempted += rounds.back().sent;
    result.failed += rounds.back().failed;
    result.note(describe(rounds.back()));
    return rounds.back().sustained;
  };
  // Memory is the high-water mark of the first round: a fresh server at
  // the nominal load, then its read-back.  Each later round rebuilds the
  // server and store on a heap the earlier ones left fragmented and adds
  // 0.4-3.5 MB, as the allocator's placement falls; the search's overloaded
  // rates add backlogs in the shard rings on top.
  run(kNominalRate, nominal_s, true);
  const double nominal_peak_rss_mb = peak_rss_mb();
  for (int r = 1; r < kNominalRounds; ++r) run(kNominalRate, nominal_s, true);
  // The search.  A rate that fails is tried once more before it counts as
  // failed: one long fsync stall on the server IO thread can sink a short
  // round below capacity.
  double held = kNominalRate;
  double failed = kMaxRate;
  for (int step = 0; step < kSearchSteps; ++step) {
    const double rate = std::round(std::sqrt(held * failed));
    const bool ok = run(rate, rung_s, false) || run(rate, rung_s, false);
    (ok ? held : failed) = rate;
  }

  const Round* best = nullptr;
  std::vector<double> setup;
  // The nominal rounds' latency is the median over their 4096-frame
  // windows, as in the closed loops: a round that shares its CPUs with a
  // burst from outside the process moves its own windows, not the result.
  WindowedLatency nominal_latency;
  for (const Round& round : rounds) {
    setup.push_back(round.setup_s);
    if (round.sustained && (best == nullptr || round.rate > best->rate)) {
      best = &round;
    }
    if (round.readback) nominal_latency.add(round.latency);
  }
  result.note("nominal rate, " + std::to_string(nominal_latency.windows()) +
              " windows of " + std::to_string(nominal_latency.samples()) +
              " samples: p50 " + std::to_string(nominal_latency.p50_ms()) +
              " ms p99 " + std::to_string(nominal_latency.p99_ms()) +
              " ms; peak RSS " + std::to_string(nominal_peak_rss_mb) +
              " MB after the first, " + std::to_string(peak_rss_mb()) +
              " MB after the search");
  const Round& nominal = rounds.front();
  result.add("setup_s", median(setup), "s",
             "median over rounds: round start -> first frame offered "
             "(generator, server, publisher)");
  result.add("frames_per_s", best == nullptr ? 0.0 : best->achieved_fps,
             "frames/s",
             "sustained: achieved rate at the highest offered rate held "
             "under the latency limit (bisection search)");
  result.add("latency_p50_ms", nominal_latency.p50_ms(), "ms",
             "FleetView::latency() due -> shard ingest at the nominal rate, "
             "median over 4096-frame windows");
  result.add("latency_p99_ms", nominal_latency.p99_ms(), "ms",
             "FleetView::latency() due -> shard ingest at the nominal rate, "
             "median over 4096-frame windows");
  result.add("peak_rss_mb", nominal_peak_rss_mb, "MB",
             "getrusage ru_maxrss after the first nominal round");
  result.add("sense_err_3sigma_c", nominal.sense_err_3sigma_c, "degC",
             "3 sigma of delivered sensed - truth (generator noise)");
  result.add("conv_energy_pj", nominal.conv_energy_pj, "pJ",
             "generator constant: mean modelled energy of the offered "
             "readings, a function of the seed alone");
  return result;
}

}  // namespace perfbench
