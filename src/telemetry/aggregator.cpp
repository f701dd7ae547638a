#include "telemetry/aggregator.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::telemetry {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Collector-side instrumentation (one collector thread live, plus the
/// replay path reusing ingest() — same handles serve both).
struct AggregatorMetrics {
  obs::Counter frames = obs::counter("tsvpt_agg_frames_total");
  obs::Counter decode_errors = obs::counter("tsvpt_agg_decode_errors_total");
  obs::Counter alerts = obs::counter("tsvpt_agg_alerts_total");
  obs::Counter health_events = obs::counter("tsvpt_agg_health_events_total");
  obs::Counter watchdog_kicks =
      obs::counter("tsvpt_agg_watchdog_kicks_total");
  obs::Counter missed = obs::counter("tsvpt_agg_missed_frames_total");
  obs::Histogram ingest_seconds =
      obs::histogram("tsvpt_agg_ingest_seconds");
  obs::Histogram e2e_latency_seconds =
      obs::histogram("tsvpt_agg_e2e_latency_seconds");
  obs::Histogram shard_to_ingest =
      obs::stage_latency(obs::kStageShardToIngest);

  static const AggregatorMetrics& get() {
    static const AggregatorMetrics metrics;
    return metrics;
  }
};

}  // namespace

const char* to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kOverTemperature: return "over_temperature";
    case AlertKind::kThermalRunaway: return "thermal_runaway";
    case AlertKind::kDeadSensor: return "dead_sensor";
    case AlertKind::kSpatialSuspect: return "spatial_suspect";
  }
  return "unknown";
}

Aggregator::Aggregator(Config config, AlertCallback on_alert,
                       HealthCallback on_health)
    : config_(std::move(config)), on_alert_(std::move(on_alert)),
      on_health_(std::move(on_health)), fault_detector_(config_.fault) {}

Aggregator::~Aggregator() { stop(); }

void Aggregator::start(std::vector<FrameRing*> rings) {
  if (collector_.joinable()) {
    throw std::logic_error{"Aggregator::start: already running"};
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  collector_ = std::thread{[this, rings = std::move(rings)]() mutable {
    collect(std::move(rings));
  }};
}

void Aggregator::stop() {
  if (!collector_.joinable()) return;
  // mo: release pairs with collect()'s acquire loads so everything written
  // before stop() is visible to the collector's final drain.
  stop_requested_.store(true, std::memory_order_release);
  collector_.join();
}

void Aggregator::collect(std::vector<FrameRing*> rings) {
  // Frame-age watchdog state: wall-clock of each ring's last frame and a
  // kicked latch so one stall fires on_stalled_ring exactly once until the
  // ring produces again.
  const bool watchdog = config_.watchdog_timeout.value() > 0.0;
  const std::uint64_t timeout_ns = static_cast<std::uint64_t>(
      config_.watchdog_timeout.value() * 1e9);
  std::vector<std::uint64_t> last_seen_ns(rings.size(), steady_now_ns());
  std::vector<bool> kicked(rings.size(), false);

  std::vector<std::uint8_t> buffer;
  for (;;) {
    bool drained_any = false;
    for (std::size_t r = 0; r < rings.size(); ++r) {
      FrameRing* ring = rings[r];
      while (ring->try_pop(buffer)) {
        drained_any = true;
        if (watchdog) {
          last_seen_ns[r] = steady_now_ns();
          kicked[r] = false;
        }
        ingest(buffer);
      }
    }
    if (!drained_any) {
      // mo: acquire pairs with stop()'s release store (see below).
      if (watchdog && !stop_requested_.load(std::memory_order_acquire)) {
        // Idle with workers still supposedly running: any ring silent past
        // the timeout marks its worker as stalled.
        const std::uint64_t now = steady_now_ns();
        for (std::size_t r = 0; r < rings.size(); ++r) {
          if (kicked[r] || now - last_seen_ns[r] <= timeout_ns) continue;
          kicked[r] = true;
          summary_.watchdog_kicks += 1;
          AggregatorMetrics::get().watchdog_kicks.inc();
          obs::instant("aggregator", "watchdog_kick", r);
          if (config_.on_stalled_ring) config_.on_stalled_ring(r);
        }
      }
      // mo: acquire pairs with stop()'s release store; after it reads true,
      // all frames pushed before stop() are visible to the drain below.
      if (stop_requested_.load(std::memory_order_acquire)) {
        // The empty pass above may have scanned a ring *before* its worker's
        // final push (stop() is only called once workers are joined, but the
        // scan and the push can interleave).  Workers are done now, so one
        // more full drain picks up any such tail frames before we return.
        for (FrameRing* ring : rings) {
          while (ring->try_pop(buffer)) ingest(buffer);
        }
        return;
      }
      std::this_thread::yield();
    }
  }
}

void Aggregator::raise(AlertKind kind, const Frame& frame, StackStats& stack,
                       std::size_t die, std::size_t site, double value) {
  Alert alert;
  alert.kind = kind;
  alert.stack_id = frame.stack_id;
  alert.die = die;
  alert.site_index = site;
  alert.value = value;
  alert.sim_time = frame.sim_time;
  summary_.alerts += 1;
  live_alerts_.fetch_add(1, std::memory_order_relaxed);
  summary_.alerts_by_kind[kind] += 1;
  stack.alerts += 1;
  AggregatorMetrics::get().alerts.inc();
  // Alert edges land in the flight recorder so a trace of a bad run shows
  // *when* the pipeline noticed, not just that it did.
  obs::instant("alert", to_string(kind), frame.stack_id);
  if (on_alert_) on_alert_(alert);
}

void Aggregator::map_dies(StackState& stack, const Frame& frame) {
  constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
  auto find = [&stack](std::size_t die) {
    const auto it = std::lower_bound(
        stack.dies.begin(), stack.dies.end(), die,
        [](const DieState& state, std::size_t d) { return state.die < d; });
    return it != stack.dies.end() && it->die == die
               ? static_cast<std::size_t>(it - stack.dies.begin())
               : kNoSlot;
  };
  const std::size_t n = frame.readings.size();
  die_slot_.resize(n);
  for (;;) {
    // Readings usually arrive grouped by die: try the previous slot first.
    bool complete = true;
    std::size_t slot = kNoSlot;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t die = frame.readings[k].die;
      if (slot == kNoSlot || stack.dies[slot].die != die) slot = find(die);
      die_slot_[k] = slot;
      complete = complete && slot != kNoSlot;
    }
    if (complete) return;
    // Add every new die at once and look again: one sort per frame, however
    // many of its dies are new.
    for (std::size_t k = 0; k < n; ++k) {
      if (die_slot_[k] != kNoSlot) continue;
      DieState state;
      state.die = frame.readings[k].die;
      state.stats = &stack.stats->dies[state.die];
      stack.dies.push_back(state);
    }
    std::sort(stack.dies.begin(), stack.dies.end(),
              [](const DieState& a, const DieState& b) {
                return a.die < b.die;
              });
    stack.dies.erase(std::unique(stack.dies.begin(), stack.dies.end(),
                                 [](const DieState& a, const DieState& b) {
                                   return a.die == b.die;
                                 }),
                     stack.dies.end());
  }
}

void Aggregator::ingest(const std::vector<std::uint8_t>& buffer) {
  const AggregatorMetrics& metrics = AggregatorMetrics::get();
  const obs::ObsSpan ingest_span{"aggregator", "ingest",
                                 metrics.ingest_seconds};
  // Distributed mode: peel the IngestServer's ring trailer off before
  // decode (the frame's own CRC does not cover it).
  std::size_t wire_size = buffer.size();
  std::uint64_t enqueue_ns = 0;
  std::int64_t clock_offset_ns = kRingTrailerInvalidOffset;
  bool have_trailer = false;
  if (config_.shard_trailer && wire_size >= kRingTrailerSize) {
    wire_size -= kRingTrailerSize;
    enqueue_ns = get_u64(buffer.data() + wire_size);
    clock_offset_ns =
        static_cast<std::int64_t>(get_u64(buffer.data() + wire_size + 8));
    have_trailer = true;
  }
  DecodeResult result = decode(buffer.data(), wire_size);
  if (!result.ok()) {
    summary_.decode_errors += 1;
    live_decode_errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.decode_errors.inc();
    obs::instant("aggregator", "decode_error");
    return;
  }
  const Frame& frame = result.frame;

  summary_.frames += 1;
  live_frames_.fetch_add(1, std::memory_order_relaxed);
  metrics.frames.inc();
  if (frame.capture_ns != 0 || have_trailer) {
    const std::uint64_t now = steady_now_ns();
    if (have_trailer && enqueue_ns != 0 && now >= enqueue_ns) {
      metrics.shard_to_ingest.observe(
          static_cast<double>(now - enqueue_ns) * 1e-9);
    }
    if (frame.capture_ns != 0) {
      // Cross-process frames: capture_ns is on the publisher's clock; a
      // valid trailer offset re-bases it onto ours so e2e is meaningful.
      std::uint64_t capture = frame.capture_ns;
      bool aligned = false;
      if (have_trailer && clock_offset_ns != kRingTrailerInvalidOffset) {
        capture = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(capture) + clock_offset_ns);
        aligned = true;
      }
      // >= : on coarse steady_clock resolution capture and decode can share
      // a tick, and zero is a valid latency sample.
      if (now >= capture) {
        const double latency_s = static_cast<double>(now - capture) * 1e-9;
        summary_.latency.add(latency_s);
        if (aligned) summary_.latency_aligned += 1;
        metrics.e2e_latency_seconds.observe(latency_s);
      }
    }
  }

  auto [stack_it, first_frame] = stacks_.try_emplace(frame.stack_id);
  StackState& stack = stack_it->second;
  if (first_frame) stack.stats = &summary_.stacks[frame.stack_id];
  StackStats& stats = *stack.stats;
  stats.frames += 1;
  stats.last_sim_time = frame.sim_time;
  if (first_frame) {
    // Sequences start at 0, so a first arrival at seq > 0 means the ring
    // evicted the stack's opening frames before we drained them.
    stats.missed += frame.sequence;
    metrics.missed.add(frame.sequence);
  } else if (frame.sequence > stack.next_sequence) {
    stats.missed += frame.sequence - stack.next_sequence;
    metrics.missed.add(frame.sequence - stack.next_sequence);
  }
  stack.next_sequence = frame.sequence + 1;
  stats.next_sequence = std::max(stats.next_sequence, frame.sequence + 1);

  if (stack.sites.size() < frame.readings.size()) {
    stack.sites.resize(frame.readings.size());
  }
  map_dies(stack, frame);

  // Per-die fold + runaway bookkeeping input (hottest sensed site per die).
  reported_slots_.clear();
  for (std::size_t k = 0; k < frame.readings.size(); ++k) {
    const auto& r = frame.readings[k];
    DieState& die = stack.dies[die_slot_[k]];
    die.stats->sensed_c.add(r.sensed.value());
    if (r.degraded) {
      die.stats->degraded_error_c.add(r.error());
      summary_.substituted_readings += 1;
    } else {
      die.stats->error_c.add(r.error());
    }

    // Health-byte edge: the producer's supervisor changed its verdict on
    // this site since the last frame we saw.
    SiteState& site = stack.sites[r.site_index];
    const auto state_now = static_cast<core::HealthState>(r.health);
    if (site.health != state_now) {
      HealthEvent event;
      event.stack_id = frame.stack_id;
      event.die = r.die;
      event.site_index = r.site_index;
      event.from = site.health;
      event.to = state_now;
      event.sim_time = frame.sim_time;
      summary_.health_transitions.push_back(event);
      site.health = state_now;
      metrics.health_events.inc();
      if (on_health_) on_health_(event);
    }

    if (die.peak_frame != stats.frames) {
      die.peak_frame = stats.frames;
      die.peak_c = r.sensed.value();
      die.peak_site = r.site_index;
      reported_slots_.push_back(die_slot_[k]);
    } else if (r.sensed.value() > die.peak_c) {
      die.peak_c = r.sensed.value();
      die.peak_site = r.site_index;
    }

    // Over-temperature: edge-triggered on threshold crossing.
    const bool over = r.sensed.value() > config_.alert_threshold.value();
    if (over && !site.over_temperature) {
      raise(AlertKind::kOverTemperature, frame, stats, r.die, r.site_index,
            r.sensed.value());
    }
    site.over_temperature = over;
    // Dead sensor: degraded conversions for dead_scan_limit straight frames.
    site.degraded_streak = r.degraded ? site.degraded_streak + 1 : 0;
    if (site.degraded_streak >= config_.dead_scan_limit && !site.dead) {
      site.dead = true;
      raise(AlertKind::kDeadSensor, frame, stats, r.die, r.site_index,
            static_cast<double>(site.degraded_streak));
    }
    if (!r.degraded) site.dead = false;
  }

  // Runaway: the die's peak sensed temperature climbing faster than
  // config_.runaway_rate between consecutive frames, judged in ascending
  // die order (stack.dies is sorted, so slot order is die order).
  std::sort(reported_slots_.begin(), reported_slots_.end());
  for (const std::size_t slot : reported_slots_) {
    DieState& die = stack.dies[slot];
    if (die.primed) {
      const double dt = (frame.sim_time - die.last_time).value();
      if (dt > 0.0) {
        const double rate = (die.peak_c - die.last_max_c) / dt;
        if (rate > config_.runaway_rate && !die.alerting) {
          die.alerting = true;
          raise(AlertKind::kThermalRunaway, frame, stats, die.die,
                die.peak_site, rate);
        }
        if (rate <= config_.runaway_rate) die.alerting = false;
      }
    }
    die.last_max_c = die.peak_c;
    die.last_time = frame.sim_time;
    die.primed = true;
  }

  // Spatial leave-one-out cross-check within the scan.
  if (config_.spatial_check && frame.readings.size() >= 3) {
    // Verdicts are positional (verdict i judges reading i), so take the die
    // from the reading itself rather than indexing readings by the
    // wire-supplied site_index.
    const auto verdicts = fault_detector_.analyze(frame.readings);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const auto& verdict = verdicts[i];
      SiteState& site = stack.sites[verdict.site_index];
      if (verdict.suspect && !site.spatial_suspect) {
        raise(AlertKind::kSpatialSuspect, frame, stats, frame.readings[i].die,
              verdict.site_index, verdict.deviation.value());
      }
      site.spatial_suspect = verdict.suspect;
    }
  }
}

}  // namespace tsvpt::telemetry
