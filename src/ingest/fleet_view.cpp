#include "ingest/fleet_view.hpp"

#include <algorithm>

#include "obs/stages.hpp"
#include "telemetry/codec_util.hpp"

namespace tsvpt::ingest {

void FleetView::add_shard(const telemetry::Aggregator::Summary& summary,
                          const std::vector<telemetry::Alert>& alert_log) {
  finalized_ = false;
  frames_ += summary.frames;
  decode_errors_ += summary.decode_errors;
  alerts_ += summary.alerts;
  substituted_readings_ += summary.substituted_readings;
  for (const auto& [kind, count] : summary.alerts_by_kind) {
    alerts_by_kind_[kind] += count;
  }
  for (const auto& [stack_id, stats] : summary.stacks) {
    StackView& view = stacks_[stack_id];
    view.frames += stats.frames;
    view.alerts += stats.alerts;
    view.next_sequence = std::max(view.next_sequence, stats.next_sequence);
    if (stats.last_sim_time.value() > view.last_sim_time.value()) {
      view.last_sim_time = stats.last_sim_time;
    }
    for (const auto& [die, die_stats] : stats.dies) {
      auto [it, inserted] = view.dies.try_emplace(die, die_stats);
      if (!inserted) {
        // Only reachable when a stack's frames were split across shards
        // (failover); the Welford merge is exact in counts/moments but not
        // guaranteed bit-identical to sequential folding.
        it->second.sensed_c.merge(die_stats.sensed_c);
        it->second.error_c.merge(die_stats.error_c);
        it->second.degraded_error_c.merge(die_stats.degraded_error_c);
      }
    }
  }
  alert_log_.insert(alert_log_.end(), alert_log.begin(), alert_log.end());
  health_log_.insert(health_log_.end(), summary.health_transitions.begin(),
                     summary.health_transitions.end());
  for (const double v : summary.latency.values()) latency_.add(v);
  latency_aligned_ += summary.latency_aligned;
}

void FleetView::finalize() {
  if (finalized_) return;
  // Stable sort: cross-stack interleaving (collector-thread timing) is
  // erased, per-stack emission order (deterministic) is preserved.
  std::stable_sort(alert_log_.begin(), alert_log_.end(),
                   [](const telemetry::Alert& a, const telemetry::Alert& b) {
                     return a.stack_id < b.stack_id;
                   });
  std::stable_sort(
      health_log_.begin(), health_log_.end(),
      [](const telemetry::HealthEvent& a, const telemetry::HealthEvent& b) {
        return a.stack_id < b.stack_id;
      });
  missed_ = 0;
  for (auto& [stack_id, view] : stacks_) {
    view.missed = view.next_sequence > view.frames
                      ? view.next_sequence - view.frames
                      : 0;
    missed_ += view.missed;
  }
  finalized_ = true;
}

std::vector<std::uint8_t> FleetView::canonical_bytes() const {
  using telemetry::put_f64;
  using telemetry::put_u32;
  using telemetry::put_u64;
  using telemetry::put_u8;

  std::vector<std::uint8_t> out;
  put_u64(out, frames_);
  put_u64(out, decode_errors_);
  put_u64(out, alerts_);
  put_u64(out, missed_);
  put_u64(out, substituted_readings_);

  put_u32(out, static_cast<std::uint32_t>(alerts_by_kind_.size()));
  for (const auto& [kind, count] : alerts_by_kind_) {
    put_u8(out, static_cast<std::uint8_t>(kind));
    put_u64(out, count);
  }

  const auto put_stats = [&out](const RunningStats& s) {
    put_u64(out, s.count());
    put_f64(out, s.count() > 0 ? s.mean() : 0.0);
    put_f64(out, s.count() > 0 ? s.variance() : 0.0);
    put_f64(out, s.count() > 0 ? s.min() : 0.0);
    put_f64(out, s.count() > 0 ? s.max() : 0.0);
  };

  put_u32(out, static_cast<std::uint32_t>(stacks_.size()));
  for (const auto& [stack_id, view] : stacks_) {
    put_u32(out, stack_id);
    put_u64(out, view.frames);
    put_u64(out, view.missed);
    put_u64(out, view.alerts);
    put_u64(out, view.next_sequence);
    put_f64(out, view.last_sim_time.value());
    put_u32(out, static_cast<std::uint32_t>(view.dies.size()));
    for (const auto& [die, die_stats] : view.dies) {
      put_u32(out, static_cast<std::uint32_t>(die));
      put_stats(die_stats.sensed_c);
      put_stats(die_stats.error_c);
      put_stats(die_stats.degraded_error_c);
    }
  }

  put_u32(out, static_cast<std::uint32_t>(alert_log_.size()));
  for (const auto& alert : alert_log_) {
    put_u8(out, static_cast<std::uint8_t>(alert.kind));
    put_u32(out, alert.stack_id);
    put_u32(out, static_cast<std::uint32_t>(alert.die));
    put_u32(out, static_cast<std::uint32_t>(alert.site_index));
    put_f64(out, alert.value);
    put_f64(out, alert.sim_time.value());
  }

  put_u32(out, static_cast<std::uint32_t>(health_log_.size()));
  for (const auto& event : health_log_) {
    put_u32(out, event.stack_id);
    put_u32(out, static_cast<std::uint32_t>(event.die));
    put_u32(out, static_cast<std::uint32_t>(event.site_index));
    put_u8(out, static_cast<std::uint8_t>(event.from));
    put_u8(out, static_cast<std::uint8_t>(event.to));
    put_f64(out, event.sim_time.value());
  }
  return out;
}

std::uint32_t FleetView::digest() const {
  const std::vector<std::uint8_t> bytes = canonical_bytes();
  return telemetry::crc32(bytes.data(), bytes.size());
}

std::vector<obs::SloStatus> FleetView::slo_status() const {
  // 100 ms per stage at 99% is generous for a healthy pipeline (loopback
  // legs run in microseconds) — burning this budget means a stage is
  // genuinely backed up, not just jittering.
  obs::SloTracker tracker;
  for (const char* stage : obs::all_stages()) {
    tracker.add(obs::SloTracker::stage_latency_slo(stage, 0.1, 0.99));
  }
  return tracker.evaluate(obs::Registry::instance().snapshot());
}

}  // namespace tsvpt::ingest
