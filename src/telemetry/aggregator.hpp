// Fleet aggregation and alerting: a collector thread drains the samplers'
// rings, decodes wire frames, folds every reading into per-stack/per-die
// rolling statistics (ptsim's RunningStats) and raises alerts:
//
//   kOverTemperature — a sensed reading crossed the threshold;
//   kThermalRunaway  — a die's hottest sensed reading is climbing faster
//                      than the configured rate between consecutive frames
//                      (the runaway precursor the paper's stack monitoring
//                      exists to catch);
//   kDeadSensor      — a site reported degraded conversions (a dead/stuck
//                      oscillator) for `dead_scan_limit` consecutive frames;
//   kSpatialSuspect  — core::FaultDetector's leave-one-out spatial
//                      cross-check flagged the site within its scan.
//
// Alert edges, not levels: an alert fires when a condition becomes true and
// re-arms when it clears, so a stack sitting at 90 C does not emit one
// alert per frame.  The callback runs on the collector thread — keep it
// cheap and do not touch the sampler from it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fault_detector.hpp"
#include "core/health_supervisor.hpp"
#include "ptsim/stats.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/ring.hpp"

namespace tsvpt::telemetry {

enum class AlertKind {
  kOverTemperature,
  kThermalRunaway,
  kDeadSensor,
  kSpatialSuspect,
};

[[nodiscard]] const char* to_string(AlertKind kind);

/// Distributed-ingest ring trailer: the IngestServer appends 16 bytes to
/// each frame before pushing it into a shard ring —
/// [enqueue_ns u64 LE][clock_offset_ns i64 LE] — giving the draining
/// aggregator the shard-queue entry time (shard_to_ingest attribution) and
/// the publisher's clock offset (aligned-clock e2e re-basing).  The offset
/// is kRingTrailerInvalidOffset when the publisher had no estimate yet.
inline constexpr std::size_t kRingTrailerSize = 16;
inline constexpr std::int64_t kRingTrailerInvalidOffset =
    std::numeric_limits<std::int64_t>::min();

struct Alert {
  AlertKind kind = AlertKind::kOverTemperature;
  std::uint32_t stack_id = 0;
  std::size_t die = 0;
  /// Site that triggered (the die's hottest site for runaway).
  std::size_t site_index = 0;
  /// Condition magnitude: degC for over-temperature, degC/s for runaway,
  /// consecutive degraded frames for dead-sensor, degC deviation for
  /// spatial suspects.
  double value = 0.0;
  Second sim_time{0.0};
};

/// A producer-side health transition as seen on the wire: the collector
/// tracks every site's health byte and emits one event per change
/// (edge-triggered, like alerts).  Lost frames may collapse intermediate
/// hops into a single observed edge.
struct HealthEvent {
  std::uint32_t stack_id = 0;
  std::size_t die = 0;
  std::size_t site_index = 0;
  core::HealthState from = core::HealthState::kHealthy;
  core::HealthState to = core::HealthState::kHealthy;
  Second sim_time{0.0};
};

class Aggregator {
 public:
  struct Config {
    /// Sensed temperature above which a site is alerting.
    Celsius alert_threshold{85.0};
    /// Die-level heating rate (degC per simulated second) above which the
    /// die is flagged as running away.
    double runaway_rate{400.0};
    /// Consecutive degraded frames before a site is declared dead.
    std::size_t dead_scan_limit = 3;
    /// Spatial leave-one-out cross-check per scan (FaultDetector).
    bool spatial_check = true;
    /// Fleet monitoring uses sparse per-die grids (2x2 typical), where real
    /// hotspot gradients reach well past FaultDetector's 8 C single-stack
    /// default; widen the threshold so healthy fleets stay quiet and the
    /// check catches electrically impossible outliers (dead/stuck sensors).
    core::FaultDetector::Config fault{.threshold = Celsius{15.0}};
    /// Collector-side worker watchdog: when a ring stays empty for this
    /// much wall-clock time while others still flow (or the collector is
    /// otherwise idle), the worker feeding it is presumed stalled and
    /// on_stalled_ring fires once (re-armed by the ring's next frame).
    /// Zero disables the watchdog.
    Second watchdog_timeout{0.0};
    /// Called on the collector thread with the stalled ring's index —
    /// typically wired to FleetSampler::resume_worker (ring index == worker
    /// index).  Must tolerate kicks on workers that finished legitimately.
    std::function<void(std::size_t)> on_stalled_ring;
    /// Ring entries carry the 16-byte IngestServer trailer (see
    /// kRingTrailerSize above).  Set by the server for its shard
    /// aggregators; single-process pipelines leave it off.
    bool shard_trailer = false;
  };

  using AlertCallback = std::function<void(const Alert&)>;
  using HealthCallback = std::function<void(const HealthEvent&)>;

  explicit Aggregator(Config config, AlertCallback on_alert = nullptr,
                      HealthCallback on_health = nullptr);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Spawn the collector thread draining `rings` (which must outlive the
  /// aggregator or the next stop()).  The collector spins over the rings,
  /// yielding when all are momentarily empty.
  void start(std::vector<FrameRing*> rings);

  /// Drain whatever is still queued, then join the collector.  Idempotent.
  void stop();

  /// Synchronous ingestion of one encoded frame — the collector's inner
  /// step, exposed for deterministic single-threaded tests and replay.
  /// Not thread-safe against a running collector.
  void ingest(const std::vector<std::uint8_t>& buffer);

  struct DieStats {
    RunningStats sensed_c;
    RunningStats error_c;  // sensed - truth, the tracking-accuracy ledger
    /// Error of degraded readings (substituted estimates and failed
    /// conversions) — kept out of error_c so sensor accuracy and
    /// degraded-mode accuracy are separately auditable.
    RunningStats degraded_error_c;
  };

  struct StackStats {
    std::uint64_t frames = 0;
    /// Sequence-number gaps observed (frames lost before the collector).
    std::uint64_t missed = 0;
    std::uint64_t alerts = 0;
    /// One past the highest sequence ingested — lets a cross-shard merge
    /// recompute missed as max(next_sequence) - frames even when a stack's
    /// frames were split across shards (ingest failover).
    std::uint64_t next_sequence = 0;
    Second last_sim_time{0.0};
    std::map<std::size_t, DieStats> dies;
  };

  struct Summary {
    std::uint64_t frames = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t alerts = 0;
    std::map<AlertKind, std::uint64_t> alerts_by_kind;
    std::map<std::uint32_t, StackStats> stacks;
    /// Collector-side end-to-end latency (capture to decode), seconds.
    /// Cross-process samples are re-based onto this process's clock when
    /// the ring trailer carried a valid offset (see latency_aligned).
    Samples latency;
    /// How many latency samples used the aligned-clock path — nonzero means
    /// the numbers are cross-process comparable ("aligned_clock" source).
    std::uint64_t latency_aligned = 0;
    /// Health-byte edges observed on the wire, in arrival order.
    std::vector<HealthEvent> health_transitions;
    /// Readings that arrived flagged degraded (substitutes + failed
    /// conversions).
    std::uint64_t substituted_readings = 0;
    /// Times the frame-age watchdog fired on_stalled_ring.
    std::uint64_t watchdog_kicks = 0;
  };

  /// Snapshot of everything aggregated so far.  Call after stop() (or
  /// before start()) — not concurrently with a running collector.
  [[nodiscard]] const Summary& summary() const { return summary_; }

  /// Coarse live counters, safe to read from any thread *while the
  /// collector runs* (relaxed atomics mirroring the Summary fields) — what
  /// periodic progress reporting prints without stopping collection.
  struct Progress {
    std::uint64_t frames = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t alerts = 0;
  };
  [[nodiscard]] Progress progress() const {
    return Progress{live_frames_.load(std::memory_order_relaxed),
                    live_decode_errors_.load(std::memory_order_relaxed),
                    live_alerts_.load(std::memory_order_relaxed)};
  }

 private:
  /// Per-site edge/streak state for alert re-arming, and the last health
  /// state seen on the wire.
  struct SiteState {
    bool over_temperature = false;
    std::size_t degraded_streak = 0;
    bool dead = false;
    bool spatial_suspect = false;
    core::HealthState health = core::HealthState::kHealthy;
  };
  /// One die of a stack: its statistics, its runaway state, and its hottest
  /// reading in the frame being ingested.
  struct DieState {
    std::size_t die = 0;
    DieStats* stats = nullptr;  // node of StackStats::dies
    double last_max_c = 0.0;
    Second last_time{0.0};
    bool primed = false;
    bool alerting = false;
    /// StackStats::frames of the frame the peak belongs to.
    std::uint64_t peak_frame = 0;
    double peak_c = 0.0;
    std::size_t peak_site = 0;
  };
  /// Everything the collector keeps per stack.  Sites are indexed by the
  /// wire site_index, which decode bounds by the frame's site count; dies
  /// are wire values too, so they are kept sorted and searched, never used
  /// as an index.
  struct StackState {
    StackStats* stats = nullptr;  // node of Summary::stacks
    /// One past the sequence of the last frame ingested.
    std::uint64_t next_sequence = 0;
    std::vector<SiteState> sites;
    std::vector<DieState> dies;  // ascending die
  };

  void collect(std::vector<FrameRing*> rings);
  void raise(AlertKind kind, const Frame& frame, StackStats& stack,
             std::size_t die, std::size_t site, double value);
  /// Fill die_slot_ with each reading's index into stack.dies, adding the
  /// dies the stack has not reported before.
  void map_dies(StackState& stack, const Frame& frame);

  Config config_;
  AlertCallback on_alert_;
  HealthCallback on_health_;
  core::FaultDetector fault_detector_;
  Summary summary_;
  std::unordered_map<std::uint32_t, StackState> stacks_;
  /// Per-frame scratch, reused across frames: each reading's slot in
  /// StackState::dies, and the slots of the dies the frame reports.
  std::vector<std::size_t> die_slot_;
  std::vector<std::size_t> reported_slots_;

  std::thread collector_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> live_frames_{0};
  std::atomic<std::uint64_t> live_decode_errors_{0};
  std::atomic<std::uint64_t> live_alerts_{0};
};

}  // namespace tsvpt::telemetry
