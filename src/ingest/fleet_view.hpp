// Cross-shard merge of per-shard Aggregator summaries into one fleet-wide
// view, with a canonical byte serialization + CRC digest so "the sharded
// service computed the same thing as one big Aggregator" is a single
// integer comparison.
//
// Why the merge is exact and deterministic: the ingest server routes every
// frame of a stack to one shard (stable hash), and each shard's collector
// folds that stack's frames in arrival order — so per-stack RunningStats
// are produced by the identical sequence of Welford updates a single
// Aggregator would perform, bit for bit.  Cross-stack state (alert/health
// logs) arrives interleaved by thread timing in both the sharded and the
// single-process case, so the canonical form stable-sorts those logs by
// stack id: per-stack order (deterministic) is preserved, cross-stack
// interleaving (timing noise) is erased.
//
// Wall-clock-dependent fields (e2e latency samples, watchdog kicks) are
// merged for reporting but excluded from the canonical bytes.
//
// Sequence-gap accounting survives sharding — and even shard failover,
// where one stack's frames are split across two shards mid-run: each
// StackStats carries next_sequence (one past the highest sequence seen), so
// the merged missed count is recomputed as max(next_sequence) - frames
// instead of summing per-shard missed (which would double-count the gap a
// second shard perceives when it sees its first mid-stream frame).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/slo.hpp"
#include "ptsim/stats.hpp"
#include "telemetry/aggregator.hpp"

namespace tsvpt::ingest {

class FleetView {
 public:
  struct StackView {
    std::uint64_t frames = 0;
    std::uint64_t missed = 0;  // recomputed in finalize()
    std::uint64_t alerts = 0;
    std::uint64_t next_sequence = 0;
    Second last_sim_time{0.0};
    std::map<std::size_t, telemetry::Aggregator::DieStats> dies;
  };

  /// Fold one shard's results in.  Call once per shard, then finalize().
  /// For the single-process baseline, call once with the lone Aggregator's
  /// summary — the canonical bytes come out identical by construction.
  void add_shard(const telemetry::Aggregator::Summary& summary,
                 const std::vector<telemetry::Alert>& alert_log);

  /// Canonicalize: sort logs, recompute missed counts.  Idempotent.
  void finalize();

  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t decode_errors() const { return decode_errors_; }
  [[nodiscard]] std::uint64_t alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t missed() const { return missed_; }
  [[nodiscard]] std::uint64_t substituted_readings() const {
    return substituted_readings_;
  }
  [[nodiscard]] const std::map<telemetry::AlertKind, std::uint64_t>&
  alerts_by_kind() const {
    return alerts_by_kind_;
  }
  [[nodiscard]] const std::map<std::uint32_t, StackView>& stacks() const {
    return stacks_;
  }
  [[nodiscard]] const std::vector<telemetry::Alert>& alert_log() const {
    return alert_log_;
  }
  [[nodiscard]] const std::vector<telemetry::HealthEvent>& health_log() const {
    return health_log_;
  }
  /// Merged e2e latency samples — wall clock, excluded from the digest.
  [[nodiscard]] const Samples& latency() const { return latency_; }
  /// How many merged latency samples were re-based with a publisher clock
  /// offset (Aggregator::Summary::latency_aligned, summed over shards).
  [[nodiscard]] std::uint64_t latency_aligned() const {
    return latency_aligned_;
  }
  /// What clock the latency numbers are on: "aligned_clock" once any
  /// sample was re-based with a publisher offset (cross-process
  /// comparable), "local_clock" otherwise (capture and decode on the same
  /// monotonic clock, or no offset estimate yet).
  [[nodiscard]] const char* latency_source() const {
    return latency_aligned_ > 0 ? "aligned_clock" : "local_clock";
  }

  /// Evaluate the serve SLO — 99% under 100 ms per pipeline stage —
  /// against the live metrics registry.
  [[nodiscard]] std::vector<obs::SloStatus> slo_status() const;

  /// Deterministic little-endian serialization of everything aggregated
  /// from frame *content* (doubles as IEEE-754 bit patterns).  Two views
  /// are equal iff their canonical bytes are equal.
  [[nodiscard]] std::vector<std::uint8_t> canonical_bytes() const;

  /// CRC-32 of canonical_bytes() — the one-integer equality check.
  [[nodiscard]] std::uint32_t digest() const;

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t alerts_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t substituted_readings_ = 0;
  std::map<telemetry::AlertKind, std::uint64_t> alerts_by_kind_;
  std::map<std::uint32_t, StackView> stacks_;
  std::vector<telemetry::Alert> alert_log_;
  std::vector<telemetry::HealthEvent> health_log_;
  Samples latency_;
  std::uint64_t latency_aligned_ = 0;
  bool finalized_ = false;
};

}  // namespace tsvpt::ingest
