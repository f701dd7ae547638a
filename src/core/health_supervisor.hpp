// Per-site sensor health supervision: the layer that *acts* on fault
// verdicts.  FaultDetector only labels a scan; the supervisor owns the
// scan history and drives a per-site state machine
//
//   Healthy -> Suspect -> Quarantined -> Probation -> Healthy
//                              |                          |
//                              +--------> Dead            +--> Quarantined
//
// with bounded retry and exponential backoff on re-probe, graceful
// degradation while quarantined (readings substituted by the
// FieldEstimator's leave-one-out spatial estimate, flagged degraded), and
// forced recalibration on recovery (the caller clears the sensor's latched
// process point for every site in ScanResult::recalibrate).
//
// Evidence per scan and what it means:
//   self-degraded  — the conversion itself failed (dead oscillator,
//                    saturated counter); unambiguous after a short streak.
//   temporal jump  — the site moved faster than physics allows while its
//                    die barely moved: electronics break alone, silicon
//                    heats neighbourhoods.  Decisive: one jump
//                    quarantines.  The baseline is what was served last
//                    scan, and only active sites count as neighbours.
//   spatial        — leave-one-out inconsistency (FaultDetector).  Alone it
//                    is ambiguous (a point hotspot on one sensor looks
//                    identical), so it only quarantines when *sustained*
//                    for spatial_quarantine_scans straight scans.
//
// The supervisor is single-threaded per stack: one instance per
// StackMonitor, fed that monitor's scans in order.  Fleet deployments run
// one supervisor per stack inside the sampling worker that owns it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault_detector.hpp"
#include "core/field_estimator.hpp"
#include "core/stack_monitor.hpp"

namespace tsvpt::core {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kQuarantined = 2,
  kProbation = 3,
  kDead = 4,
};
inline constexpr std::uint8_t kHealthStateCount = 5;

[[nodiscard]] const char* to_string(HealthState state);

class HealthSupervisor {
 public:
  struct Config {
    /// Spatial leave-one-out cross-check (also the probe-consistency bound).
    FaultDetector::Config fault;
    /// Temporal disambiguation between faults and real thermal events: a
    /// site moving more than this between scans is a candidate jump...
    Celsius jump_threshold{6.0};
    /// ...unless its die's other active sites moved more than this on
    /// average too (a real transient moves the neighbourhood).
    Celsius neighbour_allowance{3.0};
    /// Consecutive self-degraded conversions before quarantine.
    std::size_t degraded_quarantine_scans = 2;
    /// Consecutive spatially-suspect scans (without jump/degraded evidence)
    /// before quarantine — long enough that a transient gradient clears,
    /// short enough that calibration drift is caught.
    std::size_t spatial_quarantine_scans = 5;
    /// Clean scans for a Suspect site to return to Healthy.
    std::size_t suspect_clear_scans = 2;
    /// Scans until the first re-probe of a quarantined site; doubles (by
    /// probe_backoff_factor) on every failed probe up to probe_backoff_max.
    std::uint64_t probe_backoff_initial = 2;
    double probe_backoff_factor = 2.0;
    std::uint64_t probe_backoff_max = 16;
    /// Failed probes before the site is declared Dead (terminal).
    std::size_t max_probe_attempts = 8;
    /// Consecutive clean Probation scans before full Healthy status.
    std::size_t probation_scans = 3;
  };

  struct Transition {
    std::size_t site_index = 0;
    HealthState from = HealthState::kHealthy;
    HealthState to = HealthState::kHealthy;
    /// Scan number (0-based) at which the transition fired.
    std::uint64_t scan = 0;
    std::string reason;
  };

  struct ScanResult {
    /// The readings to serve downstream: raw for Healthy/Suspect/Probation
    /// sites, leave-one-out substitutes (degraded=true) for
    /// Quarantined/Dead sites.  Every reading's `health` byte carries the
    /// site's post-transition state.
    std::vector<StackMonitor::SiteReading> readings;
    std::vector<Transition> transitions;
    /// Sites whose sensors must be recalibrated (probe passed: clear the
    /// latched process point so the next read self-calibrates afresh).
    std::vector<std::size_t> recalibrate;
    /// Readings substituted this scan.
    std::size_t substituted = 0;
  };

  HealthSupervisor() = default;
  explicit HealthSupervisor(Config config);

  /// Whether site i needs an actual conversion for the *next* observe call.
  /// Healthy/Suspect/Probation: always.  Quarantined: only on probe scans
  /// (between probes the conversion energy is saved and the reading
  /// substituted).  Dead: never.
  [[nodiscard]] bool wants_sample(std::size_t site_index) const;

  /// Feed one scan (readings in site order, reading i for site i).
  /// `sampled[i]` marks readings that carry a fresh conversion; pass the
  /// mask built from wants_sample.  Sites not sampled need only site_index,
  /// die, location and (when available) truth filled in.
  ScanResult observe(const std::vector<StackMonitor::SiteReading>& raw,
                     const std::vector<bool>& sampled);
  /// Convenience: every reading is a fresh conversion.
  ScanResult observe(const std::vector<StackMonitor::SiteReading>& raw);

  [[nodiscard]] HealthState state(std::size_t site_index) const;
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] std::size_t quarantined_count() const;
  [[nodiscard]] bool all_healthy() const;
  [[nodiscard]] std::uint64_t scans_observed() const { return scan_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Forget everything (states, streaks, temporal history).
  void reset();

 private:
  struct Site {
    HealthState state = HealthState::kHealthy;
    std::size_t degraded_streak = 0;
    std::size_t spatial_streak = 0;
    std::size_t clean_streak = 0;
    std::size_t probe_attempts = 0;
    std::uint64_t backoff = 0;
    std::uint64_t next_probe_scan = 0;
    /// Last value served for this site (substitution fallback when a die
    /// has no healthy reference left).
    double last_served_c = 0.0;
    bool has_last_served = false;
  };

  void transition(std::size_t i, HealthState to, std::uint64_t scan,
                  std::string reason, ScanResult* result);
  void enter_quarantine(std::size_t i, std::uint64_t scan, std::string reason,
                        ScanResult* result);

  Config config_{};
  FaultDetector detector_{};
  FieldEstimator estimator_{};
  std::vector<Site> sites_;
  /// Last served value per site — the temporal baseline for jump detection
  /// (the check runs against what was actually served, with quarantined
  /// sites excluded from the neighbour average).
  std::vector<double> prev_served_;
  /// Whether that served value was a substitute: a jump is only evidence
  /// when both endpoints are raw conversions (the step from an estimate
  /// back to a real reading after recovery is estimation error, not a
  /// sensor breaking).
  std::vector<bool> prev_substituted_;
  bool primed_ = false;
  std::uint64_t scan_ = 0;
};

}  // namespace tsvpt::core
