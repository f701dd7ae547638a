// Fleet-level fault detection: a sensor that dies or sticks cannot always
// tell you so (a stuck oscillator still produces a confident-looking
// temperature).  But sensors share a die: the temperature field is smooth,
// so each reading can be cross-checked against the leave-one-out spatial
// estimate from its neighbours.  Suspects are excluded greedily (worst
// violator first) so a single stuck sensor cannot contaminate its
// neighbours' estimates into false positives.
//
// Known limitation (pinned by tests): a hotspot concentrated on exactly one
// sensor is spatially indistinguishable from that sensor sticking high, and
// is flagged.  Disambiguation is temporal — real hotspots grow on thermal
// time constants, faults jump between consecutive scans.  The caller that
// owns the scan history and performs that disambiguation is
// core::HealthSupervisor, which quarantines a single-scan jump immediately
// but lets a multi-scan thermal ramp (the whole neighbourhood moving) pass
// (pinned by HealthSupervisorTest.SingleScanJumpQuarantinedHotspotRampIsNot).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/stack_monitor.hpp"

namespace tsvpt::core {

class FaultDetector {
 public:
  /// Cap on the stored inverse-distance weight table, in weights: one per
  /// ordered pair of sites on a die, a site's own slot included (8 bytes
  /// each, 512 KiB in all), so dies of up to 256 sites.  A layout that needs
  /// more keeps no table: each site's weight row is computed into one
  /// reusable buffer whenever its deviation is needed.
  static constexpr std::size_t kMaxWeights = std::size_t{1} << 16;

  struct Config {
    /// A reading deviating more than this from its neighbours' estimate is
    /// suspect.  Set comfortably above sensor accuracy + real gradients.
    Celsius threshold{8.0};
    /// IDW exponent for the leave-one-out estimate.
    double idw_power = 2.0;
  };

  struct Verdict {
    std::size_t site_index = 0;
    bool suspect = false;
    /// Deviation from the leave-one-out estimate (0 when not computable).
    Celsius deviation{0.0};
    std::string reason;  // empty when healthy
  };

  FaultDetector() = default;
  explicit FaultDetector(Config config) : config_(config) {}

  /// Analyze one scan.  Verdicts are aligned with the sample's order.
  ///
  /// Not const: the detector keeps the inverse-distance weights of the last
  /// site layout it analyzed (the die and location at each position) and
  /// rebuilds them only when a scan's layout differs, so consecutive scans
  /// of one sensor grid compute no weight.  Give each thread its own
  /// detector.
  [[nodiscard]] std::vector<Verdict> analyze(
      const std::vector<StackMonitor::SiteReading>& sample);

  /// Indices of suspect sites in the sample.
  [[nodiscard]] std::vector<std::size_t> suspects(
      const std::vector<StackMonitor::SiteReading>& sample);

  /// Weights in the stored table: 0 before the first scan and while the
  /// last layout needed more than kMaxWeights.
  [[nodiscard]] std::size_t stored_weights() const { return table_.size(); }

 private:
  struct Position {
    std::size_t die = 0;
    process::Point location;
  };
  /// The positions on one position's die: by_die_[first, first + count),
  /// ascending; `row` is where the position's weights start in table_.
  struct Peers {
    std::size_t first = 0;
    std::size_t count = 0;
    std::size_t row = 0;
  };

  [[nodiscard]] bool same_layout(
      const std::vector<StackMonitor::SiteReading>& sample) const;
  void learn_layout(const std::vector<StackMonitor::SiteReading>& sample);
  /// Over kMaxWeights: the weights of position i's die peers, aligned
  /// with its Peers range.
  void fill_row(std::size_t i, double* weights) const;

  Config config_{};
  std::vector<Position> layout_;
  /// Positions sorted by (die, position).
  std::vector<std::size_t> by_die_;
  std::vector<Peers> peers_;
  /// Every position's row back to back; empty over kMaxWeights.
  std::vector<double> table_;
  /// Over kMaxWeights: the row of the position being estimated.
  std::vector<double> row_;
};

}  // namespace tsvpt::core
