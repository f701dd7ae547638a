// Per-stack closed-loop controller and the fleet-wide control plane.
//
// A Controller owns one Policy and splits the loop into the two calls the
// sampling seams can make at their natural moments:
//
//   on_scan(...)   the sensor scan just finished — distill it into an
//                  observation, let the policy decide, hold the actuation;
//   note_tick(...) one thermal substep just ran under the held actuation —
//                  account energy, work, peak temperature and time spent
//                  over the scoring ceiling.
//
// The ControlPlane owns one Controller per stack.  Concurrency contract
// (same as inject::ChaosInjector): stack k's controller is only ever
// touched by the worker that owns stack k, so per-stack state needs no
// locking and results are identical no matter how many workers run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/policies.hpp"
#include "control/policy.hpp"

namespace tsvpt::control {

class Controller {
 public:
  struct Config {
    PolicyKind kind = PolicyKind::kDvfsLadder;
    PolicyConfig policy;
    /// How the plant responds to commands (shared by every seam that
    /// applies this controller's actuation).
    PlantModel plant;
    /// Scoring ceiling: violation-seconds accrue while the *true* max
    /// temperature exceeds it.  Keep it above the policy ceiling — the gap
    /// is the overshoot margin a sampled controller needs.
    Celsius violation_ceiling{85.0};
  };

  struct Stats {
    std::uint64_t decisions = 0;
    /// Decisions that changed at least one die command or migration.
    std::uint64_t actuations = 0;
    /// Individual die-command changes (rung moves, gate toggles).
    std::uint64_t level_changes = 0;
    /// Migration-entry changes (grown, retracted or added moves).
    std::uint64_t migrations = 0;
    /// Scans that saw at least one blind die (worst-case fallback held).
    std::uint64_t blind_scans = 0;
    double energy_j = 0.0;
    double work_done = 0.0;  // sum over dies of relative_frequency * dt
    double violation_s = 0.0;
    double peak_true_c = -273.15;
  };

  Controller(Config config, std::size_t die_count);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const char* policy_name() const { return policy_->name(); }
  /// The command currently held (worst-case-safe until the first scan).
  [[nodiscard]] const Actuation& actuation() const { return actuation_; }
  /// Times the held actuation has changed: bumped by every decision that
  /// counts in stats().actuations and by reset(), and never zeroed, so a
  /// copy of the map actuated under it stays valid while this holds.
  [[nodiscard]] std::uint64_t actuation_changes() const {
    return actuation_changes_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Feed one finished scan; runs the policy and swaps in its actuation.
  void on_scan(std::uint64_t scan, Second sim_time,
               const std::vector<core::StackMonitor::SiteReading>& readings);
  void on_observation(const StackObservation& obs);

  /// Account one thermal substep run under the held actuation.
  void note_tick(Second dt, Celsius max_true, Watt total_power);

  /// Back to the policy's initial state and zeroed stats.
  void reset();

 private:
  Config config_;
  std::size_t die_count_;
  std::unique_ptr<Policy> policy_;
  Actuation actuation_;
  std::uint64_t actuation_changes_ = 0;
  Stats stats_;
};

class ControlPlane {
 public:
  struct Config {
    Controller::Config controller;
    std::size_t stack_count = 1;
    std::size_t die_count = 4;
  };

  explicit ControlPlane(Config config);

  [[nodiscard]] std::size_t stack_count() const { return controllers_.size(); }
  [[nodiscard]] std::size_t die_count() const { return config_.die_count; }
  [[nodiscard]] Controller& controller(std::size_t stack) {
    return *controllers_.at(stack);
  }
  [[nodiscard]] const Controller& controller(std::size_t stack) const {
    return *controllers_.at(stack);
  }

  /// Stats summed across every stack (peak is the max, not the sum).
  [[nodiscard]] Controller::Stats total() const;

 private:
  Config config_;
  std::vector<std::unique_ptr<Controller>> controllers_;
};

/// Canonical byte image of every per-stack Stats, doubles rendered as raw
/// IEEE-754 bit patterns — byte-equal across runs iff the control outcome
/// was bit-identical (the thread-count-invariance gate in bench_a20).
[[nodiscard]] std::string canonical_digest(const ControlPlane& plane);

}  // namespace tsvpt::control
