// One stack's advance -> sample -> supervise -> decide sequence, shared by
// every per-stack simulation: the FleetSampler's workers, the closed-loop
// eval harness (run_closed_loop) and sim::MonitoringSession.
//
// The loop owns the two halves of that sequence:
//
//   advance(...)  thermal substeps under the held actuation: program the
//                 workload's map (then the controller's actuation when one
//                 is attached), integrate one step, account the controller
//                 tick;
//   sample_scan() one scan: convert only the sites the supervisor wants,
//                 give the rest degraded placeholders;
//   settle(...)   after the caller's hook: supervise, apply forced
//                 recalibrations, let the controller decide.
//
// The caller owns the clock and the order: whether a scan comes before or
// after its advance, and which hooks run between the calls.  Everything the
// loop touches is borrowed, so a loop is a handful of pointers, one sampling
// mask and its cached power maps.
//
// The first cache holds the nominal map of the phase the loop programmed
// last.  A phase lasts many substeps (a fleet's 25 ms burst or idle phase is
// 100 of them), so Workload::apply runs only when the phase changes; every
// other substep copies the cached map into the network.  The cache lives in
// the loop, not the workload, because a fleet's stacks share one workload
// read-only across worker threads.  With a controller attached, a second
// cache holds that map under the held actuation, and its total power: it is
// rebuilt (actuate() on the nominal map) only when the phase or the
// controller's actuation_changes() moves, at most once per scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/units.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {

class StackLoop {
 public:
  /// Every reference and pointer must outlive the loop.  `supervisor`
  /// (nullptr = raw scans) and `controller` (nullptr = open loop, the
  /// workload's own power map) are optional and not owned.
  StackLoop(thermal::ThermalNetwork& network,
            const thermal::Workload& workload, core::StackMonitor& monitor,
            Rng& noise, core::HealthSupervisor* supervisor,
            Controller* controller);

  /// Power-on: program the uncontrolled map for t = 0, start from its
  /// steady state (or from ambient), then self-calibrate every site.
  void power_on(bool steady_state);

  /// One thermal substep of `h` starting at time `t`.  The stack's hottest
  /// true temperature is measured only when a controller is attached (it
  /// feeds the controller's tick accounting and nothing else).  Never
  /// allocates.
  void substep(Second t, Second h);

  /// Advance `period` from `now` in substeps of at most `step`, each
  /// programmed at now + (time advanced so far).  `stop`, when given, is
  /// asked after every substep and ends the advance early by returning
  /// true.  Returns the time advanced.
  Second advance(Second now, Second period, Second step,
                 const std::function<bool()>& stop = {});

  /// One scan against the current thermal state.  Unsupervised, every site
  /// converts; supervised, a site the supervisor has pulled from duty is
  /// not converted and its slot carries a degraded placeholder.
  [[nodiscard]] std::vector<core::StackMonitor::SiteReading> sample_scan();

  /// Finish the scan sample_scan() produced: supervise it (substitute, force
  /// recalibration of recovered sites, log transitions), then let the
  /// controller decide on the post-supervision readings, which replace
  /// `readings`.
  void settle(std::uint64_t scan, Second now,
              std::vector<core::StackMonitor::SiteReading>& readings);

  /// Every health transition the supervisor reported (empty unsupervised).
  [[nodiscard]] const std::vector<core::HealthSupervisor::Transition>&
  transitions() const {
    return transitions_;
  }

 private:
  /// Program the workload's nominal map for time t: from the cache while t
  /// is in the phase programmed last, else through Workload::apply, whose
  /// map then becomes the cache.
  void program_nominal(Second t);
  /// Program the nominal map for time t under the controller's held
  /// actuation: from the actuated cache while neither the phase nor the
  /// actuation changed, else through program_nominal() and actuate(),
  /// whose map then becomes the cache.
  void program_actuated(Second t);

  thermal::ThermalNetwork* network_;
  const thermal::Workload* workload_;
  core::StackMonitor* monitor_;
  Rng* noise_;
  core::HealthSupervisor* supervisor_;
  Controller* controller_;
  /// Which slots of the last supervised sample_scan() hold real
  /// conversions.
  std::vector<bool> sampled_;
  std::vector<core::HealthSupervisor::Transition> transitions_;
  /// Nominal power map of phase `cached_phase_` (one entry per node), and
  /// that phase's index (kNoPhase until the first programming).
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);
  std::vector<double> phase_power_;
  std::size_t cached_phase_ = kNoPhase;
  /// phase_power_ under the actuation of the controller's
  /// actuation_changes() == `actuated_changes_` (sized only with a
  /// controller), its total power, and the phase it was built for.
  std::vector<double> actuated_power_;
  double actuated_total_ = 0.0;
  std::uint64_t actuated_changes_ = 0;
  std::size_t actuated_phase_ = kNoPhase;
};

}  // namespace tsvpt::control
