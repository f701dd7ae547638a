// The paper's contribution: a fully on-chip self-calibrated
// process-temperature sensor.
//
// Operating principle (reconstructed from the abstract): the macro contains
// three ring oscillators with linearly independent sensitivity vectors —
// PSRO-N (Vtn-dominated), PSRO-P (Vtp-dominated) and TDRO (temperature-
// dominated) — plus a frequency-to-digital counter and a stored *nominal*
// model of each oscillator (design-time characterization, identical for
// every die; nothing per-die is needed, which is what makes the scheme
// self-calibrating).
//
// A full conversion counts all three oscillators and solves
//
//     ln f_meas,i = ln F_i(dVtn, dVtp, T),   i in {PSRO-N, PSRO-P, TDRO}
//
// for the die's local process point (dVtn, dVtp) and its temperature T with
// a damped Newton iteration — "the process information and temperature can
// be decoupled using the process-sensitive and temperature-dependent ring
// oscillators".  The process point is latched; subsequent cheap *tracking*
// conversions count only the TDRO and invert its model 1-D for T using the
// latched process point.  Each read bisects a per-latch table of ln f_TDRO
// over the solver box for the one segment whose values bracket its count and
// interpolates T(ln f) through the six rows around it, as on-chip logic
// holding a stored table would: within 1e-6 K of the model's root over the
// whole box (worst 2.1e-7 K), and a read on filled rows makes no model
// evaluation.  Table rows are evaluated the first time a read visits them:
// a latch that serves few reads pays for few rows.  A supply-compensated
// read evaluates the model at its own rail estimate instead, so it confirms
// the segment there and solves inside it.
//
// Error sources faithfully modeled: within-macro mismatch between the
// oscillators (each instance draws a fixed per-RO Vt offset), counter
// quantization and reference-clock error, supply droop/noise (the solver
// assumes nominal VDD; ratio-metric mode divides by a standard RO to cancel
// supply to first order).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "circuit/counter.hpp"
#include "circuit/energy.hpp"
#include "circuit/ring_oscillator.hpp"
#include "circuit/supply.hpp"
#include "core/die_environment.hpp"
#include "core/sensor_interface.hpp"
#include "device/tech.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/units.hpp"

namespace tsvpt::core {

/// Oscillator-bank roles (indices into per-RO arrays).
enum class RoRole : std::size_t {
  kPsroN = 0,
  kPsroP = 1,
  kTdro = 2,
  kStandard = 3,  // reference RO, used by supply-compensated mode
};
inline constexpr std::size_t kRoCount = 4;

/// Injectable oscillator faults (failure analysis / fleet testing).
enum class RoFault {
  kNone,
  /// The oscillator stopped: the counter sees zero edges.
  kDead,
  /// The oscillator latched at a fixed frequency (e.g. coupled to an
  /// aggressor): its output no longer tracks anything.
  kStuck,
};

class PtSensor final : public TemperatureSensor {
 public:
  struct Config {
    device::Technology tech = device::Technology::tsmc65_like();
    std::size_t psro_stages = 31;
    std::size_t tdro_stages = 15;
    std::size_t stdro_stages = 31;
    circuit::FrequencyCounter::Config counter{
        circuit::ReferenceClock{}, Second{2e-6}, 16};
    circuit::ConversionEnergyParams energy;
    /// The rail voltage the stored nominal model assumes.
    Volt model_vdd{1.0};
    /// Within-macro RO-to-RO effective Vt mismatch sigma (per device type).
    /// A chain averages its stages' mismatch: with upsized sensor devices at
    /// sigma(dVt) ~ 0.85 mV each, a 31-stage chain sees 0.85/sqrt(31) ~
    /// 0.15 mV.  This value sets the sensor's accuracy floor and is what
    /// lands the defaults on the paper's +-1.6 mV / +-0.8 mV / +-1.5 degC
    /// spec (see EXPERIMENTS.md error budget).
    Volt ro_mismatch_sigma{0.15e-3};
    /// Solver search box.
    Celsius t_min{-40.0};
    Celsius t_max{140.0};
    Volt vt_search{80e-3};
    /// Sample the local rail with an on-chip VDD monitor and evaluate the
    /// stored model at the *measured* voltage, so IR droop is rejected
    /// instead of aliasing into (dVt, T).  (Solving for VDD as a 4th
    /// unknown of the oscillator bank is ill-conditioned — a rail change is
    /// nearly collinear with a (dVtn, dVtp, T) combination — hence the
    /// direct measurement, as in the group's 2013 PVT-sensor follow-on.)
    bool compensate_supply = false;
    circuit::VddMonitor::Config vdd_monitor;
  };

  /// Per-conversion process/temperature estimate.
  struct ProcessEstimate {
    Volt dvtn{0.0};
    Volt dvtp{0.0};
    Kelvin temperature{300.0};
    /// Estimated rail voltage (model_vdd unless compensate_supply).
    Volt vdd{0.0};
    bool converged = false;
    int iterations = 0;
    double residual = 0.0;
    Joule energy{0.0};
  };

  /// `instance_seed` individualizes the macro: fixed per-RO mismatch and
  /// reference-clock error are drawn once here, then never change — exactly
  /// like a physical instance.
  PtSensor(Config config, std::uint64_t instance_seed);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::string name() const override {
    return config_.compensate_supply ? "PT-sensor(Vcomp)" : "PT-sensor";
  }

  /// Noise-free model frequency of one oscillator at an explicit state —
  /// this *is* the stored nominal model when called with the config's
  /// model_vdd (used by benches to print transfer curves).
  [[nodiscard]] Hertz model_frequency(RoRole role, Volt dvtn, Volt dvtp,
                                      Kelvin t) const;
  /// Model frequency at an explicit rail voltage (compensated mode).
  [[nodiscard]] Hertz model_frequency(RoRole role, Volt dvtn, Volt dvtp,
                                      Kelvin t, Volt vdd) const;

  /// Full conversion: counts all oscillators and jointly solves for
  /// (dVtn, dVtp, T); latches the process point for tracking reads.
  ProcessEstimate self_calibrate(const DieEnvironment& env, Rng* noise);

  [[nodiscard]] bool is_calibrated() const { return latched_.has_value(); }
  [[nodiscard]] const ProcessEstimate& latched_process() const;
  void clear_calibration() { latched_.reset(); }

  /// Cheap tracking conversion: TDRO window only, 1-D inversion with the
  /// latched process point.  Auto-runs self_calibrate on first use.
  [[nodiscard]] TemperatureReading read(const DieEnvironment& env,
                                        Rng* noise) override;

  /// The macro's true per-RO mismatch (test introspection only — the chip
  /// itself never knows these).
  [[nodiscard]] const std::array<device::VtDelta, kRoCount>& mismatch() const {
    return mismatch_;
  }

  /// Inject a fault into one oscillator (kStuck freezes it at the given
  /// frequency).  The sensor keeps operating; degraded readings are the
  /// observable symptom, which the fleet-level FaultDetector catches.
  void inject_fault(RoRole role, RoFault fault, Hertz stuck_at = Hertz{0.0});
  void clear_faults();

  /// Energy of one full self-calibration conversion at nominal conditions.
  [[nodiscard]] Joule calibration_energy() const;
  /// Energy of one tracking conversion at nominal conditions.
  [[nodiscard]] Joule tracking_energy() const;

 private:
  struct WindowResult {
    circuit::FrequencyCounter::Reading reading;
    bool used = false;
  };

  /// Physically measure one oscillator at the given instantaneous rail.
  /// (One rail realization is drawn per conversion: the windows sit
  /// microseconds apart, well inside the PDN's low-frequency correlation
  /// time, and the VDD monitor samples during the same interval.)
  [[nodiscard]] circuit::FrequencyCounter::Reading measure(
      RoRole role, Volt rail, const DieEnvironment& env, Rng* noise,
      circuit::ConversionEnergyModel& energy) const;

  [[nodiscard]] const circuit::RingOscillator& ro(RoRole role) const {
    return bank_[static_cast<std::size_t>(role)];
  }

  /// Rail estimate for this conversion: the monitor's reading of the
  /// conversion's rail realization when compensating, model_vdd otherwise.
  /// Charges the monitor's sample energy.
  [[nodiscard]] Volt rail_estimate(Volt rail, Rng* noise,
                                   circuit::ConversionEnergyModel& energy)
      const;

  /// The stored TDRO model the tracking read inverts: ln f_TDRO at
  /// `t_kelvin` and rail `vdd`, at the latched process point.
  [[nodiscard]] double ln_tdro(double t_kelvin, Volt vdd) const;

  /// One tracking conversion against the latched model.
  [[nodiscard]] TemperatureReading track(const DieEnvironment& env,
                                         Rng* noise);

  /// Rows of the per-latch TDRO table, one bit each in tdro_filled_: 2.9 K
  /// segments over the default -40..140 degC box, short enough that a
  /// quintic through six rows brings an uncompensated read within 1e-6 K of
  /// its root (a cubic through four: 2.6e-5 K).
  static constexpr std::size_t kTdroTableRows = 64;

  Config config_;
  std::array<circuit::RingOscillator, kRoCount> bank_;
  std::array<device::VtDelta, kRoCount> mismatch_;
  std::array<RoFault, kRoCount> faults_{};
  std::array<Hertz, kRoCount> stuck_frequency_{};
  circuit::FrequencyCounter counter_;
  circuit::VddMonitor vdd_monitor_;
  std::optional<ProcessEstimate> latched_;
  /// ln f_TDRO at model_vdd and the latched process point on
  /// kTdroTableRows evenly spaced temperatures from t_min to t_max.  Row i
  /// holds a value once bit i of tdro_filled_ is set: a tracking read
  /// evaluates the rows its bisection and its six-row window visit, so the
  /// table costs a latch at most kTdroTableRows evaluations and a short
  /// latch only the few it reaches.  Every latch empties it (after
  /// clear_calibration() the next read latches afresh).
  std::array<double, kTdroTableRows> tdro_rows_{};
  std::uint64_t tdro_filled_ = 0;
  static_assert(kTdroTableRows <= 64, "one tdro_filled_ bit per row");
};

}  // namespace tsvpt::core
