// Behavioral ring-oscillator models.
//
// The sensor's oscillator bank needs members with linearly independent
// sensitivity vectors over (Vtn, Vtp, T).  Four topologies are modeled, each
// reduced to its stage pull-up / pull-down current:
//
//   kStandard       — plain inverter chain.  Balanced Vtn/Vtp sensitivity,
//                     mild negative tempco at nominal VDD (mobility-limited).
//   kNmosSensitive  — "PSRO-N": stacked-NMOS pull-down driven at reduced
//                     gate bias, strong PMOS pull-up.  Delay dominated by the
//                     low-overdrive NMOS path => steep ∂f/∂Vtn.
//   kPmosSensitive  — "PSRO-P": the complementary structure => steep ∂f/∂Vtp.
//   kThermal        — "TDRO": current-starved chain with near-threshold
//                     footer/header bias => strongly positive, monotone
//                     ∂f/∂T (subthreshold-exponential régime).
//
// Stage delay uses the switched-capacitance abstraction
//   t_phl = C V_DD / (2 I_pulldown),  t_plh = C V_DD / (2 I_pullup),
//   f     = 1 / (2 N (t_phl + t_plh) / 2),
// with currents from the EKV-style device model, so every topology inherits
// physically consistent Vt/temperature/supply behaviour.
#pragma once

#include <cstddef>
#include <string>

#include "circuit/operating_point.hpp"
#include "device/mosfet.hpp"
#include "device/tech.hpp"
#include "ptsim/units.hpp"

namespace tsvpt::circuit {

enum class RoTopology { kStandard, kNmosSensitive, kPmosSensitive, kThermal };

[[nodiscard]] const char* to_string(RoTopology topology);

/// First-order sensitivity of log-frequency at an operating point.
struct RoSensitivity {
  /// d ln(f) / d Vtn, per volt.
  double dlnf_dvtn = 0.0;
  /// d ln(f) / d Vtp, per volt.
  double dlnf_dvtp = 0.0;
  /// d ln(f) / d T, per kelvin.
  double dlnf_dt = 0.0;
};

class RingOscillator {
 public:
  struct Config {
    RoTopology topology = RoTopology::kStandard;
    /// Number of inverting stages (odd).
    std::size_t stages = 31;
    /// Pull-down gate bias as a fraction of VDD, and series-stack divisor.
    double nmos_gate_fraction = 1.0;
    double nmos_stack = 1.0;
    /// Pull-up equivalents.
    double pmos_gate_fraction = 1.0;
    double pmos_stack = 1.0;
    /// Short-circuit/overhead multiplier on dynamic energy.
    double energy_overhead = 1.10;
  };

  RingOscillator(const device::Technology& tech, Config config);

  /// Factory with the tuned per-topology internals used by the sensor.
  [[nodiscard]] static RingOscillator make(const device::Technology& tech,
                                           RoTopology topology,
                                           std::size_t stages = 0);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] RoTopology topology() const { return config_.topology; }

  /// Oscillation frequency at the operating point (noise-free).
  [[nodiscard]] Hertz frequency(const OperatingPoint& op) const;

  /// Dynamic energy dissipated per full output period.
  [[nodiscard]] Joule energy_per_cycle(Volt vdd) const;

  /// Average power while running at the operating point.
  [[nodiscard]] Watt power(const OperatingPoint& op) const;

  /// Leakage power of the chain when gated off.
  [[nodiscard]] Watt leakage_power(const OperatingPoint& op) const;

  /// Numerical log-frequency sensitivities at the operating point.
  [[nodiscard]] RoSensitivity sensitivity(const OperatingPoint& op) const;

 private:
  [[nodiscard]] Second stage_delay(const OperatingPoint& op) const;

  // The one card field the model reads, by value: an oscillator (and so a
  // copied PtSensor's bank) must not point into another object's config.
  Farad stage_cap_;
  device::Mosfet nmos_;
  device::Mosfet pmos_;
  Config config_;
};

}  // namespace tsvpt::circuit
