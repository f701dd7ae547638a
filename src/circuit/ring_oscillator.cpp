#include "circuit/ring_oscillator.hpp"

#include <cmath>
#include <stdexcept>

namespace tsvpt::circuit {

const char* to_string(RoTopology topology) {
  switch (topology) {
    case RoTopology::kStandard:
      return "STDRO";
    case RoTopology::kNmosSensitive:
      return "PSRO-N";
    case RoTopology::kPmosSensitive:
      return "PSRO-P";
    case RoTopology::kThermal:
      return "TDRO";
  }
  return "?";
}

RingOscillator::RingOscillator(const device::Technology& tech, Config config)
    : stage_cap_(tech.stage_cap), nmos_(tech, device::TransistorKind::kNmos),
      pmos_(tech, device::TransistorKind::kPmos), config_(config) {
  if (config_.stages < 3 || config_.stages % 2 == 0) {
    throw std::invalid_argument{"RingOscillator: stages must be odd and >= 3"};
  }
  if (config_.nmos_stack < 1.0 || config_.pmos_stack < 1.0) {
    throw std::invalid_argument{"RingOscillator: stack divisor < 1"};
  }
}

RingOscillator RingOscillator::make(const device::Technology& tech,
                                    RoTopology topology, std::size_t stages) {
  Config cfg;
  cfg.topology = topology;
  switch (topology) {
    case RoTopology::kStandard:
      cfg.stages = stages != 0 ? stages : 31;
      break;
    case RoTopology::kNmosSensitive:
      // Stacked, under-driven pull-down: overdrive ~ 0.16 V at nominal, so
      // a 1 mV Vtn shift moves the stage current by ~1 %.
      cfg.stages = stages != 0 ? stages : 31;
      cfg.nmos_gate_fraction = 0.58;
      cfg.nmos_stack = 2.0;
      break;
    case RoTopology::kPmosSensitive:
      cfg.stages = stages != 0 ? stages : 31;
      cfg.pmos_gate_fraction = 0.56;
      cfg.pmos_stack = 2.0;
      break;
    case RoTopology::kThermal:
      // Near-threshold starved chain: footer/header biased a hair above
      // |Vt0|, putting the stage current in the exponential régime.
      cfg.stages = stages != 0 ? stages : 15;
      cfg.nmos_gate_fraction = 0.45;
      cfg.pmos_gate_fraction = 0.45;
      cfg.nmos_stack = 1.0;
      cfg.pmos_stack = 1.0;
      cfg.energy_overhead = 1.0;  // current-limited edges: no crowbar
      break;
  }
  return RingOscillator{tech, cfg};
}

Second RingOscillator::stage_delay(const OperatingPoint& op) const {
  if (op.vdd.value() <= 0.0) {
    throw std::invalid_argument{"RingOscillator: vdd <= 0"};
  }
  const double c = stage_cap_.value();
  const double vdd = op.vdd.value();

  const Volt vgs_n{vdd * config_.nmos_gate_fraction};
  const Volt vgs_p{vdd * config_.pmos_gate_fraction};
  const double i_dn =
      nmos_.id_sat(vgs_n, op.temperature, op.vt_delta.nmos).value() /
      config_.nmos_stack;
  const double i_dp =
      pmos_.id_sat(vgs_p, op.temperature, op.vt_delta.pmos).value() /
      config_.pmos_stack;
  if (i_dn <= 0.0 || i_dp <= 0.0) {
    throw std::runtime_error{"RingOscillator: non-positive drive current"};
  }
  const double t_phl = c * vdd / (2.0 * i_dn);
  const double t_plh = c * vdd / (2.0 * i_dp);
  return Second{0.5 * (t_phl + t_plh)};
}

Hertz RingOscillator::frequency(const OperatingPoint& op) const {
  const double tpd = stage_delay(op).value();
  return Hertz{1.0 / (2.0 * static_cast<double>(config_.stages) * tpd)};
}

Joule RingOscillator::energy_per_cycle(Volt vdd) const {
  // Every stage charges and discharges C once per output period.
  const double c = stage_cap_.value();
  const double v = vdd.value();
  return Joule{config_.energy_overhead * static_cast<double>(config_.stages) *
               c * v * v};
}

Watt RingOscillator::power(const OperatingPoint& op) const {
  return Watt{energy_per_cycle(op.vdd).value() * frequency(op).value()};
}

Watt RingOscillator::leakage_power(const OperatingPoint& op) const {
  // One leaking device per stage (the off transistor), at full VDD.
  const double i_leak_n =
      nmos_.leakage(op.vdd, op.temperature, op.vt_delta.nmos).value();
  const double i_leak_p =
      pmos_.leakage(op.vdd, op.temperature, op.vt_delta.pmos).value();
  return Watt{0.5 * static_cast<double>(config_.stages) *
              (i_leak_n + i_leak_p) * op.vdd.value()};
}

RoSensitivity RingOscillator::sensitivity(const OperatingPoint& op) const {
  RoSensitivity s;
  const double f0 = frequency(op).value();
  constexpr double kVtStep = 0.5e-3;  // 0.5 mV
  constexpr double kTStep = 0.1;      // 0.1 K

  {
    OperatingPoint hi = op;
    OperatingPoint lo = op;
    hi.vt_delta.nmos += Volt{kVtStep};
    lo.vt_delta.nmos -= Volt{kVtStep};
    s.dlnf_dvtn = (frequency(hi).value() - frequency(lo).value()) /
                  (2.0 * kVtStep * f0);
  }
  {
    OperatingPoint hi = op;
    OperatingPoint lo = op;
    hi.vt_delta.pmos += Volt{kVtStep};
    lo.vt_delta.pmos -= Volt{kVtStep};
    s.dlnf_dvtp = (frequency(hi).value() - frequency(lo).value()) /
                  (2.0 * kVtStep * f0);
  }
  {
    const OperatingPoint hi =
        op.with_temperature(op.temperature + Kelvin{kTStep});
    const OperatingPoint lo =
        op.with_temperature(op.temperature - Kelvin{kTStep});
    s.dlnf_dt = (frequency(hi).value() - frequency(lo).value()) /
                (2.0 * kTStep * f0);
  }
  return s;
}

}  // namespace tsvpt::circuit
