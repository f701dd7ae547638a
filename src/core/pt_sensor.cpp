#include "core/pt_sensor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "calib/lut.hpp"
#include "calib/newton.hpp"
#include "obs/metrics.hpp"

namespace tsvpt::core {
namespace {

std::array<circuit::RingOscillator, kRoCount> build_bank(
    const PtSensor::Config& cfg) {
  using circuit::RingOscillator;
  using circuit::RoTopology;
  return {RingOscillator::make(cfg.tech, RoTopology::kNmosSensitive,
                               cfg.psro_stages),
          RingOscillator::make(cfg.tech, RoTopology::kPmosSensitive,
                               cfg.psro_stages),
          RingOscillator::make(cfg.tech, RoTopology::kThermal,
                               cfg.tdro_stages),
          RingOscillator::make(cfg.tech, RoTopology::kStandard,
                               cfg.stdro_stages)};
}

/// A compensated tracking solve returns once its predicted error is below
/// this (kelvin); the full-box Brent search it replaced was good to ~1e-7 K.
/// Uncompensated reads interpolate the table instead and never solve.
constexpr double kTrackingErrorK = 1e-8;
/// Bisection alone closes the full box below kTrackingErrorK in ~34 steps.
constexpr int kTrackingMaxSteps = 64;

/// Model evaluations spent inverting tracking conversions, the table rows
/// a read fills included: one sharded add per read.
const obs::Counter& model_evals_total() {
  static const obs::Counter c =
      obs::counter("tsvpt_sensor_model_evals_total");
  return c;
}

/// A point of a compensated read's residual ln F_TDRO(T, vdd_hat) -
/// ln f_meas (T in kelvin).
struct Probe {
  double t;
  double g;
};

/// Root of a compensated read's `residual` in [lo, hi], whose residuals
/// differ in sign or are zero.  Secant steps through the two newest probes,
/// starting from the end nearer the root; a step that would leave the
/// bracket bisects it instead, so the result never leaves [lo, hi].  Once
/// three probes exist, the secant's error model |g''/2g'| |t - x_n|
/// |t - x_n-1|, with the curvature taken from the last two secant slopes,
/// predicts how far the next point lies from the root; the solve returns
/// that point unevaluated as soon as the prediction drops below
/// kTrackingErrorK.  Inside a table segment that takes two evaluations;
/// from a segment end to a box end, three or four.  One division per step:
/// the slopes are kept inverted (dt/dg).
template <class Residual>
double solve_in_bracket(Residual&& residual, Probe lo, Probe hi) {
  if (lo.g == 0.0) return lo.t;
  if (hi.g == 0.0) return hi.t;
  const bool lo_nearer = std::abs(lo.g) < std::abs(hi.g);
  Probe oldest = lo_nearer ? hi : lo;
  Probe older = oldest;
  Probe newer = lo_nearer ? lo : hi;
  double inv_slope_before = 0.0;  // 0 until three probes exist
  for (int step = 0; step < kTrackingMaxSteps; ++step) {
    const double inv_slope = (newer.t - older.t) / (newer.g - older.g);
    double t = newer.t - newer.g * inv_slope;
    if (!(t > lo.t && t < hi.t)) {
      t = 0.5 * (lo.t + hi.t);
    } else if (std::abs((inv_slope_before - inv_slope) * (t - newer.t) *
                        (t - older.t)) <
               kTrackingErrorK *
                   std::abs(inv_slope_before * (newer.t - oldest.t))) {
      // |g''/2g'| = |1 - slope_before/slope| / |newer.t - oldest.t|.
      return t;
    }
    if (hi.t - lo.t < kTrackingErrorK) return t;
    const Probe p{t, residual(t)};
    if (p.g == 0.0) return t;
    ((p.g < 0.0) == (lo.g < 0.0) ? lo : hi) = p;
    oldest = older;
    older = newer;
    newer = p;
    inv_slope_before = inv_slope;
  }
  return newer.t;
}

}  // namespace

PtSensor::PtSensor(Config config, std::uint64_t instance_seed)
    : config_(std::move(config)), bank_(build_bank(config_)),
      counter_(config_.counter),
      vdd_monitor_(config_.vdd_monitor, derive_seed(instance_seed, 0x5DD)) {
  Rng instance_rng{instance_seed};
  const double sigma = config_.ro_mismatch_sigma.value();
  for (auto& m : mismatch_) {
    m.nmos = Volt{instance_rng.gaussian(0.0, sigma)};
    m.pmos = Volt{instance_rng.gaussian(0.0, sigma)};
  }
  // Per-instance reference-clock error: +-20 ppm systematic, drawn once.
  circuit::FrequencyCounter::Config counter_cfg = config_.counter;
  counter_cfg.reference.systematic_ppm = instance_rng.gaussian(0.0, 20.0);
  counter_ = circuit::FrequencyCounter{counter_cfg};
}

Hertz PtSensor::model_frequency(RoRole role, Volt dvtn, Volt dvtp,
                                Kelvin t) const {
  return model_frequency(role, dvtn, dvtp, t, config_.model_vdd);
}

Hertz PtSensor::model_frequency(RoRole role, Volt dvtn, Volt dvtp, Kelvin t,
                                Volt vdd) const {
  circuit::OperatingPoint op;
  op.vdd = vdd;
  op.temperature = t;
  op.vt_delta = {dvtn, dvtp};
  return ro(role).frequency(op);
}

void PtSensor::inject_fault(RoRole role, RoFault fault, Hertz stuck_at) {
  faults_[static_cast<std::size_t>(role)] = fault;
  stuck_frequency_[static_cast<std::size_t>(role)] = stuck_at;
}

void PtSensor::clear_faults() {
  faults_.fill(RoFault::kNone);
}

circuit::FrequencyCounter::Reading PtSensor::measure(
    RoRole role, Volt rail, const DieEnvironment& env, Rng* noise,
    circuit::ConversionEnergyModel& energy) const {
  circuit::OperatingPoint op;
  op.vdd = rail;
  op.temperature = env.temperature;
  op.vt_delta = env.vt_delta + mismatch_[static_cast<std::size_t>(role)];
  Hertz f_true = ro(role).frequency(op);
  switch (faults_[static_cast<std::size_t>(role)]) {
    case RoFault::kNone:
      break;
    case RoFault::kDead:
      f_true = Hertz{0.0};
      break;
    case RoFault::kStuck:
      f_true = stuck_frequency_[static_cast<std::size_t>(role)];
      break;
  }
  const auto reading = counter_.measure(f_true, noise);
  energy.add_oscillator_window(ro(role).energy_per_cycle(op.vdd),
                               reading.count, counter_.nominal_window());
  return reading;
}

PtSensor::ProcessEstimate PtSensor::self_calibrate(const DieEnvironment& env,
                                                   Rng* noise) {
  circuit::ConversionEnergyModel energy{config_.energy};
  energy.reset();

  const Volt rail = env.supply.effective(noise);
  const Volt vdd_hat = rail_estimate(rail, noise, energy);

  const std::array<RoRole, 3> roles{RoRole::kPsroN, RoRole::kPsroP,
                                    RoRole::kTdro};
  std::array<double, 3> meas{};
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const auto reading = measure(roles[i], rail, env, noise, energy);
    if (reading.measured.value() <= 0.0) {
      // A dead oscillator: no information to solve with.  Report a
      // non-converged estimate rather than poisoning the solver with
      // log(0); the caller sees converged == false.
      ProcessEstimate failed;
      failed.vdd = vdd_hat;
      failed.energy = energy.finish().total();
      latched_ = failed;
      tdro_filled_ = 0;
      return failed;
    }
    meas[i] = std::log(reading.measured.value());
  }

  // Residual of the stored nominal model — evaluated at the rail estimate —
  // vs the measurement.  Unknowns: (dVtn, dVtp, T).
  auto residual = [&](const calib::Vector& x) {
    const Volt dvtn{x[0]};
    const Volt dvtp{x[1]};
    const Kelvin t{x[2]};
    calib::Vector r(roles.size());
    for (std::size_t i = 0; i < roles.size(); ++i) {
      r[i] =
          std::log(model_frequency(roles[i], dvtn, dvtp, t, vdd_hat).value()) -
          meas[i];
    }
    return r;
  };

  calib::NewtonOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;
  const double vt_box = config_.vt_search.value();
  options.lower_bounds = {-vt_box, -vt_box, to_kelvin(config_.t_min).value()};
  options.upper_bounds = {+vt_box, +vt_box, to_kelvin(config_.t_max).value()};
  const calib::NewtonResult solved =
      calib::newton_solve(residual, calib::Vector{0.0, 0.0, 305.0}, options);

  ProcessEstimate estimate;
  estimate.dvtn = Volt{solved.x[0]};
  estimate.dvtp = Volt{solved.x[1]};
  estimate.temperature = Kelvin{solved.x[2]};
  estimate.vdd = vdd_hat;
  estimate.converged = solved.converged;
  estimate.iterations = solved.iterations;
  estimate.residual = solved.residual;
  estimate.energy = energy.finish().total();
  latched_ = estimate;
  tdro_filled_ = 0;
  return estimate;
}

const PtSensor::ProcessEstimate& PtSensor::latched_process() const {
  if (!latched_) throw std::logic_error{"PtSensor: not calibrated"};
  return *latched_;
}

TemperatureReading PtSensor::read(const DieEnvironment& env, Rng* noise) {
  if (!latched_) {
    // Power-on: first conversion is the full self-calibration.
    const ProcessEstimate est = self_calibrate(env, noise);
    return {to_celsius(est.temperature), est.energy, !est.converged};
  }
  return track(env, noise);
}

double PtSensor::ln_tdro(double t_kelvin, Volt vdd) const {
  return std::log(model_frequency(RoRole::kTdro, latched_->dvtn,
                                  latched_->dvtp, Kelvin{t_kelvin}, vdd)
                      .value());
}

// hot(alloc,lock,io): every tracking read of every site runs through here.
// The TDRO table is a fixed array filled in place, so a conversion never
// allocates; the interpolation and the compensated solve are plain
// arithmetic on stack arrays and probes.
TemperatureReading PtSensor::track(const DieEnvironment& env, Rng* noise) {
  circuit::ConversionEnergyModel energy{config_.energy};
  energy.reset();
  const Volt rail = env.supply.effective(noise);
  const Volt vdd_hat = rail_estimate(rail, noise, energy);
  const auto r_t = measure(RoRole::kTdro, rail, env, noise, energy);

  TemperatureReading out;
  out.degraded = r_t.saturated;
  if (r_t.measured.value() <= 0.0) {
    // Dead TDRO: clamp to the range floor and flag — the fleet-level fault
    // detector is responsible for spotting the dead site.
    out.degraded = true;
    out.temperature = config_.t_min;
    out.energy = energy.finish().total();
    return out;
  }
  const double target = std::log(r_t.measured.value());
  std::uint64_t evals = 0;

  // Row i of the table sits at row_t(i); it is evaluated the first time a
  // read asks for it.  The rows hold the model at model_vdd, exact for an
  // uncompensated read; a compensated read evaluates the model at its own
  // rail estimate wherever it probes.
  constexpr std::size_t kLast = kTdroTableRows - 1;
  const double t_lo = to_kelvin(config_.t_min).value();
  const double t_hi = to_kelvin(config_.t_max).value();
  const double step = (t_hi - t_lo) / static_cast<double>(kLast);
  const auto row_t = [&](std::size_t i) {
    return i == kLast ? t_hi : t_lo + static_cast<double>(i) * step;
  };
  const auto row = [&](std::size_t i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((tdro_filled_ & bit) == 0) {
      ++evals;
      tdro_rows_[i] = ln_tdro(row_t(i), config_.model_vdd);
      tdro_filled_ |= bit;
    }
    return tdro_rows_[i];
  };

  // Bracket the root: the segment whose rows straddle the count, or, for a
  // count beyond the end rows, the end segment nearer it.
  const double first = row(0);
  const double last = row(kLast);
  const bool in_range = (target - first) * (target - last) <= 0.0;
  std::size_t i = 0;
  if (in_range) {
    i = calib::bisect_segment(kTdroTableRows, target, last > first, row);
  } else if (std::abs(target - last) < std::abs(target - first)) {
    i = kLast - 1;
  }

  double t_solved;
  if (!config_.compensate_supply) {
    if (in_range) {
      // Interpolate T(ln f) through the six rows around the segment (two
      // below it, two above, shifted inward at the table ends).
      constexpr std::size_t kWindow = 6;
      const std::size_t s =
          std::min(i < 2 ? std::size_t{0} : i - 2, kTdroTableRows - kWindow);
      std::array<double, kWindow> ts{};
      std::array<double, kWindow> lns{};
      for (std::size_t k = 0; k < kWindow; ++k) {
        ts[k] = row_t(s + k);
        lns[k] = row(s + k);
      }
      t_solved = calib::interpolate_inverse(ts, lns, i - s, target);
    } else {
      // Out-of-range frequency: clamp to the nearer box end and flag it.
      t_solved = i == 0 ? t_lo : t_hi;
      out.degraded = true;
    }
  } else {
    const auto residual = [&](double t_kelvin) {
      ++evals;
      return ln_tdro(t_kelvin, vdd_hat) - target;
    };
    const auto probe = [&](std::size_t row_index) {
      const double t = row_t(row_index);
      return Probe{t, residual(t)};
    };
    Probe lo = probe(i);
    Probe hi = probe(i + 1);
    // No sign change: the root lies beyond the end with the smaller
    // residual (a count outside the table, or a rail estimate that moved
    // the root off its segment).  Keep that end and widen to the box end
    // on its side.
    const bool root_below = std::abs(lo.g) < std::abs(hi.g);
    if (lo.g * hi.g > 0.0) {
      if (root_below && i > 0) {
        hi = lo;
        lo = probe(0);
      } else if (!root_below && i + 1 < kLast) {
        lo = hi;
        hi = probe(kLast);
      }
    }
    if (lo.g * hi.g > 0.0) {
      // Out-of-range frequency: clamp to the nearer box end and flag it.
      t_solved = root_below ? t_lo : t_hi;
      out.degraded = true;
    } else {
      t_solved = solve_in_bracket(residual, lo, hi);
    }
  }
  model_evals_total().add(evals);
  out.temperature = to_celsius(Kelvin{t_solved});
  out.energy = energy.finish().total();
  return out;
}

Volt PtSensor::rail_estimate(Volt rail, Rng* noise,
                             circuit::ConversionEnergyModel& energy) const {
  if (!config_.compensate_supply) return config_.model_vdd;
  energy.add_auxiliary(vdd_monitor_.sample_energy());
  return vdd_monitor_.measure(rail, noise);
}

Joule PtSensor::calibration_energy() const {
  PtSensor probe = *this;
  DieEnvironment env;
  env.supply = circuit::SupplyRail{{config_.model_vdd, Volt{0.0}, Volt{0.0}}};
  return probe.self_calibrate(env, nullptr).energy;
}

Joule PtSensor::tracking_energy() const {
  PtSensor probe = *this;
  DieEnvironment env;
  env.supply = circuit::SupplyRail{{config_.model_vdd, Volt{0.0}, Volt{0.0}}};
  (void)probe.self_calibrate(env, nullptr);
  return probe.read(env, nullptr).energy;
}

}  // namespace tsvpt::core
