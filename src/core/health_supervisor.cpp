#include "core/health_supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tsvpt::core {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbation: return "probation";
    case HealthState::kDead: return "dead";
  }
  return "unknown";
}

HealthSupervisor::HealthSupervisor(Config config) : config_(config) {
  detector_ = FaultDetector{config_.fault};
  FieldEstimator::Config est_cfg;
  est_cfg.power = config_.fault.idw_power;
  est_cfg.skip_degraded = true;
  estimator_ = FieldEstimator{est_cfg};
}

bool HealthSupervisor::wants_sample(std::size_t site_index) const {
  if (site_index >= sites_.size()) return true;  // first scan sizes the set
  const Site& site = sites_[site_index];
  switch (site.state) {
    case HealthState::kHealthy:
    case HealthState::kSuspect:
    case HealthState::kProbation:
      return true;
    case HealthState::kQuarantined:
      return scan_ >= site.next_probe_scan;  // probe scans only
    case HealthState::kDead:
      return false;
  }
  return true;
}

HealthState HealthSupervisor::state(std::size_t site_index) const {
  return sites_.at(site_index).state;
}

std::size_t HealthSupervisor::quarantined_count() const {
  std::size_t n = 0;
  for (const Site& s : sites_) {
    if (s.state == HealthState::kQuarantined ||
        s.state == HealthState::kDead) {
      ++n;
    }
  }
  return n;
}

bool HealthSupervisor::all_healthy() const {
  return std::all_of(sites_.begin(), sites_.end(), [](const Site& s) {
    return s.state == HealthState::kHealthy;
  });
}

void HealthSupervisor::reset() {
  sites_.clear();
  prev_served_.clear();
  prev_substituted_.clear();
  primed_ = false;
  scan_ = 0;
}

void HealthSupervisor::transition(std::size_t i, HealthState to,
                                  std::uint64_t scan, std::string reason,
                                  ScanResult* result) {
  Site& site = sites_[i];
  Transition t;
  t.site_index = i;
  t.from = site.state;
  t.to = to;
  t.scan = scan;
  t.reason = std::move(reason);
  result->transitions.push_back(std::move(t));
  // Health edges are rare (a handful per fault), so each one is both
  // counted and dropped into the flight recorder as an instant event named
  // after the destination state (to_string returns literals).
  static const obs::Counter transitions_total =
      obs::counter("tsvpt_health_transitions_total");
  transitions_total.inc();
  obs::instant("health", to_string(to), i);
  site.state = to;
  site.clean_streak = 0;
  site.degraded_streak = 0;
  site.spatial_streak = 0;
}

void HealthSupervisor::enter_quarantine(std::size_t i, std::uint64_t scan,
                                        std::string reason,
                                        ScanResult* result) {
  Site& site = sites_[i];
  // First entry starts at the initial backoff; a relapse keeps the
  // escalated backoff it had already earned.
  if (site.backoff == 0) site.backoff = config_.probe_backoff_initial;
  site.next_probe_scan = scan + 1 + site.backoff;
  transition(i, HealthState::kQuarantined, scan, std::move(reason), result);
}

HealthSupervisor::ScanResult HealthSupervisor::observe(
    const std::vector<StackMonitor::SiteReading>& raw) {
  return observe(raw, std::vector<bool>(raw.size(), true));
}

HealthSupervisor::ScanResult HealthSupervisor::observe(
    const std::vector<StackMonitor::SiteReading>& raw,
    const std::vector<bool>& sampled) {
  if (raw.size() != sampled.size()) {
    throw std::invalid_argument{"HealthSupervisor: mask size mismatch"};
  }
  if (sites_.empty()) {
    sites_.resize(raw.size());
    prev_served_.assign(raw.size(), 0.0);
    prev_substituted_.assign(raw.size(), false);
  } else if (raw.size() != sites_.size()) {
    throw std::invalid_argument{"HealthSupervisor: scan size changed"};
  }
  const std::size_t n = raw.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (raw[i].site_index != i) {
      throw std::invalid_argument{
          "HealthSupervisor: readings must be in site order"};
    }
  }

  const std::uint64_t scan = scan_++;
  ScanResult result;
  result.readings = raw;

  const auto is_active = [&](std::size_t i) {
    const HealthState s = sites_[i].state;
    return s == HealthState::kHealthy || s == HealthState::kSuspect ||
           s == HealthState::kProbation;
  };

  // Substitute a quarantined/dead site from the active sites' readings;
  // returns false when the die has no usable reference (lone sensor).
  const auto substitute = [&](std::size_t i) {
    StackMonitor::SiteReading& r = result.readings[i];
    r.degraded = true;
    std::vector<StackMonitor::SiteReading> refs;
    refs.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || !is_active(j)) continue;
      refs.push_back(result.readings[j]);
    }
    try {
      r.sensed = estimator_.estimate_at(refs, r.die, r.location);
      return true;
    } catch (const std::runtime_error&) {
      if (sites_[i].has_last_served) r.sensed = Celsius{sites_[i].last_served_c};
      return false;
    }
  };

  // Pass A: serve substitutes for already-quarantined/dead sites, and keep
  // the healthy estimate around for probe evaluation.  Their raw readings
  // (stale placeholders or untrusted probes) never enter the analysis set.
  std::vector<double> estimate(n, 0.0);
  std::vector<bool> has_estimate(n, false);
  std::vector<bool> substituted(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_active(i)) continue;
    has_estimate[i] = substitute(i);
    estimate[i] = result.readings[i].sensed.value();
    substituted[i] = true;
    result.substituted += 1;
  }

  // Pass B: evidence on the serving set.
  const std::vector<FaultDetector::Verdict> verdicts =
      detector_.analyze(result.readings);

  // Temporal disambiguation against what was actually served last scan: a
  // site moving faster than physics allows while its active same-die
  // neighbours barely move is electronics breaking, not silicon heating.
  std::vector<bool> jumped(n, false);
  if (primed_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_active(i) || !sampled[i] || prev_substituted_[i]) continue;
      const double own_move =
          std::abs(result.readings[i].sensed.value() - prev_served_[i]);
      if (own_move <= config_.jump_threshold.value()) continue;
      double neighbour_move = 0.0;
      std::size_t neighbours = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !is_active(j)) continue;
        if (result.readings[j].die != result.readings[i].die) continue;
        neighbour_move +=
            std::abs(result.readings[j].sensed.value() - prev_served_[j]);
        ++neighbours;
      }
      if (neighbours == 0) continue;  // lone sensor: cannot disambiguate
      neighbour_move /= static_cast<double>(neighbours);
      jumped[i] = neighbour_move < config_.neighbour_allowance.value();
    }
  }

  // Pass C: the per-site state machine.
  for (std::size_t i = 0; i < n; ++i) {
    Site& site = sites_[i];
    const bool degraded_evt = sampled[i] && raw[i].degraded;
    const bool spatial_evt = is_active(i) && verdicts[i].suspect &&
                             !result.readings[i].degraded;
    switch (site.state) {
      case HealthState::kHealthy:
      case HealthState::kSuspect: {
        if (jumped[i]) {
          enter_quarantine(i, scan, "temporal jump isolated from neighbours",
                           &result);
          break;
        }
        if (degraded_evt) {
          site.degraded_streak += 1;
          site.spatial_streak = spatial_evt ? site.spatial_streak + 1 : 0;
          site.clean_streak = 0;
          if (site.degraded_streak >= config_.degraded_quarantine_scans) {
            enter_quarantine(i, scan, "persistently degraded conversions",
                             &result);
          } else if (site.state == HealthState::kHealthy) {
            const std::size_t streak = site.degraded_streak;
            transition(i, HealthState::kSuspect, scan, "degraded conversion",
                       &result);
            site.degraded_streak = streak;
          }
        } else if (spatial_evt) {
          site.spatial_streak += 1;
          site.degraded_streak = 0;
          site.clean_streak = 0;
          if (site.spatial_streak >= config_.spatial_quarantine_scans) {
            enter_quarantine(i, scan, "sustained spatial inconsistency",
                             &result);
          } else if (site.state == HealthState::kHealthy) {
            const std::size_t streak = site.spatial_streak;
            transition(i, HealthState::kSuspect, scan,
                       "spatially inconsistent with neighbours", &result);
            site.spatial_streak = streak;
          }
        } else {
          site.degraded_streak = 0;
          site.spatial_streak = 0;
          if (site.state == HealthState::kSuspect) {
            site.clean_streak += 1;
            if (site.clean_streak >= config_.suspect_clear_scans) {
              transition(i, HealthState::kHealthy, scan, "suspicion cleared",
                         &result);
            }
          }
        }
        break;
      }
      case HealthState::kQuarantined: {
        if (scan < site.next_probe_scan || !sampled[i]) break;
        // Probe: the raw conversion judged directly against the healthy
        // neighbours' estimate (the site itself stays out of the field).
        const bool consistent =
            !has_estimate[i] ||
            std::abs(raw[i].sensed.value() - estimate[i]) <=
                config_.fault.threshold.value();
        if (!raw[i].degraded && consistent) {
          transition(i, HealthState::kProbation, scan,
                     "probe consistent; recalibrating", &result);
          result.recalibrate.push_back(i);
        } else {
          site.probe_attempts += 1;
          if (site.probe_attempts >= config_.max_probe_attempts) {
            transition(i, HealthState::kDead, scan,
                       "probe attempts exhausted", &result);
          } else {
            site.backoff = std::min(
                static_cast<std::uint64_t>(
                    static_cast<double>(site.backoff) *
                    config_.probe_backoff_factor),
                config_.probe_backoff_max);
            site.backoff = std::max<std::uint64_t>(site.backoff, 1);
            site.next_probe_scan = scan + 1 + site.backoff;
          }
        }
        break;
      }
      case HealthState::kProbation: {
        if (jumped[i] || degraded_evt || spatial_evt) {
          enter_quarantine(i, scan, "relapse during probation", &result);
        } else {
          site.clean_streak += 1;
          if (site.clean_streak >= config_.probation_scans) {
            transition(i, HealthState::kHealthy, scan, "probation complete",
                       &result);
            site.probe_attempts = 0;
            site.backoff = 0;
          }
        }
        break;
      }
      case HealthState::kDead:
        break;
    }
  }

  // Pass D: a site quarantined *this* scan must not ship the value that
  // incriminated it — substitute it now that the healthy set is settled.
  for (std::size_t i = 0; i < n; ++i) {
    const HealthState s = sites_[i].state;
    if ((s == HealthState::kQuarantined || s == HealthState::kDead) &&
        !substituted[i]) {
      (void)substitute(i);
      result.substituted += 1;
    }
  }

  // Pass E: stamp health, remember what was served.
  for (std::size_t i = 0; i < n; ++i) {
    result.readings[i].health = static_cast<std::uint8_t>(sites_[i].state);
    sites_[i].last_served_c = result.readings[i].sensed.value();
    sites_[i].has_last_served = true;
    prev_served_[i] = result.readings[i].sensed.value();
    prev_substituted_[i] = result.readings[i].degraded;
  }
  primed_ = true;
  return result;
}

}  // namespace tsvpt::core
