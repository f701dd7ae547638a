#include "control/controller.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace tsvpt::control {

namespace {

/// Control-plane instrumentation, registered once and shared by every
/// stack's controller (handles are sharded internally, so concurrent
/// workers stay uncontended).
struct ControlMetrics {
  obs::Counter decisions = obs::counter("tsvpt_control_decisions_total");
  obs::Counter actuations = obs::counter("tsvpt_control_actuations_total");
  obs::Counter migrations = obs::counter("tsvpt_control_migrations_total");
  obs::Counter blind = obs::counter("tsvpt_control_blind_scans_total");

  static const ControlMetrics& get() {
    static const ControlMetrics metrics;
    return metrics;
  }
};

std::uint64_t migration_delta(const std::vector<Migration>& before,
                              const std::vector<Migration>& after) {
  std::uint64_t changed = 0;
  const std::size_t common = std::min(before.size(), after.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!(before[i] == after[i])) ++changed;
  }
  changed += static_cast<std::uint64_t>(
      std::max(before.size(), after.size()) - common);
  return changed;
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu,",
                static_cast<unsigned long long>(v));
  *out += buf;
}

void append_double_bits(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx,",
                static_cast<unsigned long long>(bits));
  *out += buf;
}

}  // namespace

Controller::Controller(Config config, std::size_t die_count)
    : config_(config),
      die_count_(die_count),
      policy_(make_policy(config.kind, config.policy, die_count)) {
  if (config_.plant.unscalable_fraction < 0.0 ||
      config_.plant.unscalable_fraction > 1.0) {
    throw std::invalid_argument{"Controller: unscalable_fraction"};
  }
  actuation_ = policy_->safe_actuation();
}

void Controller::on_scan(
    std::uint64_t scan, Second sim_time,
    const std::vector<core::StackMonitor::SiteReading>& readings) {
  on_observation(observe_scan(scan, sim_time, readings, die_count_));
}

void Controller::on_observation(const StackObservation& obs) {
  const ControlMetrics& metrics = ControlMetrics::get();
  Actuation next = policy_->decide(obs);

  stats_.decisions += 1;
  metrics.decisions.inc();
  std::uint64_t level_changes = 0;
  const std::size_t common = std::min(actuation_.dies.size(), next.dies.size());
  for (std::size_t d = 0; d < common; ++d) {
    if (!(actuation_.dies[d] == next.dies[d])) ++level_changes;
  }
  level_changes += static_cast<std::uint64_t>(
      std::max(actuation_.dies.size(), next.dies.size()) - common);
  const std::uint64_t moved =
      migration_delta(actuation_.migrations, next.migrations);
  stats_.level_changes += level_changes;
  stats_.migrations += moved;
  if (moved > 0) metrics.migrations.add(moved);
  if (level_changes > 0 || moved > 0) {
    stats_.actuations += 1;
    actuation_changes_ += 1;
    metrics.actuations.inc();
  }
  for (const DieObservation& die : obs.dies) {
    if (die.blind()) {
      stats_.blind_scans += 1;
      metrics.blind.inc();
      break;
    }
  }
  actuation_ = std::move(next);
}

void Controller::note_tick(Second dt, Celsius max_true, Watt total_power) {
  stats_.energy_j += total_power.value() * dt.value();
  if (max_true > config_.violation_ceiling) {
    stats_.violation_s += dt.value();
  }
  if (max_true.value() > stats_.peak_true_c) {
    stats_.peak_true_c = max_true.value();
  }
  double rate = 0.0;
  for (const DieCommand& cmd : actuation_.dies) {
    if (!cmd.gated) rate += cmd.relative_frequency;
  }
  stats_.work_done += rate * dt.value();
}

void Controller::reset() {
  policy_->reset();
  actuation_ = policy_->safe_actuation();
  actuation_changes_ += 1;
  stats_ = Stats{};
}

ControlPlane::ControlPlane(Config config) : config_(config) {
  if (config_.stack_count == 0) {
    throw std::invalid_argument{"ControlPlane: zero stacks"};
  }
  if (config_.die_count == 0) {
    throw std::invalid_argument{"ControlPlane: zero dies"};
  }
  controllers_.reserve(config_.stack_count);
  for (std::size_t k = 0; k < config_.stack_count; ++k) {
    controllers_.push_back(
        std::make_unique<Controller>(config_.controller, config_.die_count));
  }
}

Controller::Stats ControlPlane::total() const {
  Controller::Stats total;
  for (const auto& c : controllers_) {
    const Controller::Stats& s = c->stats();
    total.decisions += s.decisions;
    total.actuations += s.actuations;
    total.level_changes += s.level_changes;
    total.migrations += s.migrations;
    total.blind_scans += s.blind_scans;
    total.energy_j += s.energy_j;
    total.work_done += s.work_done;
    total.violation_s += s.violation_s;
    total.peak_true_c = std::max(total.peak_true_c, s.peak_true_c);
  }
  return total;
}

std::string canonical_digest(const ControlPlane& plane) {
  std::string out;
  out.reserve(plane.stack_count() * 96);
  for (std::size_t k = 0; k < plane.stack_count(); ++k) {
    const Controller::Stats& s = plane.controller(k).stats();
    append_u64(&out, k);
    append_u64(&out, s.decisions);
    append_u64(&out, s.actuations);
    append_u64(&out, s.level_changes);
    append_u64(&out, s.migrations);
    append_u64(&out, s.blind_scans);
    append_double_bits(&out, s.energy_j);
    append_double_bits(&out, s.work_done);
    append_double_bits(&out, s.violation_s);
    append_double_bits(&out, s.peak_true_c);
    out += '\n';
  }
  return out;
}

}  // namespace tsvpt::control
