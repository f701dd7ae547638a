#include "core/fault_detector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "obs/metrics.hpp"

namespace tsvpt::core {

namespace {

/// Weight slot of a neighbour sitting on the estimated location: its
/// reading is the estimate.  Real weights are >= 0 or NaN.
constexpr double kCoLocated = -1.0;

/// The weight FieldEstimator::estimate_at gives a reading at `b` when it
/// estimates at `a`.  Symmetric bit for bit: a.x - b.x is exactly
/// -(b.x - a.x), so both orders square to the same distance.
double idw_weight(process::Point a, process::Point b, double power) {
  const double d = a.distance_to(b);
  return d < 1e-9 ? kCoLocated : 1.0 / std::pow(d, power);
}

/// Weight-table builds: one per scan whose layout differs from the last.
const obs::Counter& layout_builds_total() {
  static const obs::Counter c =
      obs::counter("tsvpt_fault_layout_builds_total");
  return c;
}

}  // namespace

bool FaultDetector::same_layout(
    const std::vector<StackMonitor::SiteReading>& sample) const {
  if (sample.size() != layout_.size()) return false;
  // Bit patterns, not ==: the stored weights were computed from these
  // exact coordinates.
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Position& p = layout_[i];
    if (p.die != sample[i].die ||
        std::bit_cast<std::uint64_t>(p.location.x) !=
            std::bit_cast<std::uint64_t>(sample[i].location.x) ||
        std::bit_cast<std::uint64_t>(p.location.y) !=
            std::bit_cast<std::uint64_t>(sample[i].location.y)) {
      return false;
    }
  }
  return true;
}

void FaultDetector::learn_layout(
    const std::vector<StackMonitor::SiteReading>& sample) {
  const std::size_t n = sample.size();
  layout_.resize(n);
  by_die_.resize(n);
  peers_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    layout_[i] = {sample[i].die, sample[i].location};
    by_die_[i] = i;
  }
  std::sort(by_die_.begin(), by_die_.end(),
            [&](std::size_t a, std::size_t b) {
              return layout_[a].die != layout_[b].die
                         ? layout_[a].die < layout_[b].die
                         : a < b;
            });
  std::size_t weights = 0;
  for (std::size_t first = 0; first < n;) {
    std::size_t end = first + 1;
    while (end < n &&
           layout_[by_die_[end]].die == layout_[by_die_[first]].die) {
      ++end;
    }
    const std::size_t count = end - first;
    for (std::size_t k = first; k < end; ++k) {
      peers_[by_die_[k]] = {first, count, weights};
      // Past the cap the offsets go unused; stop counting so the sum of
      // squared die sizes cannot overflow.
      if (weights <= kMaxWeights) weights += count;
    }
    first = end;
  }
  table_.clear();
  if (weights <= kMaxWeights) {
    // Each pair's weight is computed once and stored in both its rows; a
    // site's own slot stays 0 and is never read.
    table_.resize(weights, 0.0);
    for (std::size_t first = 0; first < n;) {
      const std::size_t count = peers_[by_die_[first]].count;
      for (std::size_t a = 0; a < count; ++a) {
        const std::size_t i = by_die_[first + a];
        for (std::size_t b = a + 1; b < count; ++b) {
          const std::size_t j = by_die_[first + b];
          const double w = idw_weight(layout_[i].location,
                                      layout_[j].location, config_.idw_power);
          table_[peers_[i].row + b] = w;
          table_[peers_[j].row + a] = w;
        }
      }
      first += count;
    }
  }
  layout_builds_total().inc();
}

void FaultDetector::fill_row(std::size_t i, double* weights) const {
  const Peers& peers = peers_[i];
  for (std::size_t k = 0; k < peers.count; ++k) {
    const std::size_t j = by_die_[peers.first + k];
    weights[k] = j == i ? 0.0
                        : idw_weight(layout_[i].location, layout_[j].location,
                                     config_.idw_power);
  }
}

std::vector<FaultDetector::Verdict> FaultDetector::analyze(
    const std::vector<StackMonitor::SiteReading>& sample) {
  std::vector<Verdict> verdicts(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    verdicts[i].site_index = sample[i].site_index;
    if (sample[i].degraded) {
      verdicts[i].suspect = true;
      verdicts[i].reason = "self-reported degraded";
    }
  }
  if (!same_layout(sample)) learn_layout(sample);

  // Leave-one-out deviation of site i against the current healthy set: the
  // inverse-distance estimate from i's healthy same-die peers, summed in
  // ascending position order as FieldEstimator::estimate_at sums them.
  auto deviation_of = [&](std::size_t i) -> std::optional<double> {
    const Peers& peers = peers_[i];
    const double* weights = nullptr;
    if (table_.empty()) {
      row_.resize(peers.count);
      fill_row(i, row_.data());
      weights = row_.data();
    } else {
      weights = table_.data() + peers.row;
    }
    const double sensed = sample[i].sensed.value();
    double weight_sum = 0.0;
    double acc = 0.0;
    for (std::size_t k = 0; k < peers.count; ++k) {
      const std::size_t j = by_die_[peers.first + k];
      if (j == i || verdicts[j].suspect) continue;
      const double w = weights[k];
      if (w == kCoLocated) return sensed - sample[j].sensed.value();
      weight_sum += w;
      acc += w * sample[j].sensed.value();
    }
    if (weight_sum == 0.0) return std::nullopt;  // cannot cross-check
    return sensed - acc / weight_sum;
  };

  // A stuck sensor contaminates its neighbours' estimates, so suspects are
  // excluded greedily — worst violator first — until a round marks nobody.
  // Each round recomputes every healthy deviation against the current
  // healthy set, so that last round leaves the final deviations.  It always
  // comes: marking a site needs a healthy same-die peer, so the last
  // healthy site on a die is never marked.
  for (;;) {
    double worst = config_.threshold.value();
    std::ptrdiff_t worst_index = -1;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (verdicts[i].suspect) continue;
      const auto deviation = deviation_of(i);
      if (!deviation) continue;
      verdicts[i].deviation = Celsius{*deviation};
      if (std::abs(*deviation) > worst) {
        worst = std::abs(*deviation);
        worst_index = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (worst_index < 0) break;
    verdicts[worst_index].suspect = true;
    verdicts[worst_index].reason = "spatially inconsistent with neighbours";
  }
  return verdicts;
}

std::vector<std::size_t> FaultDetector::suspects(
    const std::vector<StackMonitor::SiteReading>& sample) {
  std::vector<std::size_t> out;
  for (const Verdict& verdict : analyze(sample)) {
    if (verdict.suspect) out.push_back(verdict.site_index);
  }
  return out;
}

}  // namespace tsvpt::core
