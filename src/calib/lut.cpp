#include "calib/lut.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsvpt::calib {

Lut1D::Lut1D(double x_lo, double x_hi, std::vector<double> values)
    : x_lo_(x_lo), x_hi_(x_hi), values_(std::move(values)) {
  if (values_.size() < 2) throw std::invalid_argument{"Lut1D needs >= 2 rows"};
  if (!(x_hi_ > x_lo_)) throw std::invalid_argument{"Lut1D needs x_hi > x_lo"};
  step_ = (x_hi_ - x_lo_) / static_cast<double>(values_.size() - 1);
  classify();
}

void Lut1D::classify() {
  bool increasing = true;
  bool decreasing = true;
  for (std::size_t i = 1; i < values_.size(); ++i) {
    if (values_[i] <= values_[i - 1]) increasing = false;
    if (values_[i] >= values_[i - 1]) decreasing = false;
  }
  monotone_ = increasing || decreasing;
  increasing_ = increasing;
}

double Lut1D::operator()(double x) const {
  const double pos = (x - x_lo_) / step_;
  const auto max_seg = static_cast<double>(values_.size() - 2);
  const double seg = std::clamp(std::floor(pos), 0.0, max_seg);
  const auto i = static_cast<std::size_t>(seg);
  const double frac = pos - seg;
  return values_[i] + frac * (values_[i + 1] - values_[i]);
}

std::optional<Lut1D::Segment> Lut1D::bracket(double y) const {
  if (!monotone_) return std::nullopt;
  const double lo_val = increasing_ ? values_.front() : values_.back();
  const double hi_val = increasing_ ? values_.back() : values_.front();
  if (!(y >= lo_val && y <= hi_val)) return std::nullopt;
  const std::size_t i = bisect_segment(
      values_.size(), y, increasing_,
      [this](std::size_t j) { return values_[j]; });
  return Segment{i, x_at(i), x_at(i + 1), values_[i], values_[i + 1]};
}

double Lut1D::invert(double y) const {
  if (!monotone_) throw std::runtime_error{"Lut1D::invert: not monotone"};
  const std::optional<Segment> seg = bracket(y);
  if (!seg) throw std::runtime_error{"Lut1D::invert: y out of range"};
  const double frac =
      seg->y1 == seg->y0 ? 0.0 : (y - seg->y0) / (seg->y1 - seg->y0);
  return x_lo_ + (static_cast<double>(seg->index) + frac) * step_;
}

double Lut1D::quantize(unsigned bits) {
  if (bits == 0 || bits > 32) throw std::invalid_argument{"quantize bits"};
  const auto [min_it, max_it] =
      std::minmax_element(values_.begin(), values_.end());
  const double lo = *min_it;
  const double span = *max_it - lo;
  if (span == 0.0) return 0.0;
  const double levels = static_cast<double>((1ULL << bits) - 1);
  double worst = 0.0;
  for (double& v : values_) {
    const double code = std::round((v - lo) / span * levels);
    const double q = lo + code / levels * span;
    worst = std::max(worst, std::abs(q - v));
    v = q;
  }
  classify();
  return worst;
}

}  // namespace tsvpt::calib
