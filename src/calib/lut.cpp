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

Lut2D::Lut2D(double x_lo, double x_hi, std::size_t nx, double y_lo,
             double y_hi, std::size_t ny)
    : x_lo_(x_lo), x_hi_(x_hi), y_lo_(y_lo), y_hi_(y_hi), nx_(nx), ny_(ny),
      cells_(nx * ny, 0.0) {
  if (nx_ < 2 || ny_ < 2) throw std::invalid_argument{"Lut2D needs >= 2x2"};
  if (!(x_hi_ > x_lo_) || !(y_hi_ > y_lo_)) {
    throw std::invalid_argument{"Lut2D needs positive ranges"};
  }
}

double Lut2D::x_at(std::size_t i) const {
  return x_lo_ + (x_hi_ - x_lo_) * static_cast<double>(i) /
                     static_cast<double>(nx_ - 1);
}

double Lut2D::y_at(std::size_t j) const {
  return y_lo_ + (y_hi_ - y_lo_) * static_cast<double>(j) /
                     static_cast<double>(ny_ - 1);
}

double& Lut2D::cell(std::size_t i, std::size_t j) {
  if (i >= nx_ || j >= ny_) throw std::out_of_range{"Lut2D::cell"};
  return cells_[i * ny_ + j];
}

double Lut2D::cell(std::size_t i, std::size_t j) const {
  if (i >= nx_ || j >= ny_) throw std::out_of_range{"Lut2D::cell"};
  return cells_[i * ny_ + j];
}

double Lut2D::operator()(double x, double y) const {
  const double sx = (x - x_lo_) / (x_hi_ - x_lo_) * static_cast<double>(nx_ - 1);
  const double sy = (y - y_lo_) / (y_hi_ - y_lo_) * static_cast<double>(ny_ - 1);
  const double cx = std::clamp(sx, 0.0, static_cast<double>(nx_ - 1));
  const double cy = std::clamp(sy, 0.0, static_cast<double>(ny_ - 1));
  const auto i = std::min(static_cast<std::size_t>(cx), nx_ - 2);
  const auto j = std::min(static_cast<std::size_t>(cy), ny_ - 2);
  const double fx = cx - static_cast<double>(i);
  const double fy = cy - static_cast<double>(j);
  const double z00 = cell(i, j);
  const double z10 = cell(i + 1, j);
  const double z01 = cell(i, j + 1);
  const double z11 = cell(i + 1, j + 1);
  return z00 * (1 - fx) * (1 - fy) + z10 * fx * (1 - fy) +
         z01 * (1 - fx) * fy + z11 * fx * fy;
}

}  // namespace tsvpt::calib
