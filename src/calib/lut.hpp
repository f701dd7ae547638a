// Lookup tables with interpolation — the hardware-realistic calibration
// store.  A silicon implementation keeps its calibration as a small LUT in
// fuses or SRAM; the table and the lookups here model exactly that
// (including an optional fixed-point quantization of stored values).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace tsvpt::calib {

/// Index i of a grid segment whose values value(i) and value(i + 1)
/// straddle y, ends included, given grid end values that do: value(0) <= y
/// <= value(rows - 1) when `increasing`, value(0) >= y >= value(rows - 1)
/// otherwise.  Bisection on the grid indices, so the result straddles y
/// even where the values are not monotone, and only the ~log2(rows)
/// interior values it visits are asked for: `value` may compute them on
/// demand.
template <class Value>
[[nodiscard]] std::size_t bisect_segment(std::size_t rows, double y,
                                         bool increasing, Value&& value) {
  std::size_t lo = 0;
  std::size_t hi = rows - 1;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const double v = value(mid);
    if (increasing ? v > y : v < y) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

/// x at `target` by inverse Lagrange interpolation of x(y) through the six
/// points (x[k], y[k]), exact where x is a polynomial of degree <= 5 in y,
/// kept inside [x[segment], x[segment + 1]]: the segment whose y values
/// bracket `target`.  Where the interpolant is not finite or leaves that
/// segment (tied or non-monotone y), the segment's linear inverse, clamped
/// to the segment, stands in; a tied segment returns x[segment].  The sum
/// runs over offsets from x[segment], so a wide x range costs no precision.
/// Plain arithmetic on the caller's arrays: never allocates.
[[nodiscard]] inline double interpolate_inverse(const std::array<double, 6>& x,
                                                const std::array<double, 6>& y,
                                                std::size_t segment,
                                                double target) {
  const double x0 = x[segment];
  const double x1 = x[segment + 1];
  double offset = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    double num = 1.0;
    double den = 1.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (j == k) continue;
      num *= target - y[j];
      den *= y[k] - y[j];
    }
    offset += (x[k] - x0) * (num / den);
  }
  const double lo = std::min(x0, x1);
  const double hi = std::max(x0, x1);
  const double t = x0 + offset;
  if (t >= lo && t <= hi) return t;  // false for NaN
  const double linear =
      x0 + (target - y[segment]) / (y[segment + 1] - y[segment]) * (x1 - x0);
  return std::isnan(linear) ? x0 : std::clamp(linear, lo, hi);
}

/// 1-D table y = f(x) over a uniform x grid with linear interpolation.
/// Queries outside the grid extrapolate linearly from the end segments.
class Lut1D {
 public:
  /// One interpolation segment: neighbouring grid points x0 < x1 and the
  /// values stored at them.
  struct Segment {
    std::size_t index = 0;  // x0 = x_at(index), x1 = x_at(index + 1)
    double x0 = 0.0;
    double x1 = 0.0;
    double y0 = 0.0;
    double y1 = 0.0;
  };

  Lut1D(double x_lo, double x_hi, std::vector<double> values);

  [[nodiscard]] double x_lo() const { return x_lo_; }
  [[nodiscard]] double x_hi() const { return x_hi_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Grid point i; the last one is x_hi exactly.
  [[nodiscard]] double x_at(std::size_t i) const {
    return i + 1 == values_.size()
               ? x_hi_
               : x_lo_ + static_cast<double>(i) * step_;
  }

  [[nodiscard]] double operator()(double x) const;

  /// The segment whose stored values bracket y, ends included: y0 <= y <= y1
  /// on an increasing table, y0 >= y >= y1 on a decreasing one.  nullopt
  /// when y lies outside the stored range or the values are not strictly
  /// monotone.  bisect_segment over the stored values; never allocates.
  [[nodiscard]] std::optional<Segment> bracket(double y) const;

  /// Inverse lookup: find x with f(x) = y by linear interpolation inside
  /// bracket(y).  Requires the stored values to be strictly monotone;
  /// throws std::runtime_error otherwise or when y is out of range.
  [[nodiscard]] double invert(double y) const;

  /// Strict monotonicity of the stored values, computed whenever they change
  /// (construction and quantize), not per query.
  [[nodiscard]] bool is_monotone() const { return monotone_; }

  /// Quantize stored values to `bits`-wide fixed point over their own range
  /// (models an on-chip register file).  Returns the worst quantization
  /// error introduced.  Rounding can create ties, which is_monotone()
  /// then reports.
  double quantize(unsigned bits);

 private:
  /// Recompute monotone_ and increasing_ from the stored values.
  void classify();

  double x_lo_;
  double x_hi_;
  double step_;
  std::vector<double> values_;
  bool monotone_ = false;
  bool increasing_ = false;
};

}  // namespace tsvpt::calib
