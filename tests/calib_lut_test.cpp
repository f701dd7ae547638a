#include "calib/lut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tsvpt::calib {
namespace {

TEST(Lut1D, ExactAtGridPoints) {
  const Lut1D lut{0.0, 4.0, {0.0, 1.0, 4.0, 9.0, 16.0}};
  EXPECT_DOUBLE_EQ(lut(0.0), 0.0);
  EXPECT_DOUBLE_EQ(lut(2.0), 4.0);
  EXPECT_DOUBLE_EQ(lut(4.0), 16.0);
}

TEST(Lut1D, LinearBetweenPoints) {
  const Lut1D lut{0.0, 2.0, {0.0, 10.0, 40.0}};
  EXPECT_DOUBLE_EQ(lut(0.5), 5.0);
  EXPECT_DOUBLE_EQ(lut(1.5), 25.0);
}

TEST(Lut1D, ExtrapolatesFromEndSegments) {
  const Lut1D lut{0.0, 1.0, {0.0, 2.0}};
  EXPECT_DOUBLE_EQ(lut(2.0), 4.0);
  EXPECT_DOUBLE_EQ(lut(-1.0), -2.0);
}

TEST(Lut1D, RejectsBadConstruction) {
  EXPECT_THROW((Lut1D{0.0, 1.0, {1.0}}), std::invalid_argument);
  EXPECT_THROW((Lut1D{1.0, 0.0, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Lut1D, InvertIncreasing) {
  const Lut1D lut{0.0, 3.0, {1.0, 2.0, 4.0, 8.0}};
  EXPECT_NEAR(lut.invert(3.0), 1.5, 1e-12);
  EXPECT_NEAR(lut.invert(1.0), 0.0, 1e-12);
  EXPECT_NEAR(lut.invert(8.0), 3.0, 1e-12);
}

TEST(Lut1D, InvertDecreasing) {
  const Lut1D lut{0.0, 2.0, {10.0, 5.0, 0.0}};
  EXPECT_NEAR(lut.invert(7.5), 0.5, 1e-12);
}

TEST(Lut1D, InvertRoundTripDense) {
  std::vector<double> values;
  for (int i = 0; i <= 50; ++i) values.push_back(std::exp(0.05 * i));
  const Lut1D lut{-20.0, 120.0, std::move(values)};
  for (double x = -20.0; x <= 120.0; x += 3.7) {
    EXPECT_NEAR(lut.invert(lut(x)), x, 1e-9);
  }
}

TEST(Lut1D, InvertNonMonotoneThrows) {
  const Lut1D lut{0.0, 2.0, {0.0, 5.0, 1.0}};
  EXPECT_FALSE(lut.is_monotone());
  EXPECT_THROW((void)lut.invert(2.0), std::runtime_error);
}

TEST(Lut1D, InvertOutOfRangeThrows) {
  const Lut1D lut{0.0, 1.0, {0.0, 1.0}};
  EXPECT_THROW((void)lut.invert(2.0), std::runtime_error);
}

TEST(Lut1D, InvertDecreasingAtGridValuesAndEnds) {
  const Lut1D lut{0.0, 3.0, {9.0, 6.0, 2.0, -1.0}};
  EXPECT_DOUBLE_EQ(lut.invert(9.0), 0.0);
  EXPECT_DOUBLE_EQ(lut.invert(6.0), 1.0);
  EXPECT_DOUBLE_EQ(lut.invert(2.0), 2.0);
  EXPECT_DOUBLE_EQ(lut.invert(-1.0), 3.0);
  EXPECT_NEAR(lut.invert(4.0), 1.5, 1e-12);
  EXPECT_THROW((void)lut.invert(9.5), std::runtime_error);
  EXPECT_THROW((void)lut.invert(-1.5), std::runtime_error);
}

TEST(Lut1D, QuantizeTieMakesInvertThrow) {
  // 2-bit codes over [0, 2] are {0, 2/3, 4/3, 2}: 1.0 and 1.0001 both round
  // to 4/3, so a table that inverted before quantization no longer does.
  Lut1D lut{0.0, 3.0, {0.0, 1.0, 1.0001, 2.0}};
  ASSERT_TRUE(lut.is_monotone());
  EXPECT_NEAR(lut.invert(1.5), 2.5, 1e-3);
  (void)lut.quantize(2);
  EXPECT_FALSE(lut.is_monotone());
  EXPECT_THROW((void)lut.invert(1.5), std::runtime_error);
  EXPECT_FALSE(lut.bracket(1.5).has_value());
}

TEST(Lut1D, BracketIncreasingFindsTheStraddlingSegment) {
  const Lut1D lut{10.0, 16.0, {1.0, 2.0, 4.0, 8.0}};
  const auto mid = lut.bracket(3.0);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->index, 1u);
  EXPECT_DOUBLE_EQ(mid->x0, 12.0);
  EXPECT_DOUBLE_EQ(mid->x1, 14.0);
  EXPECT_DOUBLE_EQ(mid->y0, 2.0);
  EXPECT_DOUBLE_EQ(mid->y1, 4.0);
  // On an interior grid value: the segment that starts there.
  const auto on_grid = lut.bracket(4.0);
  ASSERT_TRUE(on_grid.has_value());
  EXPECT_EQ(on_grid->index, 2u);
  // Both ends are in range; the last segment ends at x_hi exactly.
  const auto first = lut.bracket(1.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->index, 0u);
  EXPECT_EQ(first->x0, 10.0);
  const auto last = lut.bracket(8.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->index, 2u);
  EXPECT_EQ(last->x1, 16.0);
  EXPECT_EQ(last->y1, 8.0);
  EXPECT_FALSE(lut.bracket(0.999).has_value());
  EXPECT_FALSE(lut.bracket(8.001).has_value());
  EXPECT_FALSE(lut.bracket(std::nan("")).has_value());
}

TEST(Lut1D, BracketDecreasingFindsTheStraddlingSegment) {
  const Lut1D lut{0.0, 3.0, {9.0, 6.0, 2.0, -1.0}};
  const auto mid = lut.bracket(5.0);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->index, 1u);
  EXPECT_GE(mid->y0, 5.0);
  EXPECT_LE(mid->y1, 5.0);
  const auto first = lut.bracket(9.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->index, 0u);
  const auto last = lut.bracket(-1.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->index, 2u);
  EXPECT_EQ(last->x1, 3.0);
  EXPECT_FALSE(lut.bracket(9.5).has_value());
  EXPECT_FALSE(lut.bracket(-1.5).has_value());
}

TEST(Lut1D, BracketsEveryInRangeValueOnADenseTable) {
  const auto f = [](double x) { return -0.004 * x + 1e-6 * x * x; };
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(f(-40.0 + i * 180.0 / 63.0));
  const Lut1D lut{-40.0, 140.0, std::move(values)};
  EXPECT_EQ(lut.x_at(63), 140.0);
  for (double x = -40.0; x <= 140.0; x += 0.37) {
    const double y = lut(x);
    const auto seg = lut.bracket(y);
    ASSERT_TRUE(seg.has_value()) << x;
    EXPECT_GE(seg->y0, y);
    EXPECT_LE(seg->y1, y);
    EXPECT_LE(seg->x0, x + 1e-9);
    EXPECT_GE(seg->x1, x - 1e-9);
  }
}

TEST(Lut1D, BisectSegmentStraddlesAndVisitsLogRows) {
  // Not monotone: the bisection still ends on a segment that straddles y.
  const std::vector<double> wavy{0.0, 5.0, 1.0, 6.0, 2.0, 7.0, 3.0, 9.0};
  for (double y = 0.0; y <= 9.0; y += 0.25) {
    std::size_t visits = 0;
    const std::size_t i =
        bisect_segment(wavy.size(), y, true, [&](std::size_t j) {
          ++visits;
          EXPECT_GT(j, 0u);  // the end values are the caller's precondition
          EXPECT_LT(j, wavy.size() - 1);
          return wavy[j];
        });
    ASSERT_LT(i + 1, wavy.size());
    EXPECT_LE(wavy[i], y) << y;
    EXPECT_GE(wavy[i + 1], y) << y;
    EXPECT_LE(visits, 3u) << y;  // ceil(log2(7 segments))
  }
  // Decreasing, on a 64-row grid: six visits, the segment bracket() finds.
  std::vector<double> falling;
  for (int j = 0; j < 64; ++j) falling.push_back(1.0 - 0.01 * j - 1e-5 * j * j);
  const Lut1D lut{0.0, 63.0, falling};
  for (double y = falling.back(); y <= falling.front(); y += 0.0137) {
    std::size_t visits = 0;
    const std::size_t i = bisect_segment(64, y, false, [&](std::size_t j) {
      ++visits;
      return falling[j];
    });
    EXPECT_EQ(i, lut.bracket(y)->index) << y;
    EXPECT_LE(visits, 6u) << y;
  }
}

/// Six x values one 180/63 K row apart, as the sensor's TDRO table spaces
/// its rows (the kelvin values of -40..-25.7 degC).
std::array<double, 6> row_temperatures(double first) {
  std::array<double, 6> x{};
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = first + static_cast<double>(k) * (180.0 / 63.0);
  }
  return x;
}

TEST(Lut1D, InterpolateInverseIsExactAtTheNodes) {
  const std::array<double, 6> x = row_temperatures(233.15);
  std::array<double, 6> y{};
  for (std::size_t k = 0; k < y.size(); ++k) {
    y[k] = 20.0 - 0.004 * x[k] + 1e-6 * x[k] * x[k];
  }
  for (std::size_t m = 0; m < x.size(); ++m) {
    // Node m closes segment m - 1 and opens segment m.
    if (m > 0) {
      EXPECT_EQ(interpolate_inverse(x, y, m - 1, y[m]), x[m]) << m;
    }
    if (m < 5) {
      EXPECT_EQ(interpolate_inverse(x, y, m, y[m]), x[m]) << m;
    }
  }
}

TEST(Lut1D, InterpolateInverseReproducesQuintics) {
  // x(y) of degree 5 with positive coefficients: increasing for y >= 0.
  const auto quintic = [](double y) {
    return 1.0 + y * (2.0 + y * (0.3 + y * (0.05 + y * (0.01 + y * 0.002))));
  };
  for (const bool rising : {true, false}) {
    // Unevenly spaced nodes, in both orders.
    std::array<double, 6> y{0.0, 0.9, 2.1, 3.0, 4.2, 5.0};
    if (!rising) std::reverse(y.begin(), y.end());
    std::array<double, 6> x{};
    for (std::size_t k = 0; k < y.size(); ++k) x[k] = quintic(y[k]);
    for (std::size_t seg = 0; seg < 5; ++seg) {
      for (double f = 0.0; f <= 1.0; f += 0.125) {
        const double target = y[seg] + f * (y[seg + 1] - y[seg]);
        EXPECT_NEAR(interpolate_inverse(x, y, seg, target), quintic(target),
                    1e-12 * quintic(5.0))
            << rising << " " << seg << " " << f;
      }
    }
  }
}

TEST(Lut1D, InterpolateInverseOnTheWindowsAtBothTableEnds) {
  // A 64-row table of y = ln x, read the way the sensor reads it: the six
  // rows around segment i, shifted inward at the ends.  Every segment,
  // the three at each end included, inverts to exp(y).
  constexpr std::size_t kRows = 64;
  const auto x_at = [](std::size_t i) {
    return 233.15 + static_cast<double>(i) * (180.0 / 63.0);
  };
  for (std::size_t i = 0; i + 1 < kRows; ++i) {
    const std::size_t s = std::min(i < 2 ? std::size_t{0} : i - 2, kRows - 6);
    std::array<double, 6> x{};
    std::array<double, 6> y{};
    for (std::size_t k = 0; k < 6; ++k) {
      x[k] = x_at(s + k);
      y[k] = std::log(x[k]);
    }
    const std::size_t seg = i - s;
    for (double f = 0.0; f <= 1.0; f += 0.1) {
      const double target = y[seg] + f * (y[seg + 1] - y[seg]);
      const double t = interpolate_inverse(x, y, seg, target);
      EXPECT_NEAR(t, std::exp(target), 1e-9) << i << " " << f;
      EXPECT_GE(t, x[seg]) << i;
      EXPECT_LE(t, x[seg + 1]) << i;
    }
  }
}

TEST(Lut1D, InterpolateInverseStaysInsideTiedOrNonMonotoneSegments) {
  const std::array<double, 6> x = row_temperatures(233.15);
  const auto inside = [&](const std::array<double, 6>& y, std::size_t seg,
                          double target) {
    const double t = interpolate_inverse(x, y, seg, target);
    EXPECT_TRUE(std::isfinite(t)) << seg << " " << target;
    EXPECT_GE(t, x[seg]) << seg << " " << target;
    EXPECT_LE(t, x[seg + 1]) << seg << " " << target;
    return t;
  };
  // A tied segment: every x in it is a root; the lower end is returned.
  const std::array<double, 6> tied_segment{0.0, 1.0, 2.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(inside(tied_segment, 2, 2.0), x[2]);
  // A tie elsewhere in the window makes the interpolant divide by zero:
  // the segment's linear inverse stands in.
  const std::array<double, 6> tied_window{0.0, 1.0, 2.0, 3.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(inside(tied_window, 0, 0.25),
                   x[0] + 0.25 * (x[1] - x[0]));
  // Non-monotone rows: whatever the interpolant does, the result stays in
  // the bracketing segment, whichever way the segment runs.
  const std::array<double, 6> wavy{0.0, 5.0, 1.0, 6.0, 2.0, 7.0};
  for (std::size_t seg = 0; seg < 5; ++seg) {
    const double a = wavy[seg];
    const double b = wavy[seg + 1];
    for (double f = 0.0; f <= 1.0; f += 0.05) {
      (void)inside(wavy, seg, a + f * (b - a));
    }
  }
}

TEST(Lut1D, InterpolateInverseFallsBackToTheLinearInverseNotASegmentEnd) {
  // Where the interpolant is finite but overshoots the bracketing segment,
  // the result is the segment's linear inverse, strictly inside it, not
  // the interpolant clamped to the nearer end.  Rising but unevenly spaced
  // rows (two nearly tied) overshoot below the first segment and above the
  // last; wavy rows overshoot a falling segment.
  const std::array<double, 6> x = row_temperatures(233.15);
  const std::array<double, 6> uneven{0.0, 1.0, 1.2, 3.0, 4.0, 5.0};
  const std::array<double, 6> wavy{0.0, 5.0, 1.0, 6.0, 2.0, 7.0};
  const auto midpoint = [](const std::array<double, 6>& y, std::size_t seg) {
    return 0.5 * (y[seg] + y[seg + 1]);
  };
  const double linear_first = 0.5 * (x[0] + x[1]);
  const double linear_last = 0.5 * (x[4] + x[5]);
  const double linear_falling = 0.5 * (x[1] + x[2]);
  EXPECT_DOUBLE_EQ(interpolate_inverse(x, uneven, 0, midpoint(uneven, 0)),
                   linear_first);
  EXPECT_DOUBLE_EQ(interpolate_inverse(x, uneven, 4, midpoint(uneven, 4)),
                   linear_last);
  EXPECT_DOUBLE_EQ(interpolate_inverse(x, wavy, 1, midpoint(wavy, 1)),
                   linear_falling);
}

TEST(Lut1D, QuantizeBoundsError) {
  std::vector<double> values;
  for (int i = 0; i <= 32; ++i) values.push_back(static_cast<double>(i));
  Lut1D lut{0.0, 32.0, std::move(values)};
  const double worst = lut.quantize(8);
  // 8-bit over a span of 32: LSB = 32/255, worst rounding error <= LSB/2.
  EXPECT_LE(worst, 0.5 * 32.0 / 255.0 + 1e-12);
  EXPECT_THROW((void)lut.quantize(0), std::invalid_argument);
}

}  // namespace
}  // namespace tsvpt::calib
