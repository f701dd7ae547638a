#include "calib/lut.hpp"

#include <gtest/gtest.h>

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

TEST(Lut1D, QuantizeBoundsError) {
  std::vector<double> values;
  for (int i = 0; i <= 32; ++i) values.push_back(static_cast<double>(i));
  Lut1D lut{0.0, 32.0, std::move(values)};
  const double worst = lut.quantize(8);
  // 8-bit over a span of 32: LSB = 32/255, worst rounding error <= LSB/2.
  EXPECT_LE(worst, 0.5 * 32.0 / 255.0 + 1e-12);
  EXPECT_THROW((void)lut.quantize(0), std::invalid_argument);
}

TEST(Lut2D, BilinearExactAtCorners) {
  Lut2D lut{0.0, 1.0, 2, 0.0, 1.0, 2};
  lut.cell(0, 0) = 1.0;
  lut.cell(1, 0) = 2.0;
  lut.cell(0, 1) = 3.0;
  lut.cell(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(lut(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(lut(1.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lut(0.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(lut(1.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(lut(0.5, 0.5), 2.5);
}

TEST(Lut2D, ClampsOutsideDomain) {
  Lut2D lut{0.0, 1.0, 2, 0.0, 1.0, 2};
  lut.cell(0, 0) = 1.0;
  lut.cell(1, 0) = 2.0;
  lut.cell(0, 1) = 3.0;
  lut.cell(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(lut(-5.0, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(lut(5.0, 5.0), 4.0);
}

TEST(Lut2D, ReproducesBilinearFunction) {
  Lut2D lut{0.0, 2.0, 5, -1.0, 1.0, 5};
  auto f = [](double x, double y) { return 2.0 + 3.0 * x - y + 0.5 * x * y; };
  for (std::size_t i = 0; i < lut.nx(); ++i) {
    for (std::size_t j = 0; j < lut.ny(); ++j) {
      lut.cell(i, j) = f(lut.x_at(i), lut.y_at(j));
    }
  }
  for (double x = 0.0; x <= 2.0; x += 0.13) {
    for (double y = -1.0; y <= 1.0; y += 0.17) {
      EXPECT_NEAR(lut(x, y), f(x, y), 1e-9);
    }
  }
}

TEST(Lut2D, RejectsBadConstruction) {
  EXPECT_THROW((Lut2D{0.0, 1.0, 1, 0.0, 1.0, 2}), std::invalid_argument);
  EXPECT_THROW((Lut2D{1.0, 0.0, 2, 0.0, 1.0, 2}), std::invalid_argument);
}

TEST(Lut2D, CellBoundsChecked) {
  Lut2D lut{0.0, 1.0, 2, 0.0, 1.0, 2};
  EXPECT_THROW((void)lut.cell(2, 0), std::out_of_range);
}

}  // namespace
}  // namespace tsvpt::calib
