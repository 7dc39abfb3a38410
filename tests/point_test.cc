// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/point.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace monoclass {
namespace {

TEST(PointTest, ConstructionAndAccess) {
  const Point p{1.0, 2.5, -3.0};
  EXPECT_EQ(p.dimension(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 2.5);
  EXPECT_DOUBLE_EQ(p[2], -3.0);
}

TEST(PointTest, Equality) {
  EXPECT_EQ((Point{1, 2}), (Point{1, 2}));
  EXPECT_NE((Point{1, 2}), (Point{1, 3}));
  EXPECT_NE((Point{1, 2}), (Point{2, 1}));
}

// Copies, moves and self-assignment at d <= kInlineDimension (inline
// coordinates) and above it (heap coordinates), including mixed pairs.
TEST(PointTest, CopyMoveAndSelfAssignmentInlineAndHeap) {
  const Point small{1, 2, 3, 4};
  const Point large{1, 2, 3, 4, 5, 6};
  ASSERT_EQ(small.dimension(), Point::kInlineDimension);
  for (const Point& original : {small, large, Point{}}) {
    Point copy(original);
    EXPECT_EQ(copy, original);
    Point moved(std::move(copy));
    EXPECT_EQ(moved, original);
    Point assigned{9};
    assigned = original;
    EXPECT_EQ(assigned, original);
    Point move_assigned{7, 7, 7, 7, 7, 7, 7};
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned, original);
    Point& alias = move_assigned;
    move_assigned = alias;
    EXPECT_EQ(move_assigned, original);
    move_assigned = std::move(alias);
    EXPECT_EQ(move_assigned, original);
    for (size_t i = 0; i < original.dimension(); ++i) {
      EXPECT_EQ(move_assigned[i], original[i]);
    }
  }
  std::vector<Point> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back(i % 2 == 0 ? large : small);
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(points[static_cast<size_t>(i)], i % 2 == 0 ? large : small);
  }
}

TEST(PointTest, EqualityComparesDimensionAndCoordinates) {
  EXPECT_EQ((Point{1, 2, 3, 4, 5}), (Point{1, 2, 3, 4, 5}));
  EXPECT_NE((Point{1, 2, 3, 4, 5}), (Point{1, 2, 3, 4, 6}));
  EXPECT_NE((Point{1, 2, 3, 4}), (Point{1, 2, 3, 4, 0}));
  EXPECT_NE((Point{0, 0}), (Point{0, 0, 0}));
  EXPECT_EQ(Point{}, Point(std::vector<double>{}));
  EXPECT_EQ((Point{0.0, 1.0}), (Point{-0.0, 1.0}));
  EXPECT_EQ((Point{1, 2, 3, 4, 5, 6}).ToString(), "(1, 2, 3, 4, 5, 6)");
}

TEST(PointTest, ToString) {
  EXPECT_EQ((Point{1, 2}).ToString(), "(1, 2)");
  EXPECT_EQ((Point{-0.5}).ToString(), "(-0.5)");
}

TEST(DominanceTest, ReflexiveOnEqualPoints) {
  const Point p{3, 4};
  EXPECT_TRUE(DominatesEq(p, p));
  EXPECT_FALSE(StrictlyDominates(p, p));
}

TEST(DominanceTest, StrictDominanceInAllCoordinates) {
  EXPECT_TRUE(DominatesEq(Point{2, 3}, Point{1, 2}));
  EXPECT_TRUE(StrictlyDominates(Point{2, 3}, Point{1, 2}));
  EXPECT_FALSE(DominatesEq(Point{1, 2}, Point{2, 3}));
}

TEST(DominanceTest, DominanceWithTiesOnSomeCoordinates) {
  // The paper: p != q implies strict inequality on at least one dimension,
  // and p >= q still holds with ties elsewhere.
  EXPECT_TRUE(StrictlyDominates(Point{2, 2}, Point{2, 1}));
  EXPECT_TRUE(StrictlyDominates(Point{2, 2}, Point{1, 2}));
}

TEST(DominanceTest, IncomparablePoints) {
  EXPECT_TRUE(Incomparable(Point{1, 3}, Point{2, 1}));
  EXPECT_FALSE(Incomparable(Point{1, 1}, Point{2, 2}));
  EXPECT_FALSE(Incomparable(Point{1, 1}, Point{1, 1}));
}

TEST(DominanceTest, OneDimensionIsTotalOrder) {
  EXPECT_TRUE(DominatesEq(Point{5}, Point{3}));
  EXPECT_FALSE(Incomparable(Point{5}, Point{3}));
  EXPECT_FALSE(Incomparable(Point{3}, Point{3}));
}

TEST(DominanceTest, HighDimensional) {
  const Point low{0, 0, 0, 0, 0, 0};
  const Point high{1, 1, 1, 1, 1, 1};
  Point mixed{1, 1, 1, 0, 1, 1};
  EXPECT_TRUE(DominatesEq(high, low));
  EXPECT_TRUE(DominatesEq(high, mixed));
  EXPECT_TRUE(DominatesEq(mixed, low));
  EXPECT_FALSE(DominatesEq(mixed, high));
}

TEST(DominanceTest, NegativeCoordinates) {
  EXPECT_TRUE(DominatesEq(Point{-1, -2}, Point{-3, -4}));
  EXPECT_FALSE(DominatesEq(Point{-3, -4}, Point{-1, -2}));
}

}  // namespace
}  // namespace monoclass
