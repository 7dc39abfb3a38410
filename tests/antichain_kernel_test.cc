// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential tests of the antichain kernel (ExtremalAntichain) and of
// everything routed through it -- MinimalGenerators, the Lemma 16
// certificate in MonotoneClassifier::FromAssignment and the Lemma 15
// contending set -- against the all-pairs scans they replaced, which stay
// in the library as oracles: ExtremalElementsByScan, IsMonotoneAssignment
// and ComputeContendingByScan.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/antichain.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kDimensions[] = {1, 2, 3, 5};

// Uniform points in [0, 1)^d: duplicates essentially never occur.
std::vector<Point> UniformPoints(Rng& rng, size_t n, size_t d) {
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (double& c : coords) c = rng.UniformDouble();
    points.emplace_back(coords);
  }
  return points;
}

// Points on the integer grid {0..side-1}^d: ties on single coordinates
// and whole duplicate groups are common (8 x 8 for d = 2).
std::vector<Point> GridPoints(Rng& rng, size_t n, size_t d, uint64_t side) {
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (double& c : coords) c = static_cast<double>(rng.UniformInt(side));
    points.emplace_back(coords);
  }
  return points;
}

// Every instance family of the tests, as a point list.
std::vector<std::vector<Point>> PointFamilies(Rng& rng, size_t d) {
  std::vector<std::vector<Point>> families;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                         size_t{33}, size_t{80}}) {
    families.push_back(UniformPoints(rng, n, d));
    families.push_back(GridPoints(rng, n, d, d <= 2 ? 8 : 3));
  }
  const PlantedInstance planted = GeneratePlanted(
      {.num_points = 120, .dimension = d, .noise_flips = 9, .seed = 7 + d});
  families.push_back(planted.data.points().points());
  return families;
}

// Half of the indices, at random, in increasing order.
std::vector<size_t> RandomSubset(Rng& rng, size_t n) {
  std::vector<size_t> subset;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) subset.push_back(i);
  }
  return subset;
}

// Covers() from the definition: some element of `subset` lies weakly
// below (kMinimal) or above (kMaximal) x.
bool CoversByScan(const std::vector<Point>& points,
                  const std::vector<size_t>& subset, Extremal which,
                  const Point& x) {
  for (const size_t j : subset) {
    if (which == Extremal::kMinimal ? DominatesEq(x, points[j])
                                    : DominatesEq(points[j], x)) {
      return true;
    }
  }
  return false;
}

void ExpectKernelMatchesScan(const std::vector<Point>& points,
                             const std::vector<size_t>& subset,
                             const std::vector<Point>& queries) {
  for (const Extremal which : {Extremal::kMinimal, Extremal::kMaximal}) {
    const ExtremalAntichain antichain(points, subset, which);
    ASSERT_EQ(antichain.members(),
              ExtremalElementsByScan(points, subset, which))
        << (which == Extremal::kMinimal ? "minimal" : "maximal");
    for (const Point& x : queries) {
      EXPECT_EQ(antichain.Covers(x), CoversByScan(points, subset, which, x))
          << "query " << x.ToString();
    }
  }
}

TEST(AntichainKernelTest, MatchesScanOnRandomGridAndPlantedSets) {
  Rng rng(101);
  for (const size_t d : kDimensions) {
    for (const std::vector<Point>& points : PointFamilies(rng, d)) {
      std::vector<size_t> all(points.size());
      std::iota(all.begin(), all.end(), size_t{0});
      std::vector<Point> queries = points;
      for (const Point& q : UniformPoints(rng, 10, d)) queries.push_back(q);
      ExpectKernelMatchesScan(points, all, queries);
      ExpectKernelMatchesScan(points, RandomSubset(rng, points.size()),
                              queries);
    }
  }
}

TEST(AntichainKernelTest, KeepsLowestIndexOfEachDuplicateGroup) {
  const std::vector<Point> points = {Point{1, 1}, Point{0, 2}, Point{1, 1},
                                     Point{0, 2}, Point{2, 0}, Point{3, 3}};
  const ExtremalAntichain minimal(points, {0, 1, 2, 3, 4, 5},
                                  Extremal::kMinimal);
  EXPECT_EQ(minimal.members(), (std::vector<size_t>{0, 1, 4}));
  const ExtremalAntichain maximal(points, {2, 3, 4, 0},
                                  Extremal::kMaximal);
  EXPECT_EQ(maximal.members(), (std::vector<size_t>{0, 3, 4}));
  EXPECT_TRUE(maximal.Covers(Point{1, 1}));
  EXPECT_FALSE(maximal.Covers(Point{1.5, 1}));
}

TEST(AntichainKernelTest, InfiniteCoordinatesStayExact) {
  // Generators with +-inf coordinates: lexicographic order needs no
  // arithmetic, so the sweep stays a linear extension of dominance.
  const std::vector<Point> points = {
      Point{-kInf, 5},    Point{3, -kInf},  Point{kInf, -kInf},
      Point{-kInf, -kInf}, Point{0, 0},     Point{-kInf, kInf},
      Point{kInf, kInf},  Point{-kInf, 5}, Point{3, 4}};
  const std::vector<Point> queries = {Point{-kInf, 4}, Point{2, 2},
                                      Point{kInf, 0}, Point{-kInf, -kInf},
                                      Point{kInf, kInf}};
  std::vector<size_t> all(points.size());
  std::iota(all.begin(), all.end(), size_t{0});
  ExpectKernelMatchesScan(points, all, queries);
  ExpectKernelMatchesScan(points, {0, 1, 2, 4, 5, 7, 8}, queries);
  const std::vector<Point> d3 = {Point{-kInf, -kInf, -kInf},
                                 Point{kInf, -kInf, 0}, Point{0, kInf, -kInf},
                                 Point{1, 1, 1}, Point{-kInf, -kInf, -kInf}};
  ExpectKernelMatchesScan(d3, {0, 1, 2, 3, 4}, d3);
  ExpectKernelMatchesScan(d3, {1, 2, 3}, d3);
}

TEST(AntichainKernelTest, AlwaysOneAndUniteKeepTheBottomGenerator) {
  for (const size_t d : kDimensions) {
    const MonotoneClassifier one = MonotoneClassifier::AlwaysOne(d);
    std::vector<double> coords(d, 0.5);
    const MonotoneClassifier half = MonotoneClassifier::FromGenerators(
        {Point(coords), Point(std::vector<double>(d, 0.25))}, d);
    const MonotoneClassifier united = Unite(half, one);
    ASSERT_EQ(united.generators().size(), 1u);
    EXPECT_TRUE(united.IsAlwaysOne());
    EXPECT_EQ(Unite(one, one).generators(), one.generators());
    EXPECT_EQ(half.generators(),
              (std::vector<Point>{Point(std::vector<double>(d, 0.25))}));
  }
}

// The old MinimalGenerators: the scan's kept indices, in input order.
std::vector<Point> MinimalGeneratorsByScan(const std::vector<Point>& points) {
  std::vector<size_t> all(points.size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<Point> kept;
  for (const size_t i :
       ExtremalElementsByScan(points, all, Extremal::kMinimal)) {
    kept.push_back(points[i]);
  }
  return kept;
}

TEST(AntichainKernelTest, MinimalGeneratorsMatchesScan) {
  Rng rng(103);
  for (const size_t d : kDimensions) {
    for (const std::vector<Point>& points : PointFamilies(rng, d)) {
      EXPECT_EQ(MinimalGenerators(points), MinimalGeneratorsByScan(points));
    }
  }
}

// Assignments over `points`: arbitrary labels (mostly non-monotone), a
// monotone one, and that one broken on purpose at a comparable pair.
std::vector<std::vector<Label>> Assignments(Rng& rng,
                                            const std::vector<Point>& points) {
  const size_t n = points.size();
  const size_t d = points.empty() ? 1 : points[0].dimension();
  std::vector<std::vector<Label>> assignments;
  std::vector<Label> random(n);
  for (Label& v : random) v = rng.Bernoulli(0.5) ? 1 : 0;
  assignments.push_back(random);

  const MonotoneClassifier h = MonotoneClassifier::FromGenerators(
      UniformPoints(rng, 3, d), d);
  std::vector<Label> monotone(n);
  for (size_t i = 0; i < n; ++i) monotone[i] = h.Classify(points[i]) ? 1 : 0;
  assignments.push_back(monotone);
  // Break it at one comparable pair: p >= q with h(p) = 0, h(q) = 1.
  for (size_t p = 0; p < n; ++p) {
    for (size_t q = 0; q < n; ++q) {
      if (p == q || !DominatesEq(points[p], points[q])) continue;
      std::vector<Label> broken = monotone;
      broken[p] = 0;
      broken[q] = 1;
      assignments.push_back(broken);
      p = q = n;
    }
  }
  // All-zero and all-one are monotone.
  assignments.push_back(std::vector<Label>(n, 0));
  assignments.push_back(std::vector<Label>(n, 1));
  return assignments;
}

TEST(AntichainKernelTest, FromAssignmentMatchesScanAndOldGenerators) {
  Rng rng(107);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const size_t d : kDimensions) {
    for (const std::vector<Point>& list : PointFamilies(rng, d)) {
      if (list.empty()) continue;
      const PointSet points(list);
      for (const std::vector<Label>& values : Assignments(rng, list)) {
        const auto h = MonotoneClassifier::FromAssignment(points, values);
        ASSERT_EQ(h.has_value(), IsMonotoneAssignment(points, values));
        if (!h.has_value()) {
          ++rejected;
          continue;
        }
        ++accepted;
        std::vector<Point> positives;
        for (size_t i = 0; i < list.size(); ++i) {
          if (values[i] == 1) positives.push_back(list[i]);
        }
        EXPECT_EQ(h->generators(), MinimalGeneratorsByScan(positives));
        EXPECT_EQ(h->ClassifySet(points), values);
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(AntichainKernelTest, FromAssignmentRejectsOppositeLabelDuplicates) {
  for (const size_t d : kDimensions) {
    const std::vector<double> coords(d, 0.5);
    const PointSet points({Point(coords), Point(std::vector<double>(d, 0.9)),
                           Point(coords)});
    EXPECT_FALSE(
        MonotoneClassifier::FromAssignment(points, {1, 1, 0}).has_value());
    EXPECT_FALSE(
        MonotoneClassifier::FromAssignment(points, {0, 1, 1}).has_value());
    const auto h = MonotoneClassifier::FromAssignment(points, {1, 1, 1});
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->generators(), (std::vector<Point>{Point(coords)}));
  }
}

TEST(AntichainKernelTest, SolverAssignmentsPassTheCertificate) {
  for (const size_t d : kDimensions) {
    const PlantedInstance planted = GeneratePlanted(
        {.num_points = 150, .dimension = d, .noise_flips = 15, .seed = d});
    const PassiveSolveResult result = SolvePassiveUnweighted(planted.data);
    EXPECT_TRUE(IsMonotoneAssignment(planted.data.points(),
                                     result.assignment));
    EXPECT_EQ(result.classifier.ClassifySet(planted.data.points()),
              result.assignment);
    EXPECT_EQ(result.optimal_weighted_error,
              WeightedError(result.classifier,
                            WeightedPointSet::UnitWeights(planted.data)));
  }
}

TEST(AntichainKernelTest, ContendingMatchesScanAtAnyThreadCount) {
  Rng rng(113);
  for (const size_t d : kDimensions) {
    for (const std::vector<Point>& list : PointFamilies(rng, d)) {
      const PointSet points(list);
      std::vector<Label> labels(list.size());
      for (Label& v : labels) v = rng.Bernoulli(0.5) ? 1 : 0;
      // Opposite-label duplicates: a copy of a point with the other label.
      std::vector<Point> with_twins = list;
      std::vector<Label> twin_labels = labels;
      if (!list.empty()) {
        with_twins.push_back(list[0]);
        twin_labels.push_back(labels[0] == 0 ? 1 : 0);
      }
      for (const auto& [set, values] :
           {std::pair{points, labels},
            std::pair{PointSet(with_twins), twin_labels}}) {
        const ContendingPartition expected =
            ComputeContendingByScan(set, values);
        for (const size_t threads : {size_t{1}, size_t{3}}) {
          const ContendingPartition actual =
              ComputeContending(set, values, {.threads = threads});
          EXPECT_EQ(actual.contending, expected.contending);
          EXPECT_EQ(actual.is_contending, expected.is_contending);
        }
      }
    }
  }
}

// Distinct points on the hyperplane sum x_i = K (integer coordinates,
// so the sums are exact): pairwise incomparable, every point is extreme.
std::vector<Point> AntiCorrelatedPoints(Rng& rng, size_t n, size_t d) {
  constexpr uint64_t kRange = 1000;
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    coords[0] = static_cast<double>(i);
    double sum = coords[0];
    for (size_t k = 1; k + 1 < d; ++k) {
      sum += (coords[k] = static_cast<double>(rng.UniformInt(kRange)));
    }
    coords[d - 1] = static_cast<double>(n + d * kRange) - sum;
    points.emplace_back(coords);
  }
  return points;
}

TEST(AntichainKernelTest, BlockedParallelSweepMatchesSerialAndScan) {
  Rng rng(127);
  const size_t n = ExtremalAntichain::kParallelSweepMinSize + 300;
  for (const size_t d : {size_t{3}, size_t{5}}) {
    for (const std::vector<Point>& points :
         {UniformPoints(rng, n, d), GridPoints(rng, n, d, 6),
          AntiCorrelatedPoints(rng, n, d)}) {
      std::vector<size_t> all(points.size());
      std::iota(all.begin(), all.end(), size_t{0});
      const std::vector<Point> queries = UniformPoints(rng, 50, d);
      for (const Extremal which : {Extremal::kMinimal, Extremal::kMaximal}) {
        const ExtremalAntichain serial(points, all, which);
        ASSERT_EQ(serial.members(),
                  ExtremalElementsByScan(points, all, which));
        for (const size_t threads : {size_t{2}, size_t{3}, size_t{4}}) {
          const ExtremalAntichain blocked(points, all, which,
                                          {.threads = threads});
          ASSERT_EQ(blocked.members(), serial.members())
              << "d = " << d << ", threads = " << threads;
          for (const Point& x : queries) {
            EXPECT_EQ(blocked.Covers(x), serial.Covers(x));
          }
        }
      }
    }
  }
}

TEST(AntichainKernelTest, ContendingThroughBlockedSweepMatchesScan) {
  // Both labels hold more than kParallelSweepMinSize points, so both
  // antichains take the blocked sweep at threads > 1.
  Rng rng(131);
  const size_t n = 2 * ExtremalAntichain::kParallelSweepMinSize + 200;
  for (const size_t d : {size_t{3}, size_t{5}}) {
    for (const std::vector<Point>& list :
         {AntiCorrelatedPoints(rng, n, d), UniformPoints(rng, n, d)}) {
      const PointSet points(list);
      std::vector<Label> labels(n);
      for (size_t i = 0; i < n; ++i) labels[i] = static_cast<Label>(i % 2);
      // A few comparable opposite-label pairs on top of the antichain.
      for (size_t i = 0; i < n; i += 97) labels[i] = rng.Bernoulli(0.5);
      const ContendingPartition expected =
          ComputeContendingByScan(points, labels);
      const ContendingPartition actual =
          ComputeContending(points, labels, {.threads = 4});
      EXPECT_EQ(actual.contending, expected.contending);
      EXPECT_EQ(actual.is_contending, expected.is_contending);
    }
  }
}

}  // namespace
}  // namespace monoclass
