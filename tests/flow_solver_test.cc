// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the Theorem 4 passive solver: hand instances, agreement with
// the exponential brute force on random weighted sets (the central
// correctness property), Lemma 15/16/17 invariants, and all max-flow
// backends giving identical optima.

#include "passive/flow_solver.h"

#include <gtest/gtest.h>

#include "passive/brute_force.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

TEST(FlowSolverTest, SinglePointKeepsItsLabel) {
  LabeledPointSet set;
  set.Add(Point{1, 1}, 1);
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  EXPECT_TRUE(result.classifier.Classify(Point{1, 1}));
}

TEST(FlowSolverTest, AlreadyMonotoneLabelsHaveZeroError) {
  LabeledPointSet set;
  set.Add(Point{0, 0}, 0);
  set.Add(Point{1, 1}, 0);
  set.Add(Point{2, 2}, 1);
  set.Add(Point{3, 3}, 1);
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  EXPECT_EQ(result.num_contending, 0u);
}

TEST(FlowSolverTest, SingleInversionCostsCheaperSide) {
  WeightedPointSet set;
  set.Add(Point{0, 0}, 1, 5.0);  // label 1 below
  set.Add(Point{1, 1}, 0, 2.0);  // label 0 above
  const auto result = SolvePassiveWeighted(set);
  // Optimal: misclassify the weight-2 point (map both to 1).
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 2.0);
  EXPECT_EQ(result.assignment[0], 1);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(FlowSolverTest, SingleInversionOtherDirection) {
  WeightedPointSet set;
  set.Add(Point{0, 0}, 1, 2.0);
  set.Add(Point{1, 1}, 0, 5.0);
  const auto result = SolvePassiveWeighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 2.0);
  EXPECT_EQ(result.assignment[0], 0);
  EXPECT_EQ(result.assignment[1], 0);
}

TEST(FlowSolverTest, EqualPointsWithConflictingLabels) {
  // Duplicates must receive one common value; the cheaper side loses.
  WeightedPointSet set;
  set.Add(Point{1, 1}, 1, 3.0);
  set.Add(Point{1, 1}, 0, 1.0);
  const auto result = SolvePassiveWeighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 1.0);
  EXPECT_EQ(result.assignment[0], 1);
  EXPECT_EQ(result.assignment[1], 1);
}

TEST(FlowSolverTest, IncomparablePointsNeverConflict) {
  LabeledPointSet set;
  set.Add(Point{0, 1}, 1);
  set.Add(Point{1, 0}, 0);
  const auto result = SolvePassiveUnweighted(set);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
}

TEST(FlowSolverTest, ZigZag1DInstance) {
  // 1D labels 1,0,1,0 at 1,2,3,4: every threshold errs at least twice
  // (all-1 errs on 2 and 4; tau=2 errs on 1 and 4; all-0 errs on 1 and 3),
  // so k* = 2.
  LabeledPointSet set;
  set.Add(Point{1}, 1);
  set.Add(Point{2}, 0);
  set.Add(Point{3}, 1);
  set.Add(Point{4}, 0);
  EXPECT_EQ(OptimalError(set), 2u);
}

TEST(FlowSolverTest, MatchesBruteForceOnRandomUnweightedSets) {
  Rng rng(41);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t n = 1 + rng.UniformInt(12);
    const size_t d = 1 + rng.UniformInt(3);
    const auto set = testing_util::RandomLabeledSet(
        rng, n, d, rng.UniformDoubleInRange(0.2, 0.8));
    const auto flow = SolvePassiveUnweighted(set);
    const auto brute =
        SolvePassiveBruteForce(WeightedPointSet::UnitWeights(set));
    EXPECT_DOUBLE_EQ(flow.optimal_weighted_error,
                     brute.optimal_weighted_error)
        << "trial " << trial;
  }
}

TEST(FlowSolverTest, MatchesBruteForceOnRandomWeightedSets) {
  Rng rng(43);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t n = 1 + rng.UniformInt(12);
    const size_t d = 1 + rng.UniformInt(3);
    const auto set = testing_util::RandomWeightedSet(
        rng, n, d, rng.UniformDoubleInRange(0.2, 0.8));
    const auto flow = SolvePassiveWeighted(set);
    const auto brute = SolvePassiveBruteForce(set);
    EXPECT_NEAR(flow.optimal_weighted_error, brute.optimal_weighted_error,
                1e-9)
        << "trial " << trial;
  }
}

TEST(FlowSolverTest, GridOfDuplicatesMatchesBruteForce) {
  // Heavy duplicate / tie structure from a tiny integer grid.
  Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    WeightedPointSet set;
    const size_t n = 2 + rng.UniformInt(10);
    for (size_t i = 0; i < n; ++i) {
      set.Add(Point{static_cast<double>(rng.UniformInt(3)),
                    static_cast<double>(rng.UniformInt(3))},
              rng.Bernoulli(0.5) ? 1 : 0,
              static_cast<double>(1 + rng.UniformInt(4)));
    }
    EXPECT_NEAR(SolvePassiveWeighted(set).optimal_weighted_error,
                SolvePassiveBruteForce(set).optimal_weighted_error, 1e-9)
        << "trial " << trial;
  }
}

TEST(FlowSolverTest, AssignmentIsMonotoneAndMatchesClassifier) {
  Rng rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomWeightedSet(rng, 20, 2);
    const auto result = SolvePassiveWeighted(set);
    EXPECT_TRUE(IsMonotoneAssignment(set.points(), result.assignment));
    EXPECT_EQ(result.classifier.ClassifySet(set.points()),
              result.assignment);
  }
}

TEST(FlowSolverTest, AllBackendsAgree) {
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    const auto set = testing_util::RandomWeightedSet(rng, 25, 3);
    double reference = -1.0;
    for (const auto algorithm : AllMaxFlowAlgorithms()) {
      PassiveSolveOptions options;
      options.algorithm = algorithm;
      const double error =
          SolvePassiveWeighted(set, options).optimal_weighted_error;
      if (reference < 0) {
        reference = error;
      } else {
        EXPECT_NEAR(error, reference, 1e-9) << "trial " << trial;
      }
    }
  }
}

TEST(FlowSolverTest, ContendingReductionIsTransparent) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomWeightedSet(rng, 18, 2);
    PassiveSolveOptions with;
    with.reduce_to_contending = true;
    PassiveSolveOptions without;
    without.reduce_to_contending = false;
    EXPECT_NEAR(SolvePassiveWeighted(set, with).optimal_weighted_error,
                SolvePassiveWeighted(set, without).optimal_weighted_error,
                1e-9)
        << "Lemma 15, trial " << trial;
  }
}

TEST(FlowSolverTest, ErrorNeverBelowContendingHalf) {
  // Sanity: k* = 0 iff no contending points.
  Rng rng(67);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomLabeledSet(rng, 15, 2);
    const auto result = SolvePassiveUnweighted(set);
    if (result.num_contending == 0) {
      EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
    } else {
      EXPECT_GT(result.optimal_weighted_error, 0.0);
    }
  }
}

TEST(FlowSolverTest, OptimalErrorOfEmptySetIsZero) {
  EXPECT_EQ(OptimalError(LabeledPointSet()), 0u);
}

TEST(FlowSolverTest, BuildThresholdBoundaryAtSparseNetworkMinContending) {
  // One label-1 point at the origin plus (k - 1) label-0 antichain
  // points that all dominate it: exactly k contending points, so the
  // solver's build flips from dense to sparse precisely when k reaches
  // kSparseNetworkMinContending. Whichever build it picks, the other
  // build must reach the identical assignment.
  for (const size_t k :
       {kSparseNetworkMinContending - 1, kSparseNetworkMinContending,
        kSparseNetworkMinContending + 1}) {
    WeightedPointSet set;
    set.Add(Point{0.0, 0.0}, 1, 1.0);
    for (size_t i = 0; i + 1 < k; ++i) {
      set.Add(Point{static_cast<double>(i + 1),
                    static_cast<double>(k - i)},
              0, 1.0);
    }
    const auto routed = SolvePassiveWeighted(set);
    EXPECT_EQ(routed.num_contending, k) << "k=" << k;
    EXPECT_EQ(routed.used_sparse_network, k >= kSparseNetworkMinContending)
        << "k=" << k;

    const auto other = testing_util::SolvePassiveWith(
        routed.used_sparse_network ? BuildDenseDominanceNetwork
                                   : BuildSparseChainRelayNetwork,
        set);
    EXPECT_NE(other.used_sparse_network, routed.used_sparse_network)
        << "k=" << k;

    // The lone label-1 point loses to the antichain above it.
    EXPECT_DOUBLE_EQ(routed.optimal_weighted_error, 1.0);
    EXPECT_EQ(other.assignment, routed.assignment) << "k=" << k;
  }
}

TEST(FlowSolverTest, HigherDimensions) {
  Rng rng(71);
  for (const size_t d : {4u, 6u, 8u}) {
    const auto set = testing_util::RandomLabeledSet(rng, 14, d);
    EXPECT_DOUBLE_EQ(
        SolvePassiveUnweighted(set).optimal_weighted_error,
        static_cast<double>(OptimalErrorBruteForce(set)));
  }
}

}  // namespace
}  // namespace monoclass
