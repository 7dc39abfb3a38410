// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for Lemma 6 (minimum chain decomposition) and the greedy ablation:
// validity invariants, exact chain counts on structured instances, and the
// Dilworth identity chains == width on random instances.

#include "core/chain_decomposition.h"

#include <gtest/gtest.h>

#include "core/antichain.h"
#include "data/synthetic.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

TEST(MinimumChainDecompositionTest, EmptySet) {
  EXPECT_EQ(MinimumChainDecomposition(PointSet()).NumChains(), 0u);
}

TEST(MinimumChainDecompositionTest, SinglePoint) {
  const PointSet points({Point{1, 1}});
  const auto decomposition = MinimumChainDecomposition(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(MinimumChainDecompositionTest, TotalOrderIsOneChain) {
  const PointSet points({Point{3, 3}, Point{1, 1}, Point{2, 2}, Point{4, 4}});
  const auto decomposition = MinimumChainDecomposition(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
  // The single chain must ascend: indices ordered 1, 2, 0, 3.
  EXPECT_EQ(decomposition.chains[0],
            (std::vector<size_t>{1, 2, 0, 3}));
}

TEST(MinimumChainDecompositionTest, AntichainIsAllSingletons) {
  const PointSet points({Point{0, 3}, Point{1, 2}, Point{2, 1}, Point{3, 0}});
  const auto decomposition = MinimumChainDecomposition(points);
  EXPECT_EQ(decomposition.NumChains(), 4u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(MinimumChainDecompositionTest, DuplicatePointsFormAChain) {
  const PointSet points({Point{1, 1}, Point{1, 1}, Point{1, 1}});
  const auto decomposition = MinimumChainDecomposition(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(MinimumChainDecompositionTest, OneDimensionAlwaysOneChain) {
  Rng rng(5);
  PointSet points;
  for (int i = 0; i < 50; ++i) points.Add(Point{rng.UniformDouble()});
  const auto decomposition = MinimumChainDecomposition(points);
  EXPECT_EQ(decomposition.NumChains(), 1u);
  EXPECT_TRUE(ValidateChainDecomposition(points, decomposition));
}

TEST(MinimumChainDecompositionTest, MatchesDominanceWidthOnRandomSets) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.UniformInt(40);
    const size_t d = 1 + rng.UniformInt(3);
    const auto set = testing_util::RandomLabeledSet(rng, n, d);
    const auto decomposition = MinimumChainDecomposition(set.points());
    EXPECT_TRUE(ValidateChainDecomposition(set.points(), decomposition));
    EXPECT_EQ(decomposition.NumChains(), DominanceWidth(set.points()))
        << "Dilworth: minimum chains == width, trial " << trial;
  }
}

TEST(MinimumChainDecompositionTest, ChainInstanceRecoversPlantedWidth) {
  for (const size_t w : {1u, 2u, 5u, 9u}) {
    ChainInstanceOptions options;
    options.num_chains = w;
    options.chain_length = 12;
    options.seed = 3 * w + 1;
    const ChainInstance instance = GenerateChainInstance(options);
    const auto decomposition =
        MinimumChainDecomposition(instance.data.points());
    EXPECT_EQ(decomposition.NumChains(), w);
    EXPECT_TRUE(
        ValidateChainDecomposition(instance.data.points(), decomposition));
  }
}

TEST(GreedyChainDecompositionTest, AlwaysValid) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.UniformInt(40);
    const size_t d = 1 + rng.UniformInt(3);
    const auto set = testing_util::RandomLabeledSet(rng, n, d);
    const auto decomposition = GreedyChainDecomposition(set.points());
    EXPECT_TRUE(ValidateChainDecomposition(set.points(), decomposition));
  }
}

TEST(GreedyChainDecompositionTest, NeverFewerThanWidth) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = testing_util::RandomLabeledSet(rng, 30, 2);
    const auto greedy = GreedyChainDecomposition(set.points());
    EXPECT_GE(greedy.NumChains(), DominanceWidth(set.points()));
  }
}

TEST(GreedyChainDecompositionTest, OptimalInOneDimension) {
  Rng rng(19);
  PointSet points;
  for (int i = 0; i < 40; ++i) points.Add(Point{rng.UniformDouble()});
  EXPECT_EQ(GreedyChainDecomposition(points).NumChains(), 1u);
}

TEST(ScalableChainDecompositionTest, HighDimensionRoutesByMatchingLimit) {
  Rng rng(23);
  // Small d = 3 sets take the Lemma 6 matching path: exactly w chains.
  for (int trial = 0; trial < 10; ++trial) {
    const auto set = testing_util::RandomLabeledSet(rng, 40, 3);
    EXPECT_EQ(ScalableChainDecomposition(set.points()).NumChains(),
              MinimumChainDecomposition(set.points()).NumChains())
        << "trial " << trial;
  }
  // One point past kSparseExactMatchingLimit the router falls back to
  // first-fit greedy.
  const auto large =
      testing_util::RandomLabeledSet(rng, kSparseExactMatchingLimit + 1, 3);
  const ChainDecomposition scalable =
      ScalableChainDecomposition(large.points());
  EXPECT_EQ(scalable.chains,
            GreedyChainDecomposition(large.points()).chains);
  EXPECT_TRUE(ValidateChainDecomposition(large.points(), scalable));
}

TEST(ValidateChainDecompositionTest, RejectsBadDecompositions) {
  const PointSet points({Point{0, 0}, Point{1, 1}});
  // Missing point.
  EXPECT_FALSE(ValidateChainDecomposition(points, {{{0}}}));
  // Duplicated point.
  EXPECT_FALSE(ValidateChainDecomposition(points, {{{0, 1}, {1}}}));
  // Wrong order within chain.
  EXPECT_FALSE(ValidateChainDecomposition(points, {{{1, 0}}}));
  // Empty chain.
  EXPECT_FALSE(ValidateChainDecomposition(points, {{{0, 1}, {}}}));
  // Correct.
  EXPECT_TRUE(ValidateChainDecomposition(points, {{{0, 1}}}));
}

}  // namespace
}  // namespace monoclass
