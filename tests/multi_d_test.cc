// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the Theorem 2/3 multi-dimensional active algorithm:
// correctness on the paper's worked example, the (1+eps) guarantee across
// randomized trials on width-controlled instances, probe accounting, the
// precomputed-chain and greedy-chain paths, and determinism.

#include "active/multi_d.h"

#include <gtest/gtest.h>

#include "active/oracle.h"
#include "core/chain_decomposition.h"
#include "core/chain_decomposition_2d.h"
#include "core/paper_example.h"
#include "data/synthetic.h"
#include "passive/flow_solver.h"

namespace monoclass {
namespace {

TEST(MultiDActiveTest, PaperExampleReachesApproximateOptimum) {
  const LabeledPointSet set = PaperFigure1Points();
  InMemoryOracle oracle(set);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Paper(0.5, 0.01);
  const auto result = SolveActiveMultiD(set.points(), oracle, options);
  // n = 16: every chain level full-probes, so the result is exactly k*=3.
  EXPECT_EQ(result.num_chains, 6u);
  EXPECT_EQ(CountErrors(result.classifier, set), 3u);
  EXPECT_EQ(result.probes, 16u);
}

TEST(MultiDActiveTest, CleanChainsRecoverZeroError) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 6;
  data_options.chain_length = 512;
  data_options.noise_per_chain = 0;
  data_options.seed = 5;
  const ChainInstance instance = GenerateChainInstance(data_options);

  size_t successes = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    InMemoryOracle oracle(instance.data);
    ActiveSolveOptions options;
    options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
    options.seed = seed;
    options.precomputed_chains = instance.chains;
    const auto result =
        SolveActiveMultiD(instance.data.points(), oracle, options);
    if (CountErrors(result.classifier, instance.data) == 0) ++successes;
  }
  EXPECT_GE(successes, 7u);
}

TEST(MultiDActiveTest, ApproximationGuaranteeOnNoisyChains) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 5;
  data_options.chain_length = 3000;
  data_options.noise_per_chain = 150;
  data_options.seed = 7;
  const ChainInstance instance = GenerateChainInstance(data_options);
  const size_t optimum = OptimalError(instance.data);
  ASSERT_GT(optimum, 0u);

  const double epsilon = 0.5;
  size_t within = 0;
  const int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    InMemoryOracle oracle(instance.data);
    ActiveSolveOptions options;
    options.sampling = ActiveSamplingParams::Practical(epsilon, 0.05);
    options.seed = 1000 + static_cast<uint64_t>(trial);
    options.precomputed_chains = instance.chains;
    const auto result =
        SolveActiveMultiD(instance.data.points(), oracle, options);
    const size_t error = CountErrors(result.classifier, instance.data);
    EXPECT_GE(error, optimum);  // k* is a hard floor
    if (static_cast<double>(error) <=
        (1.0 + epsilon) * static_cast<double>(optimum)) {
      ++within;
    }
  }
  EXPECT_GE(within, 10);
}

TEST(MultiDActiveTest, ProbesSublinearOnLargeInstance) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 8;
  data_options.chain_length = 4096;
  data_options.noise_per_chain = 50;
  data_options.seed = 9;
  const ChainInstance instance = GenerateChainInstance(data_options);
  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(1.0, 0.1);
  options.precomputed_chains = instance.chains;
  const auto result =
      SolveActiveMultiD(instance.data.points(), oracle, options);
  EXPECT_LT(result.probes, instance.data.size() / 2);
  EXPECT_GT(result.sigma.size(), 0u);
  EXPECT_LE(result.probes, instance.data.size());
}

TEST(MultiDActiveTest, ComputesChainsWhenNotProvided) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 4;
  data_options.chain_length = 50;
  data_options.seed = 11;
  const ChainInstance instance = GenerateChainInstance(data_options);
  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  const auto result =
      SolveActiveMultiD(instance.data.points(), oracle, options);
  EXPECT_EQ(result.num_chains, 4u)
      << "Lemma 6 must recover the planted width";
}

TEST(MultiDActiveTest, Fast2DChainsMatchLemma6Width) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 5;
  data_options.chain_length = 300;
  data_options.noise_per_chain = 10;
  data_options.seed = 23;
  const ChainInstance instance = GenerateChainInstance(data_options);

  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  options.precomputed_chains =
      MinimumChainDecomposition2D(instance.data.points());
  const auto result =
      SolveActiveMultiD(instance.data.points(), oracle, options);
  EXPECT_EQ(result.num_chains, 5u)
      << "the O(n log n) 2D path must find the same minimum chain count";
  EXPECT_GE(CountErrors(result.classifier, instance.data),
            OptimalError(instance.data));
}

TEST(MultiDActiveTest, GreedyChainsUseAtLeastWidthChains) {
  PlantedOptions data_options;
  data_options.num_points = 300;
  data_options.dimension = 2;
  data_options.noise_flips = 10;
  data_options.seed = 13;
  const PlantedInstance instance = GeneratePlanted(data_options);

  InMemoryOracle oracle_min(instance.data);
  ActiveSolveOptions minimum;
  minimum.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  const auto result_min =
      SolveActiveMultiD(instance.data.points(), oracle_min, minimum);

  InMemoryOracle oracle_greedy(instance.data);
  ActiveSolveOptions greedy = minimum;
  greedy.precomputed_chains =
      GreedyChainDecomposition(instance.data.points());
  const auto result_greedy =
      SolveActiveMultiD(instance.data.points(), oracle_greedy, greedy);

  EXPECT_GE(result_greedy.num_chains, result_min.num_chains);
}

TEST(MultiDActiveTest, RejectsInvalidPrecomputedChains) {
  const LabeledPointSet set = PaperFigure1Points();
  InMemoryOracle oracle(set);
  ActiveSolveOptions options;
  ChainDecomposition bogus;
  bogus.chains = {{0, 1}};  // not a partition of 16 points
  options.precomputed_chains = bogus;
  EXPECT_DEATH(SolveActiveMultiD(set.points(), oracle, options), "");
}

TEST(MultiDActiveTest, DeterministicUnderSeed) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 3;
  data_options.chain_length = 400;
  data_options.noise_per_chain = 20;
  data_options.seed = 17;
  const ChainInstance instance = GenerateChainInstance(data_options);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  options.seed = 99;
  options.precomputed_chains = instance.chains;

  InMemoryOracle oracle_a(instance.data);
  const auto a = SolveActiveMultiD(instance.data.points(), oracle_a, options);
  InMemoryOracle oracle_b(instance.data);
  const auto b = SolveActiveMultiD(instance.data.points(), oracle_b, options);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.sigma.size(), b.sigma.size());
  EXPECT_EQ(a.classifier.ClassifySet(instance.data.points()),
            b.classifier.ClassifySet(instance.data.points()));
}

TEST(MultiDActiveTest, SigmaLabelsMatchGroundTruth) {
  ChainInstanceOptions data_options;
  data_options.num_chains = 3;
  data_options.chain_length = 200;
  data_options.noise_per_chain = 10;
  data_options.seed = 19;
  const ChainInstance instance = GenerateChainInstance(data_options);
  InMemoryOracle oracle(instance.data);
  ActiveSolveOptions options;
  options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
  options.precomputed_chains = instance.chains;
  const auto result =
      SolveActiveMultiD(instance.data.points(), oracle, options);
  // Every Sigma entry's label must be the oracle's truth for that point.
  // Match points by coordinates (Sigma stores copies).
  for (size_t i = 0; i < result.sigma.size(); ++i) {
    bool found = false;
    for (size_t j = 0; j < instance.data.size(); ++j) {
      if (instance.data.point(j) == result.sigma.point(i)) {
        EXPECT_EQ(result.sigma.label(i), instance.data.label(j));
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace monoclass
