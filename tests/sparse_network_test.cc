// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Dense-vs-sparse equivalence for the chain-relay network builder
// (passive/sparse_network.h). The sparse build must be *transparent*:
// identical optimal weighted error, identical min-cut value and a
// bit-identical optimal assignment across dimensions, max-flow backends
// and thread counts -- plus structural checks on the relay network
// itself (edge budget, relay purity, determinism of the build).

#include "passive/sparse_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "graph/flow_audit.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

using testing_util::SolvePassiveWith;

PassiveSolveResult SolveDense(const WeightedPointSet& set) {
  return SolvePassiveWith(BuildDenseDominanceNetwork, set);
}

PassiveSolveResult SolveSparse(const WeightedPointSet& set) {
  return SolvePassiveWith(BuildSparseChainRelayNetwork, set);
}

TEST(SparseNetworkTest, BitIdenticalAcrossDimensionsBackendsAndThreads) {
  Rng rng(2026);
  for (const size_t d : {1u, 2u, 5u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t n = 20 + rng.UniformInt(60);
      const auto set = testing_util::RandomWeightedSet(
          rng, n, d, rng.UniformDoubleInRange(0.25, 0.75));
      for (const MaxFlowAlgorithm algorithm : AllMaxFlowAlgorithms()) {
        const PassiveSolveResult reference =
            SolvePassiveWith(BuildDenseDominanceNetwork, set, algorithm);
        ASSERT_FALSE(reference.used_sparse_network);
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          ParallelOptions parallel;
          parallel.threads = threads;
          const PassiveSolveResult result = SolvePassiveWith(
              BuildSparseChainRelayNetwork, set, algorithm, parallel);
          ASSERT_TRUE(result.used_sparse_network);
          EXPECT_EQ(result.assignment, reference.assignment)
              << "d=" << d << " trial=" << trial << " threads=" << threads;
          EXPECT_DOUBLE_EQ(result.optimal_weighted_error,
                           reference.optimal_weighted_error);
          EXPECT_EQ(result.classifier.ClassifySet(set.points()),
                    reference.classifier.ClassifySet(set.points()));
        }
      }
    }
  }
}

TEST(SparseNetworkTest, IdenticalOnDuplicateHeavyGrids) {
  // Coordinate collisions exercise the DominatesEq tie handling: equal
  // points with opposite labels are mutually dominating, so the relay
  // binary search must still find them.
  Rng rng(73);
  for (int trial = 0; trial < 30; ++trial) {
    WeightedPointSet set;
    const size_t n = 8 + rng.UniformInt(40);
    for (size_t i = 0; i < n; ++i) {
      set.Add(Point{static_cast<double>(rng.UniformInt(3)),
                    static_cast<double>(rng.UniformInt(3))},
              rng.Bernoulli(0.5) ? 1 : 0,
              static_cast<double>(1 + rng.UniformInt(4)));
    }
    const auto dense = SolveDense(set);
    const auto sparse = SolveSparse(set);
    EXPECT_EQ(sparse.assignment, dense.assignment) << "trial " << trial;
    EXPECT_DOUBLE_EQ(sparse.optimal_weighted_error,
                     dense.optimal_weighted_error);
  }
}

TEST(SparseNetworkTest, PlantedInstanceMatchesDenseAtScale) {
  PlantedOptions options;
  options.num_points = 2000;
  options.dimension = 2;
  options.noise_flips = 200;
  options.seed = 11;
  const WeightedPointSet set =
      WeightedPointSet::UnitWeights(GeneratePlanted(options).data);
  const auto dense = SolveDense(set);
  const auto sparse = SolveSparse(set);
  EXPECT_EQ(sparse.assignment, dense.assignment);
  EXPECT_DOUBLE_EQ(sparse.optimal_weighted_error,
                   dense.optimal_weighted_error);
  EXPECT_DOUBLE_EQ(sparse.flow_value, dense.flow_value);
  // The point of the construction: far fewer infinite edges.
  EXPECT_LT(sparse.network_infinite_edges, dense.network_infinite_edges);
}

TEST(SparseNetworkTest, EdgeBudgetIsPointsTimesChains) {
  // Per label-0 point at most one edge per chain, plus at most two relay
  // edges per label-1 point (its feed edge and one spine hop).
  Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t d = 2 + rng.UniformInt(3);
    const auto labeled = testing_util::RandomLabeledSet(rng, 120, d);
    const auto set = WeightedPointSet::UnitWeights(labeled);
    const auto active =
        ComputeContending(set.points(), set.labels()).contending;
    const SparseNetworkPlan plan =
        BuildSparseChainRelayNetwork(set, active, set.TotalWeight() + 1.0);
    EXPECT_LE(plan.infinite_edges,
              active.size() * plan.num_chains + 2 * plan.num_relays);
    EXPECT_EQ(plan.finite_edges, active.size());
    EXPECT_EQ(plan.network.NumVertices(),
              static_cast<int>(active.size() + plan.num_relays) + 2);
  }
}

TEST(SparseNetworkTest, RelayPurityAuditPassesAndCatchesViolations) {
  Rng rng(101);
  const auto labeled = testing_util::RandomLabeledSet(rng, 60, 2);
  const auto set = WeightedPointSet::UnitWeights(labeled);
  const auto active =
      ComputeContending(set.points(), set.labels()).contending;
  ASSERT_GT(active.size(), 0u);
  const double infinity = set.TotalWeight() + 1.0;
  SparseNetworkPlan plan =
      BuildSparseChainRelayNetwork(set, active, infinity);
  FlowAuditOptions options;
  options.infinity_threshold = infinity;
  options.relay_vertex_begin = plan.relay_begin;
  const double flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  EXPECT_TRUE(AuditMinCut(plan.network, 0, 1, flow, options).ok);

  // A finite-capacity edge touching a relay must be flagged.
  ASSERT_GT(plan.num_relays, 0u);
  plan.network.AddEdge(0, plan.relay_begin, 0.25);
  plan.network.ResetFlow();
  const double tainted_flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  const AuditResult tainted =
      AuditMinCut(plan.network, 0, 1, tainted_flow, options);
  EXPECT_FALSE(tainted.ok);
  EXPECT_NE(tainted.failure.find("relay purity"), std::string::npos);

  // A source or sink inside the relay range must be flagged too.
  FlowAuditOptions bad_range = options;
  bad_range.relay_vertex_begin = 0;
  EXPECT_FALSE(AuditMinCut(plan.network, 0, 1, tainted_flow, bad_range).ok);
}

TEST(SparseNetworkTest, BuildIsDeterministicAcrossThreadCounts) {
  Rng rng(113);
  const auto labeled = testing_util::RandomLabeledSet(rng, 200, 3);
  const auto set = WeightedPointSet::UnitWeights(labeled);
  const auto active =
      ComputeContending(set.points(), set.labels()).contending;
  const double infinity = set.TotalWeight() + 1.0;
  ParallelOptions serial;
  serial.threads = 1;
  const SparseNetworkPlan reference =
      BuildSparseChainRelayNetwork(set, active, infinity, serial);
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    const SparseNetworkPlan plan =
        BuildSparseChainRelayNetwork(set, active, infinity, parallel);
    ASSERT_EQ(plan.network.NumVertices(), reference.network.NumVertices());
    EXPECT_EQ(plan.infinite_edges, reference.infinite_edges);
    for (int v = 0; v < plan.network.NumVertices(); ++v) {
      const auto& got = plan.network.adjacency(v);
      const auto& want = reference.network.adjacency(v);
      ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].to, want[e].to);
        EXPECT_EQ(got[e].capacity, want[e].capacity);
      }
    }
  }
}

TEST(SparseNetworkTest, ThresholdSelectsBuilder) {
  // A small planted instance lands below kSparseNetworkMinContending and
  // a large noisy one above it; the solver must pick the build by that
  // size, and the other build must reach the identical assignment.
  for (const auto& [n, flips] : {std::pair<size_t, size_t>{400, 120},
                                 std::pair<size_t, size_t>{3000, 1500}}) {
    PlantedOptions planted;
    planted.num_points = n;
    planted.dimension = 2;
    planted.noise_flips = flips;
    planted.seed = 7;
    const WeightedPointSet set =
        WeightedPointSet::UnitWeights(GeneratePlanted(planted).data);
    const auto routed = SolvePassiveWeighted(set);
    const bool large = routed.num_contending >= kSparseNetworkMinContending;
    EXPECT_EQ(large, n == 3000) << "n=" << n;
    EXPECT_EQ(routed.used_sparse_network, large) << "n=" << n;
    if (large) {
      EXPECT_GT(routed.network_relays, 0u);
      EXPECT_GT(routed.network_chains, 0u);
    }
    const auto other = large ? SolveDense(set) : SolveSparse(set);
    EXPECT_NE(other.used_sparse_network, routed.used_sparse_network);
    EXPECT_EQ(other.assignment, routed.assignment) << "n=" << n;
    EXPECT_EQ(other.optimal_weighted_error, routed.optimal_weighted_error);
  }
}

TEST(SparseNetworkTest, EmptyAndConflictFreeInputs) {
  // No contending points: the sparse path must cope with an empty
  // active set (and with active sets that have no label-1 members).
  LabeledPointSet monotone;
  monotone.Add(Point{0, 0}, 0);
  monotone.Add(Point{1, 1}, 1);
  const auto result = SolveSparse(WeightedPointSet::UnitWeights(monotone));
  EXPECT_TRUE(result.used_sparse_network);
  EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
  EXPECT_EQ(result.network_relays, 0u);

  // A single mutually-dominating duplicate pair: one relay, one cut.
  WeightedPointSet pair;
  pair.Add(Point{1, 1}, 1, 3.0);
  pair.Add(Point{1, 1}, 0, 1.0);
  const auto dup = SolveSparse(pair);
  EXPECT_DOUBLE_EQ(dup.optimal_weighted_error, 1.0);
  EXPECT_EQ(dup.assignment[0], 1);
  EXPECT_EQ(dup.assignment[1], 1);
  EXPECT_EQ(dup.network_relays, 1u);
}

TEST(SparseNetworkTest, DirectBuildOnEmptyActiveSet) {
  // The builder itself (not just the solver wrapper) must accept an
  // empty contending set: just source and sink, no edges, no chains.
  WeightedPointSet set;
  set.Add(Point{0, 0}, 0, 1.0);
  set.Add(Point{1, 1}, 1, 1.0);
  SparseNetworkPlan plan = BuildSparseChainRelayNetwork(
      set, /*active=*/{}, set.TotalWeight() + 1.0);
  EXPECT_EQ(plan.network.NumVertices(), 2);
  EXPECT_EQ(plan.finite_edges, 0u);
  EXPECT_EQ(plan.infinite_edges, 0u);
  EXPECT_EQ(plan.num_chains, 0u);
  EXPECT_EQ(plan.num_relays, 0u);
  const double flow =
      CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic)->Solve(plan.network, 0, 1);
  EXPECT_DOUBLE_EQ(flow, 0.0);
}

TEST(SparseNetworkTest, HighestDominatedPositionOnEmptyChain) {
  // The wiring rule's binary search must answer "no member" on an empty
  // chain rather than walking off the end -- the case the incremental
  // solver hits whenever a chain is drained of members and reused.
  PointSet points;
  points.Add(Point{1, 1});
  EXPECT_EQ(HighestDominatedPosition(points, /*members=*/{}, points[0]),
            kNoDominatedMember);
}

TEST(SparseNetworkTest, AllDuplicateMultisetMixedLabels) {
  // Every point identical: all points are pairwise mutually dominating,
  // so with both labels present EVERY point is contending, the chain
  // decomposition collapses to one chain, and the optimum pays the
  // lighter label side (the whole conflict is one clique).
  Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    WeightedPointSet set;
    double zero_weight = 0.0;
    double one_weight = 0.0;
    const size_t n = 4 + rng.UniformInt(20);
    size_t ones = 0;
    for (size_t i = 0; i < n; ++i) {
      // Force at least one point of each label.
      const Label label = i == 0 ? 0 : (i == 1 ? 1 : rng.Bernoulli(0.5));
      const double weight = rng.UniformDoubleInRange(0.5, 3.0);
      (label == 0 ? zero_weight : one_weight) += weight;
      ones += label;
      set.Add(Point{2.0, 3.0}, label, weight);
    }
    const auto sparse = SolveSparse(set);
    const auto dense = SolveDense(set);
    EXPECT_EQ(sparse.assignment, dense.assignment) << "trial " << trial;
    EXPECT_EQ(sparse.num_contending, n);
    EXPECT_EQ(sparse.network_chains, 1u);
    EXPECT_EQ(sparse.network_relays, ones);
    EXPECT_NEAR(sparse.optimal_weighted_error,
                std::min(zero_weight, one_weight), 1e-9);
  }
}

TEST(SparseNetworkTest, AllDuplicateMultisetSingleLabel) {
  // All duplicates, one label: nothing conflicts, so nothing is
  // contending and the sparse build degenerates to the empty network.
  for (const Label label : {Label{0}, Label{1}}) {
    WeightedPointSet set;
    for (int i = 0; i < 6; ++i) {
      set.Add(Point{1.5, 0.5}, label, 2.0);
    }
    const auto result = SolveSparse(set);
    EXPECT_DOUBLE_EQ(result.optimal_weighted_error, 0.0);
    EXPECT_EQ(result.num_contending, 0u);
    EXPECT_EQ(result.network_relays, 0u);
    EXPECT_EQ(result.assignment, std::vector<Label>(6, label));
  }
}

}  // namespace
}  // namespace monoclass
