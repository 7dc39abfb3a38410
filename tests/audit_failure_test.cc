// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Negative tests for the invariant-audit layer: deliberately corrupt a
// solved flow, a minimum cut, a chain decomposition and the incremental
// solver's repaired state, and assert the corresponding audit REJECTS
// the corruption. The positive direction (audits pass on honest
// solutions) is exercised everywhere else; these tests are what makes a
// green audit meaningful evidence.
//
// Also pins the fuzz scenario codec: DecodeIncrementalScenario and
// EncodeIncrementalScenario must be exact inverses on the decoder's
// grids, because audit_fuzz crash artifacts are replayed byte-for-byte
// by the fuzz_incremental harness.

#include <cstdint>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "gtest/gtest.h"
#include "incremental_solver_test_peer.h"
#include "monoclass.h"

namespace monoclass {

namespace {

// ---------------------------------------------------------------------
// AuditMinCut / AuditFlowConservation.

// A small network with max flow 4: 0->1 (3), 0->2 (2), 1->3 (2), 2->3 (3).
FlowNetwork SolvedDiamond(double* flow_out) {
  FlowNetwork network(4);
  network.AddEdge(0, 1, 3.0);
  network.AddEdge(0, 2, 2.0);
  network.AddEdge(1, 3, 2.0);
  network.AddEdge(2, 3, 3.0);
  const auto solver = CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic);
  *flow_out = solver->Solve(network, 0, 3);
  return network;
}

TEST(AuditMinCutFailure, HonestSolveAudits) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  EXPECT_DOUBLE_EQ(flow, 4.0);
  EXPECT_TRUE(AuditFlowConservation(network, 0, 3, flow).ok);
  EXPECT_TRUE(AuditMinCut(network, 0, 3, flow).ok);
}

TEST(AuditMinCutFailure, FiresOnWrongFlowValue) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  const AuditResult result = AuditMinCut(network, 0, 3, flow + 1.0);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditMinCutFailure, FiresOnCorruptedEdgeFlow) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  // Push the first source edge's flow above its capacity.
  network.adjacency(0)[0].residual =
      network.adjacency(0)[0].capacity + 1.0;
  EXPECT_FALSE(AuditFlowConservation(network, 0, 3, flow).ok);
  EXPECT_FALSE(AuditMinCut(network, 0, 3, flow).ok);
}

TEST(AuditMinCutFailure, FiresOnNonMaximumFlow) {
  double flow = 0.0;
  FlowNetwork network = SolvedDiamond(&flow);
  // Zero flow conserves trivially, but the sink is residual-reachable,
  // so the cut audit must reject it (Lemma 7).
  network.ResetFlow();
  EXPECT_TRUE(AuditFlowConservation(network, 0, 3, 0.0).ok);
  EXPECT_FALSE(AuditMinCut(network, 0, 3, 0.0).ok);
}

TEST(AuditMinCutFailure, FiresOnInfiniteCutEdge) {
  // One saturated "infinite" edge: with infinity_threshold below its
  // capacity, the Lemma 18 check must reject the cut.
  FlowNetwork network(2);
  network.AddEdge(0, 1, 50.0);
  const auto solver = CreateMaxFlowSolver(MaxFlowAlgorithm::kDinic);
  const double flow = solver->Solve(network, 0, 1);
  FlowAuditOptions options;
  EXPECT_TRUE(AuditMinCut(network, 0, 1, flow, options).ok);
  options.infinity_threshold = 10.0;
  EXPECT_FALSE(AuditMinCut(network, 0, 1, flow, options).ok);
}

// ---------------------------------------------------------------------
// AuditChainDecomposition.

PointSet StaircasePoints() {
  PointSet points;
  points.Add(Point({0.0, 1.0}));
  points.Add(Point({1.0, 0.0}));
  points.Add(Point({1.0, 1.0}));
  points.Add(Point({2.0, 2.0}));
  return points;
}

TEST(AuditChainFailure, HonestDecompositionAudits) {
  const PointSet points = StaircasePoints();
  const ChainDecomposition decomposition = MinimumChainDecomposition(points);
  EXPECT_TRUE(
      AuditChainDecomposition(points, decomposition, /*expect_minimum=*/true)
          .ok);
}

TEST(AuditChainFailure, FiresOnIncomparablePointsInOneChain) {
  const PointSet points = StaircasePoints();
  // Points 0 = (0,1) and 1 = (1,0) are incomparable: a chain holding
  // both violates the dominance-order requirement.
  ChainDecomposition corrupt;
  corrupt.chains = {{0, 1}, {2, 3}};
  const AuditResult result =
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditChainFailure, FiresOnDroppedPoint) {
  const PointSet points = StaircasePoints();
  ChainDecomposition corrupt = MinimumChainDecomposition(points);
  corrupt.chains.back().pop_back();  // a point now appears in no chain
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
}

TEST(AuditChainFailure, FiresOnDuplicatedPoint) {
  const PointSet points = StaircasePoints();
  ChainDecomposition corrupt = MinimumChainDecomposition(points);
  corrupt.chains.push_back({3});  // point 3 now covered twice
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
}

TEST(AuditChainFailure, FiresOnNonMinimumClaim) {
  const PointSet points = StaircasePoints();
  // Width is 2 ((0,1) vs (1,0)); four singleton chains are a valid
  // decomposition but not a minimum one.
  ChainDecomposition corrupt;
  corrupt.chains = {{0}, {1}, {2}, {3}};
  EXPECT_TRUE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/false).ok);
  EXPECT_FALSE(
      AuditChainDecomposition(points, corrupt, /*expect_minimum=*/true).ok);
}

// ---------------------------------------------------------------------
// AuditIncrementalCut.

// Two conflicting 1D points (the label-1 point is dominated by the
// label-0 point), so the repaired network carries positive flow.
IncrementalPassiveSolver ConflictedSolver() {
  IncrementalPassiveSolver solver;
  solver.Insert(Point({0.25}), 1, 1.0);
  solver.Insert(Point({0.75}), 0, 2.0);
  solver.Insert(Point({1.25}), 1, 1.5);
  return solver;
}

TEST(AuditIncrementalFailure, HonestRepairAudits) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  EXPECT_GT(solver.FlowValue(), 0.0);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(AuditIncrementalFailure, FiresOnCorruptedFlowValue) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  solver.Solve();  // cache the honest result before corrupting
  IncrementalSolverTestPeer::flow_value(solver) += 0.5;
  const AuditResult result = solver.AuditIncrementalCut();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failure.empty());
}

TEST(AuditIncrementalFailure, FiresOnCorruptedNetworkResidual) {
  IncrementalPassiveSolver solver = ConflictedSolver();
  solver.Solve();
  // Overfill the first edge out of the source (vertex 0): flow above
  // capacity breaks conservation inside the cut audit.
  FlowNetwork& network = IncrementalSolverTestPeer::network(solver);
  ASSERT_FALSE(network.adjacency(0).empty());
  network.adjacency(0)[0].residual =
      network.adjacency(0)[0].capacity + 1.0;
  EXPECT_FALSE(solver.AuditIncrementalCut().ok);
}

// ---------------------------------------------------------------------
// Scenario codec roundtrip (audit_fuzz artifact <-> fuzz_incremental).

TEST(ScenarioCodec, RoundTripsThroughEncode) {
  // Arbitrary bytes -> scenario -> bytes -> scenario must be a semantic
  // fixpoint after one decode (the decoder quantizes onto its grids).
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 96; ++i) {
    bytes.push_back(static_cast<uint8_t>(31 * i + 7));
  }
  fuzz::FuzzInput in(bytes.data(), bytes.size());
  const fuzz::IncrementalScenario first = fuzz::DecodeIncrementalScenario(in);

  const std::vector<uint8_t> encoded = fuzz::EncodeIncrementalScenario(first);
  fuzz::FuzzInput in2(encoded.data(), encoded.size());
  const fuzz::IncrementalScenario second =
      fuzz::DecodeIncrementalScenario(in2);

  EXPECT_EQ(first.threads, second.threads);
  EXPECT_EQ(first.dimension, second.dimension);
  ASSERT_EQ(first.initial.size(), second.initial.size());
  for (size_t i = 0; i < first.initial.size(); ++i) {
    EXPECT_EQ(first.initial[i].coords, second.initial[i].coords);
    EXPECT_EQ(first.initial[i].label, second.initial[i].label);
    EXPECT_DOUBLE_EQ(first.initial[i].weight, second.initial[i].weight);
  }
  ASSERT_EQ(first.deltas.size(), second.deltas.size());
  for (size_t i = 0; i < first.deltas.size(); ++i) {
    EXPECT_EQ(first.deltas[i].kind, second.deltas[i].kind);
    EXPECT_EQ(first.deltas[i].coords, second.deltas[i].coords);
    EXPECT_EQ(first.deltas[i].label, second.deltas[i].label);
    EXPECT_DOUBLE_EQ(first.deltas[i].weight, second.deltas[i].weight);
    EXPECT_EQ(first.deltas[i].rank, second.deltas[i].rank);
  }
}

TEST(ScenarioCodec, ReplayAcceptsHonestStreams) {
  // The differential replay itself must accept a small honest stream
  // (it is the oracle both fuzz_incremental and audit_fuzz trust).
  fuzz::IncrementalScenario scenario;
  scenario.threads = 2;
  scenario.dimension = 1;
  scenario.initial.push_back({.coords = {0.25}, .label = 1, .weight = 1.0});
  scenario.initial.push_back({.coords = {0.75}, .label = 0, .weight = 2.0});
  fuzz::ScenarioDelta insert;
  insert.kind = 0;
  insert.coords = {0.5};
  insert.label = 1;
  insert.weight = 0.5;
  scenario.deltas.push_back(insert);
  fuzz::ScenarioDelta erase;
  erase.kind = 1;
  erase.rank = 1;
  scenario.deltas.push_back(erase);
  EXPECT_EQ(fuzz::ReplayIncrementalScenario(scenario), "");
}

}  // namespace
}  // namespace monoclass
