// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The incremental solver's central contract: after every
// Insert/Erase/Relabel delta the repaired solution is bit-identical to a
// cold SolvePassive on the current snapshot -- same assignment, same
// optimal weighted error, same classifier -- across dimensions, thread
// counts (determinism contract) and adversarial delta mixes, with
// AuditIncrementalCut() proving the repaired cut from first principles.

#include "passive/incremental_solver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/antichain.h"
#include "core/chain_decomposition.h"
#include "core/dataset.h"
#include "data/synthetic.h"
#include "incremental_solver_test_peer.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/sparse_network.h"
#include "test_util.h"
#include "util/random.h"

namespace monoclass {
namespace {

// Compares the warm solution with a cold solve of the solver's current
// snapshot: SolvePassiveWeighted, or the network `build` makes when one
// is given.
void ExpectMatchesCold(IncrementalPassiveSolver& solver,
                       const std::string& context,
                       testing_util::NetworkBuilder build = nullptr) {
  const WeightedPointSet snapshot = solver.Snapshot();
  const PassiveSolveResult cold =
      build == nullptr ? SolvePassiveWeighted(snapshot)
                       : testing_util::SolvePassiveWith(build, snapshot);
  const PassiveSolveResult& warm = solver.Solve();
  ASSERT_EQ(warm.assignment, cold.assignment) << context;
  EXPECT_EQ(warm.optimal_weighted_error, cold.optimal_weighted_error)
      << context;
  EXPECT_EQ(warm.num_contending, cold.num_contending) << context;
  EXPECT_EQ(warm.classifier.ClassifySet(snapshot.points()),
            cold.classifier.ClassifySet(snapshot.points()))
      << context;
}

// A coarse-grid random point: collisions (duplicates, ties) are common,
// which is the adversarial regime for chain splicing and relay retargets.
Point GridPoint(Rng& rng, size_t d) {
  std::vector<double> coords(d);
  for (auto& c : coords) {
    c = static_cast<double>(rng.UniformInt(8)) / 4.0;
  }
  return Point(std::move(coords));
}

TEST(IncrementalSolverTest, RandomDeltaSequencesMatchColdSolve) {
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      Rng rng(1000 * d + threads);
      WeightedPointSet initial;
      for (int i = 0; i < 24; ++i) {
        initial.Add(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0,
                    rng.UniformDoubleInRange(0.5, 4.0));
      }
      IncrementalSolveOptions options;
      options.parallel.threads = threads;
      IncrementalPassiveSolver solver(initial, options);
      for (int step = 0; step < 60; ++step) {
        const uint64_t op = rng.UniformInt(10);
        const std::vector<size_t> live = solver.LiveIds();
        if (op < 4 || live.empty()) {
          solver.Insert(GridPoint(rng, d), rng.Bernoulli(0.5) ? 1 : 0,
                        rng.UniformDoubleInRange(0.5, 4.0));
        } else if (op < 7) {
          solver.Erase(live[rng.UniformInt(live.size())]);
        } else {
          solver.Relabel(live[rng.UniformInt(live.size())],
                         rng.Bernoulli(0.5) ? 1 : 0);
        }
        const std::string context = "d=" + std::to_string(d) +
                                    " threads=" + std::to_string(threads) +
                                    " step=" + std::to_string(step);
        ExpectMatchesCold(solver, context);
        if (step % 10 == 9) {
          const AuditResult audit = solver.AuditIncrementalCut();
          EXPECT_TRUE(audit.ok) << context << ": " << audit.failure;
        }
      }
      // No-op relabels (same label) don't count as deltas.
      EXPECT_LE(solver.stats().deltas, 60u);
      EXPECT_GT(solver.stats().deltas, 0u);
    }
  }
}

TEST(IncrementalSolverTest, MatchesColdSparseBuildToo) {
  // The cold reference above mostly routes dense (small n); pin the
  // sparse chain-relay cold build explicitly as a second oracle.
  Rng rng(77);
  WeightedPointSet initial;
  for (int i = 0; i < 30; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                rng.UniformDoubleInRange(0.5, 3.0));
  }
  IncrementalPassiveSolver solver(initial, {});
  for (int step = 0; step < 25; ++step) {
    const std::vector<size_t> live = solver.LiveIds();
    if (step % 3 == 0 || live.empty()) {
      solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
    } else if (step % 3 == 1) {
      solver.Erase(live[rng.UniformInt(live.size())]);
    } else {
      solver.Relabel(live[rng.UniformInt(live.size())],
                     rng.Bernoulli(0.5) ? 1 : 0);
    }
    ExpectMatchesCold(solver, "step=" + std::to_string(step),
                      BuildSparseChainRelayNetwork);
  }
}

TEST(IncrementalSolverTest, DeterministicAcrossThreadCounts) {
  // The same delta sequence must produce the same assignment at every
  // checkpoint regardless of thread count (the determinism contract:
  // sharded scans merge in shard order).
  std::vector<std::vector<Label>> reference;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Rng rng(4242);  // same stream for every thread count
    WeightedPointSet initial;
    for (int i = 0; i < 20; ++i) {
      initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 4.0));
    }
    IncrementalSolveOptions options;
    options.parallel.threads = threads;
    IncrementalPassiveSolver solver(initial, options);
    std::vector<std::vector<Label>> checkpoints;
    for (int step = 0; step < 40; ++step) {
      const std::vector<size_t> live = solver.LiveIds();
      const uint64_t op = rng.UniformInt(3);
      if (op == 0 || live.empty()) {
        solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                      rng.UniformDoubleInRange(0.5, 4.0));
      } else if (op == 1) {
        solver.Erase(live[rng.UniformInt(live.size())]);
      } else {
        solver.Relabel(live[rng.UniformInt(live.size())],
                       rng.Bernoulli(0.5) ? 1 : 0);
      }
      checkpoints.push_back(solver.Solve().assignment);
    }
    if (reference.empty()) {
      reference = checkpoints;
    } else {
      EXPECT_EQ(checkpoints, reference) << "threads=" << threads;
    }
  }
}

TEST(IncrementalSolverTest, EraseToEmptyAndRegrow) {
  Rng rng(55);
  WeightedPointSet initial;
  for (int i = 0; i < 10; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
  }
  IncrementalPassiveSolver solver(initial, {});
  while (solver.LiveSize() > 0) {
    const std::vector<size_t> live = solver.LiveIds();
    solver.Erase(live[rng.UniformInt(live.size())]);
    if (solver.LiveSize() > 0) {
      ExpectMatchesCold(solver, "shrinking");
    }
  }
  EXPECT_EQ(solver.Solve().assignment.size(), 0u);
  EXPECT_EQ(solver.Solve().optimal_weighted_error, 0.0);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
  for (int i = 0; i < 12; ++i) {
    solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 2.0));
    ExpectMatchesCold(solver, "regrow step " + std::to_string(i));
  }
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, RelabelOnlyStream) {
  // Label corrections without structural churn: the dominant serving
  // delta. Includes no-op relabels (same label), which must not count as
  // deltas or perturb the network.
  Rng rng(66);
  WeightedPointSet initial;
  for (int i = 0; i < 25; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0,
                rng.UniformDoubleInRange(0.5, 4.0));
  }
  IncrementalPassiveSolver solver(initial, {});
  const uint64_t before = solver.stats().deltas;
  for (int step = 0; step < 50; ++step) {
    const std::vector<size_t> live = solver.LiveIds();
    solver.Relabel(live[rng.UniformInt(live.size())],
                   rng.Bernoulli(0.5) ? 1 : 0);
    ExpectMatchesCold(solver, "relabel step " + std::to_string(step));
  }
  EXPECT_LE(solver.stats().deltas - before, 50u);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, AggressiveCompactionStaysCorrect) {
  // A long insert/erase churn piles up deactivated edges until they pass
  // kCompactMinDeadEdges and kCompactDeadEdgeRatio of the stored ones:
  // the compacted state must keep matching cold solves (and the conflict
  // counters must survive rebuilds, which the rebuild audits under
  // MONOCLASS_AUDIT). The live size stays at 24-25 unit-weight points,
  // so the infinite-capacity headroom (2W + 1) never runs out and every
  // rebuild after the bulk load is a compaction.
  Rng rng(88);
  WeightedPointSet initial;
  for (int i = 0; i < 24; ++i) {
    initial.Add(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0, 1.0);
  }
  IncrementalPassiveSolver solver(initial);
  const uint64_t bulk_load_rebuilds = solver.stats().rebuilds;
  for (int step = 0; step < 240; ++step) {
    const std::vector<size_t> live = solver.LiveIds();
    if (step % 2 == 0) {
      solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
    } else {
      solver.Erase(live[rng.UniformInt(live.size())]);
    }
    ExpectMatchesCold(solver, "compacting step " + std::to_string(step));
  }
  EXPECT_GT(solver.stats().rebuilds, bulk_load_rebuilds);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, InfinityHeadroomGrowsWithHeavyInserts) {
  // Inserting weight far beyond the initial total forces the infinity
  // threshold (Lemma 18) to be re-provisioned via rebuild.
  WeightedPointSet initial;
  initial.Add(Point{0.0, 0.0}, 1, 1.0);
  initial.Add(Point{1.0, 1.0}, 0, 1.0);
  IncrementalPassiveSolver solver(initial, {});
  const uint64_t rebuilds_before = solver.stats().rebuilds;
  solver.Insert(Point{0.5, 0.5}, 1, 1000.0);
  solver.Insert(Point{2.0, 2.0}, 0, 500.0);
  EXPECT_GT(solver.stats().rebuilds, rebuilds_before);
  ExpectMatchesCold(solver, "after heavy inserts");
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, StartsEmptyAndGrows) {
  IncrementalPassiveSolver solver;
  EXPECT_EQ(solver.LiveSize(), 0u);
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
  const size_t a = solver.Insert(Point{1.0, 1.0}, 1, 3.0);
  const size_t b = solver.Insert(Point{1.0, 1.0}, 0, 1.0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Duplicate pair with conflicting labels: the cheaper side loses.
  const PassiveSolveResult& result = solver.Solve();
  EXPECT_EQ(result.optimal_weighted_error, 1.0);
  EXPECT_EQ(result.assignment, (std::vector<Label>{1, 1}));
  ExpectMatchesCold(solver, "duplicate pair");
  solver.Erase(a);
  EXPECT_EQ(solver.Solve().optimal_weighted_error, 0.0);
  EXPECT_FALSE(solver.IsLive(a));
  EXPECT_TRUE(solver.IsLive(b));
  EXPECT_TRUE(solver.AuditIncrementalCut().ok);
}

TEST(IncrementalSolverTest, StatsAndDiagnosticsTrackDeltas) {
  Rng rng(99);
  IncrementalPassiveSolver solver;
  for (int i = 0; i < 15; ++i) {
    solver.Insert(GridPoint(rng, 2), rng.Bernoulli(0.5) ? 1 : 0);
  }
  const size_t flip = solver.Insert(GridPoint(rng, 2), 0);
  const std::vector<size_t> live = solver.LiveIds();
  solver.Erase(live[3]);
  solver.Relabel(flip, 1);
  const IncrementalStats& stats = solver.stats();
  EXPECT_EQ(stats.inserts, 16u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(stats.relabels, 1u);
  EXPECT_EQ(stats.deltas, 18u);
  EXPECT_EQ(solver.NumRelays(),
            solver.Solve().network_relays);
  ExpectMatchesCold(solver, "after stats stream");
}

// The cold builder's network over the solver's current contending set
// (Lemma 15's predicate recomputed on the snapshot), at the solver's own
// infinite capacity.
SparseNetworkPlan ColdPlan(const IncrementalPassiveSolver& solver) {
  const WeightedPointSet snapshot = solver.Snapshot();
  const std::vector<size_t> active =
      ComputeContending(snapshot.points(), snapshot.labels()).contending;
  return BuildSparseChainRelayNetwork(
      snapshot, active, IncrementalSolverTestPeer::infinity(solver));
}

// Edge for edge: the same vertex count and, per vertex, the same
// adjacency list -- head, reverse index, capacity, and residual once
// both flows are reset.
void ExpectSameNetwork(FlowNetwork warm, FlowNetwork cold,
                       const std::string& context) {
  warm.ResetFlow();
  cold.ResetFlow();
  ASSERT_EQ(warm.NumVertices(), cold.NumVertices()) << context;
  for (int v = 0; v < warm.NumVertices(); ++v) {
    const auto& a = warm.adjacency(v);
    const auto& b = cold.adjacency(v);
    ASSERT_EQ(a.size(), b.size()) << context << ", vertex " << v;
    for (size_t e = 0; e < a.size(); ++e) {
      ASSERT_EQ(a[e].to, b[e].to) << context << ", edge " << v << ":" << e;
      ASSERT_EQ(a[e].rev, b[e].rev) << context << ", edge " << v << ":" << e;
      ASSERT_EQ(a[e].capacity, b[e].capacity)
          << context << ", edge " << v << ":" << e;
      ASSERT_EQ(a[e].residual, b[e].residual)
          << context << ", edge " << v << ":" << e;
    }
  }
}

// Bulk load, then a forced compaction after a burst of deltas: both
// networks must be the cold builder's, edge for edge.
void ExpectBuilderNetworkAcrossCompaction(const WeightedPointSet& initial,
                                          Rng& rng,
                                          const std::string& context) {
  IncrementalPassiveSolver solver(initial);
  ExpectSameNetwork(IncrementalSolverTestPeer::network(solver),
                    ColdPlan(solver).network, context + " bulk load");
  const size_t d = initial.dimension();
  for (int step = 0; step < 30; ++step) {
    std::vector<double> coords(d);
    for (double& c : coords) c = rng.UniformDouble();
    solver.Insert(Point(std::move(coords)), rng.Bernoulli(0.5) ? 1 : 0,
                  rng.UniformDoubleInRange(0.5, 2.0));
    const std::vector<size_t> live = solver.LiveIds();
    solver.Erase(live[rng.UniformInt(live.size())]);
    const size_t id = live[rng.UniformInt(live.size())];
    if (solver.IsLive(id)) {
      solver.Relabel(id, rng.Bernoulli(0.5) ? 1 : 0);
    }
  }
  IncrementalSolverTestPeer::Compact(solver);
  ExpectSameNetwork(IncrementalSolverTestPeer::network(solver),
                    ColdPlan(solver).network, context + " compaction");
  EXPECT_TRUE(solver.AuditIncrementalCut().ok) << context;
}

TEST(IncrementalSolverTest, RebuildLaysDownTheColdBuildersNetwork) {
  for (const size_t d : {size_t{2}, size_t{3}, size_t{4}}) {
    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      const PlantedInstance planted = GeneratePlanted(
          {.num_points = 1500, .dimension = d, .noise_flips = 150,
           .seed = seed});
      Rng rng(seed);
      WeightedPointSet initial;
      for (size_t i = 0; i < planted.data.size(); ++i) {
        initial.Add(planted.data.point(i), planted.data.label(i),
                    rng.UniformDoubleInRange(0.5, 3.0));
      }
      ExpectBuilderNetworkAcrossCompaction(
          initial, rng,
          "d=" + std::to_string(d) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(IncrementalSolverTest, RebuildMatchesBuilderAcrossExactMatchingLimit) {
  // More contending points than kSparseExactMatchingLimit, but not more
  // label-1 ones: decomposing every contending point would fall back to
  // first-fit, decomposing the label-1 side stays exact.
  Rng rng(2048);
  const WeightedPointSet initial =
      testing_util::RandomWeightedSet(rng, 2600, 3, /*positive_rate=*/0.45);
  const std::vector<size_t> contending =
      ComputeContending(initial.points(), initial.labels()).contending;
  size_t ones = 0;
  for (const size_t i : contending) ones += initial.label(i);
  ASSERT_GT(contending.size(), kSparseExactMatchingLimit);
  ASSERT_LE(ones, kSparseExactMatchingLimit);
  ExpectBuilderNetworkAcrossCompaction(initial, rng, "d=3 n=2600");
}

TEST(IncrementalSolverTest, ChainsAreAMinimumDecompositionOfLabelOneIn2D) {
  for (const uint64_t seed : {uint64_t{3}, uint64_t{4}}) {
    const PlantedInstance planted = GeneratePlanted(
        {.num_points = 2000, .dimension = 2, .noise_flips = 200,
         .seed = seed});
    const WeightedPointSet initial =
        WeightedPointSet::UnitWeights(planted.data);
    IncrementalPassiveSolver solver(initial);
    std::vector<size_t> ones;
    for (const size_t i :
         ComputeContending(initial.points(), initial.labels()).contending) {
      if (initial.label(i) == 1) ones.push_back(i);
    }
    const size_t width = DominanceWidth(initial.points().Subset(ones));
    EXPECT_EQ(solver.Solve().network_chains, width) << "seed=" << seed;
    EXPECT_EQ(ColdPlan(solver).num_chains, width) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace monoclass
