// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Theorem 4: exact passive weighted monotone classification in
// O(d n^2) + T_maxflow(n) time.
//
// Pipeline (paper Section 5.1):
//   1. restrict to the contending points P^con (Lemma 15);
//   2. build the flow network -- source -> each label-0 point with
//      capacity weight(p); each label-1 point -> sink with capacity
//      weight(q); an "infinite" edge p -> q for every contending pair
//      with label-0 p dominating label-1 q (routed through chain relays
//      from kSparseNetworkMinContending points up, with the same min cut;
//      passive/sparse_network.h);
//   3. compute a maximum flow; by max-flow min-cut (Lemmas 7-8) the
//      residual-unreachable side reads off a minimum cut-edge set, which
//      never contains an infinite edge (Lemma 18);
//   4. the classifier h*_cut assigns 1 to exactly the points NOT
//      residual-reachable from the source; it is monotone (Lemma 16) and
//      optimal (Lemma 17); non-contending points keep their own labels.

#ifndef MONOCLASS_PASSIVE_FLOW_SOLVER_H_
#define MONOCLASS_PASSIVE_FLOW_SOLVER_H_

#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "graph/max_flow.h"
#include "passive/sparse_network.h"
#include "util/concurrency.h"

namespace monoclass {

struct PassiveSolveOptions {
  // Which max-flow algorithm powers step 3.
  MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic;
  // When false, skips the Lemma 15 reduction and builds the network over
  // all points (ablation knob for bench_passive_scaling; the answer is
  // identical, the network is just larger).
  bool reduce_to_contending = true;
  // Parallelism for the O(n^2) phases: the contending scan and the
  // network construction. Both are row-partitioned with
  // per-shard buffers concatenated in shard order, so the network (and
  // hence the classifier) is bit-identical to the serial build at any
  // thread count. threads = 1 forces the exact serial path; 0 =
  // hardware concurrency. The max-flow solve itself stays serial.
  ParallelOptions parallel;
};

struct PassiveSolveResult {
  MonotoneClassifier classifier;
  // The optimal weighted error w-err_P(h*) -- equals the max-flow value.
  double optimal_weighted_error = 0.0;
  // The explicit optimal 0/1 assignment over the input points.
  std::vector<Label> assignment;

  // Diagnostics for the experiment harnesses. Relay/chain counts are
  // zero for a dense build; network_infinite_edges counts dominating
  // pairs when dense and relay-routed edges when sparse.
  size_t num_contending = 0;
  size_t network_vertices = 0;
  size_t network_finite_edges = 0;
  size_t network_infinite_edges = 0;
  size_t network_relays = 0;
  size_t network_chains = 0;
  bool used_sparse_network = false;
  double flow_value = 0.0;
};

// The effective infinity for type-3 (dominance) edges: one unit above the
// total weight, so no minimum cut can afford one (Lemma 18). Shared by the
// cold solver and the incremental solver so both networks are built to the
// same threshold.
double PassiveInfiniteCapacity(const WeightedPointSet& set);

// Steps the solver pipeline from an optimal 0/1 assignment to a finished
// result: builds the monotone classifier through the Lemma 16
// certificate, which also proves the classifier equals the assignment on
// every point; sums the weighted error of the assignment, and
// cross-checks it against result.flow_value (Lemmas 15/17) within the
// solver's tolerance.
// `result.assignment` and `result.flow_value` must be populated. Shared
// with passive/incremental_solver.h, which is what makes the warm path's
// classifier construction bit-identical to the cold solver's.
void FinalizePassiveResult(const WeightedPointSet& set,
                           PassiveSolveResult& result);

// Steps 3-4 of the pipeline on a network built over `active` by either
// builder of passive/sparse_network.h: max flow, the residual-
// reachability cut, the assignment (h*_cut on `active`, every other
// point keeps its own label) and FinalizePassiveResult. `active` may be
// the contending set or any superset of it (Lemma 15); num_contending
// is reported as active.size(). SolvePassiveWeighted calls it with the
// build it picks; tests and benches call it with either build to
// compare them.
PassiveSolveResult SolvePassiveOnNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    SparseNetworkPlan plan,
    MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic);

// Solves Problem 2 exactly: the contending scan, the dense network build
// below kSparseNetworkMinContending active points and the chain-relay
// build at or above it, then SolvePassiveOnNetwork. Requires a non-empty
// input.
PassiveSolveResult SolvePassiveWeighted(
    const WeightedPointSet& set, const PassiveSolveOptions& options = {});

// Convenience for unweighted inputs: returns an optimal classifier and k*.
PassiveSolveResult SolvePassiveUnweighted(
    const LabeledPointSet& set, const PassiveSolveOptions& options = {});

// The optimal error k* of eq. (2), computed via the flow solver.
size_t OptimalError(const LabeledPointSet& set);

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_FLOW_SOLVER_H_
