// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/flow_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/invariant_audit.h"
#include "graph/flow_audit.h"
#include "obs/obs.h"
#include "passive/contending.h"
#include "util/audit.h"

namespace monoclass {
namespace {

// Relative tolerance for the flow-value vs. classifier-error cross-check.
constexpr double kErrorCheckTolerance = 1e-6;

}  // namespace

double PassiveInfiniteCapacity(const WeightedPointSet& set) {
  return set.TotalWeight() + 1.0;
}

void FinalizePassiveResult(const WeightedPointSet& set,
                           PassiveSolveResult& result) {
  auto classifier =
      MonotoneClassifier::FromAssignment(set.points(), result.assignment);
  MC_CHECK(classifier.has_value())
      << "Lemma 16 violated: cut classifier is not monotone";
  result.classifier = *std::move(classifier);

  // Cross-check Lemma 17 + Lemma 15: the classifier's weighted error on the
  // full set equals the max-flow (= min-cut) value.
  result.optimal_weighted_error = WeightedError(result.classifier, set);
  MC_CHECK_LE(std::abs(result.optimal_weighted_error - result.flow_value),
              kErrorCheckTolerance * std::max(1.0, result.flow_value))
      << "flow value disagrees with classifier error";
  MC_AUDIT(AuditMonotone(result.classifier, set.points()));
}

PassiveSolveResult SolvePassiveOnNetwork(const WeightedPointSet& set,
                                         const std::vector<size_t>& active,
                                         SparseNetworkPlan plan,
                                         MaxFlowAlgorithm algorithm) {
  const int source = 0;
  const int sink = 1;
  PassiveSolveResult result{.classifier =
                                MonotoneClassifier::AlwaysZero(set.dimension())};
  result.num_contending = active.size();
  result.used_sparse_network = plan.relay_begin >= 0;
  result.network_vertices = static_cast<size_t>(plan.network.NumVertices());
  result.network_finite_edges = plan.finite_edges;
  result.network_infinite_edges = plan.infinite_edges;
  result.network_relays = plan.num_relays;
  result.network_chains = plan.num_chains;
  if (result.used_sparse_network) {
    MC_COUNTER("mc.net.sparse_builds", 1);
    MC_COUNTER("mc.net.relays", result.network_relays);
    MC_COUNTER("mc.net.chains", result.network_chains);
  } else {
    MC_COUNTER("mc.net.dense_builds", 1);
  }
  MC_COUNTER("mc.net.vertices", result.network_vertices);
  MC_COUNTER("mc.net.finite_edges", result.network_finite_edges);
  MC_COUNTER("mc.net.infinite_edges", result.network_infinite_edges);

  // Step 3: max flow and the residual-reachability cut.
  FlowNetwork& network = plan.network;
  {
    MC_SPAN("passive/maxflow");
    result.flow_value =
        CreateMaxFlowSolver(algorithm)->Solve(network, source, sink);
  }
  MC_HISTOGRAM("passive.flow_value", result.flow_value);
  MC_AUDIT(AuditMinCut(network, source, sink, result.flow_value,
                       {.infinity_threshold = PassiveInfiniteCapacity(set),
                        .relay_vertex_begin = plan.relay_begin}));
  MC_SPAN("passive/extract_cut");
  const std::vector<bool> reachable = ResidualReachable(network, source);

  // Step 4: h*_cut(p) = 1 iff p's vertex is NOT residual-reachable. For a
  // label-0 point that means its source edge is in the cut (mis-classified
  // as 1); for a label-1 point reachability means its sink edge is in the
  // cut (mis-classified as 0). Non-active points keep their own labels
  // (the h' construction in the proof of Lemma 15).
  result.assignment = set.labels();
  for (size_t k = 0; k < active.size(); ++k) {
    const bool positive = !reachable[k + 2];
    result.assignment[active[k]] = positive ? 1 : 0;
  }

  FinalizePassiveResult(set, result);
  return result;
}

PassiveSolveResult SolvePassiveWeighted(const WeightedPointSet& set,
                                        const PassiveSolveOptions& options) {
  MC_CHECK(!set.empty());
  const size_t n = set.size();
  MC_SPAN("passive/solve");
  MC_LATENCY("mc.lat.passive_solve");
  MC_HISTOGRAM("passive.points", n);

  // Step 1: the point indices that participate in the network.
  std::vector<size_t> active;
  {
    MC_SPAN("passive/contending");
    active = ComputeContending(set.points(), set.labels(), options.parallel)
                 .contending;
  }
  const size_t num_contending = active.size();
  MC_HISTOGRAM("passive.contending_points", num_contending);
  MC_GAUGE("passive.contending_fraction",
           static_cast<double>(num_contending) / static_cast<double>(n));
  if (!options.reduce_to_contending) {
    active.resize(n);
    std::iota(active.begin(), active.end(), size_t{0});
  }

  // Step 2: build the network. Vertex 0 = source, 1 = sink, 2 + k = the
  // k-th active point. Type-3 edges get an effective infinity: one unit
  // above the total weight, so no minimum cut can afford one (Lemma 18).
  // Both builders produce the identical min cut and the identical
  // classifier (docs/sparse_network.md); the relay build pays off only
  // on large networks.
  const double infinite_capacity = PassiveInfiniteCapacity(set);
  SparseNetworkPlan plan =
      active.size() >= kSparseNetworkMinContending
          ? BuildSparseChainRelayNetwork(set, active, infinite_capacity,
                                         options.parallel)
          : BuildDenseDominanceNetwork(set, active, infinite_capacity,
                                       options.parallel);

  // Steps 3-4.
  PassiveSolveResult result =
      SolvePassiveOnNetwork(set, active, std::move(plan), options.algorithm);
  result.num_contending = num_contending;
  return result;
}

PassiveSolveResult SolvePassiveUnweighted(const LabeledPointSet& set,
                                          const PassiveSolveOptions& options) {
  return SolvePassiveWeighted(WeightedPointSet::UnitWeights(set), options);
}

size_t OptimalError(const LabeledPointSet& set) {
  if (set.empty()) return 0;
  const PassiveSolveResult result = SolvePassiveUnweighted(set);
  return static_cast<size_t>(result.optimal_weighted_error + 0.5);
}

}  // namespace monoclass
