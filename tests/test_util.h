// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Shared helpers for the test suite: small random instance generators and
// brute-force reference implementations used to cross-check the library's
// polynomial algorithms.

#ifndef MONOCLASS_TESTS_TEST_UTIL_H_
#define MONOCLASS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "graph/graph.h"
#include "graph/max_flow.h"
#include "passive/flow_solver.h"
#include "passive/sparse_network.h"
#include "util/concurrency.h"
#include "util/random.h"

namespace monoclass {
namespace testing_util {

// A random flow instance description that can be replayed into a
// FlowNetwork (solvers mutate networks, so tests rebuild per solver).
struct FlowInstance {
  int num_vertices = 2;
  int source = 0;
  int sink = 1;
  struct EdgeSpec {
    int from;
    int to;
    double capacity;
  };
  std::vector<EdgeSpec> edges;

  FlowNetwork Build() const {
    FlowNetwork network(num_vertices);
    for (const auto& e : edges) network.AddEdge(e.from, e.to, e.capacity);
    return network;
  }
};

// Random directed graph with `num_vertices` vertices and ~`num_edges`
// random-capacity edges (integer capacities to avoid float ambiguity in
// brute-force comparisons).
FlowInstance RandomFlowInstance(Rng& rng, int num_vertices, int num_edges,
                                double max_capacity = 10.0);

// Exponential-time minimum source-sink cut by enumerating all vertex
// bipartitions; usable for num_vertices <= ~16.
double BruteForceMinCut(const FlowInstance& instance);

// Random bipartite graph with edge probability `p`.
BipartiteGraph RandomBipartite(Rng& rng, int num_left, int num_right,
                               double p);

// Exponential-time maximum matching via subset enumeration of right
// vertices is too slow; instead uses the max-flow reduction with the
// already-tested Dinic solver? No -- tests must be independent, so this
// uses an O(2^E)-free augmenting search: Kuhn's algorithm is itself the
// independent oracle in matching tests. This helper instead verifies that
// a claimed matching is valid (edges exist, no vertex reused).
bool IsValidMatching(const BipartiteGraph& graph, const Matching& matching);

// Checks a vertex cover covers every edge.
bool IsValidVertexCover(const BipartiteGraph& graph,
                        const std::vector<bool>& left,
                        const std::vector<bool>& right);

// Random labeled points in [0, 1]^d with iid Bernoulli(positive_rate)
// labels (no planted structure; adversarial-ish for the solvers).
LabeledPointSet RandomLabeledSet(Rng& rng, size_t n, size_t d,
                                 double positive_rate = 0.5);

// Random weighted points with weights uniform in [0.5, max_weight].
WeightedPointSet RandomWeightedSet(Rng& rng, size_t n, size_t d,
                                   double positive_rate = 0.5,
                                   double max_weight = 5.0);

// BuildDenseDominanceNetwork or BuildSparseChainRelayNetwork (one
// signature).
using NetworkBuilder = decltype(&BuildDenseDominanceNetwork);

// Exact passive solve of `set` through the network `build` makes over
// the contending points, whichever build SolvePassiveWeighted would pick
// at this size -- the way to pin one builder and diff it against the
// other.
PassiveSolveResult SolvePassiveWith(
    NetworkBuilder build, const WeightedPointSet& set,
    MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic,
    const ParallelOptions& parallel = {});

}  // namespace testing_util
}  // namespace monoclass

#endif  // MONOCLASS_TESTS_TEST_UTIL_H_
