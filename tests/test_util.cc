// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "test_util.h"

#include <algorithm>
#include <limits>

#include "passive/contending.h"

namespace monoclass {
namespace testing_util {

FlowInstance RandomFlowInstance(Rng& rng, int num_vertices, int num_edges,
                                double max_capacity) {
  MC_CHECK_GE(num_vertices, 2);
  FlowInstance instance;
  instance.num_vertices = num_vertices;
  instance.source = 0;
  instance.sink = num_vertices - 1;
  for (int e = 0; e < num_edges; ++e) {
    const int from = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    int to = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(num_vertices)));
    if (from == to) continue;  // skip self-loops; slightly fewer edges is fine
    if (to == instance.source || from == instance.sink) continue;
    const double capacity =
        static_cast<double>(1 + rng.UniformInt(
                                    static_cast<uint64_t>(max_capacity)));
    instance.edges.push_back({from, to, capacity});
  }
  return instance;
}

double BruteForceMinCut(const FlowInstance& instance) {
  const int n = instance.num_vertices;
  MC_CHECK_LE(n, 20);
  double best = std::numeric_limits<double>::infinity();
  const uint32_t limit = uint32_t{1} << n;
  for (uint32_t side = 0; side < limit; ++side) {
    // side bit = 1 means "source side".
    if (!((side >> instance.source) & 1)) continue;
    if ((side >> instance.sink) & 1) continue;
    double capacity = 0.0;
    for (const auto& e : instance.edges) {
      if (((side >> e.from) & 1) && !((side >> e.to) & 1)) {
        capacity += e.capacity;
      }
    }
    best = std::min(best, capacity);
  }
  return best;
}

BipartiteGraph RandomBipartite(Rng& rng, int num_left, int num_right,
                               double p) {
  BipartiteGraph graph(num_left, num_right);
  for (int l = 0; l < num_left; ++l) {
    for (int r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(p)) graph.AddEdge(l, r);
    }
  }
  return graph;
}

bool IsValidMatching(const BipartiteGraph& graph, const Matching& matching) {
  if (matching.left_to_right.size() !=
          static_cast<size_t>(graph.NumLeft()) ||
      matching.right_to_left.size() !=
          static_cast<size_t>(graph.NumRight())) {
    return false;
  }
  int count = 0;
  for (int l = 0; l < graph.NumLeft(); ++l) {
    const int r = matching.left_to_right[static_cast<size_t>(l)];
    if (r == -1) continue;
    ++count;
    if (r < 0 || r >= graph.NumRight()) return false;
    if (matching.right_to_left[static_cast<size_t>(r)] != l) return false;
    const auto& neighbors = graph.Neighbors(l);
    if (std::find(neighbors.begin(), neighbors.end(), r) == neighbors.end()) {
      return false;  // matched along a non-edge
    }
  }
  for (int r = 0; r < graph.NumRight(); ++r) {
    const int l = matching.right_to_left[static_cast<size_t>(r)];
    if (l != -1 && matching.left_to_right[static_cast<size_t>(l)] != r) {
      return false;
    }
  }
  return count == matching.size;
}

bool IsValidVertexCover(const BipartiteGraph& graph,
                        const std::vector<bool>& left,
                        const std::vector<bool>& right) {
  for (int l = 0; l < graph.NumLeft(); ++l) {
    for (const int r : graph.Neighbors(l)) {
      if (!left[static_cast<size_t>(l)] && !right[static_cast<size_t>(r)]) {
        return false;
      }
    }
  }
  return true;
}

LabeledPointSet RandomLabeledSet(Rng& rng, size_t n, size_t d,
                                 double positive_rate) {
  LabeledPointSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) c = rng.UniformDouble();
    set.Add(Point(std::move(coords)), rng.Bernoulli(positive_rate) ? 1 : 0);
  }
  return set;
}

WeightedPointSet RandomWeightedSet(Rng& rng, size_t n, size_t d,
                                   double positive_rate, double max_weight) {
  WeightedPointSet set;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> coords(d);
    for (auto& c : coords) c = rng.UniformDouble();
    set.Add(Point(std::move(coords)), rng.Bernoulli(positive_rate) ? 1 : 0,
            rng.UniformDoubleInRange(0.5, max_weight));
  }
  return set;
}

PassiveSolveResult SolvePassiveWith(NetworkBuilder build,
                                    const WeightedPointSet& set,
                                    MaxFlowAlgorithm algorithm,
                                    const ParallelOptions& parallel) {
  const std::vector<size_t> active =
      ComputeContending(set.points(), set.labels(), parallel).contending;
  return SolvePassiveOnNetwork(
      set, active, build(set, active, PassiveInfiniteCapacity(set), parallel),
      algorithm);
}

}  // namespace testing_util
}  // namespace monoclass
