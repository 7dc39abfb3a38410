// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/chain_decomposition.h"

#include <algorithm>
#include <numeric>

#include "core/chain_decomposition_2d.h"
#include "core/dominance.h"
#include "core/invariant_audit.h"
#include "graph/path_cover.h"
#include "obs/obs.h"
#include "util/audit.h"

namespace monoclass {

ChainDecomposition MinimumChainDecomposition(const PointSet& points) {
  MC_SPAN("core/min_chain_decomposition");
  ChainDecomposition decomposition;
  if (points.empty()) return decomposition;
  const DagAdjacency dag = BuildDominanceDag(points);
  for (auto& path : MinimumPathCover(dag)) {
    std::vector<size_t> chain(path.begin(), path.end());
    decomposition.chains.push_back(std::move(chain));
  }
  MC_AUDIT(AuditChainDecomposition(points, decomposition,
                                   /*expect_minimum=*/true));
  MC_HISTOGRAM("core.chain_count", decomposition.NumChains());
  return decomposition;
}

ChainDecomposition GreedyChainDecomposition(const PointSet& points) {
  MC_SPAN("core/greedy_chain_decomposition");
  ChainDecomposition decomposition;
  if (points.empty()) return decomposition;

  // Process points along a linear extension of dominance (ascending
  // coordinate sum; ties by index, consistent with DominanceSucceeds).
  std::vector<size_t> order(points.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> key(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    double sum = 0.0;
    for (size_t dim = 0; dim < points.dimension(); ++dim) {
      sum += points[i][dim];
    }
    key[i] = sum;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (key[a] != key[b]) return key[a] < key[b];
    return a < b;
  });

  // First-fit: append to the first chain whose current top the new point
  // dominates; otherwise open a new chain.
  for (const size_t index : order) {
    bool placed = false;
    for (auto& chain : decomposition.chains) {
      if (DominanceSucceeds(points, index, chain.back())) {
        chain.push_back(index);
        placed = true;
        break;
      }
    }
    if (!placed) decomposition.chains.push_back({index});
  }
  MC_AUDIT(AuditChainDecomposition(points, decomposition,
                                   /*expect_minimum=*/false));
  return decomposition;
}

ChainDecomposition ScalableChainDecomposition(const PointSet& points) {
  if (points.dimension() == 2) return MinimumChainDecomposition2D(points);
  if (points.dimension() <= 1) return GreedyChainDecomposition(points);
  if (points.size() <= kSparseExactMatchingLimit) {
    return MinimumChainDecomposition(points);
  }
  return GreedyChainDecomposition(points);
}

bool ValidateChainDecomposition(const PointSet& points,
                                const ChainDecomposition& decomposition) {
  std::vector<int> seen(points.size(), 0);
  for (const auto& chain : decomposition.chains) {
    if (chain.empty()) return false;
    for (const size_t index : chain) {
      if (index >= points.size()) return false;
      ++seen[index];
    }
    for (size_t j = 0; j + 1 < chain.size(); ++j) {
      if (!DominatesEq(points[chain[j + 1]], points[chain[j]])) return false;
    }
  }
  for (const int count : seen) {
    if (count != 1) return false;
  }
  return true;
}

size_t ChainInsertPosition(const PointSet& points,
                           const std::vector<size_t>& chain,
                           const Point& point) {
  // prefix_end = number of leading members weakly dominated by `point`.
  size_t lo = 0;
  size_t hi = chain.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (DominatesEq(point, points[chain[mid]])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t prefix_end = lo;
  if (prefix_end == chain.size()) return prefix_end;  // extends the top
  // suffix_begin = first member weakly dominating `point`.
  lo = 0;
  hi = chain.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (DominatesEq(points[chain[mid]], point)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const size_t suffix_begin = lo;
  return suffix_begin <= prefix_end ? prefix_end : kNoChainPosition;
}

}  // namespace monoclass
