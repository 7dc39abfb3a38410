// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Chain decompositions of a point set under dominance (paper Section 2 and
// Lemma 6). A chain is a sequence of points each weakly dominated by the
// next; a chain decomposition partitions the set into disjoint chains. By
// Dilworth's theorem the minimum number of chains equals the dominance
// width w (the size of the largest antichain).

#ifndef MONOCLASS_CORE_CHAIN_DECOMPOSITION_H_
#define MONOCLASS_CORE_CHAIN_DECOMPOSITION_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"

namespace monoclass {

// A partition of point indices into chains. Each chain lists indices in
// ascending dominance order: chain[j+1] weakly dominates chain[j].
struct ChainDecomposition {
  std::vector<std::vector<size_t>> chains;

  size_t NumChains() const { return chains.size(); }
  size_t TotalPoints() const {
    size_t total = 0;
    for (const auto& chain : chains) total += chain.size();
    return total;
  }
};

// Lemma 6: a minimum chain decomposition (exactly w chains) in
// O(d n^2 + n^2.5) time via minimum path cover of the dominance DAG,
// solved with Hopcroft-Karp matching.
ChainDecomposition MinimumChainDecomposition(const PointSet& points);

// Ablation baseline: first-fit greedy over a linear extension (points
// sorted by coordinate sum). Optimal in 1D, potentially far from w in
// higher dimensions; bench_chain_decomposition quantifies the gap and
// bench_active_probes its downstream probe-cost effect.
ChainDecomposition GreedyChainDecomposition(const PointSet& points);

// Number of points a d >= 3 set may have before the Lemma 6
// matching-based minimum decomposition (O(n^2.5)) would cost more than
// the dense network build the sparse chain-relay build is meant to
// avoid; ScalableChainDecomposition falls back to greedy above it.
inline constexpr size_t kSparseExactMatchingLimit = 2048;

// Scalability front-end used by consumers that need *a* valid chain
// decomposition with a good (not necessarily provably minimum) chain
// count at any input size -- notably the sparse chain-relay network
// builder (passive/sparse_network.h). Routing:
//   * d == 2  -- the O(n log n) patience fast path (exactly w chains);
//   * d <= 1  -- first-fit greedy over the sorted order (exactly 1 chain
//               in a total order, so also minimum);
//   * d >= 3, n <= kSparseExactMatchingLimit -- Lemma 6 via
//               Hopcroft-Karp (exactly w chains, O(d n^2 + n^2.5));
//   * d >= 3, n >  kSparseExactMatchingLimit -- first-fit greedy (>= w
//               chains; consumers degrade gracefully in the chain
//               count, they never lose correctness).
ChainDecomposition ScalableChainDecomposition(const PointSet& points);

// Validates the three chain-decomposition invariants: partition (every
// index exactly once), ordering (each chain ascends under weak dominance),
// and non-empty chains.
bool ValidateChainDecomposition(const PointSet& points,
                                const ChainDecomposition& decomposition);

// Sentinel returned by ChainInsertPosition when the point fits nowhere.
inline constexpr size_t kNoChainPosition = static_cast<size_t>(-1);

// Position at which `point` can be spliced into `chain` (indices into
// `points`, ascending under weak dominance) so the chain stays a chain,
// or kNoChainPosition when the point is incomparable with some member.
// Two binary searches: the members weakly dominated by `point` form a
// prefix (transitivity) and the members weakly dominating it a suffix,
// so the point fits exactly when prefix end >= suffix start. This is the
// incremental counterpart of the Lemma 6 decompositions: the delta
// solver extends a chain in O(log |chain|) instead of re-decomposing.
size_t ChainInsertPosition(const PointSet& points,
                           const std::vector<size_t>& chain,
                           const Point& point);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_CHAIN_DECOMPOSITION_H_
