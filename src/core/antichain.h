// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Dominance width and maximum antichains (paper Sections 1.2 and 2).
//
// The width w of P is the size of the largest antichain (pairwise
// incomparable subset) and, by Dilworth's theorem, equals the minimum
// number of chains in a chain decomposition. The width is *the* hardness
// parameter of active monotone classification: Theorem 2's probe bound is
// O((w/eps^2) log n log(n/w)).
//
// The file also holds the antichain kernel of the passive solver: the
// minimal (or maximal) elements of a subset, and the query "does x lie
// above some minimal element" (or "below some maximal element"). By
// transitivity that one query decides every "x dominates some member of
// S" test against the whole of S, which is what the contending scan
// (Lemma 15), the Lemma 16 certificate and generator pruning ask.

#ifndef MONOCLASS_CORE_ANTICHAIN_H_
#define MONOCLASS_CORE_ANTICHAIN_H_

#include <vector>

#include "core/dataset.h"
#include "core/point.h"
#include "util/concurrency.h"

namespace monoclass {

// Dominance width w of the set: n minus the maximum matching of the split
// dominance graph (equivalently, the minimum chain count). O(d n^2 + n^2.5).
size_t DominanceWidth(const PointSet& points);

// A maximum antichain (a width witness), extracted from the same matching
// via Koenig's theorem: the complement of a minimum vertex cover of the
// split graph projects to a pairwise-incomparable set of size w. Returns
// point indices in increasing order.
std::vector<size_t> MaximumAntichain(const PointSet& points);

// Checks pairwise incomparability (treating coordinate-equal distinct
// points as comparable). O(d m^2) for m indices.
bool IsAntichain(const PointSet& points, const std::vector<size_t>& indices);

// Which end of the dominance order an ExtremalAntichain keeps.
enum class Extremal { kMinimal, kMaximal };

// The minimal (or maximal) elements of `subset` under weak dominance,
// with a query against them. Of each group of coordinate-equal points
// only the lowest index is kept, so the members form an antichain in the
// strict sense of IsAntichain.
//
// Construction is a sort-filter-skyline sweep: the subset is sorted
// lexicographically (descending for kMaximal), ties by index, and a
// candidate is kept unless it covers an element already kept. The
// lexicographic order is a linear extension of DominatesEq that needs no
// arithmetic, so it stays exact for any finite or infinite coordinates
// (a coordinate-sum key is not: sums round, and -inf + inf is NaN).
// O(m log m d + m |M| d) for m = |subset|; for d = 2 the kept elements
// form a staircase and each test is one binary search, O(m log m).
//
// With more than one thread in `parallel`, d >= 3 and at least
// kParallelSweepMinSize elements, the sweep runs blocked across the pool
// (see antichain.cc) with the same result. Coordinates must not be NaN.
class ExtremalAntichain {
 public:
  static constexpr size_t kParallelSweepMinSize = 2048;

  ExtremalAntichain(const std::vector<Point>& points,
                    const std::vector<size_t>& subset, Extremal which,
                    const ParallelOptions& parallel = {.threads = 1});

  // The kept indices, ascending.
  const std::vector<size_t>& members() const { return members_; }

  // kMinimal: true iff x weakly dominates some member, i.e. some element
  // of the subset. kMaximal: true iff some member (equivalently some
  // element of the subset) weakly dominates x. O(log |M|) for d = 2,
  // O(log |M| + |M| d) otherwise.
  bool Covers(const Point& x) const;

 private:
  // Writes x's coordinates, negated for kMaximal, to key[0..d).
  void Key(const Point& x, double* key) const;

  double sign_ = 1.0;  // -1 for kMaximal
  size_t dimension_ = 0;
  // The kept points' keys in sweep order, d per member: x covers member
  // m iff Key(x) >= m's keys coordinate-wise, in either mode.
  std::vector<double> keys_;
  // The kept indices; in sweep order until the constructor sorts them.
  std::vector<size_t> members_;
};

// The all-pairs oracle for ExtremalAntichain::members(): keeps each index
// of `subset` that does not cover a different element with other
// coordinates, nor a coordinate-equal element of lower index. O(d m^2);
// used by tests and MC_AUDIT.
std::vector<size_t> ExtremalElementsByScan(const std::vector<Point>& points,
                                           const std::vector<size_t>& subset,
                                           Extremal which);

}  // namespace monoclass

#endif  // MONOCLASS_CORE_ANTICHAIN_H_
