// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "core/antichain.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "core/dominance.h"
#include "core/invariant_audit.h"
#include "graph/matching.h"
#include "graph/path_cover.h"

namespace monoclass {
namespace {

// Rebuilds the split bipartite graph used by the path cover so Koenig's
// construction can run on the identical edge set.
BipartiteGraph BuildSplitGraph(const DagAdjacency& dag) {
  const auto n = static_cast<int>(dag.size());
  BipartiteGraph split(n, n);
  for (int u = 0; u < n; ++u) {
    for (const int v : dag[static_cast<size_t>(u)]) {
      split.AddEdge(u, v);
    }
  }
  return split;
}

// Whether `upper` lies weakly above `lower` in the direction of `which`:
// DominatesEq(upper, lower) for kMinimal, DominatesEq(lower, upper) for
// kMaximal.
bool CoversPoint(const Point& upper, const Point& lower, Extremal which) {
  return which == Extremal::kMinimal ? DominatesEq(upper, lower)
                                     : DominatesEq(lower, upper);
}

// Whether `key` is coordinate-wise >= one of the first `count` entries
// of `keys` (d doubles each, ascending in the first coordinate). Only
// entries whose first coordinate is <= key[0] can qualify, and one
// binary search finds them. For d = 2 the entries form a staircase (the
// second coordinate strictly descends), so the last of them, which has
// the lowest second coordinate, decides alone.
bool CoversAnyKey(const double* keys, size_t count, size_t d,
                  const double* key) {
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (keys[mid * d] <= key[0]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (d == 2) return lo > 0 && keys[2 * lo - 1] <= key[1];
  for (const double* m = keys; m != keys + lo * d; m += d) {
    size_t j = 1;
    while (j < d && key[j] >= m[j]) ++j;
    if (j == d) return true;
  }
  return false;
}

// Sweep over order[begin, end): appends the keys and indices of every
// candidate that covers no candidate kept before it.
void SweepRange(const std::vector<double>& order_keys,
                const std::vector<size_t>& order, size_t begin, size_t end,
                size_t d, std::vector<double>& kept_keys,
                std::vector<size_t>& kept) {
  for (size_t r = begin; r < end; ++r) {
    const double* key = order_keys.data() + r * d;
    if (CoversAnyKey(kept_keys.data(), kept.size(), d, key)) continue;
    kept_keys.insert(kept_keys.end(), key, key + d);
    kept.push_back(order[r]);
  }
}

}  // namespace

size_t DominanceWidth(const PointSet& points) {
  if (points.empty()) return 0;
  const DagAdjacency dag = BuildDominanceDag(points);
  const BipartiteGraph split = BuildSplitGraph(dag);
  const Matching matching = HopcroftKarpMatching(split);
  return points.size() - static_cast<size_t>(matching.size);
}

std::vector<size_t> MaximumAntichain(const PointSet& points) {
  if (points.empty()) return {};
  const DagAdjacency dag = BuildDominanceDag(points);
  const BipartiteGraph split = BuildSplitGraph(dag);
  const Matching matching = HopcroftKarpMatching(split);
  const VertexCover cover = KonigVertexCover(split, matching);

  // Dilworth via Koenig: a point is in the antichain iff neither of its
  // split copies is in the minimum vertex cover. Any dominance pair among
  // such points would be an uncovered edge, contradicting the cover.
  std::vector<size_t> antichain;
  for (size_t i = 0; i < points.size(); ++i) {
    if (!cover.left[i] && !cover.right[i]) antichain.push_back(i);
  }
  const size_t width = points.size() - static_cast<size_t>(matching.size);
  MC_CHECK_EQ(antichain.size(), width)
      << "Koenig antichain size disagrees with Dilworth width";
  return antichain;
}

bool IsAntichain(const PointSet& points, const std::vector<size_t>& indices) {
  for (size_t a = 0; a < indices.size(); ++a) {
    for (size_t b = a + 1; b < indices.size(); ++b) {
      const Point& p = points[indices[a]];
      const Point& q = points[indices[b]];
      if (DominatesEq(p, q) || DominatesEq(q, p)) return false;
    }
  }
  return true;
}

ExtremalAntichain::ExtremalAntichain(const std::vector<Point>& points,
                                     const std::vector<size_t>& subset,
                                     Extremal which,
                                     const ParallelOptions& parallel)
    : sign_(which == Extremal::kMinimal ? 1.0 : -1.0) {
  if (subset.empty()) return;
  const size_t d = dimension_ = points[subset.front()].dimension();
  MC_CHECK_GE(d, 1u);

  // Sweep order: lexicographic on the keys, ties by index. If p covers q
  // and p != q then q sorts first, so every element a candidate covers
  // was swept before it, and a candidate's coordinate-equal twins of
  // lower index precede it.
  std::vector<size_t> order = subset;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Point& pa = points[a];
    const Point& pb = points[b];
    for (size_t k = 0; k < d; ++k) {
      if (pa[k] != pb[k]) return sign_ * pa[k] < sign_ * pb[k];
    }
    return a < b;
  });
  std::vector<double> order_keys(order.size() * d);
  for (size_t r = 0; r < order.size(); ++r) {
    Key(points[order[r]], order_keys.data() + r * d);
  }

  // A candidate that covers a kept element covers, by transitivity,
  // nothing new; one that covers none is minimal (maximal), and the
  // first of its duplicate group.
  const size_t shards = std::min(parallel.Resolve(), order.size());
  if (d == 2 || shards <= 1 || order.size() < kParallelSweepMinSize) {
    SweepRange(order_keys, order, 0, order.size(), d, keys_, members_);
  } else {
    // Blocked sweep. Each shard first sweeps its own contiguous block of
    // the order. A block survivor is kept iff it also covers no survivor
    // of an earlier block: whatever it covers there lies above, or is, a
    // survivor of that block. The survivors, concatenated in shard
    // order, are a subsequence of the order, so the second pass may
    // search them like the kept prefix of the serial sweep, and the
    // result is the serial one at any thread count.
    std::vector<std::vector<double>> block_keys(shards);
    std::vector<std::vector<size_t>> block_kept(shards);
    ParallelFor(order.size(), parallel,
                [&](size_t begin, size_t end, size_t shard) {
                  SweepRange(order_keys, order, begin, end, d,
                             block_keys[shard], block_kept[shard]);
                });
    std::vector<double> survivor_keys;
    std::vector<size_t> survivors;
    std::vector<size_t> block_begin;  // first survivor of each block
    for (size_t b = 0; b < shards; ++b) {
      block_begin.push_back(survivors.size());
      survivor_keys.insert(survivor_keys.end(), block_keys[b].begin(),
                           block_keys[b].end());
      survivors.insert(survivors.end(), block_kept[b].begin(),
                       block_kept[b].end());
    }
    // A survivor's test costs the length of the prefix before its block,
    // so position r visits survivors from both ends alternately, and
    // every shard gets a like share of cheap and dear tests.
    const size_t m = survivors.size();
    std::vector<char> kept(m, 0);
    ParallelFor(m, parallel, [&](size_t begin, size_t end, size_t /*shard*/) {
      for (size_t r = begin; r < end; ++r) {
        const size_t s = r % 2 == 0 ? r / 2 : m - 1 - r / 2;
        const size_t prefix = *std::prev(std::upper_bound(
            block_begin.begin(), block_begin.end(), s));
        kept[s] = !CoversAnyKey(survivor_keys.data(), prefix, d,
                                survivor_keys.data() + s * d);
      }
    });
    for (size_t s = 0; s < m; ++s) {
      if (!kept[s]) continue;
      keys_.insert(keys_.end(), survivor_keys.begin() + s * d,
                   survivor_keys.begin() + (s + 1) * d);
      members_.push_back(survivors[s]);
    }
  }
  std::sort(members_.begin(), members_.end());
  MC_AUDIT(AuditExtremalAntichain(points, subset, which, members_));
}

bool ExtremalAntichain::Covers(const Point& x) const {
  if (members_.empty()) return false;
  MC_DCHECK_EQ(x.dimension(), dimension_);
  constexpr size_t kStackDimension = 8;
  std::array<double, kStackDimension> stack{};
  std::vector<double> heap;
  double* key = stack.data();
  if (dimension_ > kStackDimension) {
    heap.resize(dimension_);
    key = heap.data();
  }
  Key(x, key);
  return CoversAnyKey(keys_.data(), members_.size(), dimension_, key);
}

void ExtremalAntichain::Key(const Point& x, double* key) const {
  for (size_t k = 0; k < dimension_; ++k) key[k] = sign_ * x[k];
}

std::vector<size_t> ExtremalElementsByScan(const std::vector<Point>& points,
                                           const std::vector<size_t>& subset,
                                           Extremal which) {
  std::vector<size_t> kept;
  for (const size_t i : subset) {
    bool keep = true;
    for (size_t b = 0; b < subset.size() && keep; ++b) {
      const size_t j = subset[b];
      if (i == j || !CoversPoint(points[i], points[j], which)) continue;
      keep = points[i] == points[j] && i < j;
    }
    if (keep) kept.push_back(i);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace monoclass
