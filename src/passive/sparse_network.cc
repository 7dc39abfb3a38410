// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "passive/sparse_network.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/chain_decomposition.h"
#include "obs/obs.h"

namespace monoclass {
namespace {

// Per-shard (active position, target) hits of a sharded edge scan.
using ShardEdges = std::vector<std::vector<std::pair<size_t, size_t>>>;

// One empty buffer per shard a ParallelFor over `n` rows can touch.
ShardEdges MakeShardEdges(const ParallelOptions& parallel, size_t n) {
  return ShardEdges(std::max<size_t>(
      size_t{1}, std::min<size_t>(parallel.Resolve(), n == 0 ? 1 : n)));
}

// Source -> label-0 point and label-1 point -> sink edges carrying the
// point weights, in active order (vertex 2 + k for the k-th active
// point), handed to add(u, v, capacity). Both builders lay these down
// first, identically.
template <typename Add>
void ForEachTerminalEdge(const WeightedPointSet& set,
                         const std::vector<size_t>& active, const Add& add) {
  const int source = 0;
  const int sink = 1;
  for (size_t k = 0; k < active.size(); ++k) {
    const size_t i = active[k];
    const int vertex = static_cast<int>(k) + 2;
    if (set.label(i) == 0) {
      add(source, vertex, set.weight(i));
    } else {
      add(vertex, sink, set.weight(i));
    }
  }
}

// Hands every hit (k, t) to add() as the infinite edge 2 + k ->
// target_base + t, buffers in shard order, so the edge list is
// bit-identical to the serial scan at any thread count.
template <typename Add>
void ForEachShardEdge(const ShardEdges& shard_edges, int target_base,
                      double infinite_capacity, const Add& add) {
  for (const auto& edges : shard_edges) {
    for (const auto& [k, t] : edges) {
      add(static_cast<int>(k) + 2, target_base + static_cast<int>(t),
          infinite_capacity);
    }
  }
}

// Builds plan.network from for_each_edge(add), which hands every edge to
// add(u, v, capacity) in insertion order, and returns the edge count. It
// runs twice: first to count each vertex's degree (reverse twins
// included), so every adjacency list is reserved once at its exact size,
// then to add the edges. FlowNetwork::AddEdge is unsynchronized by
// design -- this never runs concurrently.
template <typename ForEachEdge>
size_t LayDownEdges(int num_vertices, const ForEachEdge& for_each_edge,
                    SparseNetworkPlan& plan) {
  std::vector<size_t> degree(static_cast<size_t>(num_vertices), 0);
  size_t edges = 0;
  for_each_edge([&](int u, int v, double /*capacity*/) {
    ++degree[static_cast<size_t>(u)];
    ++degree[static_cast<size_t>(v)];
    ++edges;
  });
  plan.network = FlowNetwork(num_vertices);
  plan.network.ReserveDegrees(degree);
  for_each_edge([&](int u, int v, double capacity) {
    plan.network.AddEdge(u, v, capacity);
  });
  return edges;
}

}  // namespace

size_t HighestDominatedPosition(const PointSet& points,
                                const std::vector<size_t>& members,
                                const Point& point) {
  // The predicate "point >= members[t]" holds on exactly a prefix of the
  // chain (members ascend under weak dominance, and >= is transitive).
  size_t lo = 0;
  size_t hi = members.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (DominatesEq(point, points[members[mid]])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? kNoDominatedMember : lo - 1;
}

SparseNetworkPlan BuildDenseDominanceNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel) {
  MC_SPAN("passive/build_network");
  const size_t num_active = active.size();
  SparseNetworkPlan plan;
  plan.relay_begin = -1;

  // Dominance-edge discovery is the O(n^2) part; it only *reads* the
  // point set, so rows shard freely. Each shard records its (a, b) hits
  // in a local buffer, inserted into the network only after the scan,
  // once every vertex's adjacency is reserved to its exact degree.
  ShardEdges shard_edges = MakeShardEdges(parallel, num_active);
  ParallelFor(num_active, parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.dominance");
                std::vector<std::pair<size_t, size_t>>& edges =
                    shard_edges[shard];
                for (size_t a = begin; a < end; ++a) {
                  const size_t p = active[a];
                  if (set.label(p) != 0) continue;
                  for (size_t b = 0; b < num_active; ++b) {
                    const size_t q = active[b];
                    if (set.label(q) != 1 || p == q) continue;
                    if (DominatesEq(set.point(p), set.point(q))) {
                      edges.emplace_back(a, b);
                    }
                  }
                }
              });
  const size_t edges = LayDownEdges(
      static_cast<int>(num_active) + 2,
      [&](const auto& add) {
        ForEachTerminalEdge(set, active, add);
        ForEachShardEdge(shard_edges, 2, infinite_capacity, add);
      },
      plan);
  plan.finite_edges = num_active;  // one terminal edge per active point
  plan.infinite_edges = edges - num_active;
  return plan;
}

SparseNetworkPlan BuildSparseChainRelayNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel) {
  MC_SPAN("passive/build_sparse_network");
  const size_t num_active = active.size();
  SparseNetworkPlan plan;
  plan.relay_begin = static_cast<int>(num_active) + 2;

  // Decompose the active label-1 points into chains; each member gets
  // one relay. The relay construction never consults label-0 chain
  // membership, so the label-1 side alone keeps the same transparency
  // argument with fewer chains (docs/sparse_network.md). Chain members
  // index `ones`, the label-1 positions in `active`.
  std::vector<size_t> ones;
  PointSet one_points;
  for (size_t k = 0; k < num_active; ++k) {
    if (set.label(active[k]) != 1) continue;
    ones.push_back(k);
    one_points.Add(set.point(active[k]));
  }
  ChainDecomposition decomposition;
  {
    MC_SPAN("passive/sparse_chains");
    decomposition = ScalableChainDecomposition(one_points);
  }
  const std::vector<std::vector<size_t>>& chains = decomposition.chains;
  plan.num_chains = chains.size();
  std::vector<size_t> relay_offset(chains.size(), 0);
  for (size_t c = 0; c < chains.size(); ++c) {
    relay_offset[c] = plan.num_relays;
    plan.num_relays += chains[c].size();
  }

  // Per-point relay wiring: for every label-0 point, one binary search
  // per chain. Rows only read the point set, so they shard freely, under
  // the same merge contract as the dense dominance scan above. The hits
  // are buffered before the first edge is added, so every vertex's
  // adjacency can be reserved to its exact degree.
  ShardEdges shard_edges = MakeShardEdges(parallel, num_active);
  ParallelFor(num_active, parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.sparse_relay_wiring");
                std::vector<std::pair<size_t, size_t>>& edges =
                    shard_edges[shard];
                for (size_t k = begin; k < end; ++k) {
                  if (set.label(active[k]) != 0) continue;
                  const Point& point = set.point(active[k]);
                  for (size_t c = 0; c < chains.size(); ++c) {
                    const size_t t =
                        HighestDominatedPosition(one_points, chains[c], point);
                    if (t != kNoDominatedMember) {
                      edges.emplace_back(k, relay_offset[c] + t);
                    }
                  }
                }
              });

  const size_t edges = LayDownEdges(
      static_cast<int>(num_active + plan.num_relays) + 2,
      [&](const auto& add) {
        ForEachTerminalEdge(set, active, add);
        // Relay spines: each relay feeds its own label-1 point and the
        // next relay down its chain.
        for (size_t c = 0; c < chains.size(); ++c) {
          for (size_t t = 0; t < chains[c].size(); ++t) {
            const int relay =
                plan.relay_begin + static_cast<int>(relay_offset[c] + t);
            add(relay, static_cast<int>(ones[chains[c][t]]) + 2,
                infinite_capacity);
            if (t > 0) add(relay, relay - 1, infinite_capacity);
          }
        }
        ForEachShardEdge(shard_edges, plan.relay_begin, infinite_capacity,
                         add);
      },
      plan);
  plan.finite_edges = num_active;  // one terminal edge per active point
  plan.infinite_edges = edges - num_active;
  return plan;
}

}  // namespace monoclass
