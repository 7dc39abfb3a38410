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

// Source -> label-0 point and label-1 point -> sink edges carrying the
// point weights, in active order (vertex 2 + k for the k-th active
// point). Both builders lay these down first, identically.
void AddTerminalEdges(const WeightedPointSet& set,
                      const std::vector<size_t>& active,
                      SparseNetworkPlan& plan) {
  const int source = 0;
  const int sink = 1;
  for (size_t k = 0; k < active.size(); ++k) {
    const size_t i = active[k];
    const int vertex = static_cast<int>(k) + 2;
    if (set.label(i) == 0) {
      plan.network.AddEdge(source, vertex, set.weight(i));
    } else {
      plan.network.AddEdge(vertex, sink, set.weight(i));
    }
    ++plan.finite_edges;
  }
}

// Per-shard (active position, target) hits of a sharded edge scan.
using ShardEdges = std::vector<std::vector<std::pair<size_t, size_t>>>;

// One empty buffer per shard a ParallelFor over `n` rows can touch.
ShardEdges MakeShardEdges(const ParallelOptions& parallel, size_t n) {
  return ShardEdges(std::max<size_t>(
      size_t{1}, std::min<size_t>(parallel.Resolve(), n == 0 ? 1 : n)));
}

// Adds every hit (k, t) as the infinite edge 2 + k -> target_base + t,
// buffers in shard order, so the edge list is bit-identical to the
// serial scan at any thread count. FlowNetwork::AddEdge itself is
// unsynchronized by design -- it never runs concurrently.
void AddShardEdges(const ShardEdges& shard_edges, int target_base,
                   double infinite_capacity, SparseNetworkPlan& plan) {
  for (const auto& edges : shard_edges) {
    for (const auto& [k, t] : edges) {
      plan.network.AddEdge(static_cast<int>(k) + 2,
                           target_base + static_cast<int>(t),
                           infinite_capacity);
      ++plan.infinite_edges;
    }
  }
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
  plan.network = FlowNetwork(static_cast<int>(num_active) + 2);
  AddTerminalEdges(set, active, plan);

  // Dominance-edge discovery is the O(n^2) part; it only *reads* the
  // point set, so rows shard freely. Each shard records its (a, b) hits
  // in a local buffer, inserted into the network only after the scan.
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
  AddShardEdges(shard_edges, 2, infinite_capacity, plan);
  return plan;
}

SparseNetworkPlan BuildSparseChainRelayNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel) {
  MC_SPAN("passive/build_sparse_network");
  const size_t num_active = active.size();
  SparseNetworkPlan plan;
  plan.relay_begin = static_cast<int>(num_active) + 2;

  // Decompose the active points into chains. Positions below are indices
  // into `active` (the subset's own index space).
  ChainDecomposition decomposition;
  {
    MC_SPAN("passive/sparse_chains");
    decomposition = ScalableChainDecomposition(set.points().Subset(active));
  }
  plan.num_chains = decomposition.NumChains();

  // The label-1 members of each chain, in ascending chain order; each
  // gets one relay. A chain's label-1 members form a chain themselves,
  // so the binary-search prefix property carries over.
  std::vector<std::vector<size_t>> members(decomposition.NumChains());
  // The same members as indices into set.points(), for the shared
  // HighestDominatedPosition binary search.
  std::vector<std::vector<size_t>> global_members(decomposition.NumChains());
  std::vector<size_t> relay_offset(decomposition.NumChains(), 0);
  for (size_t c = 0; c < decomposition.chains.size(); ++c) {
    relay_offset[c] = plan.num_relays;
    for (const size_t k : decomposition.chains[c]) {
      if (set.label(active[k]) == 1) {
        members[c].push_back(k);
        global_members[c].push_back(active[k]);
      }
    }
    plan.num_relays += members[c].size();
  }

  plan.network =
      FlowNetwork(static_cast<int>(num_active + plan.num_relays) + 2);
  AddTerminalEdges(set, active, plan);

  // Relay spines: each relay feeds its own label-1 point and the next
  // relay down its chain.
  for (size_t c = 0; c < members.size(); ++c) {
    for (size_t t = 0; t < members[c].size(); ++t) {
      const int relay = plan.relay_begin +
                        static_cast<int>(relay_offset[c] + t);
      plan.network.AddEdge(relay, static_cast<int>(members[c][t]) + 2,
                           infinite_capacity);
      ++plan.infinite_edges;
      if (t > 0) {
        plan.network.AddEdge(relay, relay - 1, infinite_capacity);
        ++plan.infinite_edges;
      }
    }
  }

  // Per-point relay wiring: for every label-0 point, one binary search
  // per chain. Rows only read the point set, so they shard freely, under
  // the same merge contract as the dense dominance scan above.
  ShardEdges shard_edges = MakeShardEdges(parallel, num_active);
  ParallelFor(num_active, parallel,
              [&](size_t begin, size_t end, size_t shard) {
                MC_SPAN("par.sparse_relay_wiring");
                std::vector<std::pair<size_t, size_t>>& edges =
                    shard_edges[shard];
                for (size_t k = begin; k < end; ++k) {
                  if (set.label(active[k]) != 0) continue;
                  const Point& point = set.point(active[k]);
                  for (size_t c = 0; c < members.size(); ++c) {
                    if (members[c].empty()) continue;
                    const size_t t = HighestDominatedPosition(
                        set.points(), global_members[c], point);
                    if (t != kNoDominatedMember) {
                      edges.emplace_back(k, relay_offset[c] + t);
                    }
                  }
                }
              });
  AddShardEdges(shard_edges, plan.relay_begin, infinite_capacity, plan);
  return plan;
}

}  // namespace monoclass
