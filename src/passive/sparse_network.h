// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// The two builders of the Theorem 4 flow network, and the rule that
// picks between them.
//
// The dense build materializes one infinite-capacity edge per
// dominating (label-0 p, label-1 q) pair -- Theta(n^2) edges, which caps
// the n the passive solver scales to long before the max-flow solve
// does. The paper's own machinery fixes this: a chain decomposition
// (Lemma 6) of the label-1 points totally orders each chain, so the
// transitive bundle of infinite edges into a chain can be routed through
// one relay vertex per chain member:
//
//   * relay r_c[t] owns the t-th point q_c[t] of chain c (chain order
//     ascending under dominance) and feeds it: r_c[t] -> q_c[t];
//   * relays chain downward, r_c[t] -> r_c[t-1], so reaching a relay
//     reaches every label-1 point below it on the chain;
//   * each label-0 point p gets one edge per chain, p -> r_c[t*], where
//     t* is the highest t with p >= q_c[t] (binary search -- dominance
//     along a chain is prefix-closed by transitivity).
//
// All relay-incident edges are infinite. Every dense pair p >= q is then
// connected by an all-infinite path p -> r_c[t*] -> ... -> r_c[t] -> q,
// and conversely any infinite path p ~> q certifies p >= q, so the
// finite-cut structure -- and with it the min-cut value (Lemmas 7-8/18)
// and the residual-reachability classifier (Lemma 16) -- is *identical*
// to the dense network's. docs/sparse_network.md gives the argument in
// full. Edge count drops from Theta(n^2) to O(n w) for width w.

#ifndef MONOCLASS_PASSIVE_SPARSE_NETWORK_H_
#define MONOCLASS_PASSIVE_SPARSE_NETWORK_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "graph/graph.h"
#include "util/concurrency.h"

namespace monoclass {

// Contending-set size at which SolvePassiveWeighted switches from the
// dense build to the chain-relay build. Below it the dense build's
// per-pair scan beats the chain decomposition the relay build needs
// first (small active-session Sigma solves all land here); at or above
// it the O(n w) relay network wins (docs/sparse_network.md).
inline constexpr size_t kSparseNetworkMinContending = 1024;

// A built network plus its shape diagnostics. Vertex layout: 0 = source,
// 1 = sink, 2 + k = the k-th active point, then (chain-relay build only)
// all relays in [relay_begin, NumVertices()). The dense build has no
// relays or chains and sets relay_begin = -1.
struct SparseNetworkPlan {
  FlowNetwork network{0};
  int relay_begin = 2;
  size_t num_chains = 0;
  size_t num_relays = 0;
  size_t finite_edges = 0;
  size_t infinite_edges = 0;
};

// Sentinel returned by HighestDominatedPosition when `point` dominates
// no member.
inline constexpr size_t kNoDominatedMember = static_cast<size_t>(-1);

// Largest position t such that point >= points[members[t]], where
// `members` lists point indices in ascending chain order. Dominance
// along a chain is prefix-closed (transitivity), so one binary search
// suffices. This is the relay-targeting rule: a label-0 point wires to
// the relay of the highest chain member it dominates, both in the batch
// builder below and in the per-delta rewiring of
// passive/incremental_solver.h.
size_t HighestDominatedPosition(const PointSet& points,
                                const std::vector<size_t>& members,
                                const Point& point);

// Builds the dense network over the points of `set` at the indices in
// `active` (the Lemma 15 contending subset, in increasing order):
// terminal edges carry the point weights, and each dominating
// (label-0, label-1) pair gets an edge of `infinite_capacity`. The
// O(n^2) pair scan shards rows across `parallel` workers with per-shard
// buffers merged in shard order, so the edge list is bit-identical to
// the serial scan at every thread count.
SparseNetworkPlan BuildDenseDominanceNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel = {});

// Builds the sparse chain-relay network over the same inputs, chaining
// the active label-1 points with ScalableChainDecomposition. Terminal
// edges carry the point weights, every other edge `infinite_capacity`.
// A relay's forward edges are its feed edge to its point vertex and
// (above a chain's bottom) its spine edge to the relay below; a label-0
// vertex's forward edges go to relays, at most one per chain. The
// incremental solver's rebuild reads its handles back from these
// endpoints. The per-point relay wiring (the dominant O(n w log n) part)
// shards across `parallel` workers with per-shard buffers merged in
// shard order, so the edge list -- and hence the max-flow traversal
// order and the extracted classifier -- is bit-identical to the serial
// build at every thread count.
SparseNetworkPlan BuildSparseChainRelayNetwork(
    const WeightedPointSet& set, const std::vector<size_t>& active,
    double infinite_capacity, const ParallelOptions& parallel = {});

}  // namespace monoclass

#endif  // MONOCLASS_PASSIVE_SPARSE_NETWORK_H_
