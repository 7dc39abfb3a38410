// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for dense-vs-sparse network equivalence.
//
// Decodes a weighted point set and solves it through the dense Theorem 4
// network and the sparse chain-relay construction (the latter at a
// fuzzed thread count for the relay wiring), and through
// SolvePassiveWeighted, which picks one of the two by size. The sparse
// rewrite is provably cut-preserving, so the harness demands
// *bit-identical* optimum, assignment and classifier -- any drift is a
// finding. Built with MONOCLASS_AUDIT=ON every solve also
// re-verifies Lemmas 7/8/18 and relay purity internally.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fuzz/fuzz_util.h"
#include "monoclass.h"

namespace monoclass {
namespace fuzz {
namespace {

void FuzzOne(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const WeightedPointSet set = DecodeWeightedPointSet(in, 1, 48, 4);
  const size_t threads = DecodeThreadCount(in);

  const PassiveSolveResult dense_result =
      SolvePassiveWith(BuildDenseDominanceNetwork, set);
  FuzzRequireAudit(AuditMonotone(dense_result.classifier, set.points()),
                   "network/dense");

  const PassiveSolveResult sparse_result =
      SolvePassiveWith(BuildSparseChainRelayNetwork, set, threads);
  FuzzRequireAudit(AuditMonotone(sparse_result.classifier, set.points()),
                   "network/sparse");

  const std::string context =
      "network/equivalence(threads=" + std::to_string(threads) + ")";
  FuzzExpect(dense_result.assignment == sparse_result.assignment, context,
             "sparse chain-relay assignment diverged from the dense build");
  FuzzExpect(dense_result.optimal_weighted_error ==
                 sparse_result.optimal_weighted_error,
             context,
             "sparse optimum " +
                 std::to_string(sparse_result.optimal_weighted_error) +
                 " != dense optimum " +
                 std::to_string(dense_result.optimal_weighted_error));
  FuzzExpect(
      EquivalentOn(dense_result.classifier, sparse_result.classifier,
                   set.points()),
      context, "sparse classifier diverged from the dense build");

  // The solver must agree with whichever build it picked.
  const PassiveSolveResult routed_result = SolvePassiveWeighted(set);
  FuzzExpect(routed_result.assignment == dense_result.assignment,
             "network/solver",
             "solver assignment diverged from the dense build");
  FuzzExpect(routed_result.optimal_weighted_error ==
                 dense_result.optimal_weighted_error,
             "network/solver", "solver optimum diverged from the dense build");
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
