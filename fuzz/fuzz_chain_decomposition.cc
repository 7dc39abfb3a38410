// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Differential fuzz harness for the chain-decomposition layer.
//
// Decodes an arbitrary point set and runs every decomposition path --
// the Lemma 6 matching-based minimum, the greedy first-fit baseline,
// the ScalableChainDecomposition router, and for d == 2 the patience
// fast path -- feeding every result to AuditChainDecomposition
// (partition, chain ordering, Dilworth minimality certificates) and
// cross-checking the chain counts against each other: greedy >= minimum,
// router == patience == minimum. Decoded sets stay far below
// kSparseExactMatchingLimit, so the router's greedy fallback is covered
// by chain_decomposition_test instead.

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
  const PointSet points = DecodePointSet(in, 1, 64, 4);

  const ChainDecomposition minimum = MinimumChainDecomposition(points);
  FuzzRequireAudit(
      AuditChainDecomposition(points, minimum, /*expect_minimum=*/true),
      "chains/minimum");

  const ChainDecomposition greedy = GreedyChainDecomposition(points);
  FuzzRequireAudit(
      AuditChainDecomposition(points, greedy, /*expect_minimum=*/false),
      "chains/greedy");
  FuzzExpect(greedy.NumChains() >= minimum.NumChains(), "chains/greedy",
             "greedy produced fewer chains than the minimum decomposition");

  // At these sizes every branch of the router is a minimum one.
  const ChainDecomposition scalable = ScalableChainDecomposition(points);
  FuzzRequireAudit(
      AuditChainDecomposition(points, scalable, /*expect_minimum=*/true),
      "chains/scalable");
  FuzzExpect(scalable.NumChains() == minimum.NumChains(), "chains/scalable",
             "scalable router chain count disagrees with the minimum");

  if (points.dimension() == 2) {
    const ChainDecomposition patience = MinimumChainDecomposition2D(points);
    FuzzRequireAudit(
        AuditChainDecomposition(points, patience, /*expect_minimum=*/true),
        "chains/patience2d");
    FuzzExpect(patience.NumChains() == minimum.NumChains(), "chains/patience2d",
               "patience chain count disagrees with the Lemma 6 path");
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace monoclass

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  monoclass::fuzz::FuzzOne(data, size);
  return 0;
}
