// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Active monotone classification in R^d (paper Section 4, Theorems 2-3).
//
// Pipeline:
//   1. compute a minimum chain decomposition C_1..C_w (Lemma 6);
//   2. run the Section 3 1D algorithm on each chain -- a chain sorted by
//      dominance is a 1D instance with coordinate = rank, because every
//      monotone classifier maps a prefix of the chain to 0 and the rest
//      to 1 -- obtaining a fully-labeled weighted sample Sigma_i;
//   3. Sigma = union Sigma_i; find the classifier minimizing
//      w-err_Sigma by solving passive weighted classification on Sigma
//      with the Theorem 4 flow solver (the Theorem 3 reduction).
//
// With probability >= 1 - delta the result's error on P is at most
// (1 + eps) k*. Probes: O((w/eps^2) log n log(n/w)).

#ifndef MONOCLASS_ACTIVE_MULTI_D_H_
#define MONOCLASS_ACTIVE_MULTI_D_H_

#include <optional>

#include "active/oracle.h"
#include "active/params.h"
#include "core/chain_decomposition.h"
#include "core/classifier.h"
#include "core/dataset.h"
#include "obs/probe_budget.h"
#include "passive/flow_solver.h"
#include "util/concurrency.h"

namespace monoclass {

struct ActiveSolveOptions {
  ActiveSamplingParams sampling = ActiveSamplingParams::Practical(0.5, 0.01);
  // Deterministic seed for the sampling; every run is reproducible.
  uint64_t seed = 1;
  // Override the Lemma 6 decomposition. Large-scale benches pass the
  // chains the workload generator already knows, skipping the
  // O(d n^2 + n^2.5) step; ablations pass GreedyChainDecomposition (more
  // chains -> more probes; see bench_active_probes) or the O(n log n)
  // MinimumChainDecomposition2D. Must be a valid decomposition of the
  // input points.
  std::optional<ChainDecomposition> precomputed_chains;
  // Options for the final passive solve on Sigma.
  PassiveSolveOptions passive;
  // Parallelism for the per-chain 1D solves. Chains are independent
  // sub-problems, so they run as pool tasks; results are merged in chain
  // order and each chain draws from its own (seed, chain_index) RNG
  // stream, making the output bit-identical to the serial run.
  // threads = 1 takes the exact serial path (no pool, no locking);
  // 0 = hardware concurrency. See docs/concurrency.md.
  ParallelOptions parallel;
};

struct ActiveSolveResult {
  MonotoneClassifier classifier;
  // Probing cost: distinct points revealed.
  size_t probes = 0;
  // Number of chains used (= the dominance width w for the Lemma 6 path).
  size_t num_chains = 0;
  // The union Sigma of the per-chain weighted samples.
  WeightedPointSet sigma;
  // min_h w-err_Sigma(h) achieved by the returned classifier.
  double sigma_error = 0.0;
  // Diagnostics aggregated over chains.
  size_t total_levels = 0;
  size_t full_probe_levels = 0;
  // Probe account of this run against the instantiated Theorem 2 bound
  // (per-chain breakdown included; see obs/probe_budget.h).
  obs::ProbeBudgetReport probe_budget;
};

// Solves Problem 1 on the points behind `oracle`. `points` supplies the
// visible coordinates; `oracle` must index the same array.
ActiveSolveResult SolveActiveMultiD(const PointSet& points,
                                    LabelOracle& oracle,
                                    const ActiveSolveOptions& options = {});

}  // namespace monoclass

#endif  // MONOCLASS_ACTIVE_MULTI_D_H_
