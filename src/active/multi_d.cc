// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "active/multi_d.h"

#include <optional>
#include <utility>
#include <vector>

#include "active/one_d.h"
#include "active/sample_audit.h"
#include "core/invariant_audit.h"
#include "obs/obs.h"
#include "obs/probe_budget.h"
#include "util/audit.h"

namespace monoclass {
namespace {

// Forwards probes to a shared oracle while counting this chain's cost
// locally. Chains partition the point set, so no point is probed by two
// chains and the local distinct count equals the chain's contribution to
// the shared oracle's NumProbes() -- exactly, even when other chains
// probe concurrently. This is what lets the per-chain budget accounting
// stay exact without reading the shared counters mid-run (which would be
// order-dependent under parallelism).
class ChainOracleView final : public LabelOracle {
 public:
  ChainOracleView(LabelOracle& shared, size_t num_points)
      : shared_(&shared), revealed_(num_points, false) {}

  Label Probe(size_t index) override {
    ++probe_calls_;
    if (!revealed_[index]) {
      revealed_[index] = true;
      ++distinct_probes_;
    }
    return shared_->Probe(index);
  }
  void Prefetch(const std::vector<size_t>& indices) override {
    shared_->Prefetch(indices);
  }
  size_t NumPoints() const override { return revealed_.size(); }
  size_t NumProbes() const override { return distinct_probes_; }
  size_t NumProbeCalls() const override { return probe_calls_; }

 private:
  LabelOracle* shared_;
  std::vector<bool> revealed_;
  size_t distinct_probes_ = 0;
  size_t probe_calls_ = 0;
};

}  // namespace

ActiveSolveResult SolveActiveMultiD(const PointSet& points,
                                    LabelOracle& oracle,
                                    const ActiveSolveOptions& options) {
  MC_CHECK(!points.empty());
  MC_CHECK_EQ(points.size(), oracle.NumPoints());
  options.sampling.Validate();
  MC_SPAN("active/solve");
  const size_t probes_before = oracle.NumProbes();

  // Step 1: chain decomposition.
  ChainDecomposition decomposition;
  {
    MC_SPAN("active/chain_decomposition");
    if (options.precomputed_chains.has_value()) {
      decomposition = *options.precomputed_chains;
      MC_CHECK(ValidateChainDecomposition(points, decomposition))
          << "precomputed_chains is not a valid decomposition of the input";
    } else {
      decomposition = MinimumChainDecomposition(points);
    }
  }
  // Minimality is audited where each decomposition is produced; here only
  // the partition/ordering invariants matter (they make step 2 sound).
  MC_AUDIT(AuditChainDecomposition(points, decomposition,
                                   /*expect_minimum=*/false));

  ActiveSolveResult result{
      .classifier = MonotoneClassifier::AlwaysZero(points.dimension())};
  result.num_chains = decomposition.NumChains();
  MC_GAUGE("active.chains", decomposition.NumChains());

  // Step 2: the 1D algorithm per chain. Each chain gets an independent RNG
  // stream and an equal share delta/w of the failure budget.
  obs::ProbeBudget budget(points.size(), decomposition.NumChains(),
                          options.sampling.epsilon, options.sampling.delta);
  ActiveSamplingParams chain_params = options.sampling;
  chain_params.delta =
      options.sampling.delta / static_cast<double>(decomposition.NumChains());

  // Chains are independent: disjoint point sets, independent RNG streams
  // (chain c always draws from Rng(seed, c), regardless of thread
  // count), and per-chain results are merged in chain order below. Only
  // the shared oracle couples the tasks, so it gets a synchronized
  // wrapper when more than one worker may probe it; with threads == 1
  // ParallelForEach runs the body inline on this thread and the raw
  // oracle is used directly -- the exact serial path.
  const size_t num_chains = decomposition.chains.size();
  struct ChainOutcome {
    OneDSolveResult result;
    size_t distinct_probes = 0;
  };
  std::vector<ChainOutcome> outcomes(num_chains);

  std::optional<SynchronizedOracle> synchronized;
  LabelOracle* shared_oracle = &oracle;
  if (options.parallel.Resolve() > 1 && num_chains > 1) {
    synchronized.emplace(oracle);
    shared_oracle = &*synchronized;
  }
  ParallelForEach(num_chains, options.parallel, [&](size_t c) {
    MC_SPAN("par.chain");
    MC_LATENCY("mc.lat.active_chain");
    const auto& chain = decomposition.chains[c];
    std::vector<double> coordinates(chain.size());
    for (size_t r = 0; r < chain.size(); ++r) {
      coordinates[r] = static_cast<double>(r);  // rank along the chain
    }
    ChainOracleView view(*shared_oracle, points.size());
    Rng chain_rng(options.seed, static_cast<uint64_t>(c));
    outcomes[c].result =
        SolveActive1D(chain, coordinates, view, chain_params, chain_rng);
    outcomes[c].distinct_probes = view.NumProbes();
  });

  for (size_t c = 0; c < num_chains; ++c) {
    const OneDSolveResult& chain_result = outcomes[c].result;
    result.total_levels += chain_result.levels;
    result.full_probe_levels += chain_result.full_probe_levels;
    for (const WeightedSampleEntry& entry : chain_result.sigma) {
      result.sigma.Add(points[entry.point_index], entry.label, entry.weight);
    }
    budget.RecordChain(c, outcomes[c].distinct_probes);
  }

  // Step 3: passive weighted solve on Sigma (Theorem 3 reduction). The
  // flow solver returns the classifier minimizing w-err_Sigma, which by
  // Lemma 14 is (1+eps)-approximate on P with high probability.
  const PassiveSolveResult passive =
      SolvePassiveWeighted(result.sigma, options.passive);
  result.classifier = passive.classifier;
  result.sigma_error = passive.optimal_weighted_error;
  result.probes = oracle.NumProbes() - probes_before;
  budget.RecordTotal(result.probes);
  result.probe_budget = budget.Report();
  // Union of per-chain samples covers every point exactly once (eq. (30)).
  MC_AUDIT(AuditWeightedSample(result.sigma,
                               static_cast<double>(points.size())));
  MC_AUDIT(AuditMonotone(result.classifier, points));
  return result;
}

}  // namespace monoclass
