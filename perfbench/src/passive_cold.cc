// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// passive_cold: cold SolvePassiveWeighted calls on planted inputs,
// cycling through three shapes that load different stages of the
// Theorem 4 pipeline (README.md has the reasons).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "graph/max_flow.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/sparse_network.h"
#include "util/concurrency.h"

namespace perfbench {
namespace {

using monoclass::LabeledPointSet;
using monoclass::MonotoneClassifier;
using monoclass::PassiveSolveOptions;
using monoclass::PassiveSolveResult;
using monoclass::WeightedPointSet;

struct Shape {
  const char* name;
  size_t n;
  size_t d;
  size_t flips;
};

constexpr Shape kShapes[] = {
    {"d2_flip25", 20000, 2, 5000},
    {"d2_flip1", 20000, 2, 200},
    {"d4_flip2", 8192, 4, 164},
};
constexpr Shape kSmokeShapes[] = {
    {"d2_flip25", 2000, 2, 500},
    {"d2_flip1", 2000, 2, 20},
    {"d4_flip2", 1024, 4, 20},
};
constexpr size_t kNumShapes = 3;
// Each set-up repetition generates one input set: one input per shape.
constexpr size_t kInputSets = 3;

struct Input {
  LabeledPointSet data;
  WeightedPointSet weighted;
  size_t flips = 0;
};

struct Solved {
  size_t set = 0;
  size_t shape = 0;
  MonotoneClassifier classifier;
  double error = 0.0;
};

struct Window {
  Samples solve_ms;
  Samples cycle_ms;
  Samples cycle_points_per_s;
  double points = 0.0;
  double solve_us = 0.0;
};

// Runs whole passes until the next one would overrun `seconds`; always
// at least one. A pass is one cycle per input set, and a cycle solves
// each shape once, so every run solves the same inputs in the same
// order however fast the machine is. `cycle` numbers cycles across
// windows, for span ids.
Window RunWindow(const std::vector<std::vector<Input>>& inputs,
                 const PassiveSolveOptions& solve_options, double seconds,
                 size_t& cycle, SpanRecorder& spans,
                 std::vector<Solved>& solved) {
  Window window;
  const double start = NowUs();
  size_t passes = 0;
  while (true) {
    for (size_t set = 0; set < kInputSets; ++set, ++cycle) {
      ScopedSpan cycle_span(spans, "passive_cold.cycle", cycle);
      const double cycle_start = NowUs();
      double cycle_points = 0.0, cycle_solve_us = 0.0;
      for (size_t s = 0; s < kNumShapes; ++s) {
        const Input& input = inputs[set][s];
        const int64_t span =
            spans.Begin("passive.SolvePassiveWeighted",
                        cycle * kNumShapes + s, cycle_span.handle());
        const double t0 = NowUs();
        PassiveSolveResult result =
            monoclass::SolvePassiveWeighted(input.weighted, solve_options);
        const double elapsed_us = NowUs() - t0;
        spans.End(span);
        const double points = static_cast<double>(input.weighted.size());
        window.solve_ms.Add(elapsed_us / 1000.0);
        window.solve_us += elapsed_us;
        window.points += points;
        cycle_solve_us += elapsed_us;
        cycle_points += points;
        solved.push_back(Solved{set, s, std::move(result.classifier),
                                result.optimal_weighted_error});
      }
      window.cycle_ms.Add((NowUs() - cycle_start) / 1000.0);
      window.cycle_points_per_s.Add(cycle_points / (cycle_solve_us / 1e6));
    }
    ++passes;
    const double elapsed = NowUs() - start;
    if (elapsed + elapsed / static_cast<double>(passes) > seconds * 1e6) {
      return window;
    }
  }
}

// Recounts every solve's error outside the timed window: it must equal
// the reported optimum, stay within the planted flips, and repeat
// bit-for-bit on every solve of the same input.
void Verify(const std::vector<std::vector<Input>>& inputs, const Shape* shapes,
            const std::vector<Solved>& solved, Results& results) {
  std::vector<std::vector<const Solved*>> first(
      kInputSets, std::vector<const Solved*>(kNumShapes, nullptr));
  for (const Solved& solve : solved) {
    results.Attempt();
    const Input& input = inputs[solve.set][solve.shape];
    const double errors = static_cast<double>(
        monoclass::CountErrors(solve.classifier, input.data));
    const Solved*& reference = first[solve.set][solve.shape];
    if (reference == nullptr) reference = &solve;
    if (std::abs(errors - solve.error) > 1e-9 ||
        errors > static_cast<double>(input.flips) ||
        reference->classifier.generators() != solve.classifier.generators() ||
        reference->error != solve.error) {
      results.Fail(std::string("passive_cold ") + shapes[solve.shape].name +
                   " set " + std::to_string(solve.set) +
                   ": recount " + std::to_string(errors) + " vs optimum " +
                   std::to_string(solve.error));
    }
  }
}

struct Stages {
  Samples pipeline_ms, contending_ms, build_ms, maxflow_ms, cut_ms,
      finalize_ms, unattributed, contending_share, edges, from_assignment_ms,
      weighted_error_ms, generators;
};

// Rebuilds SolvePassiveWeighted from its public stages, times each one,
// and checks that the stitched result equals the library's own.
void RunPipeline(const Input& input, const Solved& reference,
                 const monoclass::ParallelOptions& parallel, uint64_t id,
                 const char* shape, SpanRecorder& spans, Stages& stages,
                 Results& results) {
  const WeightedPointSet& set = input.weighted;
  PassiveSolveResult result{
      .classifier = MonotoneClassifier::AlwaysZero(set.dimension())};
  int64_t contending_span = 0, build_span = 0, maxflow_span = 0,
          cut_span = 0, finalize_span = 0;
  size_t num_contending = 0, edges = 0;
  ScopedSpan root(spans, "passive_cold.pipeline", id);
  {
    contending_span = spans.Begin("passive.ComputeContending", id,
                                  root.handle());
    const std::vector<size_t> active =
        monoclass::ComputeContending(set.points(), set.labels(), parallel)
            .contending;
    spans.End(contending_span);
    num_contending = active.size();

    build_span = spans.Begin("passive.BuildSparseChainRelayNetwork", id,
                             root.handle());
    monoclass::SparseNetworkPlan plan = monoclass::BuildSparseChainRelayNetwork(
        set, active, monoclass::PassiveInfiniteCapacity(set), parallel);
    spans.End(build_span);
    edges = plan.finite_edges + plan.infinite_edges;

    maxflow_span = spans.Begin("graph.MaxFlowSolver::Solve", id, root.handle());
    result.flow_value =
        monoclass::CreateMaxFlowSolver(monoclass::MaxFlowAlgorithm::kDinic)
            ->Solve(plan.network, 0, 1);
    spans.End(maxflow_span);

    cut_span = spans.Begin("graph.ResidualReachable", id, root.handle());
    const std::vector<bool> reachable =
        monoclass::ResidualReachable(plan.network, 0);
    spans.End(cut_span);

    // Step 4 of the solver: h(p) = 1 iff p's vertex is not reachable;
    // non-contending points keep their labels.
    result.assignment = set.labels();
    for (size_t k = 0; k < active.size(); ++k) {
      result.assignment[active[k]] = reachable[k + 2] ? 0 : 1;
    }

    finalize_span = spans.Begin("passive.FinalizePassiveResult", id,
                                root.handle());
    monoclass::FinalizePassiveResult(set, result);
    spans.End(finalize_span);
  }
  root.End();
  const double root_us = spans.DurationUs(root.handle());
  stages.pipeline_ms.Add(root_us / 1000.0);
  stages.contending_ms.Add(spans.DurationUs(contending_span) / 1000.0);
  stages.build_ms.Add(spans.DurationUs(build_span) / 1000.0);
  stages.maxflow_ms.Add(spans.DurationUs(maxflow_span) / 1000.0);
  stages.cut_ms.Add(spans.DurationUs(cut_span) / 1000.0);
  stages.finalize_ms.Add(spans.DurationUs(finalize_span) / 1000.0);
  stages.unattributed.Add(spans.SelfUs(root.handle()) / root_us);
  stages.contending_share.Add(static_cast<double>(num_contending) /
                              static_cast<double>(set.size()));
  stages.edges.Add(static_cast<double>(edges));
  stages.generators.Add(
      static_cast<double>(result.classifier.generators().size()));

  if (result.classifier.generators() != reference.classifier.generators() ||
      result.optimal_weighted_error != reference.error) {
    results.Violation(std::string("stitch check ") + shape + ": pipeline " +
                      std::to_string(result.optimal_weighted_error) + " vs " +
                      std::to_string(reference.error));
  }

  // The two halves of FinalizePassiveResult on their own.
  {
    ScopedSpan span(spans, "core.MonotoneClassifier::FromAssignment", id);
    auto classifier =
        MonotoneClassifier::FromAssignment(set.points(), result.assignment);
    span.End();
    stages.from_assignment_ms.Add(spans.DurationUs(span.handle()) / 1000.0);
    if (!classifier.has_value()) {
      results.Violation(std::string("FromAssignment rejected ") + shape);
    }
  }
  {
    ScopedSpan span(spans, "core.WeightedError", id);
    const double error = monoclass::WeightedError(result.classifier, set);
    span.End();
    stages.weighted_error_ms.Add(spans.DurationUs(span.handle()) / 1000.0);
    if (error != result.optimal_weighted_error) {
      results.Violation(std::string("WeightedError disagrees on ") + shape);
    }
  }
}

}  // namespace

void RunPassiveCold(const Options& options, Results& results) {
  const Shape* shapes = options.smoke ? kSmokeShapes : kShapes;
  PassiveSolveOptions solve_options;
  solve_options.parallel.threads = options.threads;

  // Set-up: one input per shape per repetition.
  std::vector<std::vector<Input>> inputs(kInputSets);
  Samples setup_s;
  for (size_t r = 0; r < kInputSets; ++r) {
    const double t0 = NowUs();
    for (size_t s = 0; s < kNumShapes; ++s) {
      monoclass::PlantedOptions planted;
      planted.num_points = shapes[s].n;
      planted.dimension = shapes[s].d;
      planted.noise_flips = shapes[s].flips;
      planted.seed = SubSeed(options.seed, r * kNumShapes + s);
      monoclass::PlantedInstance instance = monoclass::GeneratePlanted(planted);
      Input input;
      input.weighted = WeightedPointSet::UnitWeights(instance.data);
      input.data = std::move(instance.data);
      input.flips = shapes[s].flips;
      inputs[r].push_back(std::move(input));
    }
    setup_s.Add((NowUs() - t0) / 1e6);
  }

  SpanRecorder untraced(false);
  std::vector<Solved> solved;
  size_t cycle = 0;
  const Window window = RunWindow(inputs, solve_options, options.seconds,
                                  cycle, untraced, solved);

  results.SetMedian("setup_s", setup_s, "s");
  results.SetMedian("throughput_per_s", window.cycle_points_per_s, "1/s");
  results.Set("points_per_s", window.points / (window.solve_us / 1e6),
              "points/s", window.solve_ms.size());
  results.SetMedian("op_ms.p50", window.solve_ms, "ms");
  results.Set("op_ms.p90", window.solve_ms.Quantile(0.9), "ms",
              window.solve_ms.size());
  results.SetMedian("job_ms.p50", window.cycle_ms, "ms");

  if (options.trace) {
    SpanRecorder spans(true);
    BeginObsWindow();
    const Window traced = RunWindow(inputs, solve_options, options.seconds,
                                    cycle, spans, solved);
    EndObsWindow();
    SetCommonLayerMetrics(results,
                          static_cast<double>(traced.solve_ms.size()));
    results.Set("obs.trace_overhead_share",
                (traced.solve_us / traced.points) /
                        (window.solve_us / window.points) -
                    1.0,
                "ratio", traced.solve_ms.size());
    results.SetMedian("data.generate_s", setup_s, "s");

    // Stage tables, one pipeline per input set, each stitched against
    // the window's first solve of that input (the first pass solves
    // set-major, shape-minor).
    monoclass::ParallelOptions parallel;
    parallel.threads = options.threads;
    BeginObsWindow();
    for (size_t s = 0; s < kNumShapes; ++s) {
      Stages stages;
      for (size_t r = 0; r < kInputSets; ++r) {
        RunPipeline(inputs[r][s], solved[r * kNumShapes + s], parallel,
                    r * kNumShapes + s, shapes[s].name, spans, stages,
                    results);
      }
      const std::string suffix = std::string(".") + shapes[s].name;
      results.SetMedian("passive.pipeline_ms" + suffix, stages.pipeline_ms,
                        "ms");
      results.SetMedian("passive.contending_ms" + suffix, stages.contending_ms,
                        "ms");
      results.SetMedian("passive.contending_share" + suffix,
                        stages.contending_share, "ratio");
      results.SetMedian("passive.network_build_ms" + suffix, stages.build_ms,
                        "ms");
      results.SetMedian("passive.network_edges" + suffix, stages.edges,
                        "count");
      results.SetMedian("graph.maxflow_ms" + suffix, stages.maxflow_ms, "ms");
      results.SetMedian("graph.cut_ms" + suffix, stages.cut_ms, "ms");
      results.SetMedian("passive.finalize_ms" + suffix, stages.finalize_ms,
                        "ms");
      results.SetMedian("passive.unattributed_share" + suffix,
                        stages.unattributed, "ratio");
      results.SetMedian("core.from_assignment_ms" + suffix,
                        stages.from_assignment_ms, "ms");
      results.SetMedian("core.weighted_error_ms" + suffix,
                        stages.weighted_error_ms, "ms");
      results.SetMedian("core.generators" + suffix, stages.generators,
                        "count");
    }
    EndObsWindow();
    if (!spans.Write(options.span_path, options)) {
      results.Violation("cannot write spans to " + options.span_path);
    }
  }

  Verify(inputs, shapes, solved, results);
}

}  // namespace perfbench
