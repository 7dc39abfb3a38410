// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// inc_stream: a stream of Insert / Erase / Relabel deltas against
// IncrementalPassiveSolver, with a Solve() checkpoint after every block
// (README.md has the reasons).

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/classifier.h"
#include "data/synthetic.h"
#include "passive/flow_solver.h"
#include "passive/incremental_solver.h"
#include "util/random.h"

namespace perfbench {
namespace {

using monoclass::IncrementalPassiveSolver;
using monoclass::Label;

constexpr size_t kPoints = 20000;
constexpr size_t kSmokePoints = 2000;
constexpr size_t kDimension = 2;
constexpr size_t kFlips = 200;
constexpr size_t kSmokeFlips = 20;
constexpr size_t kBlock = 200;
constexpr double kInsertNoise = 0.01;
// Each set-up repetition bulk-loads one solver; timed blocks rotate over
// them, so every set-up's work is used.
constexpr size_t kSolvers = 3;
// Traced checkpoints whose FinalizePassiveResult is timed on its own.
constexpr size_t kTimedFinalizes = 3;

enum DeltaKind { kInsert = 0, kErase = 1, kRelabel = 2 };
constexpr const char* kDeltaSpan[] = {
    "passive.IncrementalPassiveSolver::Insert",
    "passive.IncrementalPassiveSolver::Erase",
    "passive.IncrementalPassiveSolver::Relabel"};

// One bulk-loaded solver plus the benchmark's own view of its live set,
// from which deltas are drawn.
struct Stream {
  std::unique_ptr<IncrementalPassiveSolver> solver;
  monoclass::Rng rng;
  std::vector<size_t> live;   // live ids, any order
  std::vector<size_t> slot;   // id -> index in `live`
  std::vector<Label> label;   // id -> current label
};

struct Window {
  Samples delta_us[3];
  Samples checkpoint_ms;
  Samples finalize_ms;
  Samples block_deltas_per_s;
  size_t deltas = 0;
  double busy_us = 0.0;
  monoclass::IncrementalStats stats;  // summed over the window
};

Label PlantedLabel(const monoclass::Point& point) {
  double sum = 0.0;
  for (size_t i = 0; i < point.dimension(); ++i) sum += point[i];
  return sum > static_cast<double>(point.dimension()) / 2.0 ? 1 : 0;
}

// Draws and applies one delta: 40% Insert with a planted label and 1%
// noise, 30% Erase, 30% Relabel (a label flip). Returns its kind.
DeltaKind ApplyDelta(Stream& stream, SpanRecorder& spans, int64_t parent,
                     uint64_t id, double& elapsed_us) {
  const double u = stream.rng.UniformDouble();
  const DeltaKind kind = u < 0.4 ? kInsert : (u < 0.7 ? kErase : kRelabel);
  if (kind == kInsert) {
    std::vector<double> coords(kDimension);
    for (double& c : coords) c = stream.rng.UniformDouble();
    monoclass::Point point(std::move(coords));
    Label label = PlantedLabel(point);
    if (stream.rng.Bernoulli(kInsertNoise)) label = 1 - label;
    ScopedSpan span(spans, kDeltaSpan[kind], id, parent);
    const double t0 = NowUs();
    const size_t new_id = stream.solver->Insert(point, label);
    elapsed_us = NowUs() - t0;
    span.End();
    stream.slot.resize(new_id + 1);
    stream.label.resize(new_id + 1);
    stream.slot[new_id] = stream.live.size();
    stream.live.push_back(new_id);
    stream.label[new_id] = label;
    return kind;
  }
  const size_t pick = stream.live[stream.rng.UniformInt(stream.live.size())];
  ScopedSpan span(spans, kDeltaSpan[kind], id, parent);
  const double t0 = NowUs();
  if (kind == kErase) {
    stream.solver->Erase(pick);
  } else {
    stream.solver->Relabel(pick, 1 - stream.label[pick]);
  }
  elapsed_us = NowUs() - t0;
  span.End();
  if (kind == kErase) {
    const size_t at = stream.slot[pick];
    stream.live[at] = stream.live.back();
    stream.slot[stream.live[at]] = at;
    stream.live.pop_back();
  } else {
    stream.label[pick] = 1 - stream.label[pick];
  }
  return kind;
}

void AddStats(monoclass::IncrementalStats& sum,
              const monoclass::IncrementalStats& after,
              const monoclass::IncrementalStats& before) {
  sum.deltas += after.deltas - before.deltas;
  sum.enter_contending += after.enter_contending - before.enter_contending;
  sum.leave_contending += after.leave_contending - before.leave_contending;
  sum.drained_paths += after.drained_paths - before.drained_paths;
  sum.retarget_edges += after.retarget_edges - before.retarget_edges;
  sum.augment_calls += after.augment_calls - before.augment_calls;
  sum.rebuilds += after.rebuilds - before.rebuilds;
}

// Blocks of kBlock deltas plus one checkpoint, rotating over the
// streams, until the next block would overrun `seconds`; at least one.
// Each checkpoint's error is recounted outside the timed blocks.
Window RunWindow(std::vector<Stream>& streams, double seconds, size_t& block,
                 SpanRecorder& spans, Results& results) {
  Window window;
  size_t blocks = 0;
  while (true) {
    Stream& stream = streams[block % streams.size()];
    const monoclass::IncrementalStats before = stream.solver->stats();
    ScopedSpan root(spans, "inc_stream.block", block);
    const double block_start = NowUs();
    for (size_t i = 0; i < kBlock; ++i) {
      double elapsed_us = 0.0;
      const DeltaKind kind =
          ApplyDelta(stream, spans, root.handle(), block, elapsed_us);
      window.delta_us[kind].Add(elapsed_us);
    }
    const int64_t span = spans.Begin(
        "passive.IncrementalPassiveSolver::Solve", block, root.handle());
    const double t0 = NowUs();
    const monoclass::PassiveSolveResult& solved = stream.solver->Solve();
    const double t1 = NowUs();
    spans.End(span);
    root.End();
    window.checkpoint_ms.Add((t1 - t0) / 1000.0);
    window.busy_us += t1 - block_start;
    window.block_deltas_per_s.Add(kBlock / ((t1 - block_start) / 1e6));
    window.deltas += kBlock;
    AddStats(window.stats, stream.solver->stats(), before);
    ++block;
    ++blocks;

    const monoclass::WeightedPointSet snapshot = stream.solver->Snapshot();
    results.Attempt(kBlock + 1);
    if (monoclass::WeightedError(solved.classifier, snapshot) !=
        solved.optimal_weighted_error) {
      results.Fail("checkpoint " + std::to_string(block) +
                   ": recounted error differs from the reported optimum");
    }
    if (spans.enabled() && window.finalize_ms.size() < kTimedFinalizes) {
      // FinalizePassiveResult on its own, on the checkpoint's cut.
      monoclass::PassiveSolveResult copy{.classifier = solved.classifier};
      copy.assignment = solved.assignment;
      copy.flow_value = solved.flow_value;
      ScopedSpan finalize(spans, "passive.FinalizePassiveResult", block);
      const double f0 = NowUs();
      monoclass::FinalizePassiveResult(snapshot, copy);
      window.finalize_ms.Add((NowUs() - f0) / 1000.0);
    }
    if (window.busy_us + window.busy_us / static_cast<double>(blocks) >
        seconds * 1e6) {
      return window;
    }
  }
}

Samples AllDeltas(const Window& window) {
  Samples all;
  for (const Samples& samples : window.delta_us) all.Append(samples);
  return all;
}

}  // namespace

void RunIncStream(const Options& options, Results& results) {
  const size_t n = options.smoke ? kSmokePoints : kPoints;
  monoclass::IncrementalSolveOptions solve_options;
  solve_options.parallel.threads = options.threads;

  std::vector<Stream> streams;
  Samples setup_s, generate_s;
  for (size_t r = 0; r < kSolvers; ++r) {
    const double t0 = NowUs();
    monoclass::PlantedOptions planted;
    planted.num_points = n;
    planted.dimension = kDimension;
    planted.noise_flips = options.smoke ? kSmokeFlips : kFlips;
    planted.seed = SubSeed(options.seed, r);
    const monoclass::PlantedInstance instance =
        monoclass::GeneratePlanted(planted);
    const double t1 = NowUs();
    Stream stream{
        std::make_unique<IncrementalPassiveSolver>(
            monoclass::WeightedPointSet::UnitWeights(instance.data),
            solve_options),
        monoclass::Rng(options.seed, 1000 + r),
        {},
        {},
        instance.data.labels()};
    setup_s.Add((NowUs() - t0) / 1e6);
    generate_s.Add((t1 - t0) / 1e6);
    for (size_t id = 0; id < n; ++id) {
      stream.slot.push_back(id);
      stream.live.push_back(id);
    }
    streams.push_back(std::move(stream));
  }
  results.SetMedian("setup_s", setup_s, "s");

  SpanRecorder untraced(false);
  size_t block = 0;
  const Window window =
      RunWindow(streams, options.seconds, block, untraced, results);
  const Samples deltas = AllDeltas(window);
  const double deltas_per_s =
      static_cast<double>(window.deltas) / (window.busy_us / 1e6);
  results.SetMedian("throughput_per_s", window.block_deltas_per_s, "1/s");
  results.Set("deltas_per_s", deltas_per_s, "1/s", window.deltas);
  results.Set("op_ms.p50", deltas.Median() / 1000.0, "ms", deltas.size());
  results.Set("op_ms.p90", deltas.Quantile(0.9) / 1000.0, "ms",
              deltas.size());
  results.SetMedian("delta_us.p50", deltas, "us");
  results.Set("delta_us.p99", deltas.Quantile(0.99), "us", deltas.size());
  results.SetMedian("job_ms.p50", window.checkpoint_ms, "ms");
  results.SetMedian("checkpoint_ms.p50", window.checkpoint_ms, "ms");

  if (options.trace) {
    SpanRecorder spans(true);
    BeginObsWindow();
    const Window traced =
        RunWindow(streams, options.seconds, block, spans, results);
    EndObsWindow();
    const double ops = static_cast<double>(traced.deltas);
    SetCommonLayerMetrics(results, ops);
    results.Set("obs.trace_overhead_share",
                (traced.busy_us / ops) /
                        (window.busy_us / static_cast<double>(window.deltas)) -
                    1.0,
                "ratio", traced.deltas);
    results.SetMedian("data.generate_s", generate_s, "s");
    results.SetMedian("inc.insert_us.p50", traced.delta_us[kInsert], "us");
    results.SetMedian("inc.erase_us.p50", traced.delta_us[kErase], "us");
    results.SetMedian("inc.relabel_us.p50", traced.delta_us[kRelabel], "us");
    results.SetMedian("inc.finalize_ms.p50", traced.finalize_ms, "ms");
    const monoclass::IncrementalStats& stats = traced.stats;
    const auto per_delta = [&](const char* name, uint64_t count) {
      results.Set(name, static_cast<double>(count) / ops, "count/op",
                  traced.deltas);
    };
    per_delta("inc.rebuilds", stats.rebuilds);
    per_delta("inc.augment_calls", stats.augment_calls);
    per_delta("inc.drained_paths", stats.drained_paths);
    per_delta("inc.retarget_edges", stats.retarget_edges);
    per_delta("inc.enter_contending", stats.enter_contending);
    per_delta("inc.leave_contending", stats.leave_contending);
    if (!spans.Write(options.span_path, options)) {
      results.Violation("cannot write spans to " + options.span_path);
    }
  }

  // The final state of every solver must equal a cold solve.
  for (size_t r = 0; r < streams.size(); ++r) {
    results.Attempt();
    const monoclass::AuditResult audit = streams[r].solver->AuditIncrementalCut();
    if (!audit.ok) {
      results.Fail("AuditIncrementalCut on solver " + std::to_string(r) +
                   ": " + audit.failure);
    }
  }
}

}  // namespace perfbench
