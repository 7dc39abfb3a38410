// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment E3: the max-flow substrate. Compares the two bundled
// solvers -- Dinic, the default, and Edmonds-Karp, the reference oracle
// -- on (a) the dense classification networks Theorem 4 builds and (b)
// adversarial layered networks, checking they agree on the flow value
// and reporting wall-clock times. The paper cites Goldberg-Tarjan [14]
// for T_maxflow = O(n^3); Dinic is our default (see DESIGN.md).

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "graph/max_flow.h"
#include "passive/contending.h"
#include "passive/flow_solver.h"
#include "passive/sparse_network.h"
#include "util/concurrency.h"
#include "util/random.h"

namespace monoclass {
namespace {

// The dense Theorem 4 classification network for a planted instance,
// built serially (source = 0, sink = 1).
FlowNetwork BuildClassificationNetwork(const LabeledPointSet& data) {
  const WeightedPointSet weighted = WeightedPointSet::UnitWeights(data);
  const std::vector<size_t> active =
      ComputeContending(weighted.points(), weighted.labels()).contending;
  ParallelOptions serial;
  serial.threads = 1;
  return BuildDenseDominanceNetwork(weighted, active,
                                    PassiveInfiniteCapacity(weighted), serial)
      .network;
}

// Dense layered network: `layers` x `width` vertices, random capacities.
FlowNetwork BuildLayeredNetwork(Rng& rng, int layers, int width, int* source,
                                int* sink) {
  FlowNetwork network(2 + layers * width);
  *source = 0;
  *sink = 1;
  auto vertex = [&](int layer, int i) { return 2 + layer * width + i; };
  for (int i = 0; i < width; ++i) {
    network.AddEdge(*source, vertex(0, i),
                    static_cast<double>(1 + rng.UniformInt(50)));
    network.AddEdge(vertex(layers - 1, i), *sink,
                    static_cast<double>(1 + rng.UniformInt(50)));
  }
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < width; ++j) {
        if (rng.Bernoulli(0.4)) {
          network.AddEdge(vertex(layer, i), vertex(layer + 1, j),
                          static_cast<double>(1 + rng.UniformInt(20)));
        }
      }
    }
  }
  return network;
}

void Run() {
  bench::PrintHeader(
      "E3", "max-flow substrate ([14] in the paper)",
      "both solvers agree; relative performance on the Theorem 4 "
      "classification networks and on dense layered networks");

  bench::PrintSection("classification networks (planted, 2% noise, d=2)");
  {
    TextTable table({"n", "solver", "flow", "time-ms"});
    for (const size_t n : {2048u, 8192u}) {
      PlantedOptions options;
      options.num_points = n;
      options.noise_flips = n / 50;
      options.seed = n + 1;
      const PlantedInstance instance = GeneratePlanted(options);
      for (const auto algorithm : AllMaxFlowAlgorithms()) {
        FlowNetwork network = BuildClassificationNetwork(instance.data);
        const auto solver = CreateMaxFlowSolver(algorithm);
        obs::Span timer("bench/classification_solve");
        const double flow = solver->Solve(network, 0, 1);
        table.AddRowValues(n, solver->Name(), FormatDouble(flow, 6),
                           FormatDouble(timer.ElapsedMillis(), 4));
      }
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("dense layered networks (4 layers)");
  {
    TextTable table({"width", "solver", "flow", "time-ms"});
    for (const int width : {40, 120}) {
      Rng rng(static_cast<uint64_t>(width));
      int source = 0;
      int sink = 0;
      FlowNetwork reference =
          BuildLayeredNetwork(rng, 4, width, &source, &sink);
      for (const auto algorithm : AllMaxFlowAlgorithms()) {
        FlowNetwork network = reference;  // copy with fresh residuals
        network.ResetFlow();
        const auto solver = CreateMaxFlowSolver(algorithm);
        obs::Span timer("bench/layered_solve");
        const double flow = solver->Solve(network, source, sink);
        table.AddRowValues(width, solver->Name(), FormatDouble(flow, 6),
                           FormatDouble(timer.ElapsedMillis(), 4));
      }
    }
    bench::PrintTable(table);
  }
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  argc = monoclass::bench::ParseBenchArgs(argc, argv);
  (void)argc;
  (void)argv;
  monoclass::Run();
  return 0;
}
