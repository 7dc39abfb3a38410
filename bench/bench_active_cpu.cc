// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment E10: Theorem 3's CPU claim. The active algorithm's exact
// work happens once, on the weighted sample Sigma of size
// N = O((w/eps^2) log n log(n/w)), via the polynomial Theorem 4 solver --
// so end-to-end CPU time is polynomial and dominated by the decomposition
// (O(dn^2 + n^2.5)) plus the passive solve on |Sigma| << n points.

#include <iostream>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "bench_util.h"
#include "data/synthetic.h"
#include "util/concurrency.h"

namespace monoclass {
namespace {

void Run() {
  bench::PrintHeader(
      "E10", "Theorem 3",
      "active solving is polynomial: sampling time ~ probes; the exact "
      "step runs on |Sigma| = O((w/eps^2) log n log(n/w)) points only");

  bench::PrintSection(
      "end-to-end with precomputed chains (w = 8, eps = 1.0, 1% noise)");
  {
    TextTable table({"n", "probes", "|Sigma|", "total-ms", "|Sigma|/n"});
    for (const size_t length : {2048u, 8192u, 32768u, 131072u}) {
      ChainInstanceOptions options;
      options.num_chains = 8;
      options.chain_length = length;
      options.noise_per_chain = length / 100;
      options.seed = length + 3;
      const ChainInstance instance = GenerateChainInstance(options);
      InMemoryOracle oracle(instance.data);
      ActiveSolveOptions solve_options;
      solve_options.sampling = ActiveSamplingParams::Practical(1.0, 0.05);
      solve_options.precomputed_chains = instance.chains;
      obs::Span timer("bench/active_solve");
      const auto result =
          SolveActiveMultiD(instance.data.points(), oracle, solve_options);
      const double total_ms = timer.ElapsedMillis();
      table.AddRowValues(
          instance.data.size(), result.probes, result.sigma.size(),
          FormatDouble(total_ms, 4),
          FormatDouble(static_cast<double>(result.sigma.size()) /
                           static_cast<double>(instance.data.size()),
                       3));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "end-to-end including Lemma 6 (uniform planted sets, eps = 1.0)");
  {
    TextTable table({"n", "d", "w", "probes", "|Sigma|", "total-ms"});
    for (const size_t n : {1000u, 2000u, 4000u}) {
      PlantedOptions options;
      options.num_points = n;
      options.dimension = 2;
      options.noise_flips = n / 100;
      options.seed = n;
      const PlantedInstance instance = GeneratePlanted(options);
      InMemoryOracle oracle(instance.data);
      ActiveSolveOptions solve_options;
      solve_options.sampling = ActiveSamplingParams::Practical(1.0, 0.05);
      obs::Span timer("bench/active_solve");
      const auto result =
          SolveActiveMultiD(instance.data.points(), oracle, solve_options);
      table.AddRowValues(n, 2, result.num_chains, result.probes,
                         result.sigma.size(),
                         FormatDouble(timer.ElapsedMillis(), 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("eps effect on |Sigma| (w = 8, chain length 8192)");
  {
    ChainInstanceOptions options;
    options.num_chains = 8;
    options.chain_length = 8192;
    options.noise_per_chain = 80;
    options.seed = 77;
    const ChainInstance instance = GenerateChainInstance(options);
    TextTable table({"eps", "|Sigma|", "|Sigma|*eps^2", "total-ms"});
    for (const double eps : {1.0, 0.5, 0.25}) {
      InMemoryOracle oracle(instance.data);
      ActiveSolveOptions solve_options;
      solve_options.sampling = ActiveSamplingParams::Practical(eps, 0.05);
      solve_options.precomputed_chains = instance.chains;
      obs::Span timer("bench/active_solve");
      const auto result =
          SolveActiveMultiD(instance.data.points(), oracle, solve_options);
      table.AddRowValues(
          eps, result.sigma.size(),
          FormatDouble(static_cast<double>(result.sigma.size()) * eps * eps,
                       5),
          FormatDouble(timer.ElapsedMillis(), 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "thread sweep: per-chain parallel solves (w = 32, chain length 8192)");
  {
    // The per-chain 1D solves are the parallel hot path; the determinism
    // contract says every thread count must reproduce the serial
    // classifier bit for bit, so alongside speedup the table verifies
    // probes / |Sigma| / generator equality against the threads = 1 run.
    ChainInstanceOptions options;
    options.num_chains = 32;
    options.chain_length = 8192;
    options.noise_per_chain = 80;
    options.seed = 41;
    const ChainInstance instance = GenerateChainInstance(options);

    ActiveSolveOptions solve_options;
    solve_options.sampling = ActiveSamplingParams::Practical(0.5, 0.05);
    solve_options.precomputed_chains = instance.chains;
    solve_options.seed = 9;

    solve_options.parallel.threads = 1;
    InMemoryOracle serial_oracle(instance.data);
    obs::Span serial_timer("bench/active_solve_serial");
    const auto serial =
        SolveActiveMultiD(instance.data.points(), serial_oracle,
                          solve_options);
    const double serial_ms = serial_timer.ElapsedMillis();

    bench::BenchReport::Global().SetThreads(ParallelOptions{}.Resolve());
    bench::BenchReport::Global().AddParam(
        "hardware_threads", std::to_string(ParallelOptions{}.Resolve()));

    TextTable table(
        {"threads", "total-ms", "speedup", "probes", "identical"});
    table.AddRowValues(1, FormatDouble(serial_ms, 4), FormatDouble(1.0, 2),
                       serial.probes, "yes");
    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      solve_options.parallel.threads = threads;
      InMemoryOracle oracle(instance.data);
      obs::Span timer("bench/active_solve_parallel");
      const auto result =
          SolveActiveMultiD(instance.data.points(), oracle, solve_options);
      const double ms = timer.ElapsedMillis();
      const bool identical =
          result.probes == serial.probes &&
          result.sigma.size() == serial.sigma.size() &&
          result.classifier.generators() == serial.classifier.generators();
      table.AddRowValues(threads, FormatDouble(ms, 4),
                         FormatDouble(serial_ms / ms, 2), result.probes,
                         identical ? "yes" : "NO");
      if (!identical) {
        std::cerr << "bench_active_cpu: parallel run (threads=" << threads
                  << ") diverged from serial output\n";
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
