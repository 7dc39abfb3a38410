// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Experiment E4: Lemma 6 chain decomposition. Verifies the Dilworth
// identity (chains == width) on width-controlled inputs, measures the
// O(d n^2 + n^2.5) runtime scaling, and quantifies the greedy ablation's
// chain inflation (which multiplies the downstream probe bill, see E5).

#include <iostream>

#include "bench_util.h"
#include "core/antichain.h"
#include "core/chain_decomposition.h"
#include "core/chain_decomposition_2d.h"
#include "data/synthetic.h"

namespace monoclass {
namespace {

void Run() {
  bench::PrintHeader(
      "E4", "Lemma 6 + Dilworth's theorem",
      "a minimum chain decomposition with exactly w chains in "
      "O(dn^2 + n^2.5) time; greedy needs more chains");

  bench::PrintSection("planted width recovery (chain length 64)");
  {
    TextTable table({"w planted", "n", "min-chains", "greedy-chains",
                     "antichain", "time-ms"});
    for (const size_t w : {2u, 4u, 8u, 16u, 32u}) {
      ChainInstanceOptions options;
      options.num_chains = w;
      options.chain_length = 64;
      options.seed = w;
      const ChainInstance instance = GenerateChainInstance(options);
      obs::Span timer("bench/min_chain_decomposition");
      const auto minimum =
          MinimumChainDecomposition(instance.data.points());
      const double ms = timer.ElapsedMillis();
      const auto greedy = GreedyChainDecomposition(instance.data.points());
      const auto antichain = MaximumAntichain(instance.data.points());
      table.AddRowValues(w, instance.data.size(), minimum.NumChains(),
                         greedy.NumChains(), antichain.size(),
                         FormatDouble(ms, 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("runtime scaling in n (uniform planted sets, d = 2)");
  {
    TextTable table({"n", "width w", "time-ms", "time/n^2 (us)"});
    for (const size_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
      PlantedOptions options;
      options.num_points = n;
      options.seed = n + 7;
      const PlantedInstance instance = GeneratePlanted(options);
      obs::Span timer("bench/min_chain_decomposition");
      const auto minimum =
          MinimumChainDecomposition(instance.data.points());
      const double ms = timer.ElapsedMillis();
      table.AddRowValues(n, minimum.NumChains(), FormatDouble(ms, 4),
                         FormatDouble(1e3 * ms / (static_cast<double>(n) *
                                                  static_cast<double>(n)),
                                      3));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection(
      "extension: O(n log n) 2D patience decomposition vs Lemma 6");
  {
    TextTable table({"n", "lemma6 chains", "2d chains", "lemma6 ms",
                     "2d ms", "speedup"});
    for (const size_t n : {1024u, 4096u, 16384u}) {
      PlantedOptions options;
      options.num_points = n;
      options.seed = n + 13;
      const PlantedInstance instance = GeneratePlanted(options);
      obs::Span fast_timer("bench/decomposition_2d");
      const auto fast =
          MinimumChainDecomposition2D(instance.data.points());
      const double fast_ms = fast_timer.ElapsedMillis();
      double lemma6_ms = -1.0;
      size_t lemma6_chains = 0;
      if (n <= 4096) {  // the general path is quadratic; skip at 16k
        obs::Span lemma6_timer("bench/decomposition_lemma6");
        lemma6_chains =
            MinimumChainDecomposition(instance.data.points()).NumChains();
        lemma6_ms = lemma6_timer.ElapsedMillis();
      }
      table.AddRowValues(
          n, lemma6_ms < 0 ? std::string("-") : std::to_string(lemma6_chains),
          fast.NumChains(),
          lemma6_ms < 0 ? std::string("(skipped)")
                        : FormatDouble(lemma6_ms, 4),
          FormatDouble(fast_ms, 4),
          lemma6_ms < 0 ? std::string("-")
                        : FormatDouble(lemma6_ms / fast_ms, 4));
    }
    bench::PrintTable(table);
  }

  bench::PrintSection("greedy ablation on uniform random sets");
  {
    TextTable table({"n", "d", "width w", "greedy chains", "inflation"});
    for (const size_t d : {2u, 3u, 4u}) {
      PlantedOptions options;
      options.num_points = 2000;
      options.dimension = d;
      options.seed = 100 + d;
      const PlantedInstance instance = GeneratePlanted(options);
      const size_t width = DominanceWidth(instance.data.points());
      const size_t greedy =
          GreedyChainDecomposition(instance.data.points()).NumChains();
      table.AddRowValues(2000, d, width, greedy,
                         FormatDouble(static_cast<double>(greedy) /
                                          static_cast<double>(width),
                                      3));
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
