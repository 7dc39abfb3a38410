// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// perfbench: the repository benchmark. Usually started through
// perfbench/run.py, which builds this binary and validates its output;
// see perfbench/README.md.
//
//   perfbench --workload passive_cold|serve_sessions|inc_stream
//             --seed N --seconds S --trace 0|1
//             [--smoke] [--inject-fault] [--span-out PATH]
//
// The last line of stdout is one JSON object with the outcome and every
// measured metric (value, unit, sample count).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "obs/obs.h"
#include "util/concurrency.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload passive_cold|serve_sessions|"
               "inc_stream --seed N --seconds S --trace 0|1 [--smoke] "
               "[--inject-fault] [--span-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--span-out" && has_value) {
      options.span_path = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return Usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) return Usage();
  if (options.inject_fault && options.workload != "serve_sessions") {
    std::fprintf(stderr, "perfbench: --inject-fault needs serve_sessions\n");
    return Usage();
  }
  options.threads = monoclass::ParallelOptions{}.Resolve();

  // End-to-end windows run with obs compiled in but switched off, as a
  // library user gets it; traced windows switch it on themselves.
  monoclass::obs::SetEnabled(false);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "threads=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0, options.threads);
  std::fflush(stdout);

  perfbench::Results results;
  try {
    if (options.workload == "passive_cold") {
      perfbench::RunPassiveCold(options, results);
    } else if (options.workload == "serve_sessions") {
      perfbench::RunServeSessions(options, results);
    } else if (options.workload == "inc_stream") {
      perfbench::RunIncStream(options, results);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options.workload.c_str());
      return Usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  results.Set("failed_share",
              static_cast<double>(results.failed()) /
                  static_cast<double>(std::max<uint64_t>(1, results.attempted())),
              "ratio", results.attempted());
  results.Set("peak_rss_mb", perfbench::PeakRssMb(), "MiB", 1);
  results.PrintJson(options);
  return 0;
}
