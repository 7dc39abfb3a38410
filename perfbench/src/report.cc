// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/random.h"

namespace perfbench {

double NowUs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  monoclass::Rng rng(seed, stream);
  return rng.Next();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

void Results::Set(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  metrics_[name] = Value{value, unit, samples};
}

void Results::SetMedian(const std::string& name, const Samples& samples,
                        const std::string& unit) {
  Set(name, samples.Median(), unit, samples.size());
}

void Results::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Results::Violation(const std::string& what) {
  violations_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Results::PrintJson(const Options& options) const {
  const bool correct = failed_ == 0 && violations_.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"workload\": " + JsonString(options.workload);
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  line += ", \"violations\": [";
  for (size_t i = 0; i < violations_.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(violations_[i]);
  }
  line += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(value.value) +
            ", \"unit\": " + JsonString(value.unit) +
            ", \"samples\": " + std::to_string(value.samples) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void BeginObsWindow() {
  monoclass::obs::MetricsRegistry::Global().ResetAll();
  monoclass::obs::SetEnabled(true);
}

void EndObsWindow() { monoclass::obs::SetEnabled(false); }

uint64_t ObsCounter(const char* name) {
  return monoclass::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double ObsLatencyP50(const char* name) {
  return monoclass::obs::MetricsRegistry::Global()
      .GetLatency(name)
      ->Quantile(0.5);
}

void SetCommonLayerMetrics(Results& results, double ops) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  const size_t n = static_cast<size_t>(ops);
  results.Set("graph.dinic_phases",
              per * static_cast<double>(ObsCounter("maxflow.dinic.phases")),
              "count/op", n);
  results.Set("graph.augmenting_paths",
              per * static_cast<double>(
                        ObsCounter("maxflow.dinic.augmenting_paths")),
              "count/op", n);
  results.Set("passive.dense_builds",
              per * static_cast<double>(ObsCounter("mc.net.dense_builds")),
              "count/op", n);
  results.Set("passive.sparse_builds",
              per * static_cast<double>(ObsCounter("mc.net.sparse_builds")),
              "count/op", n);
  const uint64_t tasks = ObsCounter("mc.pool.tasks");
  results.Set("util.pool_tasks", per * static_cast<double>(tasks),
              "count/op", n);
  results.Set("util.pool_wait_us.p50", ObsLatencyP50("mc.lat.pool_task_wait"),
              "us", tasks);
  results.Set("util.pool_run_us.p50", ObsLatencyP50("mc.lat.pool_task_run"),
              "us", tasks);
}

}  // namespace perfbench
