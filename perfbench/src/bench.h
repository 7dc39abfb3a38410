// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Shared pieces of the repository benchmark: run options, clocks, sample
// statistics, the result record every workload fills in, and the span
// recorder of the traced run. See perfbench/README.md for the workloads
// and the meaning of every metric.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Per-layer run: obs switched on, benchmark spans recorded.
  bool trace = false;
  // Seconds-long variant with small inputs, for the benchmark's own tests.
  bool smoke = false;
  // Tampers with one served answer so verification must catch it.
  bool inject_fault = false;
  // Where the traced run writes its spans (empty: not written).
  std::string span_path;
  // Client connections and solver threads: the machine's core count.
  size_t threads = 1;
};

// Monotonic wall clock in microseconds.
double NowUs();

// A derived seed for sub-stream `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Peak resident set of this process, in MiB.
double PeakRssMb();

// An unordered bag of measurements.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

// Outcome and metrics of one run, printed as the last line of stdout.
class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  // Sets `<name>` to the median of `samples`.
  void SetMedian(const std::string& name, const Samples& samples,
                 const std::string& unit);

  void Attempt(uint64_t count = 1) { attempted_ += count; }
  // One attempted operation failed or failed verification.
  void Fail(const std::string& what);
  // A whole-run check (stitch, counter cross-check) failed.
  void Violation(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // {"correct": .., "attempted": .., "failed": .., "metrics": {name:
  // {"value": .., "unit": .., "samples": ..}}, "seed": .., ...}
  void PrintJson(const Options& options) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Value> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> violations_;
};

// In-memory spans of the traced run. Each span holds a name, a start, an
// end, a parent and the id of the solve, session or checkpoint it serves.
// A disabled recorder ignores every call, so untraced windows share the
// workload code with traced ones.
class SpanRecorder {
 public:
  static constexpr int64_t kNoSpan = -1;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  int64_t Begin(const char* name, uint64_t trace_id, int64_t parent);
  void End(int64_t handle);

  // Duration minus the part of it that the span's children cover.
  double SelfUs(int64_t handle) const;
  double DurationUs(int64_t handle) const;

  // Writes every span plus per-name total and self time as JSON.
  bool Write(const std::string& path, const Options& options) const;

 private:
  struct Span {
    const char* name = "";
    uint64_t trace_id = 0;
    int64_t parent = kNoSpan;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  double SelfUsLocked(size_t index,
                      const std::vector<std::vector<size_t>>& children) const;
  std::vector<std::vector<size_t>> ChildrenLocked() const;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t trace_id,
             int64_t parent = SpanRecorder::kNoSpan)
      : recorder_(recorder),
        handle_(recorder.Begin(name, trace_id, parent)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t handle() const { return handle_; }
  // Ends the span before the scope does; later calls are no-ops.
  void End() {
    if (!ended_) recorder_.End(handle_);
    ended_ = true;
  }

 private:
  SpanRecorder& recorder_;
  const int64_t handle_;
  bool ended_ = false;
};

// Program counters of one traced window: the registry is zeroed and obs
// switched on at the start, and switched off again at the end.
void BeginObsWindow();
void EndObsWindow();
uint64_t ObsCounter(const char* name);
double ObsLatencyP50(const char* name);

// Per-operation program counters shared by every workload's traced run
// (graph.*, passive.*_builds, util.pool_*), read after EndObsWindow.
void SetCommonLayerMetrics(Results& results, double ops);

// The workloads. Each fills `results`; a set-up failure throws.
void RunPassiveCold(const Options& options, Results& results);
void RunServeSessions(const Options& options, Results& results);
void RunIncStream(const Options& options, Results& results);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
