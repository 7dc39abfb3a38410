// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Process-wide metrics registry: named counters, gauges and histograms
// behind the MC_COUNTER / MC_GAUGE / MC_HISTOGRAM / MC_LATENCY macros
// (see obs/obs.h for the gating rules).
//
// There is one distribution type, obs::LatencyHistogram. The registry
// still keeps two kinds of it in separate maps: "histograms" (unitless
// quantities such as chain counts, reported as count/sum/min/max/mean
// and exposed as `# TYPE <name> histogram`) and "latencies" (MC_LATENCY
// microseconds, reported with p50/p90/p99/p999 and exposed as
// `# TYPE <name> summary`). A name belongs to exactly one kind.
//
// Design constraints, in order:
//   * O(1), thread-safe hot path -- updates are single relaxed atomics;
//     the name lookup happens once per macro expansion site (cached in a
//     function-local static).
//   * stable pointers -- GetCounter() results stay valid for the process
//     lifetime; ResetAll() zeroes values without invalidating them.
//   * allocation-free updates -- allocation happens only on first
//     registration of a name.

#ifndef MONOCLASS_OBS_METRICS_H_
#define MONOCLASS_OBS_METRICS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync_model.h"
#include "obs/latency_histogram.h"
#include "util/concurrency.h"

namespace monoclass {
namespace obs {

// Monotone counter.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, mc::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(mc::memory_order_relaxed); }
  void Reset() { value_.store(0, mc::memory_order_relaxed); }

 private:
  mc::atomic<uint64_t> value_{0};
};

// Last-value gauge.
class Gauge {
 public:
  void Set(double value) { value_.store(value, mc::memory_order_relaxed); }
  double Value() const { return value_.load(mc::memory_order_relaxed); }
  void Reset() { value_.store(0.0, mc::memory_order_relaxed); }

 private:
  mc::atomic<double> value_{0.0};
};

// One metric in a point-in-time snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram, kLatency };

  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;     // counter or gauge value; histogram mean
  uint64_t count = 0;     // histogram observation count
  double sum = 0.0;       // histogram sum
  double min = 0.0;       // histogram min (0 when empty)
  double max = 0.0;       // histogram max (0 when empty)
  // Latency-histogram quantiles (kLatency only), in microseconds.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Snapshot of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  // The sample with the given name, or nullptr.
  const MetricSample* Find(std::string_view name) const;
  // Counter value by name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
};

// The process-wide registry. Lookup methods create on first use; a name
// registered as one kind cannot be re-requested as another (MC_CHECK).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);
  LatencyHistogram* GetLatency(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every metric; pointers handed out earlier stay valid.
  void ResetAll();

  // {"counters": {...}, "gauges": {...}, "histograms": {name:
  // {"count":..,"sum":..,"min":..,"max":..,"mean":..}}, "latencies":
  // {name: {..., "p50":..,"p90":..,"p99":..,"p999":..}}}
  void WriteJson(std::ostream& out) const;

  // Prometheus-style text exposition (docs/observability.md#exposition):
  // one `# TYPE` comment per metric, `name value` lines, latency
  // quantiles as `name{quantile="0.5"} value` plus _count/_sum/_min/_max.
  // Metric names keep their dots; scrapers that need strict Prometheus
  // identifiers map '.' to '_'.
  void ExposeText(std::ostream& out) const;

 private:
  MetricsRegistry() = default;

  // The registry mutex guards the name -> metric maps only; the metric
  // objects themselves are lock-free (pointers handed out stay valid and
  // are updated with relaxed atomics, so holding mu_ is NOT required to
  // Add/Set/Observe).
  mutable Mutex mu_;
  // std::map keeps iteration sorted and node pointers stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      MC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      MC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_ MC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_ MC_GUARDED_BY(mu_);
};

// Writes a snapshot as the same JSON object WriteJson emits (used by the
// bench reporter to embed per-phase deltas).
void WriteSnapshotJson(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_METRICS_H_
