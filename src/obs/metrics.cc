// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace monoclass {
namespace obs {

const MetricSample* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricSample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricSample* sample = Find(name);
  if (sample == nullptr || sample->kind != MetricSample::Kind::kCounter) {
    return 0;
  }
  return static_cast<uint64_t>(sample->value);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Returns the metric named `name` in `metrics`, creating it on first use.
// A name already registered in one of `other_kinds` is a caller bug.
template <typename Metric, typename... OtherMaps>
Metric* FindOrCreate(
    std::map<std::string, std::unique_ptr<Metric>, std::less<>>& metrics,
    std::string_view name, const OtherMaps&... other_kinds) {
  auto it = metrics.find(name);
  if (it != metrics.end()) return it->second.get();
  MC_CHECK(((other_kinds.find(name) == other_kinds.end()) && ...))
      << "metric '" << std::string(name) << "' already registered with a "
      << "different kind";
  return metrics.emplace(std::string(name), std::make_unique<Metric>())
      .first->second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  return FindOrCreate(counters_, name, gauges_, histograms_, latencies_);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  return FindOrCreate(gauges_, name, counters_, histograms_, latencies_);
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  return FindOrCreate(histograms_, name, counters_, gauges_, latencies_);
}

LatencyHistogram* MetricsRegistry::GetLatency(std::string_view name) {
  MutexLock lock(mu_);
  return FindOrCreate(latencies_, name, counters_, gauges_, histograms_);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(counters_.size() + gauges_.size() +
                           histograms_.size() + latencies_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kCounter;
    sample.value = static_cast<double>(counter->Value());
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kGauge;
    sample.value = gauge->Value();
    snapshot.samples.push_back(std::move(sample));
  }
  // Histograms and latencies share one type; only latencies report
  // quantiles.
  const auto distribution = [](const std::string& name,
                               MetricSample::Kind kind,
                               const LatencyHistogram& histogram) {
    MetricSample sample;
    sample.name = name;
    sample.kind = kind;
    sample.count = histogram.Count();
    sample.sum = histogram.Sum();
    sample.value = histogram.Mean();
    sample.min = sample.count == 0 ? 0.0 : histogram.Min();
    sample.max = sample.count == 0 ? 0.0 : histogram.Max();
    if (kind == MetricSample::Kind::kLatency) {
      sample.p50 = histogram.Quantile(0.5);
      sample.p90 = histogram.Quantile(0.9);
      sample.p99 = histogram.Quantile(0.99);
      sample.p999 = histogram.Quantile(0.999);
    }
    return sample;
  };
  for (const auto& [name, histogram] : histograms_) {
    snapshot.samples.push_back(
        distribution(name, MetricSample::Kind::kHistogram, *histogram));
  }
  for (const auto& [name, latency] : latencies_) {
    snapshot.samples.push_back(
        distribution(name, MetricSample::Kind::kLatency, *latency));
  }
  // The per-kind maps are each sorted; a final sort merges them by name.
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, latency] : latencies_) latency->Reset();
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  WriteSnapshotJson(Snapshot(), out);
}

void MetricsRegistry::ExposeText(std::ostream& out) const {
  const MetricsSnapshot snapshot = Snapshot();
  for (const MetricSample& sample : snapshot.samples) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        out << "# TYPE " << sample.name << " counter\n";
        out << sample.name << " " << static_cast<uint64_t>(sample.value)
            << "\n";
        break;
      case MetricSample::Kind::kGauge:
        out << "# TYPE " << sample.name << " gauge\n";
        out << sample.name << " " << JsonNumber(sample.value) << "\n";
        break;
      case MetricSample::Kind::kHistogram:
        out << "# TYPE " << sample.name << " histogram\n";
        out << sample.name << "_count " << sample.count << "\n";
        out << sample.name << "_sum " << JsonNumber(sample.sum) << "\n";
        out << sample.name << "_min " << JsonNumber(sample.min) << "\n";
        out << sample.name << "_max " << JsonNumber(sample.max) << "\n";
        break;
      case MetricSample::Kind::kLatency:
        out << "# TYPE " << sample.name << " summary\n";
        out << sample.name << "{quantile=\"0.5\"} " << JsonNumber(sample.p50)
            << "\n";
        out << sample.name << "{quantile=\"0.9\"} " << JsonNumber(sample.p90)
            << "\n";
        out << sample.name << "{quantile=\"0.99\"} " << JsonNumber(sample.p99)
            << "\n";
        out << sample.name << "{quantile=\"0.999\"} "
            << JsonNumber(sample.p999) << "\n";
        out << sample.name << "_count " << sample.count << "\n";
        out << sample.name << "_sum " << JsonNumber(sample.sum) << "\n";
        out << sample.name << "_min " << JsonNumber(sample.min) << "\n";
        out << sample.name << "_max " << JsonNumber(sample.max) << "\n";
        break;
    }
  }
}

void WriteSnapshotJson(const MetricsSnapshot& snapshot, std::ostream& out) {
  auto write_section = [&](MetricSample::Kind kind, const char* label,
                           bool trailing_comma) {
    out << "\"" << label << "\": {";
    bool first = true;
    for (const MetricSample& sample : snapshot.samples) {
      if (sample.kind != kind) continue;
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(sample.name) << "\": ";
      if (kind == MetricSample::Kind::kHistogram) {
        out << "{\"count\": " << sample.count
            << ", \"sum\": " << JsonNumber(sample.sum)
            << ", \"min\": " << JsonNumber(sample.min)
            << ", \"max\": " << JsonNumber(sample.max)
            << ", \"mean\": " << JsonNumber(sample.value) << "}";
      } else if (kind == MetricSample::Kind::kLatency) {
        out << "{\"count\": " << sample.count
            << ", \"sum\": " << JsonNumber(sample.sum)
            << ", \"min\": " << JsonNumber(sample.min)
            << ", \"max\": " << JsonNumber(sample.max)
            << ", \"mean\": " << JsonNumber(sample.value)
            << ", \"p50\": " << JsonNumber(sample.p50)
            << ", \"p90\": " << JsonNumber(sample.p90)
            << ", \"p99\": " << JsonNumber(sample.p99)
            << ", \"p999\": " << JsonNumber(sample.p999) << "}";
      } else if (kind == MetricSample::Kind::kCounter) {
        out << static_cast<uint64_t>(sample.value);
      } else {
        out << JsonNumber(sample.value);
      }
    }
    out << "}";
    if (trailing_comma) out << ", ";
  };
  out << "{";
  write_section(MetricSample::Kind::kCounter, "counters", true);
  write_section(MetricSample::Kind::kGauge, "gauges", true);
  write_section(MetricSample::Kind::kHistogram, "histograms", true);
  write_section(MetricSample::Kind::kLatency, "latencies", false);
  out << "}";
}

}  // namespace obs
}  // namespace monoclass
