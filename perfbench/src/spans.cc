// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "bench.h"

namespace perfbench {

int64_t SpanRecorder::Begin(const char* name, uint64_t trace_id,
                            int64_t parent) {
  if (!enabled_) return kNoSpan;
  const double start = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, trace_id, parent, start, start});
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(int64_t handle) {
  if (handle == kNoSpan) return;
  const double end = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(handle)].end_us = end;
}

std::vector<std::vector<size_t>> SpanRecorder::ChildrenLocked() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoSpan) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  return children;
}

double SpanRecorder::SelfUsLocked(
    size_t index, const std::vector<std::vector<size_t>>& children) const {
  const Span& span = spans_[index];
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<double, double>> covered;
  for (const size_t child : children[index]) {
    const double begin = std::max(spans_[child].start_us, span.start_us);
    const double end = std::min(spans_[child].end_us, span.end_us);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double covered_us = 0.0;
  double reach = span.start_us;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, reach);
    if (end > from) covered_us += end - from;
    reach = std::max(reach, end);
  }
  return (span.end_us - span.start_us) - covered_us;
}

double SpanRecorder::SelfUs(int64_t handle) const {
  if (handle == kNoSpan) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  return SelfUsLocked(static_cast<size_t>(handle), ChildrenLocked());
}

double SpanRecorder::DurationUs(int64_t handle) const {
  if (handle == kNoSpan) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& span = spans_[static_cast<size_t>(handle)];
  return span.end_us - span.start_us;
}

bool SpanRecorder::Write(const std::string& path,
                         const Options& options) const {
  if (!enabled_ || path.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto children = ChildrenLocked();
  struct Totals {
    size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& totals = by_name[spans_[i].name];
    ++totals.count;
    totals.total_us += spans_[i].end_us - spans_[i].start_us;
    totals.self_us += SelfUsLocked(i, children);
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
               "\"smoke\": %d,\n \"self_time\": {",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.smoke ? 1 : 0);
  bool first = true;
  for (const auto& [name, totals] : by_name) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"total_us\": %.17g, "
                 "\"self_us\": %.17g}",
                 first ? "" : ",", name.c_str(), totals.count,
                 totals.total_us, totals.self_us);
    first = false;
  }
  std::fprintf(out, "},\n \"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %lld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.trace_id),
                 static_cast<long long>(span.parent), span.start_us - origin,
                 span.end_us - origin);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
