// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// RAII trace spans behind MC_SPAN (see obs/obs.h): when tracing is
// active, each span records a B (begin) event at construction and an E
// (end) event at destruction into a process-wide buffer, which can be
// dumped as Chrome-trace-format JSON (load it at chrome://tracing or
// https://ui.perfetto.dev) or aggregated into a hierarchical plain-text
// per-phase report.
//
// Timestamps come from a steady_clock epoch fixed at process start, in
// microseconds, so events are monotone per thread and comparable across
// threads. Each thread gets a small dense tid from a thread_local
// counter.
//
// The event buffer is bounded (kMaxTraceEvents): once full, new spans
// stop recording their B event (and therefore their E event), keeping
// the stream balanced; the drop count is reported so truncated traces
// are detectable.

#ifndef MONOCLASS_OBS_TRACE_H_
#define MONOCLASS_OBS_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace monoclass {
namespace obs {

// One begin/end event. `name` must be a string literal (MC_SPAN enforces
// this by construction); the buffer stores the pointer only.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'B';  // 'B' or 'E'
  double ts_us = 0.0;
  uint32_t tid = 0;
};

// Microseconds since the process-wide trace epoch (first use).
double NowMicros();

// Dense id of the calling thread (0 for the first thread observed).
uint32_t CurrentThreadId();

// Tracing control. StartTracing() implies obs::SetEnabled(true) is NOT
// called -- metrics and tracing are independent switches.
void StartTracing();
void StopTracing();
bool TracingActive();

// Drops all buffered events (does not change the active flag).
void ClearTrace();

// Number of spans that could not be recorded since the last ClearTrace()
// because the buffer was full.
uint64_t DroppedSpans();

// Copy of the buffered events, in record order (B events are appended at
// span open, E events at span close, so per-thread timestamps are
// monotone in file order).
std::vector<TraceEvent> TraceSnapshot();

// {"traceEvents": [...], "displayTimeUnit": "ms"} -- loadable by
// chrome://tracing and Perfetto.
void WriteChromeTrace(std::ostream& out);

// Hierarchical per-phase aggregation: every distinct span stack path
// becomes one line with call count, total and self wall time.
void WriteTextReport(std::ostream& out);

class LatencyHistogram;

// RAII span used by MC_SPAN, and the bench-side stopwatch: it always
// stamps its start time, so ElapsedMillis() measures the scope whether
// or not anything is recording -- one object both fills a benchmark
// table cell and shows up in the trace. When tracing is active the span
// records a B event at construction and an E event at destruction; when
// the flight recorder is on it additionally brackets itself with
// begin/end ring events (obs/flight.h), independent of the trace buffer.
// With both off the cost is one clock read and two relaxed atomic loads.
// MC_LATENCY's form takes its site's histogram, or nullptr when obs is
// off (then it does nothing, not even read the clock); it observes the
// scope's microseconds and brackets the scope in the flight recorder,
// but writes no trace-buffer events.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, LatencyHistogram* latency)
      : name_(name), latency_(latency) {
    if (latency_ == nullptr) return;
    start_us_ = NowMicros();
    BeginFlight();
  }
  ~Span() {
    if (recorded_ || in_flight_ || latency_ != nullptr) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double ElapsedMillis() const;
  double ElapsedSeconds() const { return ElapsedMillis() * 1e-3; }

 private:
  void BeginFlight();
  void End();

  const char* name_;
  double start_us_ = 0.0;
  LatencyHistogram* latency_ = nullptr;
  bool recorded_ = false;
  bool in_flight_ = false;
  uint32_t flight_name_id_ = 0;
};

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_TRACE_H_
