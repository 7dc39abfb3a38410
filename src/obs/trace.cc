// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/trace.h"

#include <algorithm>
#include "util/sync_model.h"
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>

#include "obs/flight.h"
#include "obs/latency_histogram.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace monoclass {
namespace obs {
namespace {

// Bounded so a runaway span loop cannot exhaust memory; ~48 bytes per
// event puts the cap at ~50 MB.
constexpr size_t kMaxTraceEvents = size_t{1} << 20;

mc::atomic<bool> g_tracing{false};
mc::atomic<uint64_t> g_dropped{0};

// The process-wide event buffer with its guarding mutex in one object,
// so the thread-safety analysis can tie the two together.
struct TraceBuffer {
  Mutex mu;
  std::vector<TraceEvent> events MC_GUARDED_BY(mu);
};

TraceBuffer& GlobalTraceBuffer() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Appends one event; returns false when the buffer is full.
bool Record(const char* name, char phase) {
  TraceBuffer& buffer = GlobalTraceBuffer();
  MutexLock lock(buffer.mu);
  if (phase == 'B' && buffer.events.size() >= kMaxTraceEvents) {
    g_dropped.fetch_add(1, mc::memory_order_relaxed);
    return false;
  }
  TraceEvent event;
  event.name = name;
  event.phase = phase;
  // Timestamp taken under the lock, so buffer order is globally
  // timestamp-ordered even with pool workers recording concurrently.
  event.ts_us = NowMicros();
  event.tid = CurrentThreadId();
  buffer.events.push_back(event);
  return true;
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   TraceEpoch())
      .count();
}

uint32_t CurrentThreadId() {
  static mc::atomic<uint32_t> next_id{0};
  thread_local const uint32_t id =
      next_id.fetch_add(1, mc::memory_order_relaxed);
  return id;
}

void StartTracing() {
  TraceEpoch();  // pin the epoch no later than the first span
  g_tracing.store(true, mc::memory_order_relaxed);
}

void StopTracing() { g_tracing.store(false, mc::memory_order_relaxed); }

bool TracingActive() { return g_tracing.load(mc::memory_order_relaxed); }

void ClearTrace() {
  TraceBuffer& buffer = GlobalTraceBuffer();
  MutexLock lock(buffer.mu);
  buffer.events.clear();
  g_dropped.store(0, mc::memory_order_relaxed);
}

uint64_t DroppedSpans() { return g_dropped.load(mc::memory_order_relaxed); }

std::vector<TraceEvent> TraceSnapshot() {
  TraceBuffer& buffer = GlobalTraceBuffer();
  MutexLock lock(buffer.mu);
  return buffer.events;
}

void WriteChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = TraceSnapshot();
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": \"" << JsonEscape(event.name)
        << "\", \"cat\": \"monoclass\", \"ph\": \"" << event.phase
        << "\", \"ts\": " << JsonNumber(event.ts_us)
        << ", \"pid\": 1, \"tid\": " << event.tid << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void WriteTextReport(std::ostream& out) {
  const std::vector<TraceEvent> events = TraceSnapshot();

  // Replay the B/E stream per thread, aggregating by full stack path.
  struct PathStats {
    uint64_t count = 0;
    double total_us = 0.0;
    double child_us = 0.0;
  };
  std::map<std::string, PathStats> stats;
  struct Frame {
    std::string path;
    double start_us = 0.0;
    double child_us = 0.0;
  };
  std::map<uint32_t, std::vector<Frame>> stacks;

  for (const TraceEvent& event : events) {
    std::vector<Frame>& stack = stacks[event.tid];
    if (event.phase == 'B') {
      Frame frame;
      frame.path = stack.empty() ? std::string(event.name)
                                 : stack.back().path + "/" + event.name;
      frame.start_us = event.ts_us;
      stack.push_back(std::move(frame));
    } else if (!stack.empty()) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      const double duration = event.ts_us - frame.start_us;
      PathStats& s = stats[frame.path];
      ++s.count;
      s.total_us += duration;
      s.child_us += frame.child_us;
      if (!stack.empty()) stack.back().child_us += duration;
    }
  }

  size_t width = 0;
  for (const auto& [path, s] : stats) width = std::max(width, path.size());
  out << "span" << std::string(width < 4 ? 2 : width - 4 + 2, ' ')
      << "count    total-ms     self-ms\n";
  char line[64];
  for (const auto& [path, s] : stats) {
    std::snprintf(line, sizeof(line), "%8llu  %10.3f  %10.3f",
                  static_cast<unsigned long long>(s.count), s.total_us / 1e3,
                  (s.total_us - s.child_us) / 1e3);
    out << path << std::string(width - path.size() + 2, ' ') << line << "\n";
  }
  if (DroppedSpans() > 0) {
    out << "(" << DroppedSpans() << " span(s) dropped: buffer full)\n";
  }
}

Span::Span(const char* name) : name_(name), start_us_(NowMicros()) {
  if (TracingActive()) recorded_ = Record(name_, 'B');
  BeginFlight();
}

void Span::BeginFlight() {
  if (!FlightRecordingActive()) return;
  flight_name_id_ = InternFlightName(name_);
  in_flight_ = true;
  RecordFlightEvent(FlightEventType::kSpanBegin, flight_name_id_, 0.0);
}

void Span::End() {
  // The E event is recorded even if tracing stopped mid-span, so every
  // recorded B has a matching E. Same for the flight end event.
  if (recorded_) Record(name_, 'E');
  if (latency_ == nullptr && !in_flight_) return;
  const double elapsed_us = NowMicros() - start_us_;
  if (latency_ != nullptr) latency_->Observe(elapsed_us);
  if (in_flight_) {
    RecordFlightEvent(FlightEventType::kSpanEnd, flight_name_id_, elapsed_us);
  }
}

double Span::ElapsedMillis() const { return (NowMicros() - start_us_) / 1e3; }

}  // namespace obs
}  // namespace monoclass
