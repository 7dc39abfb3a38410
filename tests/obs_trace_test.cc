// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Tests for the tracing layer (obs/trace.h): balanced B/E streams, the
// span's always-on stopwatch, per-thread monotone timestamps,
// Chrome-trace JSON validity, the text report, and the end-to-end
// acceptance scenario -- a multi_d active run whose span tree covers
// chain decomposition -> per-chain 1D sampling -> passive min-cut, with
// probe counters exactly matching the oracle.

#include "obs/trace.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "active/multi_d.h"
#include "active/oracle.h"
#include "data/synthetic.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace monoclass {
namespace obs {
namespace {

// Restarts tracing from an empty buffer for each test.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    StopTracing();
    ClearTrace();
    StartTracing();
  }
  void TearDown() override {
    StopTracing();
    ClearTrace();
    SetEnabled(false);
  }
};

TEST_F(TraceTest, SpansEmitBalancedEvents) {
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  const std::vector<TraceEvent> events = TraceSnapshot();
  ASSERT_EQ(events.size(), 6u);
  // File order: B outer, B inner, E inner, B inner, E inner, E outer.
  EXPECT_EQ(std::string(events[0].name), "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(std::string(events[5].name), "outer");
  EXPECT_EQ(events[5].phase, 'E');
  int depth = 0;
  for (const TraceEvent& event : events) {
    depth += event.phase == 'B' ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, TimestampsMonotonePerThread) {
  for (int i = 0; i < 50; ++i) {
    Span span("tick");
  }
  std::map<uint32_t, double> last;
  for (const TraceEvent& event : TraceSnapshot()) {
    const auto it = last.find(event.tid);
    if (it != last.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last[event.tid] = event.ts_us;
  }
}

TEST_F(TraceTest, SpansInactiveWhenTracingStopped) {
  StopTracing();
  { Span span("ignored"); }
  EXPECT_TRUE(TraceSnapshot().empty());
}

TEST_F(TraceTest, SpanOpenAcrossStopStillCloses) {
  std::vector<TraceEvent> events;
  {
    Span span("crossing");
    StopTracing();
  }  // E must still be recorded for the already-open span
  events = TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
}

TEST_F(TraceTest, SpanTimesItsScopeWithOrWithoutRecording) {
  // With tracing and flight recording off the span is a bare stopwatch.
  StopTracing();
  ASSERT_FALSE(FlightRecordingActive());
  {
    Span span("stopwatch");
    const double first = span.ElapsedMillis();
    EXPECT_GE(first, 0.0);
    double later = first;
    while (later <= first) later = span.ElapsedMillis();
    EXPECT_GT(span.ElapsedSeconds(), first * 1e-3);
  }
  EXPECT_TRUE(TraceSnapshot().empty());

  // With tracing on the same span also leaves one balanced B/E pair.
  StartTracing();
  {
    Span span("timed");
    EXPECT_GE(span.ElapsedMillis(), 0.0);
  }
  const std::vector<TraceEvent> events = TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::string(events[0].name), "timed");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(std::string(events[1].name), "timed");
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
}

TEST_F(TraceTest, ChromeTraceIsValidJson) {
  {
    Span outer("phase one");
    Span inner("with \"quotes\"");
  }
  std::ostringstream out;
  WriteChromeTrace(out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 4u);
  for (const JsonValue& event : events->AsArray()) {
    EXPECT_TRUE(event.Find("name")->is_string());
    EXPECT_TRUE(event.Find("ts")->is_number());
    EXPECT_TRUE(event.Find("pid")->is_number());
    EXPECT_TRUE(event.Find("tid")->is_number());
    const std::string& ph = event.Find("ph")->AsString();
    EXPECT_TRUE(ph == "B" || ph == "E");
  }
  EXPECT_EQ(doc->Find("displayTimeUnit")->AsString(), "ms");
}

TEST_F(TraceTest, MultiThreadedSpansKeepPerThreadBalance) {
  // Four concurrent emitters via the library's own pool (raw
  // standard-library threads are banned outside util/concurrency;
  // tools/lint.sh rule 6).
  ParallelForEach(4, ParallelOptions{.threads = 4}, [](size_t) {
    for (int i = 0; i < 100; ++i) {
      Span outer("mt/outer");
      Span inner("mt/inner");
    }
  });
  std::map<uint32_t, int> depth;
  std::map<uint32_t, double> last;
  for (const TraceEvent& event : TraceSnapshot()) {
    depth[event.tid] += event.phase == 'B' ? 1 : -1;
    EXPECT_GE(depth[event.tid], 0);
    const auto it = last.find(event.tid);
    if (it != last.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last[event.tid] = event.ts_us;
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST_F(TraceTest, TextReportAggregatesByPath) {
  {
    Span outer("report/outer");
    { Span inner("report/inner"); }
    { Span inner("report/inner"); }
  }
  std::ostringstream out;
  WriteTextReport(out);
  const std::string report = out.str();
  EXPECT_NE(report.find("report/outer"), std::string::npos);
  EXPECT_NE(report.find("report/outer/report/inner"), std::string::npos);
  EXPECT_EQ(DroppedSpans(), 0u);
}

// --- acceptance scenario ------------------------------------------------
// A real multi_d run with obs fully on: the trace must contain the
// documented span hierarchy and the probe counters must match the
// oracle's own accounting exactly. Needs the library's instrumentation
// compiled in, so it is skipped in MONOCLASS_OBS=OFF builds.
#if MC_OBS_COMPILED
TEST_F(TraceTest, EndToEndActiveRunTracesPipelineAndCountsProbes) {
  MetricsRegistry::Global().ResetAll();
  PlantedOptions options;
  options.num_points = 300;
  options.dimension = 2;
  options.noise_flips = 6;
  options.seed = 11;
  const PlantedInstance instance = GeneratePlanted(options);
  InMemoryOracle oracle(instance.data);

  const uint64_t calls_before =
      MetricsRegistry::Global().Snapshot().CounterValue("oracle.probe_calls");
  const uint64_t distinct_before = MetricsRegistry::Global()
                                       .Snapshot()
                                       .CounterValue("oracle.probes_distinct");

  ActiveSolveOptions solve_options;
  solve_options.sampling = ActiveSamplingParams::Practical(1.0, 0.1);
  const ActiveSolveResult result =
      SolveActiveMultiD(instance.data.points(), oracle, solve_options);

  // Probe counters match the oracle exactly.
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("oracle.probe_calls") - calls_before,
            oracle.NumProbeCalls());
  EXPECT_EQ(snapshot.CounterValue("oracle.probes_distinct") - distinct_before,
            oracle.NumProbes());
  EXPECT_EQ(result.probes, oracle.NumProbes());

  // The span tree covers the documented pipeline phases.
  const std::vector<TraceEvent> events = TraceSnapshot();
  std::map<std::string, int> begins;
  int depth = 0;
  for (const TraceEvent& event : events) {
    if (event.phase == 'B') ++begins[event.name];
    depth += event.phase == 'B' ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(begins["active/solve"], 1);
  EXPECT_EQ(begins["active/chain_decomposition"], 1);
  EXPECT_EQ(begins["par.chain"], static_cast<int>(result.num_chains));
  EXPECT_EQ(begins["passive/solve"], 1);
  EXPECT_GE(begins["passive/maxflow"], 1);

  // The probe budget was filled in against the Theorem 2 bound.
  EXPECT_EQ(result.probe_budget.measured_probes, oracle.NumProbes());
  EXPECT_EQ(result.probe_budget.n, instance.data.size());
  EXPECT_EQ(result.probe_budget.w, result.num_chains);
  EXPECT_GT(result.probe_budget.theorem2_bound, 0.0);
}
#endif  // MC_OBS_COMPILED

}  // namespace
}  // namespace obs
}  // namespace monoclass
