// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// Per-thread lock-free flight recorder: each thread owns a fixed-size
// ring of timestamped events (span begin/end, counter deltas, pool task
// lifecycle) written with relaxed atomics through a per-slot seqlock.
// Unlike the obs/trace.h buffer (a mutex-guarded append-only vector that
// must be started, filled and dumped post-hoc), the flight recorder is
// meant to run always-on: writers never block, never allocate after
// their ring exists, and the newest kFlightRingSlots events per thread
// are snapshotable at any moment without stopping them.
//
// Snapshot consistency: a reader validates each slot's sequence word
// before and after copying the payload; a slot caught mid-write is
// counted in FlightSnapshot::torn and discarded rather than surfaced
// half-updated. Events overwritten by ring wraparound are counted in
// FlightSnapshot::overwritten. On thread exit a ring goes to a free
// list; snapshots still see the departed thread's events until the next
// thread to record takes the ring over and empties it, so ring memory
// is bounded by the peak number of live recording threads.
//
// Event names are interned into a process-wide table (mutex-guarded, but
// off the record path: MC_LATENCY / Span cache the id per site/object),
// so an event is 4 small atomic stores. The binary dump written by
// WriteFlightDump() round-trips through ReadFlightDump() and converts to
// Chrome-trace JSON ("X" complete events, counters as "C", pool tasks as
// instants) via `mc_report --flight`.

#ifndef MONOCLASS_OBS_FLIGHT_H_
#define MONOCLASS_OBS_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/sync_model.h"

namespace monoclass {
namespace obs {

enum class FlightEventType : uint8_t {
  kSpanBegin = 0,  // value unused
  kSpanEnd = 1,    // value = elapsed microseconds of the span
  kCounter = 2,    // value = delta added
  kPoolTask = 3,   // value = queue wait in microseconds
};

// One decoded event. `name_id` indexes FlightSnapshot::names.
struct FlightEvent {
  uint32_t tid = 0;
  uint32_t name_id = 0;
  FlightEventType type = FlightEventType::kSpanBegin;
  double ts_us = 0.0;
  double value = 0.0;
};

struct FlightSnapshot {
  std::vector<std::string> names;   // indexed by FlightEvent::name_id
  std::vector<FlightEvent> events;  // sorted by (ts_us, tid)
  uint64_t overwritten = 0;         // events lost to ring wraparound
  uint64_t torn = 0;                // slots discarded mid-write
};

namespace internal {
extern mc::atomic<bool> g_flight_active;
// Slots per thread ring; must be a power of two. At 32 bytes per slot a
// ring is 128 KiB per live recording thread. Model builds shrink the
// ring so each execution's per-thread ring is cheap to allocate and
// destroy (the mc_model scenarios run thousands of executions, and
// every slot atomic's destructor is a model hook).
#if MC_MODEL_COMPILED
constexpr std::size_t kFlightRingSlots = 16;
#else
constexpr std::size_t kFlightRingSlots = 4096;
#endif

// Frees every ring and empties the registry and its free list. ONLY
// for the mc_model scenarios, whose writers must create their ring
// inside each execution. Every thread that ever recorded must have
// exited first -- their cached ring pointers dangle after this call.
void DropAllRingsForTesting();
// Rings currently registered (live threads' and free ones).
std::size_t RegisteredRingsForTesting();
}  // namespace internal

// Recording control, independent of tracing (MONOCLASS_FLIGHT=1 turns it
// on from the environment via obs::InitFromEnv). Cheap when off: one
// relaxed load per would-be event.
void StartFlightRecording();
void StopFlightRecording();
inline bool FlightRecordingActive() {
  return internal::g_flight_active.load(mc::memory_order_relaxed);
}

// Empties every ring and zeroes the overwrite accounting (interned names
// persist; ids remain valid). Callers must quiesce writers first.
void ResetFlightRecorder();

// Stable id for `name` in the process-wide name table. Safe to call from
// any thread; intended to be cached per call site, not per event.
uint32_t InternFlightName(const char* name);

// Appends one event to the calling thread's ring (no-op when recording
// is off). Lock-free and allocation-free after the thread's first call.
void RecordFlightEvent(FlightEventType type, uint32_t name_id, double value);

// Copies every ring without stopping writers; see the header comment for
// the consistency contract.
FlightSnapshot SnapshotFlight();

// Binary dump (versioned magic + name table + packed events) and its
// inverse. ReadFlightDump returns false and fills `error` on a
// malformed stream.
void WriteFlightDump(const FlightSnapshot& snapshot, std::ostream& out);
bool ReadFlightDump(std::istream& in, FlightSnapshot* snapshot,
                    std::string* error);

// Chrome-trace JSON (chrome://tracing, Perfetto): begin/end pairs become
// "X" complete events, counters "C", pool tasks instant "i". Unpaired
// begins are closed at the last timestamp seen on their thread; unpaired
// ends (their begin was overwritten) are dropped.
void WriteFlightChromeTrace(const FlightSnapshot& snapshot, std::ostream& out);

}  // namespace obs
}  // namespace monoclass

#endif  // MONOCLASS_OBS_FLIGHT_H_
