// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.
//
// mc_model scenarios for the flight recorder's per-slot seqlock
// (src/obs/flight.cc), the repo's most delicate lock-free protocol.
//
//   good              -- the REAL writer/snapshotter code: one thread
//                        records an event while the root thread
//                        snapshots concurrently. Explored exhaustively;
//                        asserts a snapshot never surfaces a torn
//                        event and that the event is intact once the
//                        writer has joined.
//   handoff_good      -- the REAL ring hand-off: a first thread records
//                        and exits, then a second thread records (taking
//                        the first one's ring off the free list) while
//                        the root thread snapshots. Asserts a snapshot
//                        pairs each event with the tid of the thread
//                        that wrote it, and that the ring is reused.
//   seqlock_good      -- a faithful miniature of the slot protocol
//                        (odd seq -> release fence -> payload -> even
//                        seq release) with TWO generations written to
//                        one slot, so reader tearing across
//                        generations is reachable. Must pass.
//   seqlock_nofence   -- the same miniature with the writer's release
//                        fence dropped: the seeded bug from the issue.
//                        The reader can validate seq before == after
//                        yet observe a mixed-generation payload; the
//                        checker must report the Check failure.
//                        Registered as a WILL_FAIL ctest.
//   seqlock_noacquire -- reader's acquire fence dropped instead; same
//                        expectation, exercised from the load side.
//
// The real-code scenarios intern their event name and start flight
// recording BEFORE Explore() so those one-time global stores are not
// part of the modeled state space, and drop all rings at the top of
// each execution so the first writer creates its ring inside the
// execution instead of taking over the ring the previous execution's
// writer left on the free list.

#include <cstdint>

#include "model/scheduler.h"
#include "obs/flight.h"
#include "scenario_harness.h"
#include "util/sync_model.h"

namespace monoclass {
namespace {

uint32_t g_event_name = 0;

void FlightWriterVsSnapshotBody() {
  // The previous execution's writer thread has joined, so its ring can
  // be freed rather than reused across executions.
  obs::internal::DropAllRingsForTesting();

  mc::thread writer([] {
    obs::RecordFlightEvent(obs::FlightEventType::kCounter, g_event_name, 42.0);
  });

  // Concurrent snapshot: may see zero events (stale head or torn slot
  // discarded), or the one event fully intact -- never a mix.
  const obs::FlightSnapshot during = obs::SnapshotFlight();
  model::Check(during.events.size() <= 1, "snapshot invented an event");
  for (const obs::FlightEvent& event : during.events) {
    model::Check(event.name_id == g_event_name,
                 "snapshot surfaced a torn name id");
    model::Check(event.value == 42.0, "snapshot surfaced a torn value");
    model::Check(event.type == obs::FlightEventType::kCounter,
                 "snapshot surfaced a torn event type");
  }

  writer.join();

  // After the join the event is fully published on every schedule.
  const obs::FlightSnapshot after = obs::SnapshotFlight();
  model::Check(after.events.size() == 1, "event missing after writer joined");
  model::Check(after.events[0].value == 42.0,
               "event corrupted after writer joined");
  model::Check(after.torn == 0, "quiescent snapshot reported a torn slot");
}

void FlightRingHandoffBody() {
  obs::internal::DropAllRingsForTesting();

  mc::thread first([] {
    obs::RecordFlightEvent(obs::FlightEventType::kCounter, g_event_name, 1.0);
  });
  first.join();
  // The departed thread's tail stays visible until its ring is reused.
  const obs::FlightSnapshot departed = obs::SnapshotFlight();
  model::Check(departed.events.size() == 1 && departed.events[0].value == 1.0,
               "departed thread's event not visible");
  const uint32_t first_tid = departed.events[0].tid;

  mc::thread second([] {
    obs::RecordFlightEvent(obs::FlightEventType::kCounter, g_event_name, 2.0);
  });
  // Concurrent with the takeover: the old event under the old tid, or
  // nothing, or the new event under the new tid -- never a mix.
  const obs::FlightSnapshot during = obs::SnapshotFlight();
  model::Check(during.events.size() <= 1, "snapshot invented an event");
  for (const obs::FlightEvent& event : during.events) {
    model::Check((event.value == 1.0) == (event.tid == first_tid),
                 "snapshot paired an event with the other thread's tid");
  }
  second.join();

  const obs::FlightSnapshot after = obs::SnapshotFlight();
  model::Check(after.events.size() == 1 && after.events[0].value == 2.0 &&
                   after.events[0].tid != first_tid,
               "reused ring was not emptied and re-owned");
  model::Check(obs::internal::RegisteredRingsForTesting() == 1,
               "second thread did not reuse the departed thread's ring");
}

// ---------------------------------------------------------------------
// Miniature of the flight slot protocol, parameterized so each fence
// can be dropped to reproduce the seeded bugs. Two generations target
// the same slot with a two-word payload; tearing means the reader
// accepts generation-0's seq with generation-1's payload (or a mix).

struct MiniSeqlockSlot {
  mc::atomic<uint64_t> seq{0};
  mc::atomic<uint64_t> a{0};
  mc::atomic<uint64_t> b{0};
};

void MiniSeqlockWrite(MiniSeqlockSlot& slot, uint64_t gen, bool writer_fence) {
  slot.seq.store(2 * gen + 1, mc::memory_order_relaxed);
  if (writer_fence) mc::atomic_thread_fence(mc::memory_order_release);
  slot.a.store(gen * 100 + 1, mc::memory_order_relaxed);
  slot.b.store(gen * 100 + 2, mc::memory_order_relaxed);
  slot.seq.store(2 * gen + 2, mc::memory_order_release);
}

void MiniSeqlockBody(bool writer_fence, bool reader_fence) {
  MiniSeqlockSlot slot;
  mc::thread writer([&] {
    MiniSeqlockWrite(slot, 0, writer_fence);
    MiniSeqlockWrite(slot, 1, writer_fence);
  });

  const uint64_t seq_before = slot.seq.load(mc::memory_order_acquire);
  if (seq_before != 0 && (seq_before & 1) == 0) {
    const uint64_t a = slot.a.load(mc::memory_order_relaxed);
    const uint64_t b = slot.b.load(mc::memory_order_relaxed);
    if (reader_fence) mc::atomic_thread_fence(mc::memory_order_acquire);
    const uint64_t seq_after = slot.seq.load(mc::memory_order_relaxed);
    if (seq_before == seq_after) {
      const uint64_t gen = seq_before / 2 - 1;
      model::Check(a == gen * 100 + 1,
                   "seqlock reader accepted a torn payload (word a)");
      model::Check(b == gen * 100 + 2,
                   "seqlock reader accepted a torn payload (word b)");
    }
  }
  writer.join();
}

}  // namespace
}  // namespace monoclass

int main(int argc, char** argv) {
  using monoclass::model_test::ScenarioSpec;
  namespace obs = monoclass::obs;

  // One-time global setup, deliberately outside the modeled state
  // space: the recording flag and the interned name are then single
  // seed values during every execution instead of extra stores.
  obs::StartFlightRecording();
  monoclass::g_event_name = obs::InternFlightName("model.flight.counter");

  std::map<std::string, ScenarioSpec> specs;
  specs["good"] = {{}, monoclass::FlightWriterVsSnapshotBody};
  specs["handoff_good"] = {{}, monoclass::FlightRingHandoffBody};
  specs["seqlock_good"] = {{}, [] { monoclass::MiniSeqlockBody(true, true); }};
  specs["seqlock_nofence"] = {{},
                              [] { monoclass::MiniSeqlockBody(false, true); }};
  specs["seqlock_noacquire"] = {{},
                               [] { monoclass::MiniSeqlockBody(true, false); }};
  return monoclass::model_test::RunScenarioMain(argc, argv, specs);
}
