// Copyright 2026 The monoclass Authors
// Licensed under the Apache License, Version 2.0.

#include "obs/flight.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <tuple>

#include "obs/trace.h"
#include "util/check.h"
#include "util/concurrency.h"
#include "util/json.h"

namespace monoclass {
namespace obs {

namespace internal {
mc::atomic<bool> g_flight_active{false};
}  // namespace internal

namespace {

using internal::kFlightRingSlots;

static_assert((kFlightRingSlots & (kFlightRingSlots - 1)) == 0,
              "ring size must be a power of two");

// One ring slot under a per-slot seqlock. seq == 0: never written;
// odd: write in progress; even 2k+2: holds the payload of logical write
// k (so a reader can tell a slot reused for a newer generation apart
// from a torn one). The ring has a single writer -- its owning thread --
// so only writer/reader races need the protocol, never writer/writer.
struct Slot {
  mc::atomic<uint64_t> seq{0};
  mc::atomic<uint64_t> meta{0};  // name_id | type << 32
  mc::atomic<uint64_t> ts_bits{0};
  mc::atomic<uint64_t> value_bits{0};
};

struct FlightRing {
  uint32_t tid = 0;
  mc::atomic<uint64_t> head{0};  // events ever written to this ring
  Slot slots[kFlightRingSlots];
};

// Every ring ever created, for snapshots, and the rings whose threads
// have exited, for reuse. A ring never leaves `rings`, so a snapshot
// still sees a departed thread's tail until the next thread to record
// takes the ring off `free` and resets it; ring memory is bounded by the
// peak number of live recording threads.
struct RingRegistry {
  Mutex mu;
  std::vector<FlightRing*> rings MC_GUARDED_BY(mu);
  std::vector<FlightRing*> free MC_GUARDED_BY(mu);
};

RingRegistry& Rings() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

void ResetRing(FlightRing& ring) {
  ring.head.store(0, mc::memory_order_relaxed);
  for (Slot& slot : ring.slots) slot.seq.store(0, mc::memory_order_relaxed);
}

// Takes a departed thread's ring (emptied) or registers a new one. The
// tid hand-off happens under the registry mutex, which every snapshot
// also holds while reading it.
FlightRing* AcquireRing() {
  const uint32_t tid = CurrentThreadId();
  RingRegistry& registry = Rings();
  MutexLock lock(registry.mu);
  FlightRing* ring = nullptr;
  if (registry.free.empty()) {
    ring = new FlightRing();
    registry.rings.push_back(ring);
  } else {
    ring = registry.free.back();
    registry.free.pop_back();
    ResetRing(*ring);
  }
  ring->tid = tid;
  return ring;
}

// The calling thread's ring, handed to the free list when the thread
// exits.
struct RingLease {
  FlightRing* ring = nullptr;
  RingLease() = default;
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
  ~RingLease() {
    if (ring == nullptr) return;
    RingRegistry& registry = Rings();
    MutexLock lock(registry.mu);
    registry.free.push_back(ring);
    ring = nullptr;
  }
};

FlightRing* ThisThreadRing() {
  thread_local RingLease lease;
  if (lease.ring == nullptr) lease.ring = AcquireRing();
  return lease.ring;
}

struct NameTable {
  Mutex mu;
  std::vector<std::string> names MC_GUARDED_BY(mu);
  std::map<std::string, uint32_t, std::less<>> index MC_GUARDED_BY(mu);
};

NameTable& Names() {
  static NameTable* table = new NameTable();
  return *table;
}

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

// --- binary dump primitives (explicit little-endian, so a dump written
// on any host decodes identically) ---

void PutU32(std::ostream& out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(bytes, 4);
}

void PutU64(std::ostream& out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(bytes, 8);
}

void PutF64(std::ostream& out, double v) { PutU64(out, DoubleBits(v)); }

bool GetU32(std::istream& in, uint32_t* v) {
  unsigned char bytes[4];
  if (!in.read(reinterpret_cast<char*>(bytes), 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(bytes[i]) << (8 * i);
  return true;
}

bool GetU64(std::istream& in, uint64_t* v) {
  unsigned char bytes[8];
  if (!in.read(reinterpret_cast<char*>(bytes), 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  return true;
}

bool GetF64(std::istream& in, double* v) {
  uint64_t bits = 0;
  if (!GetU64(in, &bits)) return false;
  *v = BitsToDouble(bits);
  return true;
}

constexpr char kFlightMagic[8] = {'M', 'C', 'F', 'L', 'I', 'G', 'H', 'T'};
constexpr uint32_t kFlightDumpVersion = 1;

// Sanity caps for the decoder: a well-formed dump is bounded by ring
// capacity times thread count, so anything near these limits is garbage.
constexpr uint32_t kMaxNames = 1u << 20;
constexpr uint32_t kMaxNameLen = 1u << 12;
constexpr uint64_t kMaxEvents = uint64_t{1} << 28;

}  // namespace

void StartFlightRecording() {
  internal::g_flight_active.store(true, mc::memory_order_relaxed);
}

void StopFlightRecording() {
  internal::g_flight_active.store(false, mc::memory_order_relaxed);
}

void ResetFlightRecorder() {
  RingRegistry& registry = Rings();
  MutexLock lock(registry.mu);
  for (FlightRing* ring : registry.rings) ResetRing(*ring);
}

namespace internal {
void DropAllRingsForTesting() {
  RingRegistry& registry = Rings();
  MutexLock lock(registry.mu);
  for (FlightRing* ring : registry.rings) delete ring;
  registry.rings.clear();
  registry.free.clear();
}

std::size_t RegisteredRingsForTesting() {
  RingRegistry& registry = Rings();
  MutexLock lock(registry.mu);
  return registry.rings.size();
}
}  // namespace internal

uint32_t InternFlightName(const char* name) {
  MC_CHECK(name != nullptr);
  NameTable& table = Names();
  MutexLock lock(table.mu);
  auto it = table.index.find(std::string_view(name));
  if (it != table.index.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.index.emplace(name, id);
  return id;
}

void RecordFlightEvent(FlightEventType type, uint32_t name_id, double value) {
  if (!FlightRecordingActive()) return;
  FlightRing* ring = ThisThreadRing();
  const uint64_t index = ring->head.load(mc::memory_order_relaxed);
  Slot& slot = ring->slots[index & (kFlightRingSlots - 1)];
  // Per-slot seqlock, single writer: mark in-progress, publish the odd
  // marker before the payload (release fence), then publish the even
  // marker after it (release store). A reader validating seq on both
  // sides of its payload copy can therefore never accept a torn slot.
  slot.seq.store(2 * index + 1, mc::memory_order_relaxed);
  mc::atomic_thread_fence(mc::memory_order_release);
  slot.meta.store(static_cast<uint64_t>(name_id) |
                      (static_cast<uint64_t>(type) << 32),
                  mc::memory_order_relaxed);
  slot.ts_bits.store(DoubleBits(NowMicros()), mc::memory_order_relaxed);
  slot.value_bits.store(DoubleBits(value), mc::memory_order_relaxed);
  slot.seq.store(2 * index + 2, mc::memory_order_release);
  ring->head.store(index + 1, mc::memory_order_release);
}

FlightSnapshot SnapshotFlight() {
  FlightSnapshot snapshot;
  {
    RingRegistry& registry = Rings();
    MutexLock lock(registry.mu);
    for (FlightRing* ring : registry.rings) {
      const uint64_t head = ring->head.load(mc::memory_order_acquire);
      const uint64_t begin =
          head > kFlightRingSlots ? head - kFlightRingSlots : 0;
      snapshot.overwritten += begin;
      for (uint64_t i = begin; i < head; ++i) {
        const Slot& slot = ring->slots[i & (kFlightRingSlots - 1)];
        const uint64_t seq_before = slot.seq.load(mc::memory_order_acquire);
        if (seq_before == 0) continue;      // never written (reset race)
        if ((seq_before & 1) != 0) {        // writer mid-update
          ++snapshot.torn;
          continue;
        }
        const uint64_t meta = slot.meta.load(mc::memory_order_relaxed);
        const uint64_t ts_bits = slot.ts_bits.load(mc::memory_order_relaxed);
        const uint64_t value_bits =
            slot.value_bits.load(mc::memory_order_relaxed);
        mc::atomic_thread_fence(mc::memory_order_acquire);
        const uint64_t seq_after = slot.seq.load(mc::memory_order_relaxed);
        if (seq_before != seq_after) {  // overwritten while copying
          ++snapshot.torn;
          continue;
        }
        FlightEvent event;
        event.tid = ring->tid;
        event.name_id = static_cast<uint32_t>(meta & 0xffffffffu);
        event.type = static_cast<FlightEventType>((meta >> 32) & 0xff);
        event.ts_us = BitsToDouble(ts_bits);
        event.value = BitsToDouble(value_bits);
        snapshot.events.push_back(event);
      }
    }
  }
  // Copy the name table AFTER scanning the rings: interning a name
  // happens-before recording an event with its id, so every id read
  // above resolves in a table copied later.
  {
    NameTable& table = Names();
    MutexLock lock(table.mu);
    snapshot.names = table.names;
  }
  std::sort(snapshot.events.begin(), snapshot.events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return std::tie(a.ts_us, a.tid, a.type, a.name_id) <
                     std::tie(b.ts_us, b.tid, b.type, b.name_id);
            });
  return snapshot;
}

void WriteFlightDump(const FlightSnapshot& snapshot, std::ostream& out) {
  out.write(kFlightMagic, sizeof kFlightMagic);
  PutU32(out, kFlightDumpVersion);
  PutU32(out, static_cast<uint32_t>(snapshot.names.size()));
  for (const std::string& name : snapshot.names) {
    PutU32(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  PutU64(out, snapshot.overwritten);
  PutU64(out, snapshot.torn);
  PutU64(out, snapshot.events.size());
  for (const FlightEvent& event : snapshot.events) {
    PutU32(out, event.tid);
    PutU32(out, event.name_id);
    PutU32(out, static_cast<uint32_t>(event.type));
    PutF64(out, event.ts_us);
    PutF64(out, event.value);
  }
}

bool ReadFlightDump(std::istream& in, FlightSnapshot* snapshot,
                    std::string* error) {
  auto fail = [&](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  char magic[sizeof kFlightMagic];
  if (!in.read(magic, sizeof magic) ||
      std::memcmp(magic, kFlightMagic, sizeof magic) != 0) {
    return fail("not a flight dump (bad magic)");
  }
  uint32_t version = 0;
  if (!GetU32(in, &version) || version != kFlightDumpVersion) {
    return fail("unsupported flight dump version");
  }
  uint32_t name_count = 0;
  if (!GetU32(in, &name_count) || name_count > kMaxNames) {
    return fail("corrupt name table size");
  }
  snapshot->names.clear();
  // Trust the stream, not the header: a truncated or garbage dump can
  // claim kMaxNames entries while holding four bytes, and reserving on
  // the claim would allocate gigabytes before the first read fails.
  // Reserve a modest floor and let push_back grow against actual bytes.
  snapshot->names.reserve(std::min<uint32_t>(name_count, 1u << 10));
  for (uint32_t i = 0; i < name_count; ++i) {
    uint32_t length = 0;
    if (!GetU32(in, &length) || length > kMaxNameLen) {
      return fail("corrupt name length");
    }
    std::string name(length, '\0');
    if (!in.read(name.data(), length)) return fail("truncated name table");
    snapshot->names.push_back(std::move(name));
  }
  if (!GetU64(in, &snapshot->overwritten)) return fail("truncated header");
  if (!GetU64(in, &snapshot->torn)) return fail("truncated header");
  uint64_t event_count = 0;
  if (!GetU64(in, &event_count) || event_count > kMaxEvents) {
    return fail("corrupt event count");
  }
  snapshot->events.clear();
  // Same defense as the name table: kMaxEvents is 2^28, which at 32
  // bytes per FlightEvent would reserve 8 GiB on the say-so of eight
  // corrupt bytes. 28 wire bytes per event bound what the stream can
  // actually deliver; grow incrementally past the floor.
  snapshot->events.reserve(
      static_cast<std::size_t>(std::min<uint64_t>(event_count, 1u << 14)));
  for (uint64_t i = 0; i < event_count; ++i) {
    FlightEvent event;
    uint32_t type = 0;
    if (!GetU32(in, &event.tid) || !GetU32(in, &event.name_id) ||
        !GetU32(in, &type) || !GetF64(in, &event.ts_us) ||
        !GetF64(in, &event.value)) {
      return fail("truncated event stream");
    }
    if (type > static_cast<uint32_t>(FlightEventType::kPoolTask)) {
      return fail("unknown event type");
    }
    if (event.name_id >= name_count) return fail("event name out of range");
    event.type = static_cast<FlightEventType>(type);
    snapshot->events.push_back(event);
  }
  return true;
}

void WriteFlightChromeTrace(const FlightSnapshot& snapshot,
                            std::ostream& out) {
  // Last timestamp per thread, for synthetically closing spans whose end
  // was not captured (recording stopped mid-span).
  std::map<uint32_t, double> last_ts;
  for (const FlightEvent& event : snapshot.events) {
    double& ts = last_ts[event.tid];
    ts = std::max(ts, event.ts_us);
  }
  auto name_of = [&](uint32_t id) -> std::string {
    return id < snapshot.names.size() ? snapshot.names[id] : "<unknown>";
  };
  // Rendered events are buffered and re-sorted before writing: an "X"
  // complete event carries its span's *begin* timestamp but is produced
  // when the *end* event is reached, so emission order alone would not
  // be time-ordered within a thread. Ties sort longer-duration first so
  // nested spans stay outer-before-inner.
  struct Rendered {
    double ts_us;
    uint32_t tid;
    double dur_us;  // 0 for counters / instants
    std::string json;
  };
  std::vector<Rendered> rendered;
  auto emit_x = [&](uint32_t tid, uint32_t name_id, double ts, double dur) {
    std::ostringstream event;
    dur = std::max(dur, 0.0);
    event << "{\"name\": \"" << JsonEscape(name_of(name_id))
          << "\", \"cat\": \"flight\", \"ph\": \"X\", \"ts\": "
          << JsonNumber(ts) << ", \"dur\": " << JsonNumber(dur)
          << ", \"pid\": 1, \"tid\": " << tid << "}";
    rendered.push_back(Rendered{ts, tid, dur, event.str()});
  };
  struct OpenSpan {
    uint32_t name_id;
    double ts_us;
  };
  std::map<uint32_t, std::vector<OpenSpan>> stacks;
  for (const FlightEvent& event : snapshot.events) {
    switch (event.type) {
      case FlightEventType::kSpanBegin:
        stacks[event.tid].push_back(OpenSpan{event.name_id, event.ts_us});
        break;
      case FlightEventType::kSpanEnd: {
        std::vector<OpenSpan>& stack = stacks[event.tid];
        // Only a top-of-stack match closes a span; an end whose begin
        // was overwritten by ring wraparound is dropped.
        if (!stack.empty() && stack.back().name_id == event.name_id) {
          emit_x(event.tid, event.name_id, stack.back().ts_us,
                 event.ts_us - stack.back().ts_us);
          stack.pop_back();
        }
        break;
      }
      case FlightEventType::kCounter: {
        std::ostringstream counter;
        counter << "{\"name\": \"" << JsonEscape(name_of(event.name_id))
                << "\", \"cat\": \"flight\", \"ph\": \"C\", \"ts\": "
                << JsonNumber(event.ts_us) << ", \"pid\": 1, \"tid\": "
                << event.tid << ", \"args\": {\"value\": "
                << JsonNumber(event.value) << "}}";
        rendered.push_back(
            Rendered{event.ts_us, event.tid, 0.0, counter.str()});
        break;
      }
      case FlightEventType::kPoolTask: {
        std::ostringstream instant;
        instant << "{\"name\": \"" << JsonEscape(name_of(event.name_id))
                << "\", \"cat\": \"flight\", \"ph\": \"i\", \"ts\": "
                << JsonNumber(event.ts_us) << ", \"pid\": 1, \"tid\": "
                << event.tid << ", \"s\": \"t\", \"args\": {\"wait_us\": "
                << JsonNumber(event.value) << "}}";
        rendered.push_back(
            Rendered{event.ts_us, event.tid, 0.0, instant.str()});
        break;
      }
    }
  }
  for (const auto& [tid, stack] : stacks) {
    // Innermost first so the synthesized closes stay well nested.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      emit_x(tid, it->name_id, it->ts_us, last_ts[tid] - it->ts_us);
    }
  }
  std::stable_sort(rendered.begin(), rendered.end(),
                   [](const Rendered& a, const Rendered& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.dur_us > b.dur_us;
                   });
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Rendered& event : rendered) {
    if (!first) out << ",";
    first = false;
    out << "\n  " << event.json;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace obs
}  // namespace monoclass
