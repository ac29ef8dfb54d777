// The always-on binary telemetry trace's on-disk format.
//
// A trace file is an 8-byte magic ("SFTRC1\n\0") followed by a sequence
// of length-prefixed, checksummed records — the exact framing discipline
// of the recovery WAL (recovery/wal_format.h):
//
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//   | payload length | record type    | payload   | FNV-1a checksum  |
//   | u32 LE         | u32 LE         | N bytes   | u64 LE           |
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//
// The checksum covers the type word and the payload, so a torn final
// write (the recorder is killed mid-flush) or a flipped bit fails
// verification and the offline scanner truncates the trace at the last
// record that checks out — a trace is ALWAYS analyzable up to the crash.
//
// Record types:
//   kTraceHeader   — exactly once, first: format version + a free-form
//                    producer string (tool name / run description).
//   kEventBatch    — one worker ring's drained events: the worker id and
//                    a run of fixed-format TraceEvents (encode_event).
//   kCounterDefs   — (id, name) definitions for metrics-registry
//                    counters, written before the first sample of each id.
//   kCounterBatch  — one sampling pass over the registry: a timestamp and
//                    (id, value) pairs for every defined counter.
//   kTraceTrailer  — clean recorder shutdown: totals (events written /
//                    dropped). Absent after a crash, by definition.
//
// Everything inside payloads uses util/binio.h explicit little-endian
// packing, so a trace written on one host decodes on any other.
//
// Timestamps are nanoseconds on the process-local monotonic clock
// (trace::now_ns()). They order and measure spans WITHIN one trace file;
// they are wall-clock telemetry and stay strictly OUTSIDE the
// deterministic digest contract — a run traced and untraced produces
// byte-identical dynamics digests (pinned by tests/trace_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/binio.h"
#include "util/framed_scan.h"

namespace staleflow::trace {

/// First bytes of every trace file. Same hygiene as the WAL magic: the
/// newline makes text-mode corruption detectable, the NUL ends the
/// human-readable part.
inline constexpr char kTraceMagic[8] = {'S', 'F', 'T', 'R', 'C', '1',
                                        '\n', 0};

/// Payload format version carried in the trace header. Bump when any
/// payload encoding changes; readers reject versions they don't know.
inline constexpr std::uint32_t kTraceVersion = 1;

/// Corruption guard: a garbage length field must not drive a huge
/// allocation during the offline scan.
inline constexpr std::uint32_t kMaxTracePayload = 1u << 30;

enum class TraceRecordType : std::uint32_t {
  kTraceHeader = 1,
  kEventBatch = 2,
  kCounterDefs = 3,
  kCounterBatch = 4,
  kTraceTrailer = 5,
};

/// What a span (or instant: begin == end) measures. Values are part of
/// the on-disk format — append, never renumber.
enum class EventKind : std::uint16_t {
  /// One engine epoch, plan through publish. tenant = registry index
  /// (0 for a solo server), epoch = board epoch, value = queries served.
  kEpochSpan = 1,
  /// One serving sub-batch task. arg packs
  /// (lane_code << 48) | ((shard & 0xFFFF) << 32) | sub-batch index
  /// within the epoch plan; value = the sub-batch's arrival quota. The
  /// lane code names the execution lane the span ran on: 0 = unknown
  /// (traces written before lanes existed), 1 = a non-pool thread (the
  /// caller helping while it waits), k+2 = worker lane k — so a locality
  /// trace shows directly whether same-shard sub-batches stuck to their
  /// lane. Recorded from the worker thread that ran the task, so the
  /// enclosing event batch's worker id attributes it.
  kSubBatchSpan = 2,
  /// The RCU snapshot publish at a phase boundary (instant).
  kSnapshotPublish = 3,
  /// One multi-tenant scheduler round: combined graph build + run +
  /// finish. arg = number of tenants scheduled, value = round number.
  kSchedulerRound = 4,
  /// One Executor::run over a task graph; value = node count.
  kGraphSpan = 5,
  /// One WAL record append (write + flush to the kernel). arg = the WAL
  /// record type word, value = bytes appended including framing.
  kWalAppend = 6,
  /// One injected fault firing (instant). arg = the faults::FaultKind
  /// value; value = magnitude (queries shed for a brownout, busy-wait us
  /// for a slowdown, stall ms for a worker stall, 0 otherwise). Emitted
  /// even inside a drop-telemetry window — the marker is what tells the
  /// offline analyzer WHY that window is dark.
  kFaultSpan = 7,
};

/// Stable short names for CSV columns / summary rows.
std::string_view event_kind_name(EventKind kind) noexcept;

/// One fixed-format trace event. Encoded as exactly kEventBytes:
/// u16 kind, u32 tenant, u64 epoch, u64 arg, u64 begin_ns, u64 end_ns,
/// u64 value — all little-endian.
struct TraceEvent {
  EventKind kind = EventKind::kEpochSpan;
  std::uint32_t tenant = 0;
  std::uint64_t epoch = 0;
  std::uint64_t arg = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t value = 0;
};

inline constexpr std::size_t kEventBytes = 2 + 4 + 8 * 5;

/// One verified record; `payload` views the TraceScan that read it and
/// `end_offset` is the file offset just past it (the truncation point the
/// torn-tail tests pin).
using TraceRecord = framed::Record<TraceRecordType>;

/// Appends one event in the fixed kEventBytes layout.
void encode_event(binio::Writer& writer, const TraceEvent& event);

/// Reads one event back; throws std::runtime_error on underrun (the
/// scanner already rejected corrupt frames, so this only fires on a
/// malformed payload inside a valid frame).
TraceEvent decode_event(binio::Reader& reader);

/// Writes one framed record (length, type, payload, FNV-1a checksum) to
/// `out`. Shared by the recorder's drainer and the corruption tests that
/// hand-build trace files.
void append_record(std::ostream& out, TraceRecordType type,
                   std::string_view payload);

}  // namespace staleflow::trace
