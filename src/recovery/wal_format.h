// The write-ahead epoch log's on-disk record format.
//
// A WAL file is an 8-byte magic ("SFWAL1\n\0") followed by a sequence of
// length-prefixed, checksummed records:
//
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//   | payload length | record type    | payload   | FNV-1a checksum  |
//   | u32 LE         | u32 LE         | N bytes   | u64 LE           |
//   +----------------+----------------+~~~~~~~~~~~+------------------+
//
// The checksum covers the type word and the payload (util/fnv.h — the
// same FNV-1a the telemetry digests use), so a torn write, a short tail
// or a flipped bit fails verification and the scanner truncates the log
// at the last record that checks out; nothing after a bad record is ever
// trusted (a gap breaks the prefix property recovery depends on). The
// trace file (trace/trace_format.h) uses the same framing, and one
// scanner (util/framed_scan.h) reads both.
//
// Record types (payload encodings live in recovery/run_log.h):
//   kRunHeader  — exactly once, first: the run's full configuration
//                 (per-tenant scenario/policy/workload names + options),
//                 so `--resume <wal>` needs no other flags.
//   kEpochCut   — one tenant's EngineCheckpoint after a finished epoch
//                 (a single-server run is tenant 0).
//   kRoundMark  — closes a scheduler round: round counter + credit
//                 vector. Cut records only COMMIT at their round mark —
//                 recovery resumes from the last marked round boundary.
//   kTrailer    — clean shutdown: the final per-tenant digests. Absent
//                 after a crash, by definition.
#pragma once

#include <cstdint>

#include "util/framed_scan.h"

namespace staleflow::recovery {

/// First bytes of every WAL file. The trailing newline makes accidental
/// text-mode corruption detectable; the NUL terminates the human part.
inline constexpr char kWalMagic[8] = {'S', 'F', 'W', 'A', 'L', '1', '\n', 0};

/// Payload format version inside the run header. Bump when any payload
/// encoding changes; readers reject versions they don't know (a v3 reader
/// still accepts v2 files — the superseded layout decodes with defaults).
/// v2: the run header carries the --faults spec after the tenant flag.
/// v3: a schedule flag byte follows the tenant flag. It marked runs
///     served with cross-epoch pipelining, since removed; writers emit 0
///     and readers accept 0 or 1 and ignore it (cut bytes never depended
///     on the schedule, so every v3 WAL resumes on the one schedule).
inline constexpr std::uint32_t kWalVersion = 3;

/// Corruption guard: a structurally valid record never exceeds this
/// payload size, so a garbage length field cannot drive a huge allocation.
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 30;

enum class RecordType : std::uint32_t {
  kRunHeader = 1,
  kEpochCut = 2,
  kRoundMark = 3,
  kTrailer = 4,
};

/// One verified record (util/framed_scan.h): its type, its payload as a
/// view into the WalScan that read it, and `end_offset`, the file offset
/// just past the record — the truncation point tests and resume use to
/// treat any prefix of a WAL as a crash image. The payload view lives as
/// long as that WalScan, wherever it is moved; copy it out to keep it
/// longer.
using WalRecord = framed::Record<RecordType>;

}  // namespace staleflow::recovery
