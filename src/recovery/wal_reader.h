// Scan side of the write-ahead epoch log.
//
// scan_wal() reads a WAL file front to back, verifying each record's
// length and checksum, and returns every record that checks out. The
// scan stops — without throwing — at the first record that doesn't: a
// short tail (torn final write), an oversized or impossible length
// field, a checksum mismatch (flipped bit) or an unknown record type.
// `valid_bytes` marks the end of the trusted prefix; resume truncates the
// file there before appending. Nothing past the first bad record is ever
// surfaced, even if later bytes happen to decode: a gap breaks the prefix
// property the recovery contract depends on.
//
// The scan is util/framed_scan.h's, shared with the trace reader:
//   - One read of the file's size into memory the WalScan owns. Not an
//     mmap: resume truncates the WAL it has just scanned, and tests
//     rewrite one in place, which would fault (SIGBUS) under a mapping.
//   - Record payloads are string_views into that memory. They stay valid
//     while the WalScan lives, including after it is moved (the memory
//     moves with it); WalScan cannot be copied.
//   - Checksums are verified four records at a time (fnv::hash_lanes),
//     but the first failure rule is unchanged: the note names the first
//     check the first bad record fails, exactly as a record-by-record
//     scan would.
#pragma once

#include <string>

#include "recovery/wal_format.h"

namespace staleflow::recovery {

/// records, valid_bytes (the resume truncation point), truncated, note
/// (why the scan stopped early; empty when the file ended at a record
/// boundary), and the bytes the records view.
using WalScan = framed::Scan<RecordType>;

/// Scans `path`. Throws std::runtime_error when the file cannot be
/// opened or read, or does not start with the WAL magic — those are not
/// torn tails, they mean the path is not a WAL at all.
WalScan scan_wal(const std::string& path);

}  // namespace staleflow::recovery
