// The one scanner for checksummed, length-framed record files: the
// recovery WAL (recovery/wal_format.h) and the telemetry trace
// (trace/trace_format.h). Both are an 8-byte magic followed by records
//
//   | payload length u32 LE | type u32 LE | payload | FNV-1a u64 LE |
//
// where the checksum covers the type word and the payload. The files
// differ only in their magic, payload cap and type range, which a
// FrameFormat names.
//
// scan_frames() trusts exactly the longest prefix of records that verify
// and stops — without throwing — at the first that doesn't. For each
// record, in order, the checks are:
//   1. at least a frame's 16 bytes remain   ("torn tail: short record frame")
//   2. length <= max_payload      ("corrupt record: impossible payload length")
//   3. the payload fits           ("torn tail: payload shorter than its ...")
//   4. the checksum matches       ("corrupt record: checksum mismatch")
//   5. the type is in range       ("corrupt record: unknown record type")
// and the note names the first check the first bad record fails. Nothing
// past that record is surfaced, even if later bytes happen to decode: a
// gap would break the prefix property recovery depends on.
//
// How, for speed (the result is the same as checking record by record):
//   - The file is read with one read of its size into owned heap memory.
//     Not a mapping: callers rewrite or truncate a file they have just
//     scanned (resume truncates the WAL at valid_bytes), and a mapped
//     file that shrinks under its views faults with SIGBUS.
//   - Payloads are string_views into that buffer; nothing is copied.
//   - A framing pass walks the length words and applies checks 1–3 (it
//     also stops after the first record whose type is out of range: no
//     record past it can be trusted). Then fnv::hash_lanes computes the
//     checksums four records at a time, and a last pass applies checks
//     4 and 5 in record order. A framing failure's note therefore only
//     wins when every record before it verified — the first-failure rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace staleflow::framed {

/// What tells one framed file kind from another.
struct FrameFormat {
  std::string_view magic;       // the file's first bytes
  std::uint32_t max_payload;    // a larger length field is corrupt
  std::uint32_t min_type;       // valid record types: [min_type, max_type]
  std::uint32_t max_type;
  std::string_view caller;      // prefixes thrown messages ("scan_wal")
  std::string_view noun;        // "not <noun>" in the bad-magic message
};

/// A file's bytes in owned heap memory. Move-only: a move hands over the
/// same heap block, so views into it stay valid; there is no copy that
/// could leave views pointing into another object's bytes.
class FileBytes {
 public:
  FileBytes() = default;

  /// Reads all of `path` with one read of its size. Throws
  /// std::runtime_error (prefixed with `caller`) when the file cannot be
  /// opened or sized, or the read fails or comes up short.
  static FileBytes read(const std::string& path, std::string_view caller);

  std::string_view view() const noexcept { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_ = 0;
};

/// One verified record. `payload` views the owning scan's bytes and is
/// valid while that scan (or whatever it was moved into) lives.
/// `end_offset` is the file offset just past the record — the truncation
/// point tests and resume use to treat any prefix of a file as a crash
/// image.
template <class Type>
struct Record {
  Type type{};
  std::string_view payload;
  std::uint64_t end_offset = 0;
};

/// The verified prefix of a framed file. Movable, not copyable: the
/// records view `bytes`.
template <class Type>
struct Scan {
  std::vector<Record<Type>> records;
  /// File offset just past the last verified record (or past the magic
  /// when no record verified). The resume truncation point.
  std::uint64_t valid_bytes = 0;
  /// True when bytes existed past valid_bytes that failed verification.
  bool truncated = false;
  /// Why the scan stopped early; empty when the file ended exactly at a
  /// record boundary.
  std::string note;
  /// The file's bytes: what every record's payload views.
  FileBytes bytes;
};

/// Scans `path` as `format`. Throws std::runtime_error when the file
/// cannot be read or does not start with the magic — those are not torn
/// tails, they mean the path is not such a file at all.
Scan<std::uint32_t> scan_frames(const std::string& path,
                                const FrameFormat& format);

/// scan_frames with each record's type word cast to `Type` (checks 1–5
/// have already confined it to the format's range).
template <class Type>
Scan<Type> scan_typed(const std::string& path, const FrameFormat& format) {
  Scan<std::uint32_t> words = scan_frames(path, format);
  Scan<Type> scan;
  scan.records.reserve(words.records.size());
  for (const Record<std::uint32_t>& record : words.records) {
    scan.records.push_back(Record<Type>{static_cast<Type>(record.type),
                                        record.payload, record.end_offset});
  }
  scan.valid_bytes = words.valid_bytes;
  scan.truncated = words.truncated;
  scan.note = std::move(words.note);
  scan.bytes = std::move(words.bytes);
  return scan;
}

}  // namespace staleflow::framed
