#include "util/framed_scan.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "util/binio.h"
#include "util/fnv.h"

namespace staleflow::framed {
namespace {

// Frame overhead around each payload: u32 length + u32 type + u64 sum.
constexpr std::size_t kFrameBytes = 4 + 4 + 8;

std::runtime_error read_error(std::string_view caller, const char* what,
                              const std::string& path) {
  return std::runtime_error(std::string(caller) + ": " + what + " '" + path +
                            "'");
}

}  // namespace

FileBytes FileBytes::read(const std::string& path, std::string_view caller) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw read_error(caller, "cannot open", path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw read_error(caller, "cannot size", path);
  FileBytes bytes;
  bytes.size_ = static_cast<std::size_t>(size);
  bytes.data_ = std::make_unique_for_overwrite<char[]>(bytes.size_);
  in.read(bytes.data_.get(), static_cast<std::streamsize>(bytes.size_));
  if (in.bad()) throw read_error(caller, "read failed on", path);
  if (static_cast<std::size_t>(in.gcount()) != bytes.size_) {
    throw read_error(caller, "short read on", path);
  }
  return bytes;
}

Scan<std::uint32_t> scan_frames(const std::string& path,
                                const FrameFormat& format) {
  Scan<std::uint32_t> scan;
  scan.bytes = FileBytes::read(path, format.caller);
  const std::string_view bytes = scan.bytes.view();
  if (!bytes.starts_with(format.magic)) {
    throw std::runtime_error(std::string(format.caller) + ": '" + path +
                             "' is not " + std::string(format.noun) +
                             " (bad magic)");
  }

  // Framing pass: checks 1-3 on every record, in order. A record that
  // passes them is a candidate; the first failure's note waits until the
  // candidates before it are known to verify.
  std::vector<Record<std::uint32_t>> candidates;
  std::string frame_note;
  std::size_t offset = format.magic.size();
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kFrameBytes) {
      frame_note = "torn tail: short record frame";
      break;
    }
    binio::Reader head(bytes.substr(offset, 8));
    const std::uint32_t length = head.u32();
    const std::uint32_t type = head.u32();
    if (length > format.max_payload) {
      frame_note = "corrupt record: impossible payload length";
      break;
    }
    if (bytes.size() - offset - kFrameBytes < length) {
      frame_note = "torn tail: payload shorter than its length field";
      break;
    }
    offset += kFrameBytes + length;
    candidates.push_back(
        Record<std::uint32_t>{type, bytes.substr(offset - 8 - length, length),
                              offset});
    // Nothing past a record of unknown type is trusted, whatever check
    // it fails first.
    if (type < format.min_type || type > format.max_type) break;
  }

  // Checksums over type word + payload, which sit contiguously in the
  // file: the type word is the 4 bytes just before the payload.
  std::vector<std::string_view> covered;
  covered.reserve(candidates.size());
  for (const Record<std::uint32_t>& record : candidates) {
    covered.emplace_back(record.payload.data() - 4,
                         4 + record.payload.size());
  }
  std::vector<std::uint64_t> sums(candidates.size(), fnv::kOffsetBasis);
  fnv::hash_lanes(covered, sums);

  // Checks 4 and 5 in record order; the first failure ends the prefix.
  std::size_t verified = 0;
  for (; verified < candidates.size(); ++verified) {
    const Record<std::uint32_t>& record = candidates[verified];
    binio::Reader foot(bytes.substr(record.end_offset - 8, 8));
    if (foot.u64() != sums[verified]) {
      scan.note = "corrupt record: checksum mismatch";
      break;
    }
    if (record.type < format.min_type || record.type > format.max_type) {
      scan.note = "corrupt record: unknown record type";
      break;
    }
  }
  if (verified == candidates.size()) scan.note = std::move(frame_note);
  scan.truncated = !scan.note.empty();
  candidates.resize(verified);
  scan.valid_bytes =
      candidates.empty() ? format.magic.size() : candidates.back().end_offset;
  scan.records = std::move(candidates);
  return scan;
}

}  // namespace staleflow::framed
