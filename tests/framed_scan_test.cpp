// Differential suite for the framed-record scanner (util/framed_scan.h)
// behind scan_wal and scan_trace (ctest label `recovery`).
//
// The scanner reads the file in one go, verifies checksums four records
// at a time and hands out payload views, but it must decide exactly what
// a record-by-record scan decides. reference_scan() below is that
// record-by-record scan, kept here as the specification: for every
// truncation of a small real WAL and a small real trace, and for seeded
// single- and double-byte corruptions, scan_wal / scan_trace must return
// the same records, valid_bytes, truncated flag and note. Hand-built
// files pin which note wins when a checksum failure and a framing (or
// type) failure are both present, in either order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/generators.h"
#include "recovery/recovery.h"
#include "service/service.h"
#include "sweep/spec.h"
#include "trace/trace.h"
#include "util/binio.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace staleflow {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "staleflow_framed_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One framed file kind, as the reference scan and the tests see it.
struct Kind {
  std::string magic;
  std::uint32_t max_payload = 0;
  std::uint32_t min_type = 0;
  std::uint32_t max_type = 0;
};

const Kind kWal{std::string(recovery::kWalMagic, sizeof(recovery::kWalMagic)),
                recovery::kMaxRecordPayload,
                static_cast<std::uint32_t>(recovery::RecordType::kRunHeader),
                static_cast<std::uint32_t>(recovery::RecordType::kTrailer)};

const Kind kTrace{
    std::string(trace::kTraceMagic, sizeof(trace::kTraceMagic)),
    trace::kMaxTracePayload,
    static_cast<std::uint32_t>(trace::TraceRecordType::kTraceHeader),
    static_cast<std::uint32_t>(trace::TraceRecordType::kTraceTrailer)};

/// What a scan decided, in comparable form (payloads copied out).
struct Outcome {
  std::vector<std::pair<std::uint32_t, std::string>> records;
  std::vector<std::uint64_t> end_offsets;
  std::uint64_t valid_bytes = 0;
  bool truncated = false;
  std::string note;

  bool operator==(const Outcome&) const = default;
};

/// The record-by-record scan: checks 1-5 of util/framed_scan.h on one
/// record at a time, stopping at the first failure. Returns nullopt where
/// the scanner must throw (no magic).
std::optional<Outcome> reference_scan(const std::string& contents,
                                      const Kind& kind) {
  if (contents.size() < kind.magic.size() ||
      contents.compare(0, kind.magic.size(), kind.magic) != 0) {
    return std::nullopt;
  }
  Outcome scan;
  scan.valid_bytes = kind.magic.size();
  std::size_t offset = kind.magic.size();
  constexpr std::size_t kFrameBytes = 4 + 4 + 8;
  while (offset < contents.size()) {
    if (contents.size() - offset < kFrameBytes) {
      scan.truncated = true;
      scan.note = "torn tail: short record frame";
      break;
    }
    binio::Reader head(std::string_view(contents).substr(offset, 8));
    const std::uint32_t length = head.u32();
    const std::uint32_t type = head.u32();
    if (length > kind.max_payload) {
      scan.truncated = true;
      scan.note = "corrupt record: impossible payload length";
      break;
    }
    if (contents.size() - offset - kFrameBytes < length) {
      scan.truncated = true;
      scan.note = "torn tail: payload shorter than its length field";
      break;
    }
    std::uint64_t checksum = fnv::kOffsetBasis;
    fnv::hash_bytes(checksum, contents.data() + offset + 4, 4 + length);
    binio::Reader foot(
        std::string_view(contents).substr(offset + 8 + length, 8));
    if (foot.u64() != checksum) {
      scan.truncated = true;
      scan.note = "corrupt record: checksum mismatch";
      break;
    }
    if (type < kind.min_type || type > kind.max_type) {
      scan.truncated = true;
      scan.note = "corrupt record: unknown record type";
      break;
    }
    scan.records.emplace_back(type, contents.substr(offset + 8, length));
    offset += kFrameBytes + length;
    scan.end_offsets.push_back(offset);
    scan.valid_bytes = offset;
  }
  return scan;
}

template <class Scan>
Outcome outcome_of(const Scan& scan) {
  Outcome out;
  for (const auto& record : scan.records) {
    out.records.emplace_back(static_cast<std::uint32_t>(record.type),
                             std::string(record.payload));
    out.end_offsets.push_back(record.end_offset);
  }
  out.valid_bytes = scan.valid_bytes;
  out.truncated = scan.truncated;
  out.note = scan.note;
  return out;
}

/// Writes `contents` to a file and scans it with the real scanner for
/// `kind`; nullopt when the scanner throws.
std::optional<Outcome> real_scan(const std::string& contents,
                                 const Kind& kind) {
  const bool wal = kind.magic == kWal.magic;
  const std::string path = temp_path(wal ? "diff.wal" : "diff.trace");
  write_file(path, contents);
  try {
    return wal ? outcome_of(recovery::scan_wal(path))
               : outcome_of(trace::scan_trace(path));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

void expect_same_as_reference(const std::string& contents, const Kind& kind,
                              const std::string& what) {
  const std::optional<Outcome> expected = reference_scan(contents, kind);
  const std::optional<Outcome> actual = real_scan(contents, kind);
  ASSERT_EQ(actual.has_value(), expected.has_value()) << what;
  if (!expected) return;
  EXPECT_EQ(actual->records, expected->records) << what;
  EXPECT_EQ(actual->end_offsets, expected->end_offsets) << what;
  EXPECT_EQ(actual->valid_bytes, expected->valid_bytes) << what;
  EXPECT_EQ(actual->truncated, expected->truncated) << what;
  EXPECT_EQ(actual->note, expected->note) << what;
}

/// A small real run served with a WAL and a trace: the WAL's records mix
/// a run header, cuts of a few hundred bytes and short round marks; the
/// trace's mix event batches, counter records, header and trailer.
struct RealFiles {
  std::string wal;
  std::string trace;
};

const RealFiles& real_files() {
  static const RealFiles files = [] {
    const Instance instance = braess(true);
    const Policy policy = named_policy("replicator").make(instance, 0.1);
    const WorkloadPtr workload = make_workload("closed-loop:200");
    RouteServerOptions options;
    options.update_period = 0.1;
    options.epochs = 4;
    options.num_clients = 60;
    options.shards = 2;
    options.threads = 1;
    options.seed = 3;

    recovery::RunManifest manifest;
    recovery::TenantManifest self;
    self.scenario = "braess";
    self.policy = "replicator";
    self.workload = "closed-loop:200";
    self.options = options;
    manifest.tenants.push_back(self);

    const std::string wal_path = temp_path("real.wal");
    const std::string trace_path = temp_path("real.trace");
    trace::start(trace_path, "framed_scan_test");
    {
      recovery::WalLog log(wal_path, manifest);
      RouteServer server(instance, policy, *workload);
      server.run(FlowVector::uniform(instance), options, nullptr,
                 log.round_observer());
      log.finish();
    }
    trace::stop();
    return RealFiles{read_file(wal_path), read_file(trace_path)};
  }();
  return files;
}

std::vector<std::pair<const Kind*, std::string>> real_cases() {
  return {{&kWal, real_files().wal}, {&kTrace, real_files().trace}};
}

// ------------------------------------------------ differential: prefixes

TEST(FramedScan, MatchesTheSequentialScanAtEveryTruncation) {
  for (const auto& [kind, bytes] : real_cases()) {
    // The files hold more records than there are lanes, so lanes refill.
    const std::optional<Outcome> full = reference_scan(bytes, *kind);
    ASSERT_TRUE(full.has_value());
    ASSERT_GT(full->records.size(), 4u) << kind->magic;
    ASSERT_FALSE(full->truncated) << full->note;
    for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
      expect_same_as_reference(bytes.substr(0, keep), *kind,
                               "keep " + std::to_string(keep));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------- differential: corruption

TEST(FramedScan, MatchesTheSequentialScanUnderSeededCorruption) {
  for (const auto& [kind, bytes] : real_cases()) {
    const std::size_t magic = kind->magic.size();
    Rng rng(kind == &kWal ? 41 : 43);
    for (int trial = 0; trial < 300; ++trial) {
      std::string single = bytes;
      const std::size_t at = magic + rng.below(bytes.size() - magic);
      single[at] = static_cast<char>(single[at] ^ (1 + rng.below(255)));
      expect_same_as_reference(single, *kind, "flip at " + std::to_string(at));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FramedScan, TheEarlierOfTwoCorruptionsWins) {
  for (const auto& [kind, bytes] : real_cases()) {
    const std::size_t magic = kind->magic.size();
    const std::optional<Outcome> clean = reference_scan(bytes, *kind);
    ASSERT_TRUE(clean.has_value());
    Rng rng(kind == &kWal ? 47 : 53);
    for (int trial = 0; trial < 300; ++trial) {
      std::size_t first = magic + rng.below(bytes.size() - magic);
      std::size_t second = magic + rng.below(bytes.size() - magic);
      if (first > second) std::swap(first, second);
      std::string earlier = bytes;
      earlier[first] = static_cast<char>(earlier[first] ^ (1 + rng.below(255)));
      std::string both = earlier;
      both[second] = static_cast<char>(both[second] ^ (1 + rng.below(255)));
      const std::string what = "flips at " + std::to_string(first) + ", " +
                               std::to_string(second);
      expect_same_as_reference(both, *kind, what);

      // When the second flip lies past the record the first one hit, the
      // scan must stop exactly where the first flip alone stops it.
      std::uint64_t record_end = bytes.size();
      for (const std::uint64_t end : clean->end_offsets) {
        if (end > first) {
          record_end = end;
          break;
        }
      }
      if (second >= record_end) {
        const std::optional<Outcome> alone = real_scan(earlier, *kind);
        const std::optional<Outcome> pair = real_scan(both, *kind);
        ASSERT_TRUE(alone && pair) << what;
        EXPECT_EQ(pair->valid_bytes, alone->valid_bytes) << what;
        EXPECT_EQ(pair->note, alone->note) << what;
        EXPECT_LT(pair->valid_bytes, record_end) << what;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ------------------------------------------------------ note precedence

/// One frame as the writers lay it out, with any type word.
std::string frame(std::uint32_t type, const std::string& payload) {
  binio::Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(type);
  std::string bytes = w.take() + payload;
  std::uint64_t checksum = fnv::kOffsetBasis;
  fnv::hash_bytes(checksum, bytes.data() + 4, 4 + payload.size());
  binio::Writer foot;
  foot.u64(checksum);
  return bytes + foot.take();
}

/// Six well-formed records of unequal sizes, so failures land in
/// different lanes of the first four-record group and past it.
std::vector<std::string> six_frames(const Kind& kind) {
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::uint32_t type = kind.min_type + static_cast<std::uint32_t>(
                                                   i % (kind.max_type -
                                                        kind.min_type + 1));
    frames.push_back(frame(type, std::string(3 + 37 * i, char('a' + i))));
  }
  return frames;
}

std::string join(const Kind& kind, const std::vector<std::string>& frames) {
  std::string bytes = kind.magic;
  for (const std::string& f : frames) bytes += f;
  return bytes;
}

/// Spoils record `i`'s checksum (its last byte).
void break_checksum(std::vector<std::string>& frames, std::size_t i) {
  frames[i].back() = static_cast<char>(frames[i].back() ^ 0x01);
}

/// Gives record `i` a length field no record may have.
void break_length(std::vector<std::string>& frames, std::size_t i) {
  frames[i][0] = frames[i][1] = frames[i][2] = frames[i][3] = '\xff';
}

/// Gives record `i` an out-of-range type with a VALID checksum.
void break_type(std::vector<std::string>& frames, std::size_t i,
                const Kind& kind) {
  const std::uint32_t length =
      binio::Reader(std::string_view(frames[i]).substr(0, 4)).u32();
  frames[i] = frame(kind.max_type + 1, frames[i].substr(8, length));
}

std::uint64_t end_of(const Kind& kind, const std::vector<std::string>& frames,
                     std::size_t records) {
  std::uint64_t end = kind.magic.size();
  for (std::size_t i = 0; i < records; ++i) end += frames[i].size();
  return end;
}

TEST(FramedScan, NotePrecedenceFollowsRecordOrder) {
  for (const Kind* kind : {&kWal, &kTrace}) {
    const std::vector<std::string> clean = six_frames(*kind);
    struct Case {
      const char* what;
      std::vector<std::string> frames;
      std::size_t good;  // records before the first bad one
      const char* note;
    };
    std::vector<Case> cases;
    {
      // Checksum failure first, framing failure later: checksum wins.
      std::vector<std::string> f = clean;
      break_checksum(f, 1);
      break_length(f, 4);
      cases.push_back({"checksum then length", f, 1,
                       "corrupt record: checksum mismatch"});
    }
    {
      // Framing failure first, checksum failure later: framing wins.
      std::vector<std::string> f = clean;
      break_length(f, 2);
      break_checksum(f, 4);
      cases.push_back({"length then checksum", f, 2,
                       "corrupt record: impossible payload length"});
    }
    {
      // Checksum failure, then a torn tail: checksum wins.
      std::vector<std::string> f = clean;
      break_checksum(f, 3);
      f[5].resize(f[5].size() - 5);
      cases.push_back({"checksum then torn tail", f, 3,
                       "corrupt record: checksum mismatch"});
    }
    {
      // Unknown type first, checksum failure later: type wins.
      std::vector<std::string> f = clean;
      break_type(f, 1, *kind);
      break_checksum(f, 2);
      cases.push_back({"type then checksum", f, 1,
                       "corrupt record: unknown record type"});
    }
    {
      // Checksum failure first, unknown type later: checksum wins.
      std::vector<std::string> f = clean;
      break_checksum(f, 0);
      break_type(f, 5, *kind);
      cases.push_back({"checksum then type", f, 0,
                       "corrupt record: checksum mismatch"});
    }
    {
      // Both on one record: the checksum is checked first.
      std::vector<std::string> f = clean;
      break_type(f, 4, *kind);
      break_checksum(f, 4);
      cases.push_back({"checksum and type on one record", f, 4,
                       "corrupt record: checksum mismatch"});
    }
    {
      // An unknown type, then a record torn short: type wins.
      std::vector<std::string> f = clean;
      break_type(f, 2, *kind);
      f[3].resize(10);
      f.resize(4);
      cases.push_back({"type then torn tail", f, 2,
                       "corrupt record: unknown record type"});
    }
    for (const Case& c : cases) {
      const std::string bytes = join(*kind, c.frames);
      expect_same_as_reference(bytes, *kind, c.what);
      const std::optional<Outcome> scan = real_scan(bytes, *kind);
      ASSERT_TRUE(scan.has_value()) << c.what;
      EXPECT_TRUE(scan->truncated) << c.what;
      EXPECT_EQ(scan->note, c.note) << c.what;
      EXPECT_EQ(scan->records.size(), c.good) << c.what;
      EXPECT_EQ(scan->valid_bytes, end_of(*kind, c.frames, c.good))
          << c.what;
    }
  }
}

// ------------------------------------------------------ payload lifetime

TEST(FramedScan, PayloadViewsSurviveAMove) {
  const std::string wal_path = temp_path("moved.wal");
  const std::string trace_path = temp_path("moved.trace");
  write_file(wal_path, real_files().wal);
  write_file(trace_path, real_files().trace);

  recovery::WalScan wal = recovery::scan_wal(wal_path);
  trace::TraceScan trace = trace::scan_trace(trace_path);
  const Outcome wal_before = outcome_of(wal);
  const Outcome trace_before = outcome_of(trace);
  ASSERT_FALSE(wal_before.records.empty());
  ASSERT_FALSE(trace_before.records.empty());

  // Move-construct, then move-assign over a scan of another file; the
  // views must still read the original bytes.
  recovery::WalScan moved_wal(std::move(wal));
  recovery::WalScan assigned_wal = recovery::scan_wal(wal_path);
  assigned_wal = std::move(moved_wal);
  EXPECT_EQ(outcome_of(assigned_wal), wal_before);

  trace::TraceScan moved_trace(std::move(trace));
  trace::TraceScan assigned_trace = trace::scan_trace(trace_path);
  assigned_trace = std::move(moved_trace);
  EXPECT_EQ(outcome_of(assigned_trace), trace_before);

  // The scan owns its bytes: rewriting the file does not touch them.
  write_file(wal_path, std::string(recovery::kWalMagic,
                                   sizeof(recovery::kWalMagic)));
  EXPECT_EQ(outcome_of(assigned_wal), wal_before);

  static_assert(!std::is_copy_constructible_v<recovery::WalScan>);
  static_assert(!std::is_copy_assignable_v<trace::TraceScan>);
}

}  // namespace
}  // namespace staleflow
