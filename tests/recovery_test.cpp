// Crash-recovery property suite (ctest label `recovery`, run under the
// sanitizer CI job).
//
// The contract under test: a run serving with --wal can be killed at ANY
// byte of its write-ahead log — a torn tail, a clean record boundary, a
// flipped bit — and recover_wal + resume reproduce the uninterrupted
// run's deterministic telemetry byte for byte: same per-epoch digests,
// same final flow, same route-latency histogram. The protocol invariants
// ride along: cut records commit only at round marks, a single-server
// WAL is record-for-record identical to a one-tenant registry's, the v3
// header's legacy schedule flag is written as 0 and ignored on read (v2
// files and WALs written by pipelined runs of earlier builds still
// resume — the latter pinned by checked-in crash images), and the
// CLI-facing recovery flags fail closed (exit 2) on conflicting or
// unusable paths.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "exec/exec.h"
#include "faults/fault_plan.h"
#include "net/flow.h"
#include "net/generators.h"
#include "recovery/recovery.h"
#include "service/service.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"
#include "util/binio.h"
#include "util/fnv.h"
#include "util/log_histogram.h"
#include "util/rng.h"

namespace staleflow {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "staleflow_recovery_" + name;
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

// ---------------------------------------------------------------- binio

TEST(BinIO, RoundTripsAllFieldTypes) {
  binio::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-0.0);
  w.f64(3.141592653589793);
  w.str(std::string("bin\0ary", 7));  // embedded NUL survives
  w.str("");

  binio::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  const double negative_zero = r.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // exact bit pattern, not value
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(BinIO, ReaderThrowsOnUnderrun) {
  binio::Writer w;
  w.u32(7);
  binio::Reader r(w.data());
  EXPECT_THROW(r.u64(), std::runtime_error);

  binio::Writer lying;
  lying.u64(1000);  // string length prefix far past the buffer
  binio::Reader r2(lying.data());
  EXPECT_THROW(r2.str(), std::runtime_error);
}

TEST(BinIO, ArrayCallsMatchPerElementCalls) {
  const std::vector<std::uint32_t> words = {0, 1, 0xDEADBEEF, 0xFFFFFFFF};
  const std::vector<double> doubles = {-0.0, 1.5,
                                       std::numeric_limits<double>::infinity()};
  binio::Writer block;
  block.u32s(words);
  block.f64s(doubles);
  block.u32s({});
  binio::Writer serial;
  for (const std::uint32_t word : words) serial.u32(word);
  for (const double value : doubles) serial.f64(value);
  EXPECT_EQ(block.data(), serial.data());

  binio::Reader reader(serial.data());
  std::vector<std::uint32_t> words_back(words.size());
  std::vector<double> doubles_back(doubles.size());
  reader.u32s(words_back);
  reader.f64s(doubles_back);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(words_back, words);
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(doubles_back[i]),
              std::bit_cast<std::uint64_t>(doubles[i]));
  }

  // One element more than the bytes hold throws and consumes nothing.
  binio::Reader short_reader(std::string_view(serial.data()).substr(0, 15));
  std::vector<std::uint32_t> four(4);
  EXPECT_THROW(short_reader.u32s(four), std::runtime_error);
  EXPECT_EQ(short_reader.remaining(), 15u);
}

// ------------------------------------------- LogHistogram::from_state

std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero_buckets(
    const LogHistogram& hist) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  hist.for_each_bucket([&](std::size_t b, std::uint64_t count) {
    buckets.emplace_back(b, count);
  });
  return buckets;
}

TEST(HistogramState, RoundTripIsObservationallyIdentical) {
  LogHistogram hist(1e-6, 1e6, 4);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) hist.record(rng.uniform(0.0, 100.0));
  hist.record(1e-9);  // underflow bucket
  hist.record(1e9);   // overflow bucket

  const LogHistogram restored = LogHistogram::from_state(
      hist.min_value(), hist.max_value(), hist.sub_bucket_bits(),
      nonzero_buckets(hist), hist.min(), hist.max(), hist.sum());
  EXPECT_TRUE(restored == hist);
  EXPECT_EQ(restored.quantile(0.99), hist.quantile(0.99));

  // Restored histograms must keep MERGING exactly — that is how resume
  // rebuilds the run distribution from per-epoch cuts.
  LogHistogram more(1e-6, 1e6, 4);
  more.record(42.0, 17);
  LogHistogram merged_original = hist;
  merged_original.merge(more);
  LogHistogram merged_restored = restored;
  merged_restored.merge(more);
  EXPECT_TRUE(merged_restored == merged_original);
}

TEST(HistogramState, EmptyRoundTrip) {
  const LogHistogram empty(1e-3, 1e3, 5);
  const LogHistogram restored = LogHistogram::from_state(
      1e-3, 1e3, 5, {}, /*min=*/0.0, /*max=*/0.0, /*sum=*/0.0);
  EXPECT_TRUE(restored == empty);
  EXPECT_TRUE(restored.empty());
}

TEST(HistogramState, RejectsBadState) {
  using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Buckets repeated = {{5, 1}, {5, 2}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, repeated, 1.0, 2.0, 3.0),
      std::invalid_argument);
  const Buckets zero_count = {{5, 0}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, zero_count, 1.0, 2.0, 3.0),
      std::invalid_argument);
  const Buckets out_of_range = {{1u << 30, 1}};
  EXPECT_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, out_of_range, 1.0, 2.0, 3.0),
      std::invalid_argument);
  // A total count that wraps to 0, extremes in their buckets.
  const LogHistogram geometry(1e-3, 1e3, 5);
  const std::uint64_t half = std::uint64_t{1} << 63;
  const Buckets wrapping = {{5, half}, {6, half}};
  EXPECT_THROW(LogHistogram::from_state(1e-3, 1e3, 5, wrapping,
                                        geometry.bucket_lower(5),
                                        geometry.bucket_lower(6), 3.0),
               std::invalid_argument);
  const Buckets fine = {{5, 1}};
  EXPECT_THROW(  // min > max
      LogHistogram::from_state(1e-3, 1e3, 5, fine, 2.0, 1.0, 3.0),
      std::invalid_argument);
}

TEST(HistogramState, RejectsExtremesOutsideTheirBuckets) {
  LogHistogram hist(1e-3, 1e3, 5);
  hist.record(0.5);
  hist.record(4.0, 3);
  const auto buckets = nonzero_buckets(hist);
  ASSERT_EQ(buckets.size(), 2u);
  const double sum = hist.sum();
  EXPECT_NO_THROW(
      LogHistogram::from_state(1e-3, 1e3, 5, buckets, 0.5, 4.0, sum));
  // Still inside [bucket_lower, bucket_upper) of the extreme buckets.
  EXPECT_NO_THROW(LogHistogram::from_state(
      1e-3, 1e3, 5, buckets, hist.bucket_lower(buckets.front().first),
      std::nextafter(hist.bucket_upper(buckets.back().first), 0.0), sum));
  for (const auto& [min, max] :
       {std::pair{0.25, 4.0},   // min below the lowest occupied bucket
        std::pair{1.0, 4.0},    // min above it
        std::pair{0.5, 8.0},    // max above the highest occupied bucket
        std::pair{0.5, 2.0},    // max below it
        std::pair{4.0, 4.0},    // min in the highest bucket
        std::pair{0.0, 4.0}}) {  // min in the (empty) underflow bucket
    EXPECT_THROW(
        LogHistogram::from_state(1e-3, 1e3, 5, buckets, min, max, sum),
        std::invalid_argument)
        << min << " " << max;
  }
}

TEST(HistogramState, RejectsNegativeOrNonFiniteStatistics) {
  using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  // Two records of 1.0: min and max both fall in the one occupied bucket.
  const Buckets fine = {{LogHistogram(1e-3, 1e3, 5).bucket_index(1.0), 2}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(LogHistogram::from_state(1e-3, 1e3, 5, fine, 1.0, 1.0, 2.0));
  for (const auto& [min, max, sum] :
       {std::tuple{-1.0, 1.0, 1.0}, std::tuple{1.0, 1.0, nan},
        std::tuple{nan, 1.0, 1.0}, std::tuple{1.0, nan, 1.0},
        std::tuple{1.0, inf, 1.0}, std::tuple{1.0, 1.0, inf},
        std::tuple{1.0, 1.0, -2.0}, std::tuple{-inf, 1.0, 1.0}}) {
    EXPECT_THROW(LogHistogram::from_state(1e-3, 1e3, 5, fine, min, max, sum),
                 std::invalid_argument)
        << min << " " << max << " " << sum;
    // An empty histogram's statistics are ignored, but still checked.
    EXPECT_THROW(LogHistogram::from_state(1e-3, 1e3, 5, {}, min, max, sum),
                 std::invalid_argument);
  }
}

// ------------------------------------------------ incremental digest

TEST(TelemetryDigest, AccumulateFoldsToWholeRunDigest) {
  std::vector<EpochSummary> epochs(5);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    epochs[e].epoch = e;
    epochs[e].queries = 100 + e;
    epochs[e].migrations = e;
    epochs[e].wardrop_gap = 0.25 / static_cast<double>(e + 1);
    epochs[e].board_latency = 1.5 + static_cast<double>(e);
    epochs[e].route_p50 = 1.0;
    epochs[e].route_p99 = 2.0;
    epochs[e].route_p999 = 3.0;
  }
  std::uint64_t folded = fnv::kOffsetBasis;
  for (const EpochSummary& epoch : epochs) {
    folded = telemetry_digest_accumulate(folded, epoch);
  }
  EXPECT_EQ(folded, telemetry_digest(epochs));
}

// ------------------------------------------------------- WAL framing

TEST(WalFraming, WritesAndScansRecords) {
  const std::string path = temp_path("framing.wal");
  {
    recovery::WalWriter writer = recovery::WalWriter::create(path);
    writer.append(recovery::RecordType::kRunHeader, "alpha");
    writer.append(recovery::RecordType::kEpochCut,
                  std::string("b\0in", 4));
    writer.append(recovery::RecordType::kTrailer, "");
  }
  const recovery::WalScan scan = recovery::scan_wal(path);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, recovery::RecordType::kRunHeader);
  EXPECT_EQ(scan.records[0].payload, "alpha");
  EXPECT_EQ(scan.records[1].payload, std::string("b\0in", 4));
  EXPECT_EQ(scan.records[2].type, recovery::RecordType::kTrailer);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path));
}

TEST(WalFraming, TornTailIsTruncatedAtLastGoodRecord) {
  const std::string path = temp_path("torn.wal");
  {
    recovery::WalWriter writer = recovery::WalWriter::create(path);
    writer.append(recovery::RecordType::kRunHeader, "one");
    writer.append(recovery::RecordType::kEpochCut, "two-two");
    writer.append(recovery::RecordType::kRoundMark, "three");
  }
  const std::string clean = read_file(path);
  const recovery::WalScan full = recovery::scan_wal(path);
  ASSERT_EQ(full.records.size(), 3u);

  // Cut the file anywhere inside the third record: the scan keeps the
  // first two and reports the amputation point.
  for (const std::size_t keep :
       {full.records[1].end_offset + 1, full.records[2].end_offset - 1}) {
    write_file(path, clean.substr(0, keep));
    const recovery::WalScan torn = recovery::scan_wal(path);
    EXPECT_TRUE(torn.truncated);
    ASSERT_EQ(torn.records.size(), 2u);
    EXPECT_EQ(torn.valid_bytes, full.records[1].end_offset);
    EXPECT_FALSE(torn.note.empty());
  }
}

TEST(WalFraming, BitFlipStopsTheScan) {
  const std::string path = temp_path("flip.wal");
  {
    recovery::WalWriter writer = recovery::WalWriter::create(path);
    writer.append(recovery::RecordType::kRunHeader, "head");
    writer.append(recovery::RecordType::kEpochCut, "payload-payload");
    writer.append(recovery::RecordType::kRoundMark, "mark");
  }
  std::string bytes = read_file(path);
  const recovery::WalScan full = recovery::scan_wal(path);
  ASSERT_EQ(full.records.size(), 3u);

  // Flip one bit inside the SECOND record's payload: the scan must keep
  // the header, reject the flipped record, and — prefix property — not
  // surface the intact third record either.
  const std::uint64_t flip_at = full.records[0].end_offset + 8 + 3;
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x10);
  write_file(path, bytes);
  const recovery::WalScan flipped = recovery::scan_wal(path);
  EXPECT_TRUE(flipped.truncated);
  ASSERT_EQ(flipped.records.size(), 1u);
  EXPECT_EQ(flipped.valid_bytes, full.records[0].end_offset);
  EXPECT_NE(flipped.note.find("checksum"), std::string::npos);
}

TEST(WalFraming, RejectsNonWalFiles) {
  const std::string path = temp_path("notawal.bin");
  write_file(path, "this is certainly not a WAL file");
  EXPECT_THROW(recovery::scan_wal(path), std::runtime_error);
  EXPECT_THROW(recovery::scan_wal(temp_path("missing.wal")),
               std::runtime_error);
}

// ---------------------------------------------------- serving fixtures

/// A small deterministic single-server run: braess (libm-free dynamics),
/// closed-loop load, replay mode — every telemetry byte reproducible.
struct SingleRun {
  Instance instance = braess(true);
  Policy policy = named_policy("replicator").make(instance, 0.1);
  WorkloadPtr workload = make_workload("closed-loop:800");
  RouteServerOptions options;

  SingleRun() {
    options.update_period = 0.1;
    options.epochs = 8;
    options.num_clients = 400;
    options.shards = 2;
    options.threads = 1;
    options.seed = 5;
  }

  RouteServerResult run(const RoundCutObserver& rounds = nullptr,
                        std::span<const EngineCheckpoint> resume = {}) {
    RouteServer server(instance, policy, *workload);
    return server.run(FlowVector::uniform(instance), options, nullptr, rounds,
                      resume);
  }

  recovery::RunManifest manifest() const {
    recovery::RunManifest m;
    m.multi_tenant = false;
    recovery::TenantManifest self;
    self.scenario = "braess";
    self.policy = "replicator";
    self.workload = "closed-loop:800";
    self.options = options;
    self.weight = 1;
    m.tenants.push_back(std::move(self));
    return m;
  }
};

/// A round observer that collects a solo run's epoch cuts in order.
RoundCutObserver collect_cuts(std::vector<EngineCheckpoint>& cuts) {
  return [&cuts](const RoundCheckpoint& round) {
    for (const auto& [tenant, cut] : round.cuts) cuts.push_back(cut);
  };
}

/// Resumes a single-server WAL file to completion and returns the whole
/// run's digest (the resumed process's view).
std::uint64_t resume_single_to_completion(const std::string& path,
                                          SingleRun& fixture) {
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_FALSE(state.clean_shutdown);
  recovery::WalLog log(path, state);
  const RouteServerResult result =
      fixture.run(log.round_observer(), std::span(state.cuts.front()));
  log.finish();
  return telemetry_digest(result.epochs);
}

// ------------------------------------- kill-at-every-cut-point (library)

TEST(Resume, KillAtEveryCutPointResumesBitIdentically) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  const RouteServerResult full =
      fixture.run(collect_cuts(cuts));
  ASSERT_EQ(cuts.size(), fixture.options.epochs);
  const std::uint64_t golden = telemetry_digest(full.epochs);
  ASSERT_GT(full.total_migrations, 0u);  // dynamics actually moved

  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const RouteServerResult resumed =
        fixture.run(nullptr, std::span(cuts).subspan(0, k));
    EXPECT_EQ(telemetry_digest(resumed.epochs), golden) << "cut " << k;
    const std::vector<double> resumed_flow(resumed.final_flow.values().begin(),
                                           resumed.final_flow.values().end());
    const std::vector<double> full_flow(full.final_flow.values().begin(),
                                        full.final_flow.values().end());
    EXPECT_EQ(resumed_flow, full_flow) << "cut " << k;
    EXPECT_TRUE(resumed.route_latency == full.route_latency) << "cut " << k;
    EXPECT_EQ(resumed.total_queries, full.total_queries) << "cut " << k;
  }
}

TEST(Resume, RejectsCutsThatDoNotFitTheConfiguration) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  fixture.run(collect_cuts(cuts));

  std::vector<EngineCheckpoint> gap = {cuts[0], cuts[2]};  // not contiguous
  EXPECT_THROW(fixture.run(nullptr, gap), std::invalid_argument);

  std::vector<EngineCheckpoint> wrong_flow = {cuts[0]};
  wrong_flow[0].flow.push_back(0.0);
  EXPECT_THROW(fixture.run(nullptr, wrong_flow), std::invalid_argument);

  std::vector<EngineCheckpoint> wrong_clients = {cuts[0]};
  wrong_clients[0].client_paths.pop_back();
  EXPECT_THROW(fixture.run(nullptr, wrong_clients), std::invalid_argument);
}

// --------------------------------------------- WAL end-to-end (single)

TEST(WalLog, CleanRunRoundTripsThroughRecoverWal) {
  SingleRun fixture;
  const std::string path = temp_path("clean.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    const RouteServerResult full = fixture.run(log.round_observer());
    log.finish();
    golden = telemetry_digest(full.epochs);
  }

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.clean_shutdown);
  EXPECT_FALSE(state.truncated);
  EXPECT_FALSE(state.manifest.multi_tenant);
  ASSERT_EQ(state.cuts.size(), 1u);
  EXPECT_EQ(state.cuts[0].size(), fixture.options.epochs);
  EXPECT_EQ(state.digests[0], golden);
  EXPECT_EQ(state.rounds, fixture.options.epochs);

  const recovery::TenantManifest& manifest = state.manifest.tenants[0];
  EXPECT_EQ(manifest.scenario, "braess");
  EXPECT_EQ(manifest.policy, "replicator");
  EXPECT_EQ(manifest.workload, "closed-loop:800");
  EXPECT_EQ(manifest.options.epochs, fixture.options.epochs);
  EXPECT_EQ(manifest.options.seed, fixture.options.seed);
  EXPECT_EQ(manifest.options.num_clients, fixture.options.num_clients);

  // Restored cuts are bit-identical to freshly captured ones: replaying
  // the recovered state must land on the same digest.
  const RouteServerResult resumed =
      fixture.run(nullptr, std::span(state.cuts[0]));
  EXPECT_EQ(telemetry_digest(resumed.epochs), golden);
}

TEST(WalLog, RecoveredClientPathsLiveOnTheLastCutAndOnDisk) {
  SingleRun fixture;
  const std::string path = temp_path("lazypaths.wal");
  std::vector<EngineCheckpoint> captured;
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    const RoundCutObserver collect = collect_cuts(captured);
    const RoundCutObserver observe = [&](const RoundCheckpoint& round) {
      collect(round);
      log.log_round(round);
    };
    golden = telemetry_digest(fixture.run(observe).epochs);
    log.finish();
  }

  recovery::RecoveredRun state = recovery::recover_wal(path);
  ASSERT_EQ(state.cuts[0].size(), captured.size());
  for (std::size_t c = 0; c + 1 < captured.size(); ++c) {
    EXPECT_TRUE(state.cuts[0][c].client_paths.empty()) << "cut " << c;
  }
  EXPECT_EQ(state.cuts[0].back().client_paths, captured.back().client_paths);

  // Every cut's paths read back from its offset, bit for bit.
  for (std::size_t c = 0; c < captured.size(); ++c) {
    const recovery::CutRecord record =
        recovery::read_epoch_cut(path, state.cut_offsets[0][c]);
    EXPECT_EQ(record.tenant, 0u);
    EXPECT_EQ(record.cut.summary.epoch, c);
    EXPECT_EQ(record.cut.client_paths, captured[c].client_paths)
        << "cut " << c;
  }

  // A prefix whose last cut's paths are read back resumes to the golden
  // digest, as the whole recovered prefix does.
  const std::size_t k = 3;
  state.cuts[0][k - 1].client_paths =
      recovery::read_epoch_cut(path, state.cut_offsets[0][k - 1])
          .cut.client_paths;
  EXPECT_EQ(telemetry_digest(
                fixture.run(nullptr, std::span(state.cuts[0]).subspan(0, k))
                    .epochs),
            golden);
}

TEST(WalLog, ReadEpochCutRejectsOffsetsWithoutAVerifiedCut) {
  SingleRun fixture;
  const std::string path = temp_path("readcut.wal");
  {
    recovery::WalLog log(path, fixture.manifest());
    fixture.run(log.round_observer());
    log.finish();
  }
  const recovery::WalScan scan = recovery::scan_wal(path);
  // Records: header, then (cut, mark) pairs; records[2] is a round mark.
  const std::uint64_t cut_at = scan.records[0].end_offset;
  const std::uint64_t mark_at = scan.records[1].end_offset;
  EXPECT_NO_THROW(recovery::read_epoch_cut(path, cut_at));
  EXPECT_THROW(recovery::read_epoch_cut(path, 0), std::runtime_error);
  EXPECT_THROW(recovery::read_epoch_cut(path, mark_at), std::runtime_error);
  EXPECT_THROW(recovery::read_epoch_cut(path, scan.valid_bytes),
               std::runtime_error);
  EXPECT_THROW(recovery::read_epoch_cut(temp_path("missing.wal"), cut_at),
               std::runtime_error);

  std::string bytes = read_file(path);
  bytes[cut_at + 8 + 11] = static_cast<char>(bytes[cut_at + 8 + 11] ^ 0x01);
  write_file(path, bytes);
  EXPECT_THROW(recovery::read_epoch_cut(path, cut_at), std::runtime_error);
}

TEST(WalLog, KilledAtAnyByteResumesToTheSameDigest) {
  SingleRun fixture;
  const std::string clean_path = temp_path("killbytes.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(clean_path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.round_observer()).epochs);
    log.finish();
  }
  const std::string clean = read_file(clean_path);
  const recovery::WalScan scan = recovery::scan_wal(clean_path);

  // Crash images: the WAL cut at every record boundary and mid-record —
  // every one must recover and resume to the uninterrupted digest. The
  // prefix must at least contain the run header (records[0]); anything
  // shorter is "not a resumable WAL", tested separately.
  std::vector<std::size_t> prefixes;
  for (std::size_t i = 0; i + 1 < scan.records.size(); ++i) {
    prefixes.push_back(scan.records[i].end_offset);       // boundary
    prefixes.push_back(scan.records[i].end_offset + 5);   // torn mid-record
  }
  const std::string crash_path = temp_path("killbytes_crash.wal");
  for (const std::size_t keep : prefixes) {
    write_file(crash_path, clean.substr(0, keep));
    SingleRun resumed_fixture;
    EXPECT_EQ(resume_single_to_completion(crash_path, resumed_fixture),
              golden)
        << "killed at byte " << keep;
    // The healed WAL is now a complete, clean run.
    const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
    EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
    EXPECT_EQ(healed.digests[0], golden) << "killed at byte " << keep;
  }
}

TEST(WalLog, BitFlippedCutRecoversToLastGoodEpoch) {
  SingleRun fixture;
  const std::string path = temp_path("flipcut.wal");
  std::uint64_t golden = 0;
  {
    recovery::WalLog log(path, fixture.manifest());
    golden = telemetry_digest(fixture.run(log.round_observer()).epochs);
    log.finish();
  }
  std::string bytes = read_file(path);
  const recovery::WalScan scan = recovery::scan_wal(path);
  // Records: header, then (cut, mark) pairs. Flip a bit inside epoch 3's
  // cut record (records[7]): epochs 0..2 stay committed.
  ASSERT_GT(scan.records.size(), 8u);
  const std::uint64_t flip_at = scan.records[6].end_offset + 8 + 11;
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x01);
  write_file(path, bytes);

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.truncated);
  EXPECT_FALSE(state.clean_shutdown);
  EXPECT_EQ(state.cuts[0].size(), 3u);
  EXPECT_EQ(state.rounds, 3u);

  SingleRun resumed_fixture;
  EXPECT_EQ(resume_single_to_completion(path, resumed_fixture), golden);
}

// ---------------------------------------------- crash gate on resume

TEST(ResumeDeathTest, ResumeOfCrashFaultRunMakesProgress) {
  // A run under --faults "crash:at=4" _Exit(137)s right after commit
  // point 4 hits the WAL, and the resumed process re-materializes the
  // SAME schedule from the logged spec — crash_after is stateless. The
  // host's one crash gate counts rounds and fires only after a round
  // commits, so a resume starting at round 4 first commits round 5 and
  // never re-evaluates the clause at the restored count — it finishes
  // instead of re-crashing at commit point 4 forever. Checked solo and as
  // a one-tenant registry, in death-test children so a regression shows
  // up as exit 137, not a dead test binary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";

  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  const std::uint64_t golden =
      telemetry_digest(fixture.run(collect_cuts(cuts)).epochs);
  ASSERT_GT(cuts.size(), 4u);
  const std::span<const EngineCheckpoint> image =
      std::span(cuts).subspan(0, 4);
  const auto crash_schedule = [&fixture] {
    return faults::FaultSchedule::materialize(
        faults::parse_fault_plan("crash:at=4"), fixture.options.seed,
        fixture.options.epochs);
  };

  EXPECT_EXIT(
      {
        const faults::FaultSchedule schedule = crash_schedule();
        SingleRun resumed;
        resumed.options.faults = &schedule;
        const RouteServerResult result = resumed.run(nullptr, image);
        std::_Exit(telemetry_digest(result.epochs) == golden ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");

  EXPECT_EXIT(
      {
        const faults::FaultSchedule schedule = crash_schedule();
        TenantOptions options;
        options.server = fixture.options;
        options.server.faults = &schedule;
        TenantRegistry registry;
        registry.add("solo", fixture.instance, fixture.policy,
                     *fixture.workload, options);
        RegistryResume resume;
        resume.rounds = image.size();
        resume.credits = {0};
        resume.cuts = {image};
        Executor executor(1);
        const MultiTenantResult result =
            registry.run(executor, nullptr, nullptr, &resume);
        std::_Exit(telemetry_digest(result.tenants[0].server.epochs) ==
                           golden
                       ? 0
                       : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(RecoverWal, RejectsHeaderlessWal) {
  const std::string path = temp_path("headerless.wal");
  { recovery::WalWriter::create(path); }  // magic only, no records
  EXPECT_THROW(recovery::recover_wal(path), std::runtime_error);
}

// ------------------------------- decoders fail closed on corrupt fields

/// Overwrites the 8 bytes at `offset` of a payload (binio's little-endian
/// layout).
std::string with_u64_at(std::string payload, std::size_t offset,
                        std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    payload[offset + i] = static_cast<char>(value >> (8 * i));
  }
  return payload;
}

std::uint64_t u64_at(const std::string& payload, std::size_t offset) {
  return binio::Reader(std::string_view(payload).substr(offset, 8)).u64();
}

std::string with_f64_at(std::string payload, std::size_t offset,
                        double value) {
  return with_u64_at(std::move(payload), offset,
                     std::bit_cast<std::uint64_t>(value));
}

/// Offset of the flow count in an epoch-cut payload (encode_epoch_cut):
/// the tenant word, 15 summary fields and 4 rng words precede it.
constexpr std::size_t kCutFlowCountOffset = 4 + 15 * 8 + 4 * 8;

/// Writes a clean single-server WAL, then rewrites it with record `index`
/// (epoch 3's cut for index 7: header, then cut/mark pairs) replaced by
/// `mutate(payload)` and re-checksummed — so only the decoder can object.
std::string wal_with_mutated_record(
    const std::string& name, std::size_t index,
    const std::function<std::string(const std::string&)>& mutate) {
  SingleRun fixture;
  const std::string path = temp_path(name);
  {
    recovery::WalLog log(path, fixture.manifest());
    fixture.run(log.round_observer());
    log.finish();
  }
  const recovery::WalScan scan = recovery::scan_wal(path);
  EXPECT_GT(scan.records.size(), index);
  recovery::WalWriter writer = recovery::WalWriter::create(path);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const recovery::WalRecord& record = scan.records[i];
    writer.append(record.type,
                  i == index ? mutate(std::string(record.payload))
                             : record.payload);
  }
  return path;
}

/// A cut whose flow, client-path or bucket count claims more elements
/// than its payload holds (here 2^61) must throw std::runtime_error — the
/// error recover_wal turns into a "corrupt WAL" stop — never
/// std::length_error or std::bad_alloc from sizing a vector by it.
TEST(WalDecode, OversizedCountsFailClosed) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  fixture.run(collect_cuts(cuts));
  const std::string cut = recovery::encode_epoch_cut(0, cuts[3], 7);
  const std::size_t paths = cuts[3].flow.size();
  const std::size_t clients_at = kCutFlowCountOffset + 8 + 8 * paths;
  const std::size_t buckets_at =
      clients_at + 8 + 4 * cuts[3].client_paths.size() + 8 + 8 + 4;
  // The offsets really hold the three counts.
  ASSERT_EQ(u64_at(cut, kCutFlowCountOffset), paths);
  ASSERT_EQ(u64_at(cut, clients_at), cuts[3].client_paths.size());
  ASSERT_EQ(u64_at(cut, buckets_at),
            nonzero_buckets(cuts[3].route_hist).size());
  for (const std::size_t offset :
       {kCutFlowCountOffset, clients_at, buckets_at}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
      EXPECT_THROW(
          recovery::decode_epoch_cut(with_u64_at(cut, offset, count)),
          std::runtime_error)
          << "count " << count << " at " << offset;
    }
  }

  // Round marks and trailers carry u32 counts of u64 words.
  recovery::RoundMark mark;
  mark.rounds = 4;
  mark.credits = {1};
  std::string bad_mark = recovery::encode_round_mark(mark);
  bad_mark[8] = bad_mark[9] = bad_mark[10] = bad_mark[11] = '\xff';
  EXPECT_THROW(recovery::decode_round_mark(bad_mark), std::runtime_error);
  const std::vector<std::uint64_t> digests = {1, 2};
  std::string bad_trailer = recovery::encode_trailer(digests);
  bad_trailer[0] = bad_trailer[1] = bad_trailer[2] = bad_trailer[3] = '\xff';
  EXPECT_THROW(recovery::decode_trailer(bad_trailer), std::runtime_error);

  // A multi-tenant header claiming 2^32 - 1 tenants.
  recovery::RunManifest manifest = fixture.manifest();
  manifest.multi_tenant = true;
  std::string header = recovery::encode_run_header(manifest);
  const std::size_t count_at = 4 + 1 + 1 + 8 + manifest.faults.size();
  for (std::size_t i = 0; i < 4; ++i) header[count_at + i] = '\xff';
  EXPECT_THROW(recovery::decode_run_header(header), std::runtime_error);
}

TEST(WalDecode, OversizedCutCountStopsRecoveryAtTheLastGoodEpoch) {
  const std::string path = wal_with_mutated_record(
      "hugecount.wal", 7, [](const std::string& payload) {
        const std::uint64_t paths = u64_at(payload, kCutFlowCountOffset);
        return with_u64_at(payload, kCutFlowCountOffset + 8 + 8 * paths,
                           std::uint64_t{1} << 61);
      });
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.truncated);
  EXPECT_FALSE(state.clean_shutdown);
  EXPECT_EQ(state.note.rfind("corrupt WAL:", 0), 0u) << state.note;
  EXPECT_EQ(state.cuts[0].size(), 3u);
  EXPECT_EQ(state.rounds, 3u);

  // And the run resumes from there to the uninterrupted digest.
  SingleRun clean;
  const std::uint64_t golden = telemetry_digest(clean.run().epochs);
  SingleRun resumed;
  EXPECT_EQ(resume_single_to_completion(path, resumed), golden);
}

// ------------------------------------------------- block cut codec

/// A cut with `clients` clients on `paths` paths, every field set, the
/// flow holding -0.0 and a subnormal so bit patterns are exercised.
EngineCheckpoint synthetic_cut(std::size_t clients, std::size_t paths) {
  EngineCheckpoint cut;
  EpochSummary& s = cut.summary;
  s.epoch = 11;
  s.start_time = 1.1;
  s.end_time = 1.2000000000000002;
  s.queries = 4321;
  s.migrations = 77;
  s.migration_rate = 77.0 / 4321.0;
  s.wardrop_gap = 0.015625;
  s.board_latency = 2.5;
  s.route_p50 = 1.0;
  s.route_p99 = 2.0;
  s.route_p999 = 3.0;
  cut.rng_state = {0x0123456789ABCDEFULL, 2, 3, ~std::uint64_t{0}};
  Rng rng(clients * 31 + paths);
  for (std::size_t p = 0; p < paths; ++p) {
    cut.flow.push_back(p == 0   ? -0.0
                       : p == 1 ? std::numeric_limits<double>::denorm_min()
                                : rng.uniform());
  }
  for (std::size_t c = 0; c < clients; ++c) {
    cut.client_paths.push_back(
        c == 1 ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng.below(paths)));
  }
  for (int i = 0; i < 200; ++i) cut.route_hist.record(rng.uniform(0.5, 40.0));
  return cut;
}

/// encode_epoch_cut's layout written one field at a time: the bytes the
/// block codec must reproduce.
std::string per_field_cut(std::uint32_t tenant, const EngineCheckpoint& cut,
                          std::uint64_t digest_so_far) {
  binio::Writer w;
  w.u32(tenant);
  const EpochSummary& s = cut.summary;
  w.u64(s.epoch);
  w.f64(s.start_time);
  w.f64(s.end_time);
  w.u64(s.queries);
  w.u64(s.migrations);
  for (const double field :
       {s.migration_rate, s.wardrop_gap, s.board_latency, s.route_p50,
        s.route_p99, s.route_p999}) {
    w.f64(field);
  }
  for (int i = 0; i < 4; ++i) w.f64(0.0);  // the legacy wall-clock fields
  for (const std::uint64_t word : cut.rng_state) w.u64(word);
  w.u64(cut.flow.size());
  for (const double f : cut.flow) w.f64(f);
  w.u64(cut.client_paths.size());
  for (const std::uint32_t p : cut.client_paths) w.u32(p);
  const LogHistogram& h = cut.route_hist;
  w.f64(h.min_value());
  w.f64(h.max_value());
  w.u32(h.sub_bucket_bits());
  const auto buckets = nonzero_buckets(h);
  w.u64(buckets.size());
  for (const auto& [bucket, count] : buckets) {
    w.u64(bucket);
    w.u64(count);
  }
  w.f64(h.empty() ? 0.0 : h.min());
  w.f64(h.empty() ? 0.0 : h.max());
  w.f64(h.empty() ? 0.0 : h.sum());
  w.u64(digest_so_far);
  return w.take();
}

TEST(WalDecode, BlockCodecRoundTripsCutsOfEverySize) {
  for (const std::size_t clients : {0u, 1u, 3u, 40000u}) {
    const EngineCheckpoint cut = synthetic_cut(clients, 5);
    const std::string bytes = recovery::encode_epoch_cut(2, cut, 99);
    EXPECT_EQ(bytes, per_field_cut(2, cut, 99)) << clients << " clients";

    const recovery::CutRecord back = recovery::decode_epoch_cut(bytes);
    EXPECT_EQ(back.tenant, 2u);
    EXPECT_EQ(back.digest_so_far, 99u);
    EXPECT_EQ(back.cut.summary.epoch, cut.summary.epoch);
    EXPECT_EQ(telemetry_digest_accumulate(fnv::kOffsetBasis,
                                          back.cut.summary),
              telemetry_digest_accumulate(fnv::kOffsetBasis, cut.summary));
    EXPECT_EQ(back.cut.rng_state, cut.rng_state);
    ASSERT_EQ(back.cut.flow.size(), cut.flow.size());
    for (std::size_t p = 0; p < cut.flow.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.cut.flow[p]),
                std::bit_cast<std::uint64_t>(cut.flow[p]));
    }
    EXPECT_EQ(back.cut.client_paths, cut.client_paths);
    EXPECT_TRUE(back.cut.route_hist == cut.route_hist);
    EXPECT_EQ(recovery::encode_epoch_cut(2, back.cut, 99), bytes);
  }
}

TEST(WalDecode, BlockCodecMatchesThePerFieldBytesOfARealCut) {
  SingleRun fixture;
  std::vector<EngineCheckpoint> cuts;
  fixture.run(collect_cuts(cuts));
  for (std::size_t e = 0; e < cuts.size(); ++e) {
    EXPECT_EQ(recovery::encode_epoch_cut(0, cuts[e], e),
              per_field_cut(0, cuts[e], e))
        << "epoch " << e;
  }
}

TEST(WalDecode, ClientCountOneTooLargeFailsClosed) {
  // Client counts past what was encoded: one more (the block read takes
  // the histogram's first bytes and the decoder runs short later) and
  // 2^30 (refused by the count check before any vector is sized).
  const EngineCheckpoint cut = synthetic_cut(3, 2);
  const std::string bytes = recovery::encode_epoch_cut(0, cut, 1);
  const std::size_t clients_at = kCutFlowCountOffset + 8 + 8 * 2;
  ASSERT_EQ(u64_at(bytes, clients_at), 3u);
  for (const std::uint64_t count :
       {std::uint64_t{4}, std::uint64_t{1} << 30}) {
    EXPECT_THROW(
        recovery::decode_epoch_cut(with_u64_at(bytes, clients_at, count)),
        std::runtime_error)
        << count;
  }
  // A flow count one short shifts every later field: also refused.
  EXPECT_THROW(recovery::decode_epoch_cut(
                   with_u64_at(bytes, kCutFlowCountOffset, 1)),
               std::runtime_error);
}

/// A cut whose route histogram carries min = -1 and sum = NaN decodes to
/// an invalid state: recovery must stop there, not restore it.
TEST(WalDecode, NegativeMinOrNanSumStopsRecovery) {
  const std::string path = wal_with_mutated_record(
      "badstats.wal", 7, [](const std::string& payload) {
        // The cut ends with min, max, sum and the running digest.
        const std::size_t min_at = payload.size() - 32;
        return with_f64_at(
            with_f64_at(payload, min_at, -1.0), min_at + 16,
            std::numeric_limits<double>::quiet_NaN());
      });
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.truncated);
  EXPECT_EQ(state.note.rfind("corrupt WAL:", 0), 0u) << state.note;
  EXPECT_EQ(state.cuts[0].size(), 3u);
}

/// A re-checksummed cut whose route histogram reports a min or max
/// outside its extreme buckets (valid numbers, min <= max) is forged:
/// its quantile(0) / quantile(1) would contradict the buckets, so
/// recovery stops at the last good epoch.
TEST(WalDecode, ExtremeOutsideItsBucketStopsRecovery) {
  for (const bool forge_max : {false, true}) {
    const std::string path = wal_with_mutated_record(
        "badextreme.wal", 7, [forge_max](const std::string& payload) {
          // The cut ends with min, max, sum and the running digest.
          const std::size_t at = payload.size() - (forge_max ? 24 : 32);
          const double extreme =
              std::bit_cast<double>(u64_at(payload, at));
          return with_f64_at(payload, at,
                             forge_max ? 2.0 * extreme : extreme / 2.0);
        });
    const recovery::RecoveredRun state = recovery::recover_wal(path);
    EXPECT_TRUE(state.truncated) << forge_max;
    EXPECT_EQ(state.note.rfind("corrupt WAL:", 0), 0u) << state.note;
    EXPECT_EQ(state.cuts[0].size(), 3u);
  }
}

// ------------------------------------- single-server == one-tenant WAL

TEST(WalProtocol, SingleServerMatchesOneTenantRegistryRecordForRecord) {
  SingleRun fixture;
  const std::string single_path = temp_path("proto_single.wal");
  {
    recovery::WalLog log(single_path, fixture.manifest());
    fixture.run(log.round_observer());
    log.finish();
  }

  const std::string tenant_path = temp_path("proto_tenant.wal");
  {
    recovery::RunManifest manifest = fixture.manifest();
    manifest.multi_tenant = true;
    manifest.tenants[0].name = "solo";
    recovery::WalLog log(tenant_path, manifest);
    TenantRegistry registry;
    TenantOptions options;
    options.server = fixture.options;
    registry.add("solo", fixture.instance, fixture.policy, *fixture.workload,
                 options);
    Executor executor(1);
    registry.run(executor, nullptr, log.round_observer());
    log.finish();
  }

  const recovery::WalScan single = recovery::scan_wal(single_path);
  const recovery::WalScan tenant = recovery::scan_wal(tenant_path);
  ASSERT_EQ(single.records.size(), tenant.records.size());
  // Headers differ (multi-tenant flag, tenant name); every record after
  // them — cuts, round marks, trailer — must be byte-identical.
  for (std::size_t i = 1; i < single.records.size(); ++i) {
    EXPECT_EQ(single.records[i].type, tenant.records[i].type) << "rec " << i;
    EXPECT_EQ(single.records[i].payload, tenant.records[i].payload)
        << "record " << i << " differs";
  }
}

// --------------------------------------------------- multi-tenant WAL

/// Three heterogeneous tenants with different weights, budgets and
/// scenarios — the interleaving actually exercises the round protocol.
struct MultiRun {
  Instance braess_instance = braess(true);
  Instance links = uniform_parallel_links(8, 0.5, 1.0);
  Policy braess_policy = named_policy("replicator").make(braess_instance, 0.1);
  Policy links_policy = named_policy("replicator").make(links, 0.1);
  WorkloadPtr workload_a = make_workload("closed-loop:800");
  WorkloadPtr workload_b = make_workload("closed-loop:400");
  WorkloadPtr workload_c = make_workload("closed-loop:300");
  TenantOptions options_a;
  TenantOptions options_b;
  TenantOptions options_c;

  MultiRun() {
    options_a.server.update_period = 0.1;
    options_a.server.epochs = 6;
    options_a.server.num_clients = 400;
    options_a.server.shards = 2;
    options_a.server.seed = 5;
    options_a.weight = 2;

    options_b.server = options_a.server;
    options_b.server.epochs = 4;
    options_b.server.num_clients = 200;
    options_b.server.seed = 9;
    options_b.weight = 1;

    options_c.server = options_a.server;
    options_c.server.epochs = 5;
    options_c.server.num_clients = 250;
    options_c.server.seed = 13;
    options_c.weight = 1;
  }

  void add_tenants(TenantRegistry& registry) const {
    registry.add("alpha", braess_instance, braess_policy, *workload_a,
                 options_a);
    registry.add("beta", links, links_policy, *workload_b, options_b);
    registry.add("gamma", braess_instance, braess_policy, *workload_c,
                 options_c);
  }

  recovery::RunManifest manifest() const {
    recovery::RunManifest m;
    m.multi_tenant = true;
    recovery::TenantManifest alpha;
    alpha.name = "alpha";
    alpha.scenario = "braess";
    alpha.policy = "replicator";
    alpha.workload = "closed-loop:800";
    alpha.options = options_a.server;
    alpha.weight = options_a.weight;
    recovery::TenantManifest beta;
    beta.name = "beta";
    beta.scenario = "uniform-links-8";
    beta.policy = "replicator";
    beta.workload = "closed-loop:400";
    beta.options = options_b.server;
    beta.weight = options_b.weight;
    recovery::TenantManifest gamma;
    gamma.name = "gamma";
    gamma.scenario = "braess";
    gamma.policy = "replicator";
    gamma.workload = "closed-loop:300";
    gamma.options = options_c.server;
    gamma.weight = options_c.weight;
    m.tenants.push_back(std::move(alpha));
    m.tenants.push_back(std::move(beta));
    m.tenants.push_back(std::move(gamma));
    return m;
  }

  MultiTenantResult run(const RoundCutObserver& rounds = nullptr,
                        const RegistryResume* resume = nullptr) const {
    TenantRegistry registry;
    add_tenants(registry);
    Executor executor(1);
    return registry.run(executor, nullptr, rounds, resume);
  }
};

std::vector<std::uint64_t> tenant_digests(const MultiTenantResult& result) {
  std::vector<std::uint64_t> digests;
  for (const TenantResult& tenant : result.tenants) {
    digests.push_back(telemetry_digest(tenant.server.epochs));
  }
  return digests;
}

TEST(WalLog, MultiTenantKilledMidRunResumesBitIdentically) {
  MultiRun fixture;
  const std::string path = temp_path("multi.wal");
  std::vector<std::uint64_t> golden;
  {
    recovery::WalLog log(path, fixture.manifest());
    golden = tenant_digests(fixture.run(log.round_observer()));
    log.finish();
  }

  // Sanity: the clean WAL recovers to a finished run with those digests.
  const recovery::RecoveredRun clean = recovery::recover_wal(path);
  EXPECT_TRUE(clean.clean_shutdown);
  EXPECT_EQ(clean.digests, golden);
  EXPECT_EQ(clean.manifest.tenants[0].weight, 2u);

  // Kill the run at several byte offsets (including mid-record) and
  // resume each crash image: per-tenant digests must match, and every
  // tenant picks up at a scheduler-round boundary (committed cuts only).
  const std::string bytes = read_file(path);
  const recovery::WalScan scan = recovery::scan_wal(path);
  const std::string crash_path = temp_path("multi_crash.wal");
  for (std::size_t i = 0; i + 1 < scan.records.size(); i += 2) {
    for (const std::size_t keep :
         {scan.records[i].end_offset, scan.records[i].end_offset + 7}) {
      write_file(crash_path, bytes.substr(0, keep));
      const recovery::RecoveredRun state = recovery::recover_wal(crash_path);
      ASSERT_FALSE(state.clean_shutdown);
      recovery::WalLog log(crash_path, state);
      const RegistryResume resume = recovery::registry_resume(state);
      const MultiTenantResult resumed =
          fixture.run(log.round_observer(), &resume);
      log.finish();
      EXPECT_EQ(tenant_digests(resumed), golden) << "killed at byte " << keep;

      const recovery::RecoveredRun healed = recovery::recover_wal(crash_path);
      EXPECT_TRUE(healed.clean_shutdown) << "killed at byte " << keep;
      EXPECT_EQ(healed.digests, golden) << "killed at byte " << keep;
    }
  }
}

// ------------------------------------------- WAL header version skew

TEST(WalHeader, V3WritesLegacyFlagZeroAndReadsOldHeaders) {
  SingleRun fixture;
  const std::string v3 = recovery::encode_run_header(fixture.manifest());

  // Wire layout under test: u32 version (LE), u8 multi_tenant, u8 legacy
  // schedule flag — the byte v3 added, set by pipelined runs of earlier
  // builds and now always written as 0.
  binio::Reader head(v3);
  ASSERT_EQ(recovery::kWalVersion, 3u);
  EXPECT_EQ(head.u32(), recovery::kWalVersion);
  EXPECT_EQ(head.u8(), 0u);  // multi_tenant
  EXPECT_EQ(head.u8(), 0u);  // legacy schedule flag

  const recovery::RunManifest decoded = recovery::decode_run_header(v3);
  ASSERT_EQ(decoded.tenants.size(), 1u);
  EXPECT_EQ(decoded.tenants[0].options.epochs, fixture.options.epochs);

  // A header an earlier pipelined run wrote (flag 1) decodes to the same
  // manifest: cut bytes never depended on the schedule.
  std::string flagged = v3;
  flagged[5] = 1;
  const recovery::RunManifest old_pipelined =
      recovery::decode_run_header(flagged);
  ASSERT_EQ(old_pipelined.tenants.size(), 1u);
  EXPECT_EQ(old_pipelined.tenants[0].workload, "closed-loop:800");
  EXPECT_EQ(old_pipelined.tenants[0].options.seed, fixture.options.seed);

  // Any other flag value was never written: fail closed.
  std::string bad_flag = v3;
  bad_flag[5] = 2;
  EXPECT_THROW(recovery::decode_run_header(bad_flag), std::runtime_error);

  // A v2 header is the same payload minus the flag byte. Splice it out
  // and patch the version word: a v3 reader must accept it — every
  // pre-existing WAL stays resumable.
  std::string v2 = v3;
  v2.erase(5, 1);
  v2[0] = 2;
  const recovery::RunManifest old = recovery::decode_run_header(v2);
  ASSERT_EQ(old.tenants.size(), 1u);
  EXPECT_EQ(old.tenants[0].scenario, "braess");
  EXPECT_EQ(old.tenants[0].workload, "closed-loop:800");
  EXPECT_EQ(old.tenants[0].options.epochs, fixture.options.epochs);
  EXPECT_EQ(old.tenants[0].options.seed, fixture.options.seed);

  // An unknown version fails closed. This is also how the OTHER side of
  // the skew behaves: a v2 reader's version check rejects anything but
  // its own version, so a v3 WAL never half-decodes on an old build.
  std::string v4 = v3;
  v4[0] = 4;
  EXPECT_THROW(recovery::decode_run_header(v4), std::runtime_error);
}

/// Offset of a tenant's legacy latency-record flag in a single-tenant
/// header payload: the flag, the u64 sample interval and the u64 weight
/// close the payload.
std::size_t record_flag_offset(const std::string& header) {
  return header.size() - 1 - 8 - 8;
}

TEST(WalHeader, LegacySamplerFieldsAreWrittenAsReplayModeAndIgnored) {
  SingleRun fixture;
  const std::string v3 = recovery::encode_run_header(fixture.manifest());
  const std::size_t flag_at = record_flag_offset(v3);
  EXPECT_EQ(v3[flag_at], 0);                 // record flag
  EXPECT_EQ(u64_at(v3, flag_at + 1), 32u);   // sample interval
  EXPECT_EQ(u64_at(v3, flag_at + 9), 1u);    // weight

  // A run that timed its queries wrote flag 1: it decodes to the same
  // manifest, whatever its interval said.
  std::string timed = v3;
  timed[flag_at] = 1;
  timed = with_u64_at(timed, flag_at + 1, 8);
  const recovery::RunManifest decoded = recovery::decode_run_header(timed);
  ASSERT_EQ(decoded.tenants.size(), 1u);
  EXPECT_EQ(recovery::encode_run_header(decoded), v3);

  // No build ever wrote another value: fail closed.
  std::string bad = v3;
  bad[flag_at] = 2;
  EXPECT_THROW(recovery::decode_run_header(bad), std::runtime_error);

  // Every cut writes its four legacy wall-clock doubles as zeros.
  std::vector<EngineCheckpoint> cuts;
  fixture.run(collect_cuts(cuts));
  const std::string cut = recovery::encode_epoch_cut(0, cuts[2], 7);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(u64_at(cut, kCutFlowCountOffset - 4 * 8 - (4 - i) * 8), 0u);
  }
}

TEST(WalHeader, RechecksummedBadRecordFlagStopsRecovery) {
  const std::string path = wal_with_mutated_record(
      "badrecordflag.wal", 0, [](const std::string& payload) {
        std::string forged = payload;
        forged[record_flag_offset(forged)] = 2;
        return forged;
      });
  EXPECT_THROW(recovery::recover_wal(path), std::runtime_error);
}

// ------------------------------- WALs written by pipelined runs

// Crash images checked in under tests/data/, written by an earlier build
// whose --pipeline schedule deferred each epoch's summary into the next
// epoch's graph: its cuts trailed the serving frontier by one epoch, and
// its registry round marks carried credits for epochs that were served
// but not yet logged. Both images are the first bytes of a complete
// `route_server_cli run ... --deterministic --pipeline --wal` log, cut
// mid-record (a torn tail). Resuming them on the one schedule must land
// on the digests that build printed for the uninterrupted runs.

std::string test_data(const std::string& name) {
  return std::string(STALEFLOW_TEST_DATA_DIR) + "/" + name;
}

/// The live objects behind one logged tenant, built the way
/// route_server_cli rebuilds them on --resume.
struct LoggedHost {
  Instance instance;
  Policy policy;
  WorkloadPtr workload;

  explicit LoggedHost(const recovery::TenantManifest& manifest)
      : instance(make_instance(manifest)),
        policy(named_policy(manifest.policy)
                   .make(instance, manifest.options.update_period)),
        workload(make_workload(manifest.workload)) {}

  static Instance make_instance(const recovery::TenantManifest& manifest) {
    Rng scenario_rng(manifest.options.seed);
    return ScenarioRegistry::builtin().at(manifest.scenario).make(
        scenario_rng);
  }
};

TEST(LegacyWal, PipelinedSoloCrashImageResumesToItsDigest) {
  // --scenario braess --policy replicator --period 0.1 --epochs 12
  // --clients 100 --workload closed-loop:300 --shards 4 --seed 3, cut at
  // byte 4000 (inside epoch 5's cut record).
  const std::string path = temp_path("legacy_solo.wal");
  write_file(path, read_file(test_data("pipelined_solo.wal")));
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  ASSERT_FALSE(state.manifest.multi_tenant);
  EXPECT_TRUE(state.truncated);
  EXPECT_FALSE(state.clean_shutdown);
  ASSERT_EQ(state.cuts.size(), 1u);
  EXPECT_EQ(state.cuts[0].size(), 5u);
  EXPECT_EQ(state.rounds, 5u);

  const recovery::TenantManifest& tenant = state.manifest.tenants[0];
  const LoggedHost host(tenant);
  RouteServerOptions options = tenant.options;
  options.threads = 2;
  constexpr std::uint64_t kGolden = 0x648bc7397d7ca65dULL;
  {
    recovery::WalLog log(path, state);
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), options, nullptr,
                   log.round_observer(), state.cuts[0]);
    log.finish();
    EXPECT_EQ(telemetry_digest(result.epochs), kGolden);
    EXPECT_EQ(result.epochs.size(), 12u);
  }
  const recovery::RecoveredRun healed = recovery::recover_wal(path);
  EXPECT_TRUE(healed.clean_shutdown);
  EXPECT_EQ(healed.digests[0], kGolden);
}

TEST(LegacyWal, PipelinedTwoTenantCrashImageResumesToItsDigests) {
  // --tenants 'a:workload=closed-loop:300;b:workload=closed-loop:500,
  // weight=2' --period 0.1 --epochs 8 --clients 100 --shards 4 --seed 5,
  // cut at byte 5000. Weight 2 is the maximum, so b serves every round
  // and a every other round: after 5 strict rounds b would have 5 epochs
  // and a 2. The pipelined image commits only 4 and 1 — round 5's
  // credits already paid for the overlap epochs it never logged.
  const std::string path = temp_path("legacy_tenants.wal");
  write_file(path, read_file(test_data("pipelined_two_tenants.wal")));
  const recovery::RecoveredRun state = recovery::recover_wal(path);
  ASSERT_TRUE(state.manifest.multi_tenant);
  ASSERT_EQ(state.manifest.tenants.size(), 2u);
  EXPECT_TRUE(state.truncated);
  EXPECT_EQ(state.rounds, 5u);
  EXPECT_EQ(state.cuts[0].size(), 1u);
  EXPECT_EQ(state.cuts[1].size(), 4u);
  EXPECT_EQ(state.manifest.tenants[1].weight, 2u);

  std::deque<LoggedHost> hosts;
  TenantRegistry registry;
  for (const recovery::TenantManifest& tenant : state.manifest.tenants) {
    hosts.emplace_back(tenant);
    TenantOptions options;
    options.server = tenant.options;
    options.weight = tenant.weight;
    registry.add(tenant.name, hosts.back().instance, hosts.back().policy,
                 *hosts.back().workload, options);
  }
  const std::vector<std::uint64_t> golden = {0x0f741faabeedefc9ULL,
                                             0xf3d1389aefaccdf8ULL};
  {
    recovery::WalLog log(path, state);
    const RegistryResume resume = recovery::registry_resume(state);
    Executor executor(2);
    const MultiTenantResult result =
        registry.run(executor, nullptr, log.round_observer(), &resume);
    log.finish();
    EXPECT_EQ(tenant_digests(result), golden);
  }
  const recovery::RecoveredRun healed = recovery::recover_wal(path);
  EXPECT_TRUE(healed.clean_shutdown);
  EXPECT_EQ(healed.digests, golden);
}

// A crash image of a run that timed its queries: the first 4000 bytes of
// an earlier build's `route_server_cli run --scenario braess --policy
// replicator --period 0.1 --epochs 12 --clients 100 --workload
// closed-loop:300 --shards 4 --seed 3 --wal` log, written without
// --deterministic — header record flag 1, wall-clock figures in every
// cut. It configures the run pipelined_solo.wal does, so it resumes to
// the same digest.
TEST(LegacyWal, TimedSoloCrashImageResumesToItsDigest) {
  const std::string path = temp_path("legacy_timed.wal");
  write_file(path, read_file(test_data("timed_solo.wal")));
  const recovery::WalScan scan = recovery::scan_wal(path);
  ASSERT_GE(scan.records.size(), 2u);
  const std::string header(scan.records[0].payload);
  EXPECT_EQ(header[record_flag_offset(header)], 1);
  const std::string first_cut(scan.records[1].payload);
  EXPECT_NE(u64_at(first_cut, kCutFlowCountOffset - 4 * 8 - 8), 0u)
      << "the epoch-0 cut should carry its qps";

  const recovery::RecoveredRun state = recovery::recover_wal(path);
  EXPECT_TRUE(state.truncated);
  ASSERT_EQ(state.cuts.size(), 1u);
  EXPECT_EQ(state.cuts[0].size(), 5u);

  const recovery::TenantManifest& tenant = state.manifest.tenants[0];
  const LoggedHost host(tenant);
  constexpr std::uint64_t kGolden = 0x648bc7397d7ca65dULL;
  {
    recovery::WalLog log(path, state);
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), tenant.options,
                   nullptr, log.round_observer(), state.cuts[0]);
    log.finish();
    EXPECT_EQ(telemetry_digest(result.epochs), kGolden);
    EXPECT_EQ(result.epochs.size(), 12u);
  }
  const recovery::RecoveredRun healed = recovery::recover_wal(path);
  EXPECT_TRUE(healed.clean_shutdown);
  EXPECT_EQ(healed.digests[0], kGolden);
}

// ------------------------------------------------- CLI recovery flags

const std::set<std::string> kConfigKeys = {
    "scenario", "policy", "workload", "tenants",   "period",       "epochs",
    "clients",  "shards", "seed",     "sub-batch"};

TEST(RecoveryFlags, WalAndResumeAreMutuallyExclusive) {
  cli::RecoveryFlags flags;
  flags.wal = "a.wal";
  flags.resume = "b.wal";
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, ResumeConflictsWithConfigFlags) {
  const std::string path = temp_path("flags_ok.wal");
  write_file(path, "exists");
  cli::RecoveryFlags flags;
  flags.resume = path;
  const std::map<std::string, std::string> with_seed = {{"resume", path},
                                                        {"seed", "7"}};
  EXPECT_THROW(cli::validate_recovery_flags(flags, with_seed, kConfigKeys),
               cli::UsageError);
  const std::map<std::string, std::string> with_epochs = {{"resume", path},
                                                          {"epochs", "9"}};
  EXPECT_THROW(cli::validate_recovery_flags(flags, with_epochs, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, RuntimeKnobsStayLegalWithResume) {
  const std::string path = temp_path("flags_runtime.wal");
  write_file(path, "exists");
  cli::RecoveryFlags flags;
  flags.resume = path;
  const std::map<std::string, std::string> runtime = {
      {"resume", path}, {"threads", "4"}, {"csv", "out.csv"}, {"quiet", "1"}};
  EXPECT_NO_THROW(cli::validate_recovery_flags(flags, runtime, kConfigKeys));
}

TEST(RecoveryFlags, ResumeRequiresReadableFile) {
  cli::RecoveryFlags flags;
  flags.resume = temp_path("definitely_missing.wal");
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

TEST(RecoveryFlags, WalRequiresWritablePath) {
  cli::RecoveryFlags flags;
  flags.wal = "/nonexistent_dir_for_staleflow_tests/x.wal";
  EXPECT_THROW(cli::validate_recovery_flags(flags, {}, kConfigKeys),
               cli::UsageError);
}

}  // namespace
}  // namespace staleflow
