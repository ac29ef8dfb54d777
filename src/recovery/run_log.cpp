#include "recovery/run_log.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "recovery/wal_reader.h"
#include "service/telemetry.h"
#include "util/binio.h"
#include "util/fnv.h"

namespace staleflow::recovery {
namespace {

/// Checks a decoded element count against what is left of the payload:
/// `count` elements of at least `element_bytes` each must still fit. A
/// corrupt or hostile count fails closed here, with std::runtime_error,
/// before any reserve() sizes a vector from it.
std::size_t checked_count(const binio::Reader& r, std::uint64_t count,
                          std::size_t element_bytes, const char* what) {
  if (count > r.remaining() / element_bytes) {
    throw std::runtime_error(std::string(what) +
                             " count exceeds the payload");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace

// --------------------------------------------------------------------------
// Payload codecs
// --------------------------------------------------------------------------

std::string encode_run_header(const RunManifest& manifest) {
  binio::Writer w;
  w.u32(kWalVersion);
  w.u8(manifest.multi_tenant ? 1 : 0);
  w.u8(0);  // v3 legacy schedule flag: always written as 0
  w.str(manifest.faults);
  w.u32(static_cast<std::uint32_t>(manifest.tenants.size()));
  for (const TenantManifest& tenant : manifest.tenants) {
    w.str(tenant.name);
    w.str(tenant.scenario);
    w.str(tenant.policy);
    w.str(tenant.workload);
    const RouteServerOptions& o = tenant.options;
    w.f64(o.update_period);
    w.u64(o.epochs);
    w.u64(o.num_clients);
    w.u64(o.shards);
    w.u64(o.sub_batch_queries);
    w.u8(o.sub_batch_auto ? 1 : 0);
    w.u64(o.seed);
    // Legacy wall-clock sampler settings (record flag, sample interval),
    // always written as a replay-mode run wrote them.
    w.u8(0);
    w.u64(32);
    w.u64(tenant.weight);
  }
  return w.take();
}

RunManifest decode_run_header(std::string_view payload) {
  binio::Reader r(payload);
  const std::uint32_t version = r.u32();
  // A v3 reader still accepts v2 files: the only layout change is the
  // legacy schedule byte (absent in v2). Anything else is a future format
  // this build cannot decode — which is also how a v2 reader treats a v3
  // header.
  if (version != 2 && version != kWalVersion) {
    throw std::runtime_error("WAL header: unknown payload version " +
                             std::to_string(version) +
                             " (this build reads 2.." +
                             std::to_string(kWalVersion) + ")");
  }
  RunManifest manifest;
  manifest.multi_tenant = r.u8() != 0;
  // The v3 schedule flag: 1 marked a run served with the since-removed
  // cross-epoch pipelining. Cut bytes never depended on the schedule, so
  // either value resumes on the one schedule; anything else is corrupt.
  if (version >= 3 && r.u8() > 1) {
    throw std::runtime_error("WAL header: bad schedule flag");
  }
  manifest.faults = r.str();
  const std::uint32_t count = r.u32();
  if (count == 0 || (!manifest.multi_tenant && count != 1)) {
    throw std::runtime_error("WAL header: bad tenant count");
  }
  // Four length-prefixed strings, eight u64/f64 fields and two flags.
  manifest.tenants.reserve(
      checked_count(r, count, 4 * 8 + 8 * 8 + 2, "WAL header: tenant"));
  for (std::uint32_t i = 0; i < count; ++i) {
    TenantManifest tenant;
    tenant.name = r.str();
    tenant.scenario = r.str();
    tenant.policy = r.str();
    tenant.workload = r.str();
    RouteServerOptions& o = tenant.options;
    o.update_period = r.f64();
    o.epochs = r.u64();
    o.num_clients = r.u64();
    o.shards = r.u64();
    o.sub_batch_queries = r.u64();
    o.sub_batch_auto = r.u8() != 0;
    o.seed = r.u64();
    // The legacy sampler settings: a record flag of 1 marked a run that
    // timed its queries. Nothing it timed is replayable state, so either
    // value resumes the same; anything else is corrupt.
    if (r.u8() > 1) {
      throw std::runtime_error("WAL header: bad latency-record flag");
    }
    r.u64();  // the sample interval
    tenant.weight = r.u64();
    manifest.tenants.push_back(std::move(tenant));
  }
  if (!r.done()) {
    throw std::runtime_error("WAL header: trailing bytes in payload");
  }
  return manifest;
}

std::string encode_epoch_cut(std::uint32_t tenant, const EngineCheckpoint& cut,
                             std::uint64_t digest_so_far) {
  binio::Writer w;
  w.u32(tenant);
  const EpochSummary& s = cut.summary;
  w.u64(s.epoch);
  w.f64(s.start_time);
  w.f64(s.end_time);
  w.u64(s.queries);
  w.u64(s.migrations);
  w.f64(s.migration_rate);
  w.f64(s.wardrop_gap);
  w.f64(s.board_latency);
  w.f64(s.route_p50);
  w.f64(s.route_p99);
  w.f64(s.route_p999);
  // Legacy wall-clock fields (p50/p99/p999 service time, epoch qps),
  // always written as a replay-mode run wrote them.
  for (int i = 0; i < 4; ++i) w.f64(0.0);
  for (const std::uint64_t word : cut.rng_state) w.u64(word);
  w.u64(cut.flow.size());
  w.f64s(cut.flow);
  w.u64(cut.client_paths.size());
  w.u32s(cut.client_paths);

  const LogHistogram& h = cut.route_hist;
  w.f64(h.min_value());
  w.f64(h.max_value());
  w.u32(h.sub_bucket_bits());
  std::uint64_t nonzero = 0;
  h.for_each_bucket([&](std::size_t, std::uint64_t) { ++nonzero; });
  w.u64(nonzero);
  h.for_each_bucket([&](std::size_t b, std::uint64_t n) {
    w.u64(b);
    w.u64(n);
  });
  if (h.empty()) {
    w.f64(0.0);
    w.f64(0.0);
    w.f64(0.0);
  } else {
    w.f64(h.min());
    w.f64(h.max());
    w.f64(h.sum());
  }
  w.u64(digest_so_far);
  return w.take();
}

namespace {

/// decode_epoch_cut, optionally stepping over the client paths (their
/// count is still checked against the payload) and leaving them empty.
CutRecord decode_cut(std::string_view payload, bool with_paths) {
  binio::Reader r(payload);
  CutRecord record;
  record.tenant = r.u32();
  EpochSummary& s = record.cut.summary;
  s.epoch = r.u64();
  s.start_time = r.f64();
  s.end_time = r.f64();
  s.queries = r.u64();
  s.migrations = r.u64();
  s.migration_rate = r.f64();
  s.wardrop_gap = r.f64();
  s.board_latency = r.f64();
  s.route_p50 = r.f64();
  s.route_p99 = r.f64();
  s.route_p999 = r.f64();
  for (int i = 0; i < 4; ++i) r.f64();  // the legacy wall-clock fields
  for (std::uint64_t& word : record.cut.rng_state) word = r.u64();
  record.cut.flow.resize(checked_count(r, r.u64(), 8, "WAL cut: flow"));
  r.f64s(record.cut.flow);
  const std::size_t clients =
      checked_count(r, r.u64(), 4, "WAL cut: client path");
  if (with_paths) {
    record.cut.client_paths.resize(clients);
    r.u32s(record.cut.client_paths);
  } else {
    r.skip(4 * clients);
  }

  const double hist_min_value = r.f64();
  const double hist_max_value = r.f64();
  const std::uint32_t hist_bits = r.u32();
  const std::size_t nonzero =
      checked_count(r, r.u64(), 16, "WAL cut: histogram bucket");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  buckets.reserve(nonzero);
  for (std::size_t i = 0; i < nonzero; ++i) {
    const std::uint64_t bucket = r.u64();
    const std::uint64_t count = r.u64();
    buckets.emplace_back(bucket, count);
  }
  const double hist_min = r.f64();
  const double hist_max = r.f64();
  const double hist_sum = r.f64();
  try {
    record.cut.route_hist =
        LogHistogram::from_state(hist_min_value, hist_max_value, hist_bits,
                                 buckets, hist_min, hist_max, hist_sum);
  } catch (const std::invalid_argument& bad) {
    throw std::runtime_error(std::string("WAL cut: bad histogram state: ") +
                             bad.what());
  }
  record.digest_so_far = r.u64();
  if (!r.done()) {
    throw std::runtime_error("WAL cut: trailing bytes in payload");
  }
  return record;
}

}  // namespace

CutRecord decode_epoch_cut(std::string_view payload) {
  return decode_cut(payload, true);
}

std::string encode_round_mark(const RoundMark& mark) {
  binio::Writer w;
  w.u64(mark.rounds);
  w.u32(static_cast<std::uint32_t>(mark.credits.size()));
  for (const std::uint64_t credit : mark.credits) w.u64(credit);
  return w.take();
}

RoundMark decode_round_mark(std::string_view payload) {
  binio::Reader r(payload);
  RoundMark mark;
  mark.rounds = r.u64();
  const std::size_t count =
      checked_count(r, r.u32(), 8, "WAL round mark: credit");
  mark.credits.reserve(count);
  for (std::size_t i = 0; i < count; ++i) mark.credits.push_back(r.u64());
  if (!r.done()) {
    throw std::runtime_error("WAL round mark: trailing bytes in payload");
  }
  return mark;
}

std::string encode_trailer(std::span<const std::uint64_t> digests) {
  binio::Writer w;
  w.u32(static_cast<std::uint32_t>(digests.size()));
  for (const std::uint64_t digest : digests) w.u64(digest);
  return w.take();
}

std::vector<std::uint64_t> decode_trailer(std::string_view payload) {
  binio::Reader r(payload);
  const std::size_t count =
      checked_count(r, r.u32(), 8, "WAL trailer: digest");
  std::vector<std::uint64_t> digests;
  digests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) digests.push_back(r.u64());
  if (!r.done()) {
    throw std::runtime_error("WAL trailer: trailing bytes in payload");
  }
  return digests;
}

// --------------------------------------------------------------------------
// recover_wal
// --------------------------------------------------------------------------

RecoveredRun recover_wal(const std::string& path) {
  const WalScan scan = scan_wal(path);
  if (scan.records.empty() ||
      scan.records.front().type != RecordType::kRunHeader) {
    throw std::runtime_error("recover_wal: '" + path +
                             "' has no run header — not a resumable WAL");
  }

  RecoveredRun run;
  run.manifest = decode_run_header(scan.records.front().payload);
  const std::size_t tenants = run.manifest.tenants.size();
  run.cuts.resize(tenants);
  run.cut_offsets.resize(tenants);
  run.digests.assign(tenants, fnv::kOffsetBasis);
  run.credits.assign(tenants, 0);
  run.truncated = scan.truncated;
  run.note = scan.note;
  run.valid_bytes = scan.records.front().end_offset;

  // Cuts stage between round marks; only a round mark commits them. The
  // scan stops at the first record that is structurally valid but
  // semantically impossible (bad tenant index, epoch gap, digest
  // mismatch, records after the trailer): like a checksum failure,
  // nothing after it can be trusted.
  // Cuts decode without their client paths: resume restores paths from
  // each tenant's last committed cut only, so only that cut's paths are
  // decoded, from the payload kept in `last_cut`, once the scan is done.
  // Holding every cut's paths would cost memory the size of the WAL.
  struct StagedCut {
    CutRecord record;
    std::uint64_t offset = 0;  // where the cut's frame starts in the file
    std::string_view payload;
  };
  std::vector<StagedCut> staged;
  std::vector<std::string_view> last_cut(tenants);
  const auto stop = [&run, &staged](const std::string& why) {
    run.truncated = true;
    run.note = why;
    staged.clear();
  };

  for (std::size_t index = 1; index < scan.records.size(); ++index) {
    const WalRecord& record = scan.records[index];
    if (run.clean_shutdown) {
      stop("corrupt WAL: record after the clean-shutdown trailer");
      break;
    }
    try {
      switch (record.type) {
        case RecordType::kRunHeader:
          stop("corrupt WAL: duplicate run header");
          break;
        case RecordType::kEpochCut: {
          CutRecord cut = decode_cut(record.payload, /*with_paths=*/false);
          if (cut.tenant >= tenants) {
            stop("corrupt WAL: cut for unknown tenant");
            break;
          }
          std::size_t expected = run.cuts[cut.tenant].size();
          std::uint64_t digest = run.digests[cut.tenant];
          for (const StagedCut& pending : staged) {
            if (pending.record.tenant == cut.tenant) {
              ++expected;
              digest = pending.record.digest_so_far;
            }
          }
          if (cut.cut.summary.epoch != expected) {
            stop("corrupt WAL: cut epochs not contiguous");
            break;
          }
          if (telemetry_digest_accumulate(digest, cut.cut.summary) !=
              cut.digest_so_far) {
            stop("corrupt WAL: cut digest cross-check failed");
            break;
          }
          // Frame start = end offset minus (length+type+checksum words and
          // the payload itself).
          const std::uint64_t frame_start =
              record.end_offset - (4 + 4 + 8) - record.payload.size();
          staged.push_back(
              StagedCut{std::move(cut), frame_start, record.payload});
          break;
        }
        case RecordType::kRoundMark: {
          const RoundMark mark = decode_round_mark(record.payload);
          if (mark.credits.size() != tenants) {
            stop("corrupt WAL: round mark credit count mismatch");
            break;
          }
          if (mark.rounds != run.rounds + 1) {
            stop("corrupt WAL: round marks not contiguous");
            break;
          }
          for (StagedCut& pending : staged) {
            run.digests[pending.record.tenant] = pending.record.digest_so_far;
            run.cuts[pending.record.tenant].push_back(
                std::move(pending.record.cut));
            run.cut_offsets[pending.record.tenant].push_back(pending.offset);
            last_cut[pending.record.tenant] = pending.payload;
          }
          staged.clear();
          run.rounds = mark.rounds;
          for (std::size_t i = 0; i < tenants; ++i) {
            run.credits[i] = static_cast<std::size_t>(mark.credits[i]);
          }
          run.valid_bytes = record.end_offset;
          break;
        }
        case RecordType::kTrailer: {
          if (!staged.empty()) {
            stop("corrupt WAL: trailer with uncommitted cuts");
            break;
          }
          const std::vector<std::uint64_t> digests =
              decode_trailer(record.payload);
          if (digests != run.digests) {
            stop("corrupt WAL: trailer digests do not match the run");
            break;
          }
          run.clean_shutdown = true;
          run.valid_bytes = record.end_offset;
          break;
        }
      }
    } catch (const std::runtime_error& bad) {
      stop(std::string("corrupt WAL: ") + bad.what());
      break;
    }
    if (run.truncated && run.note.rfind("corrupt WAL:", 0) == 0) break;
  }

  // Cuts whose round mark never made it to disk are the torn tail of a
  // mid-round crash: discarded, resume replays that round.
  if (!staged.empty()) {
    run.truncated = true;
    if (run.note.empty()) run.note = "uncommitted cuts without a round mark";
  }
  for (std::size_t i = 0; i < tenants; ++i) {
    if (!run.cuts[i].empty()) {
      run.cuts[i].back().client_paths =
          decode_epoch_cut(last_cut[i]).cut.client_paths;
    }
  }
  return run;
}

CutRecord read_epoch_cut(const std::string& path, std::uint64_t offset) {
  const auto fail = [&](const char* what) {
    return std::runtime_error("read_epoch_cut: " + std::string(what) +
                              " at offset " + std::to_string(offset) +
                              " of '" + path + "'");
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) throw fail("cannot open the WAL");
  in.seekg(static_cast<std::streamoff>(offset));
  char head[8];
  if (!in.read(head, sizeof(head))) throw fail("no record frame");
  binio::Reader frame(std::string_view(head, sizeof(head)));
  const std::uint32_t length = frame.u32();
  const std::uint32_t type = frame.u32();
  if (type != static_cast<std::uint32_t>(RecordType::kEpochCut)) {
    throw fail("no cut record");
  }
  if (length > kMaxRecordPayload) throw fail("impossible payload length");
  std::string body(std::size_t{length} + 8, '\0');
  if (!in.read(body.data(), static_cast<std::streamsize>(body.size()))) {
    throw fail("short record");
  }
  // The checksum covers the type word and the payload.
  std::uint64_t sum = fnv::kOffsetBasis;
  fnv::hash_bytes(sum, head + 4, 4);
  fnv::hash_bytes(sum, body.data(), length);
  if (binio::Reader(std::string_view(body).substr(length)).u64() != sum) {
    throw fail("checksum mismatch");
  }
  return decode_epoch_cut(std::string_view(body).substr(0, length));
}

RegistryResume registry_resume(const RecoveredRun& run) {
  RegistryResume resume;
  resume.rounds = run.rounds;
  resume.credits = run.credits;
  resume.cuts.reserve(run.cuts.size());
  for (const std::vector<EngineCheckpoint>& cuts : run.cuts) {
    resume.cuts.emplace_back(cuts);
  }
  return resume;
}

// --------------------------------------------------------------------------
// WalLog
// --------------------------------------------------------------------------

WalLog::WalLog(const std::string& path, const RunManifest& manifest)
    : writer_(WalWriter::create(path)),
      digests_(manifest.tenants.size(), fnv::kOffsetBasis) {
  if (manifest.tenants.empty()) {
    throw std::invalid_argument("WalLog: manifest has no tenants");
  }
  writer_.append(RecordType::kRunHeader, encode_run_header(manifest));
}

WalLog::WalLog(const std::string& path, const RecoveredRun& recovered)
    : writer_(WalWriter::append_to(path, recovered.valid_bytes)),
      digests_(recovered.digests),
      rounds_(recovered.rounds) {
  if (recovered.clean_shutdown) {
    throw std::invalid_argument(
        "WalLog: run already completed cleanly — nothing to append");
  }
}

void WalLog::log_round(const RoundCheckpoint& round) {
  for (const auto& [tenant, cut] : round.cuts) {
    const std::uint64_t digest =
        telemetry_digest_accumulate(digests_.at(tenant), cut.summary);
    writer_.append(
        RecordType::kEpochCut,
        encode_epoch_cut(static_cast<std::uint32_t>(tenant), cut, digest));
    digests_[tenant] = digest;
  }
  RoundMark mark;
  mark.rounds = round.rounds;
  mark.credits.assign(round.credits.begin(), round.credits.end());
  writer_.append(RecordType::kRoundMark, encode_round_mark(mark));
  rounds_ = round.rounds;
}

void WalLog::finish() {
  writer_.append(RecordType::kTrailer, encode_trailer(digests_));
}

RoundCutObserver WalLog::round_observer() {
  return [this](const RoundCheckpoint& round) { log_round(round); };
}

}  // namespace staleflow::recovery
