// Payload encodings and run-level protocol of the write-ahead epoch log.
//
// wal_format.h fixes the record *framing*; this header fixes what goes
// inside the records and what a well-formed WAL means:
//
//   kRunHeader   RunManifest — the run's complete configuration (per
//                tenant: scenario/policy/workload names + resolved
//                RouteServerOptions + weight), written exactly once,
//                first. `--resume <wal>` rebuilds the run from it and
//                takes no other configuration flags.
//   kEpochCut    one tenant's EngineCheckpoint plus that tenant's
//                digest-so-far (the incremental telemetry digest over
//                its epochs 0..e) as an end-to-end cross-check beyond
//                the per-record frame checksum.
//   kRoundMark   the commit point: cut records are STAGED until their
//                round mark. Recovery replays committed rounds only —
//                the resume truncation offset is the end of the last
//                round mark, so a crash mid-round loses that round's
//                cuts, never a committed one. A single-server run IS a
//                one-tenant registry (round r = epoch r-1, credits =
//                {0}), so the two WALs match record for record.
//   kTrailer     clean shutdown: the final per-tenant digests. A WAL
//                without one is, by definition, a crash image.
//
// recover_wal() turns a (possibly torn) WAL file back into typed state:
// the manifest, every tenant's committed cut prefix, the scheduler
// round/credit state, and whether the run had already finished cleanly.
// WalLog is the write side the serving CLIs install as their
// cut/round observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "recovery/wal_format.h"
#include "recovery/wal_writer.h"
#include "service/checkpoint.h"
#include "service/route_server.h"

namespace staleflow::recovery {

/// One tenant's (or the single server's) full configuration as logged in
/// the run header. `options.threads` and `options.executor` are runtime
/// knobs, not dynamics configuration — the determinism contract makes
/// them digest-neutral — so they are NOT serialized and a resumed run may
/// use any thread count.
struct TenantManifest {
  std::string name;      // empty for a plain single-server run
  std::string scenario;  // scenario registry key
  std::string policy;    // named-policy spec
  std::string workload;  // workload spec
  RouteServerOptions options;
  std::size_t weight = 1;
};

struct RunManifest {
  bool multi_tenant = false;
  /// The run's `--faults` spec ("" = healthy). The SPEC is what the WAL
  /// stores — a resumed run re-materializes the schedule from it plus the
  /// logged (seed, epochs), reproducing the exact fault timing of the
  /// crashed run (the schedule is a pure function of that triple).
  std::string faults;
  std::vector<TenantManifest> tenants;  // exactly 1 when !multi_tenant
};

/// A decoded kEpochCut record.
struct CutRecord {
  std::uint32_t tenant = 0;
  EngineCheckpoint cut;
  std::uint64_t digest_so_far = 0;
};

/// A decoded kRoundMark record.
struct RoundMark {
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> credits;  // per tenant
};

// Payload codecs (exposed for tests; the framing checksum lives in
// wal_writer/wal_reader). Decoders throw std::runtime_error on a
// malformed or version-incompatible payload.
std::string encode_run_header(const RunManifest& manifest);
RunManifest decode_run_header(std::string_view payload);
std::string encode_epoch_cut(std::uint32_t tenant, const EngineCheckpoint& cut,
                             std::uint64_t digest_so_far);
CutRecord decode_epoch_cut(std::string_view payload);
std::string encode_round_mark(const RoundMark& mark);
RoundMark decode_round_mark(std::string_view payload);
std::string encode_trailer(std::span<const std::uint64_t> digests);
std::vector<std::uint64_t> decode_trailer(std::string_view payload);

/// Everything recover_wal() can re-establish from a WAL file.
struct RecoveredRun {
  RunManifest manifest;

  /// Per tenant (manifest order): the committed cut prefix, epochs 0..e
  /// in order. Empty = that tenant had not finished an epoch yet.
  std::vector<std::vector<EngineCheckpoint>> cuts;

  /// Parallel to `cuts`: the byte offset in the WAL file where each cut
  /// record's frame starts — lets offline tooling correlate a WAL cut
  /// with trace spans and seek straight to it.
  std::vector<std::vector<std::uint64_t>> cut_offsets;

  /// Per tenant: the incremental telemetry digest over its committed
  /// epochs (fnv offset basis when none).
  std::vector<std::uint64_t> digests;

  /// Scheduler state at the last committed round mark.
  std::size_t rounds = 0;
  std::vector<std::size_t> credits;  // per tenant

  /// True when the WAL ends with a matching trailer: the run completed
  /// and --resume has nothing to serve.
  bool clean_shutdown = false;

  /// True when bytes past valid_bytes were discarded (torn tail, corrupt
  /// record, or cuts staged without their round mark).
  bool truncated = false;
  /// Resume truncation offset: end of the last committed record.
  std::uint64_t valid_bytes = 0;
  /// Why the scan stopped early (empty when nothing was discarded).
  std::string note;

  /// The per-tenant epoch count still to serve (0 when clean_shutdown).
  std::size_t committed_epochs(std::size_t tenant) const {
    return cuts.at(tenant).size();
  }
};

/// Scans and decodes `path`. Throws std::runtime_error when the file is
/// missing, lacks the WAL magic, carries no (or a malformed) run header,
/// or uses an unknown payload version — those mean "not a resumable WAL",
/// as opposed to a torn tail, which is recovered from silently (see
/// RecoveredRun::truncated / note).
RecoveredRun recover_wal(const std::string& path);

/// View of a RecoveredRun in the shape TenantRegistry::run consumes. The
/// spans alias `run.cuts`; `run` must outlive the returned value's use.
RegistryResume registry_resume(const RecoveredRun& run);

/// The write side: owns the WalWriter and the round-mark protocol. The
/// serving CLIs install round_observer() as the recovery hook of either
/// host (RouteServer::run or TenantRegistry::run) and call finish() after
/// a completed run.
class WalLog {
 public:
  /// Fresh run: creates/truncates `path` and writes the run header.
  WalLog(const std::string& path, const RunManifest& manifest);

  /// Resumed run: amputates the uncommitted tail at
  /// `recovered.valid_bytes` and appends, continuing the digest and
  /// round counters where the committed prefix left off.
  WalLog(const std::string& path, const RecoveredRun& recovered);

  /// Logs every scheduled tenant's cut, then the committing round mark.
  void log_round(const RoundCheckpoint& round);

  /// Writes the clean-shutdown trailer (final per-tenant digests).
  void finish();

  RoundCutObserver round_observer();

  const std::string& path() const noexcept { return writer_.path(); }

 private:
  WalWriter writer_;
  std::vector<std::uint64_t> digests_;  // per tenant, committed-so-far
  std::uint64_t rounds_ = 0;
};

}  // namespace staleflow::recovery
