// The benchmark's workloads and the runs it times through the library's
// public entry points: RouteServer::run (solo workloads),
// TenantRegistry::run + recovery::WalLog (logged runs), and the
// documented EpochEngine host loop (layer timings).
//
// Load model: closed. The next epoch (or scheduler round) starts only
// when the previous one finished; arrivals per epoch come from the
// library's seeded WorkloadGenerator and the board period T is virtual
// time. A *step* is one epoch of a solo server or one scheduling cycle
// (schedule_cycle rounds) of a registry, and every figure is work
// completed per second at the stated input size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "staleflow/staleflow.h"

namespace perfbench {

/// The seed whose digests are pinned in workloads.cpp. Any other seed is
/// checked against a kReferenceThreads-thread run of the same workload
/// (the determinism contract makes digests independent of thread count).
inline constexpr std::uint64_t kPinnedSeed = 1;

/// Threads of the Executor every measured run uses: one, the library's
/// inline mode. The benchmark shares a few cores of a host with other
/// machines' load; with one worker per core an epoch waits for the
/// slowest of them, and when the host is contended the wake-ups of
/// descheduled workers moved step times several-fold between runs of the
/// same code. One thread keeps the runs comparable.
inline constexpr std::size_t kThreads = 1;

/// Threads of the reference run a seed other than kPinnedSeed is checked
/// against. It differs from kThreads, so the check also covers the
/// thread-count independence of the digests.
inline constexpr std::size_t kReferenceThreads = 4;

struct TenantDef {
  std::string name;
  std::string scenario;
  std::string policy;
  std::string workload;
  std::size_t clients = 0;
  std::size_t shards = 16;
  std::size_t sub_batch = 16384;  // RouteServerOptions' default
  std::size_t weight = 1;
  std::size_t epochs = 0;  // per measured run
  /// Epochs after which the workload's arrival pattern repeats (a bursty
  /// workload's on + off epochs; 1 for the others).
  std::size_t period = 1;
};

struct WorkloadDef {
  std::string name;
  std::string why;
  /// True: a multi-tenant registry logging every round to a WAL. False:
  /// one solo RouteServer (tenants holds exactly one entry).
  bool registry = false;
  std::vector<TenantDef> tenants;
  /// Solo workloads: epochs of the logged side pass (the same tenant as
  /// a one-tenant registry with a WAL), which gives the WAL and recovery
  /// figures every workload reports.
  std::size_t side_steps = 0;
  /// Per-tenant telemetry digests of a measured run at kPinnedSeed, and
  /// (solo workloads) the digest of its first side_steps epochs.
  std::vector<std::uint64_t> pinned;
  std::uint64_t pinned_prefix = 0;
};

const std::vector<WorkloadDef>& workloads();
/// nullptr when `name` is not a workload.
const WorkloadDef* find_workload(const std::string& name);

/// Tenant `index` of a run seeded `seed` serves with seed + index, as the
/// route_server_cli --tenants default does.
inline std::uint64_t tenant_seed(std::uint64_t seed, std::size_t index) {
  return seed + index;
}

/// Tenant `index` always serves the instance its scenario builds from
/// seed 1 + index: the network is part of the workload, and --seed
/// varies only the served streams (client picks, path samples, migration
/// draws). A random instance per seed would move the cost of a step by
/// more than the bounds allow. At kPinnedSeed both seeds coincide, as in
/// route_server_cli.
inline std::uint64_t instance_seed(std::size_t index) {
  return tenant_seed(kPinnedSeed, index);
}

/// The live inputs of one tenant: instance, policy, workload generator
/// and default RouteServerOptions sized by its TenantDef (strict
/// schedule, no pinning, wall-clock latency sampler on).
struct Host {
  staleflow::Instance instance;
  staleflow::Policy policy;
  staleflow::WorkloadPtr workload;
  staleflow::RouteServerOptions options;
};

/// Builds tenant `index` of a run seeded `seed`.
Host make_host(const TenantDef& tenant, std::size_t index, std::uint64_t seed);

/// Called after a run while its inputs are still alive: the first
/// tenant's host and its final published snapshot.
using Inspect =
    std::function<void(const Host&, const staleflow::SnapshotPtr&)>;

/// One timed run of a workload.
struct RunSample {
  double setup_s = 0.0;  // input construction start -> first callback
  std::vector<double> step_s;  // per step after the first callback
  double queries_per_s = 0.0;  // after the first callback
  std::size_t steps = 0;  // epochs (solo) or rounds (registry) served
  std::vector<std::uint64_t> digests;  // per tenant

  // Logged runs only.
  std::vector<double> log_round_s;  // per step: inside WalLog::log_round
  std::uint64_t wal_bytes = 0;
};

/// Serves a solo workload once through RouteServer::run on `executor`.
RunSample run_solo(const WorkloadDef& def, std::uint64_t seed,
                   staleflow::Executor& executor,
                   const Inspect& inspect = nullptr);

/// Serves `tenants` once through TenantRegistry::run on `executor`,
/// logging every round to a fresh WAL at `wal_path` (header written
/// inside the setup window, trailer after the last round).
RunSample run_logged(const std::vector<TenantDef>& tenants,
                     std::uint64_t seed, staleflow::Executor& executor,
                     const std::string& wal_path,
                     const Inspect& inspect = nullptr);

/// Rounds after which a registry serves the same mix again. Every round
/// adds each tenant's weight to its credit and serves the tenants whose
/// credit reaches the largest weight W, so the set of tenants served
/// repeats every W rounds, in which a tenant of weight w serves w epochs;
/// its arrival pattern repeats after `period` of its epochs. The cycle is
/// the least number of rounds after which both repeat for every tenant.
/// A registry's step is one such cycle, so that every step serves the
/// same mix: with weights 1, 2, 1 a round alternately serves `core` alone
/// and all three tenants, and `edge`'s bursts (3 epochs on, 2 off) make
/// the cycle 10 rounds.
std::size_t schedule_cycle(const std::vector<TenantDef>& tenants);

/// The tenants a workload's logged pass serves: the registry's own, or
/// a solo workload's tenant cut to its side-pass length.
std::vector<TenantDef> logged_tenants(const WorkloadDef& def);

/// What every run of a workload at one seed must reproduce.
struct Expected {
  std::vector<std::uint64_t> digests;  // per tenant
  std::uint64_t prefix = 0;  // solo: digest of the first side_steps epochs
};

/// The workload served on kReferenceThreads threads (no WAL, no
/// tracing): the reference a seed other than kPinnedSeed is checked
/// against.
Expected reference_digests(const WorkloadDef& def, std::uint64_t seed);

/// One run of the documented EpochEngine host loop (begin / add_epoch /
/// Executor::run / finish_epoch / finish) for one tenant, timing each
/// call from outside the library.
struct EngineSample {
  double begin_s = 0.0;
  std::vector<double> plan_s;      // add_epoch
  std::vector<double> graph_s;     // Executor::run
  std::vector<double> finish_s;    // finish_epoch minus the callback
  std::vector<double> callback_s;  // the step callback itself
  std::vector<double> step_s;      // between callbacks, first excluded
  std::uint64_t digest = 0;
};

EngineSample run_engine_loop(const TenantDef& tenant, std::uint64_t seed,
                             staleflow::Executor& executor);

}  // namespace perfbench
