// Multi-tenant serving: many independent route-service instances
// multiplexed onto ONE shared executor.
//
// The paper's bulletin board is one shared stale view serving many
// selfish clients; a production host runs MANY such boards — independent
// tenants, each with its own scenario, policy, workload, client fleet,
// snapshot store and telemetry stream — on one worker pool. TenantRegistry
// is that host. Each tenant is an EpochEngine, served by the weighted
// round-robin host loop of round_loop.h on the caller's Executor: a
// weight-w tenant serves w epochs for every max_weight rounds, and all
// weights 1 (the default) is plain round-robin. The schedule is a pure
// function of the weights and epoch budgets — never of threads or
// timing.
//
// Isolation contract (pinned by tests/tenant_test.cpp, `ctest -L
// tenant`): a tenant's deterministic telemetry — its per-epoch FNV digest,
// final flow, route-latency histogram — is byte-identical whether the
// tenant runs alone, co-scheduled with any mix of other tenants, or on
// any worker-thread count. Co-tenancy and parallelism change wall-clock
// figures only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.h"
#include "net/instance.h"
#include "service/checkpoint.h"
#include "service/round_loop.h"
#include "service/route_server.h"
#include "service/snapshot.h"
#include "service/workload.h"

namespace staleflow {

class Executor;

struct TenantOptions {
  /// The tenant's serving configuration (epochs, clients, shards, seed,
  /// sub-batch, latency recording, ...). `threads` and `executor` are
  /// ignored: the registry serves every tenant on the executor handed to
  /// run().
  RouteServerOptions server;

  /// Relative epoch rate: the tenant serves `weight` epochs for every
  /// `max weight in the registry` scheduler rounds. Must be >= 1.
  std::size_t weight = 1;
};

/// One tenant's finished run, in registration order.
struct TenantResult {
  std::string name;
  RouteServerResult server;
};

struct MultiTenantResult {
  std::vector<TenantResult> tenants;  // registration order
  std::size_t rounds = 0;             // scheduler rounds executed
  double wall_seconds = 0.0;          // whole multiplexed run

  std::size_t total_queries() const noexcept;
  std::size_t total_epochs() const noexcept;
};

class TenantRegistry {
 public:
  /// Registers a tenant. The instance, policy and workload must outlive
  /// the registry. Throws std::invalid_argument on an empty or duplicate
  /// name (names label result rows and per-tenant output files; they must
  /// be [A-Za-z0-9_-]+) or a zero weight. Server options are validated at
  /// run() (the RouteServer::run contract).
  void add(const std::string& name, const Instance& instance,
           const Policy& policy, const WorkloadGenerator& workload,
           const TenantOptions& options);

  std::size_t size() const noexcept { return tenants_.size(); }
  const std::string& name(std::size_t tenant) const;

  /// RCU read path of tenant `tenant`'s current board: nullptr before its
  /// first epoch, then the latest published snapshot. Safe to call
  /// concurrently with run().
  SnapshotPtr snapshot(std::size_t tenant) const;

  /// Serves every tenant's full epoch budget, multiplexed on `executor`
  /// (each tenant starting from the uniform split of its instance).
  /// Throws std::invalid_argument when the registry is empty or a
  /// tenant's options are invalid. May be called again for a fresh run
  /// (each run rebuilds every tenant's state from scratch).
  ///
  /// Recovery hooks: `rounds`, when set, is called after every scheduler
  /// round with the post-round credit state and the cut of every tenant
  /// that served an epoch (the multi-tenant WAL write path). `resume`,
  /// when set, restores every tenant's cut prefix and the scheduler's
  /// round/credit state from a matching round boundary before serving —
  /// the remaining rounds replay exactly, so every tenant's deterministic
  /// telemetry is byte-identical to the uninterrupted run. resume->cuts
  /// and resume->credits must be empty or have one entry per tenant.
  MultiTenantResult run(Executor& executor,
                        const TenantObserver& observer = nullptr,
                        const RoundCutObserver& rounds = nullptr,
                        const RegistryResume* resume = nullptr);

 private:
  struct Tenant {
    std::string name;
    const Instance* instance = nullptr;
    const Policy* policy = nullptr;
    const WorkloadGenerator* workload = nullptr;
    TenantOptions options;
    std::unique_ptr<SnapshotStore> store;  // stable address across runs
  };
  std::vector<Tenant> tenants_;
};

// --------------------------------------------------------------------------
// --tenants command-line grammar
// --------------------------------------------------------------------------

/// One tenant's textual configuration from a `--tenants` flag. Every
/// field but the name is optional; unset fields inherit the host tool's
/// top-level flags.
struct TenantSpec {
  std::string name;
  std::string scenario;  // empty = inherit
  std::string policy;    // empty = inherit
  std::string workload;  // empty = inherit
  std::optional<std::size_t> clients;
  std::optional<std::size_t> shards;
  std::optional<std::size_t> epochs;
  std::optional<double> period;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> weight;
  std::optional<std::size_t> sub_batch;  // unset and !sub_batch_auto = inherit
  bool sub_batch_auto = false;
};

/// Parses a `--tenants` value: semicolon-separated tenant specs
///   <name>[:key=value[,key=value...]]
/// with keys scenario, policy, workload, clients, shards, epochs, period,
/// seed, weight, sub-batch (a count or "auto"). Values may themselves
/// contain commas (e.g. workload=bursty:40000,2000,3,2): an item without
/// '=' continues the previous value. Repeated keys: the last one wins.
/// Throws std::invalid_argument (listing the key catalogue or the
/// offending item) on an empty spec list, an empty/illegal/duplicate
/// name, an unknown key, or a malformed value — name resolution
/// (scenario/policy/workload catalogues) is the caller's job.
std::vector<TenantSpec> parse_tenant_specs(const std::string& text);

}  // namespace staleflow
