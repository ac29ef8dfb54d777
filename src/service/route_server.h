// The online stale-routing engine: the paper's bulletin-board dynamics
// run as a service.
//
// A RouteServer owns a client fleet (an EpochEngine's client table), an
// epoch-swapped SnapshotStore and a sharded FlowLedger. Each epoch of
// length T it answers a batch of RouteQuery requests against the
// *current* (stale) snapshot — sample a candidate path with the policy's
// precomputed CDF, migrate with probability mu(l_P, l_Q) — while
// per-shard accumulators record the flow movement. At the phase boundary
// the shards are folded into the master flow and the next BoardSnapshot
// is published from it, so served traffic IS the flow that determines
// the next board, exactly Eq. (3)'s loop.
//
// Determinism contract (mirrors the sweep engine): clients are
// partitioned over a FIXED number of logical shards (client % shards);
// each epoch the execution layer pre-computes a deterministic sub-batch
// plan — every shard's query batch splits into ceil(arrivals /
// sub_batch_queries) sub-batches (clamped to the shard's client count),
// each owning a contiguous slice of the shard's client list — and derives
// one Rng per sub-batch by walking (shard, sub-batch) order with
// Rng::split(). Split points depend only on batch sizes, NEVER on thread
// count or scheduling; sub-batches share no mutable state (per-sub-batch
// ledger slots, disjoint client slices); folding and histogram merging
// walk the canonical plan order. Every dynamics outcome is therefore
// bit-identical for any worker-thread count — only the wall-clock
// telemetry differs. With the default sub_batch_queries, batches below
// the split threshold reproduce the PR-2/PR-3 per-shard dynamics exactly.
//
// Each epoch runs as a task graph (src/exec/): serve nodes feed a
// fold node, which feeds BOTH the next snapshot's build (board post, then
// one CDF node per commodity) and the telemetry summary node, so the
// snapshot build overlaps the summary tail instead of serializing after
// it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/policy.h"
#include "net/flow.h"
#include "net/instance.h"
#include "service/checkpoint.h"
#include "service/snapshot.h"
#include "service/telemetry.h"
#include "service/workload.h"
#include "util/log_histogram.h"

namespace staleflow {

class Executor;

namespace faults {
class FaultSchedule;
}

/// One routing request: client `client` asks which path to use next.
struct RouteQuery {
  std::uint32_t client = 0;
};

struct RouteServerOptions {
  /// Bulletin-board period T. Must be > 0 (the service boundary enforces
  /// the same contract as the simulators).
  double update_period = 0.1;
  std::size_t epochs = 100;

  /// Virtual client fleet size (>= commodities; each carries
  /// demand_i / N_i flow, as in the finite-population simulator).
  std::size_t num_clients = 10'000;

  /// Logical shards the clients are partitioned over. Part of the
  /// determinism contract — results depend on the shard count, never on
  /// `threads`. Must satisfy 1 <= shards <= num_clients.
  std::size_t shards = 16;

  /// Worker threads serving sub-batches; 0 = hardware concurrency, 1 =
  /// inline. Ignored when `executor` is set.
  std::size_t threads = 1;

  /// Borrowed execution layer to serve on (e.g. the sweep runner's, so a
  /// kService sweep cell parallelizes on the shared pool instead of
  /// spawning a nested one). nullptr = the server builds its own from
  /// `threads`. Never owned; must outlive run().
  Executor* executor = nullptr;

  /// Maximum queries one serving task handles: a shard whose epoch batch
  /// exceeds this splits into ceil(batch / sub_batch_queries) sub-batches
  /// (clamped to the shard's client count). Part of the determinism
  /// contract — the split depends on this value and the batch size only,
  /// never on threads — so changing it changes the dynamics digest, like
  /// changing `shards`. Must be >= 1 (ignored when sub_batch_auto is on).
  std::size_t sub_batch_queries = 16384;

  /// Adaptive split ("--sub-batch auto"): derive each epoch's split
  /// threshold from that epoch's total arrivals via
  /// auto_sub_batch_target(), keeping the task count stable across load
  /// levels. Still scheduling-independent (a function of the
  /// deterministic arrival sequence only), so 1-vs-N-thread runs stay
  /// byte-identical — but a different dynamics configuration than any
  /// fixed sub_batch_queries, with its own digest.
  bool sub_batch_auto = false;

  /// Pin worker lane i to CPU core i where available (silently a no-op
  /// otherwise). Runtime-only wall-clock placement, never semantics;
  /// ignored when `executor` is set (the borrowed executor's owner
  /// decides).
  bool pin = false;

  std::uint64_t seed = 1;

  /// Materialized fault schedule (src/faults/), nullptr = healthy world.
  /// A runtime pointer like `executor` — never serialized into the WAL
  /// header (the `--faults` SPEC is; resume re-materializes from it).
  /// Brownout windows deterministically shed this server's arrivals
  /// (digest-changing, for this tenant only); slowdown / stall /
  /// drop-telemetry windows burn wall clock or suppress traces and are
  /// digest-neutral; a crash clause _Exit(137)s the process right after
  /// the matching commit point. Must outlive run().
  const faults::FaultSchedule* faults = nullptr;

  /// Record wall-clock per-query service time into per-shard
  /// LogHistograms. Off = deterministic replay mode: all telemetry fields
  /// are reproducible bit-for-bit.
  bool record_latency = true;
  /// Time every k-th query of a shard (the clock reads are the cost; the
  /// histogram itself stores nothing per sample).
  std::size_t latency_sample_every = 32;
};

struct RouteServerResult {
  FlowVector final_flow;
  std::vector<EpochSummary> epochs;
  std::size_t total_queries = 0;
  std::size_t total_migrations = 0;
  double final_gap = 0.0;

  /// Deterministic route-latency distribution of the whole run: the board
  /// latency of the path each query's client was routed on, merged over
  /// every shard and epoch in canonical order. Mergeable further (e.g.
  /// across sweep cells) because every server uses the same default
  /// histogram configuration.
  LogHistogram route_latency;

  // Wall-clock (non-deterministic; zero / empty in replay mode).
  LogHistogram wall_latency_us;  // per-query service time, merged over run
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  double p50_us = 0.0;  // quantiles of wall_latency_us
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Called at every phase boundary with the finished epoch's summary.
using EpochObserver = std::function<void(const EpochSummary&)>;

class RouteServer {
 public:
  /// The instance, policy and workload must outlive the server.
  RouteServer(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload);

  /// Serves `options.epochs` epochs starting from the feasible flow
  /// `initial`. Throws std::invalid_argument on a non-positive update
  /// period, zero epochs, a shard/client mismatch or an infeasible start.
  ///
  /// A solo run is a one-tenant registry (round_loop.h): one engine of
  /// weight 1, so round r serves epoch r-1.
  ///
  /// Recovery hooks: `rounds`, when set, is called after every finished
  /// epoch with its round checkpoint — round e+1, credits {0}, and the
  /// epoch's cut as tenant 0 (the WAL write path, WalLog::log_round);
  /// `resume`, when nonempty, must be the checkpoints of epochs 0..n-1 of
  /// an identically configured run — the server restores them and serves
  /// only the remaining epochs, and the result (telemetry digest, final
  /// flow, route histogram) is byte-identical to the uninterrupted run.
  RouteServerResult run(const FlowVector& initial,
                        const RouteServerOptions& options,
                        const EpochObserver& observer = nullptr,
                        const RoundCutObserver& rounds = nullptr,
                        std::span<const EngineCheckpoint> resume = {});

  /// Read side: the currently published snapshot (nullptr before the
  /// first epoch of a run). Safe to call concurrently with run() — this
  /// is the RCU read path external query threads would use.
  SnapshotPtr snapshot() const { return store_.acquire(); }

 private:
  const Instance* instance_;
  const Policy* policy_;
  const WorkloadGenerator* workload_;
  SnapshotStore store_;
};

}  // namespace staleflow
