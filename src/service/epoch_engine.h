// The per-epoch serving pipeline of one route-service instance, factored
// out of RouteServer so a host can drive epochs one at a time.
//
// An EpochEngine owns everything one serving instance mutates — its
// client table, master flow, sharded FlowLedger, sub-batch contexts, RNG
// streams and accumulating result — and borrows the SnapshotStore it
// publishes to. The host drives the epoch cycle explicitly:
//
//   EpochEngine engine(instance, policy, workload, store);
//   engine.begin(initial, options);
//   while (!engine.done()) {
//     TaskGraph graph;
//     engine.add_epoch(graph);        // plan + append this epoch's nodes
//     executor.run(graph);            // serve -> fold -> {snapshot, summary}
//     engine.finish_epoch(seconds, observer);  // merge, record, publish
//   }
//   RouteServerResult result = engine.finish(wall_seconds);
//
// The serving hosts drive this loop through run_rounds (round_loop.h):
// each scheduler round appends one epoch of every scheduled engine to ONE
// combined graph. The engines share no mutable state (each node touches
// only its own engine), so co-scheduled tenants execute on one shared
// Executor while every tenant's dynamics stay byte-identical to a solo
// run — the multi-tenant isolation contract. A solo RouteServer::run is
// the same loop over one engine of weight 1.
//
// Determinism: add_epoch derives this epoch's RNG streams and sub-batch
// plan host-side, in canonical order, before any node is dispatched
// (see route_server.h for the full contract). Nothing an engine computes
// depends on which threads run its nodes or on what other engines' nodes
// are interleaved with them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/flow.h"
#include "service/checkpoint.h"
#include "service/ledger.h"
#include "service/route_server.h"
#include "service/snapshot.h"
#include "util/log_histogram.h"
#include "util/rng.h"

namespace staleflow {

class TaskGraph;

namespace detail {
/// One client's row in the engine's client table: its commodity and its
/// current path, as an index into the commodity's path list.
struct ClientEntry {
  std::uint32_t commodity = 0;
  std::uint32_t local_path = 0;
};

/// Everything one serving task needs for an epoch: which shard it belongs
/// to, its contiguous slice of the client table, its arrival quota, its
/// own Rng stream, its per-path tally and its route-latency histogram.
/// Sub-batches never touch each other's context; the alignment keeps
/// neighbouring contexts off the same cache line.
struct alignas(64) SubBatchContext {
  std::size_t shard = 0;
  std::size_t client_begin = 0;  // offset into the client table
  std::size_t client_count = 0;
  std::size_t arrivals = 0;
  Rng rng{0};
  std::vector<std::uint64_t> path_served;  // served queries, by path
  LogHistogram route_hist;  // board latency of the served path (exact)
};
}  // namespace detail

class EpochEngine {
 public:
  /// The instance, policy, workload and store must outlive the engine.
  EpochEngine(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload, SnapshotStore& store);

  /// Validates the options (the RouteServer::run contract: positive
  /// period, at least one epoch, shards in [1, num_clients], feasible
  /// start, ...; `threads` and `executor` are ignored — the host supplies
  /// execution) and publishes the epoch-0 snapshot. Must be called
  /// exactly once, before any epoch.
  void begin(const FlowVector& initial, const RouteServerOptions& options);

  std::size_t epochs_total() const noexcept { return options_.epochs; }
  std::size_t epochs_done() const noexcept { return epochs_.size(); }
  bool done() const noexcept { return epochs_done() >= epochs_total(); }

  /// Plans the next epoch (workload arrivals, the deterministic sub-batch
  /// plan, one Rng stream per sub-batch in canonical order) and appends
  /// its serve -> fold -> {board post + per-commodity CDF nodes, summary}
  /// pipeline to `graph`. Serve nodes carry their shard id as the graph
  /// affinity key, so same-shard sub-batches land on the same worker lane
  /// (locality placement — wall clock only, never values). The appended
  /// nodes touch only this engine, so several engines may append to the
  /// same graph. Exactly one graph may be in flight per engine:
  /// add_epoch / run / finish_epoch, in order.
  void add_epoch(TaskGraph& graph);

  /// Completes the epoch the last add_epoch planned (its graph must have
  /// run): merges the epoch's route histogram into the run result, records
  /// the summary (calling `observer` if set) and publishes the next
  /// snapshot — the phase boundary. `epoch_seconds` is unused: the engine
  /// records no per-epoch wall clock (time epochs with perfbench or a
  /// trace). It stays until the benchmark's callers drop it.
  void finish_epoch(double epoch_seconds, const EpochObserver& observer);

  /// Finalizes and returns the run result (final flow and gap; the run's
  /// throughput from the host-measured `wall_seconds`). The engine is
  /// spent afterwards.
  RouteServerResult finish(double wall_seconds);

  /// Snapshot of the dynamics state at the last finished epoch's boundary
  /// — the recovery WAL's cut record. Requires at least one finished
  /// epoch and no epoch in flight. Restoring the returned cut (plus its
  /// predecessors) into a fresh engine continues the run bit-identically.
  EngineCheckpoint checkpoint() const;

  /// Tags this engine's trace events with a tenant id (a TenantRegistry
  /// passes the tenant index; solo servers stay 0). Pure telemetry
  /// labelling — never read by the dynamics.
  void set_trace_tenant(std::uint32_t tenant) noexcept {
    trace_tenant_ = tenant;
  }

  /// Restores a run prefix: `cuts` must be the checkpoints of epochs
  /// 0..n-1 in order (contiguous summary.epoch values). Must be called
  /// after begin() and before any epoch is served; publishes the epoch-n
  /// board so serving continues exactly where the checkpointed run stood.
  /// Throws std::invalid_argument on non-contiguous cuts, more cuts than
  /// the epoch budget, or state that does not fit this configuration
  /// (wrong path count, client count, or an out-of-range client path).
  /// The run's wall_seconds covers the new process only.
  void restore(std::span<const EngineCheckpoint> cuts);

 private:
  /// Everything the in-flight epoch stages: its sub-batch contexts, the
  /// snapshot it served against, the fold totals, the board it builds and
  /// its summary. The trace fields are wall-clock labelling only —
  /// trace_drop is true while a drop-telemetry fault window covers the
  /// epoch (the engine then emits no spans; the kFaultSpan marker itself
  /// still fires).
  struct EpochStage {
    std::vector<detail::SubBatchContext> ctx;  // high-water pool
    std::size_t batches = 0;  // sub-batches planned for this epoch
    SnapshotPtr served;       // the board this epoch served against
    FlowLedger::Totals totals;
    std::shared_ptr<BoardSnapshot> next;
    EpochSummary summary;
    LogHistogram epoch_route;  // this epoch's merged route latencies
    std::uint64_t trace_epoch = 0;
    std::uint64_t trace_begin_ns = 0;
    bool trace_drop = false;
  };

  void serve_sub_batch(std::size_t b);
  void summarize();

  const Instance* instance_;
  const Policy* policy_;
  const WorkloadGenerator* workload_;
  SnapshotStore* store_;

  RouteServerOptions options_;
  Rng master_{0};
  // The client table, shard-major: logical shard s owns client ids
  // s, s + shards, s + 2 * shards, ... and holds them contiguously, in id
  // order, after shards 0..s-1 — client s + shards * k is the shard's
  // k-th row. A sub-batch's slice is one contiguous run of rows.
  std::vector<detail::ClientEntry> clients_;
  std::vector<std::size_t> shard_clients_;  // clients per logical shard
  std::vector<double> flow_per_client_;     // by commodity
  std::vector<double> flow_;
  std::unique_ptr<FlowLedger> ledger_;

  EpochStage stage_;
  bool epoch_in_flight_ = false;

  std::uint32_t trace_tenant_ = 0;

  // Accumulating run outcome (assembled into a RouteServerResult by
  // finish(); FlowVector has no default state, so the pieces live here).
  std::vector<EpochSummary> epochs_;
  std::size_t total_queries_ = 0;
  std::size_t total_migrations_ = 0;
  LogHistogram run_route_;
};

}  // namespace staleflow
