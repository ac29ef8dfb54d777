#include "service/epoch_engine.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "agents/population.h"
#include "core/policy.h"
#include "equilibrium/metrics.h"
#include "exec/executor.h"
#include "faults/fault_plan.h"
#include "service/workload.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/stopwatch.h"

namespace staleflow {
namespace {

/// Visits a shard-major client table in memory order, calling
/// visit(client id, row): shard s's k-th row is client s + shards * k,
/// shards = shard_clients.size().
template <typename Table, typename Visit>
void for_each_client(Table& table,
                     const std::vector<std::size_t>& shard_clients,
                     Visit visit) {
  const std::size_t shards = shard_clients.size();
  auto* row = table.data();
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t id = s;
    for (std::size_t k = 0; k < shard_clients[s]; ++k, id += shards) {
      visit(id, *row++);
    }
  }
}

}  // namespace

EpochEngine::EpochEngine(const Instance& instance, const Policy& policy,
                         const WorkloadGenerator& workload,
                         SnapshotStore& store)
    : instance_(&instance),
      policy_(&policy),
      workload_(&workload),
      store_(&store) {}

void EpochEngine::begin(const FlowVector& initial,
                        const RouteServerOptions& options) {
  if (!clients_.empty()) {
    throw std::logic_error("EpochEngine::begin: already begun");
  }
  if (!(options.update_period > 0.0)) {
    throw std::invalid_argument(
        "RouteServer::run: update period must be > 0");
  }
  if (options.epochs == 0) {
    throw std::invalid_argument("RouteServer::run: need at least one epoch");
  }
  if (options.shards == 0 || options.shards > options.num_clients) {
    throw std::invalid_argument(
        "RouteServer::run: shards must be in [1, num_clients]");
  }
  if (options.num_clients >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "RouteServer::run: num_clients must fit RouteQuery::client "
        "(uint32)");
  }
  if (!options.sub_batch_auto && options.sub_batch_queries == 0) {
    throw std::invalid_argument(
        "RouteServer::run: sub_batch_queries must be >= 1");
  }
  if (!is_feasible(*instance_, initial.values(), 1e-7)) {
    throw std::invalid_argument("RouteServer::run: infeasible start");
  }
  if (options.record_latency && options.latency_sample_every == 0) {
    throw std::invalid_argument(
        "RouteServer::run: latency_sample_every must be >= 1");
  }

  InitialAssignment start =
      initial_assignment(*instance_, options.num_clients, initial.values());
  options_ = options;
  master_ = Rng(options.seed);

  // Shard s owns clients {s, s + shards, s + 2*shards, ...}.
  const std::size_t shards = options.shards;
  shard_clients_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_clients_[s] = options.num_clients / shards +
                        (s < options.num_clients % shards ? 1 : 0);
  }

  // Fill the table from the assignment's counts. Client ids run through
  // the (commodity, path) blocks in order, so a block's clients in shard s
  // are one run of that shard's rows: as many as the shard's ids below the
  // block's end, minus those below its start. (std::fill_n into a sized
  // table: vector::insert(pos, n, entry) measured ~13x slower here.)
  clients_.resize(options.num_clients);
  detail::ClientEntry* row = clients_.data();
  for (std::size_t s = 0; s < shards; ++s) {
    const auto ids_below = [s, shards](std::size_t end) {
      return end > s ? (end - s - 1) / shards + 1 : std::size_t{0};
    };
    std::size_t end = 0;
    std::size_t rows = 0;  // ids_below(end)
    for (std::size_t c = 0; c < start.path_clients.size(); ++c) {
      for (std::size_t j = 0; j < start.path_clients[c].size(); ++j) {
        end += start.path_clients[c][j];
        const std::size_t next = ids_below(end);
        row = std::fill_n(row, next - rows,
                          detail::ClientEntry{static_cast<std::uint32_t>(c),
                                              static_cast<std::uint32_t>(j)});
        rows = next;
      }
    }
  }
  flow_per_client_ = std::move(start.flow_per_client);

  // Master flow: starts at the client fleet's empirical flow, advanced
  // only by ledger folds at phase boundaries.
  flow_ = std::move(start.empirical);
  ledger_ = std::make_unique<FlowLedger>(instance_->path_count(), shards);
  store_->publish(std::make_shared<BoardSnapshot>(*instance_, *policy_,
                                                  /*epoch=*/0, /*now=*/0.0,
                                                  flow_));
  epochs_.reserve(options.epochs);
}

void EpochEngine::serve_sub_batch(std::size_t b) {
  const EpochStage& stage = stage_;
  detail::SubBatchContext& sub = stage_.ctx[b];
  const std::size_t s = sub.shard;
  // Span over the whole batch, recorded from the worker thread that runs
  // it. arg packs (lane, shard, index): bits 48+ carry the executing
  // thread's encoded lane (0 = pre-lane trace, 1 = a non-worker thread,
  // k+2 = pool lane k — see ThreadPool::current_lane_code), bits 32-47
  // the shard, low bits the sub-batch index. A drop-telemetry fault
  // window silences the span for this epoch.
  std::optional<trace::Span> trace_span;
  if (!stage.trace_drop) {
    trace_span.emplace(
        trace::EventKind::kSubBatchSpan, trace_tenant_, stage.trace_epoch,
        (static_cast<std::uint64_t>(ThreadPool::current_lane_code()) << 48) |
            (static_cast<std::uint64_t>(s & 0xFFFF) << 32) |
            static_cast<std::uint64_t>(b & 0xFFFFFFFF));
    trace_span->value(sub.arrivals);
  }
  // Injected shard slowdown: burn wall clock on this worker before
  // serving. Wall-clock only — the dynamics below never see it.
  if (options_.faults != nullptr) {
    const std::uint64_t slow_us =
        options_.faults->slowdown_us(trace_tenant_, s, stage.trace_epoch);
    if (slow_us != 0) {
      static trace::Counter& slowdowns_counter =
          trace::MetricsRegistry::global().counter("faults.slowdowns");
      slowdowns_counter.inc();
      faults::busy_wait_us(slow_us);
    }
  }
  // The RCU read path: pin this epoch's board for the whole batch.
  const SnapshotPtr snap = store_->acquire();
  const std::span<const double> latency = snap->board().path_latency();
  const MigrationRule& migration = policy_->migration();
  detail::ClientEntry* const clients = clients_.data() + sub.client_begin;
  const UniformBelow pick_client(sub.client_count);
  Rng rng = sub.rng;
  // The route-latency tally: served queries per path, and their latency
  // summed in query order — the exact bits per-query record() calls
  // would have summed.
  std::fill(sub.path_served.begin(), sub.path_served.end(), 0);
  std::uint64_t* const served = sub.path_served.data();
  double route_sum = 0.0;
  // The wall sampler times queries 0, k, 2k, ... (k =
  // latency_sample_every), counting down so no query pays a modulo.
  std::size_t until_timed =
      options_.record_latency ? 0 : std::numeric_limits<std::size_t>::max();
  for (std::size_t q = 0; q < sub.arrivals; ++q) {
    const bool timed = until_timed == 0;
    if (timed) until_timed = options_.latency_sample_every;
    --until_timed;
    const WallClock::time_point begin =
        timed ? WallClock::now() : WallClock::time_point{};

    detail::ClientEntry& client = clients[pick_client(rng)];
    const CommodityId c{static_cast<std::size_t>(client.commodity)};
    const Commodity& commodity = instance_->commodity(c);

    // Step (1): sample a candidate from the precomputed CDF.
    const std::size_t sampled = sample_from_cdf(snap->cdf(c), rng);

    // Step (2): migrate with probability mu(l_P, l_Q).
    std::size_t served_path = commodity.paths[client.local_path].index();
    bool migrated = false;
    if (sampled != client.local_path) {
      const std::size_t sampled_path = commodity.paths[sampled].index();
      const double mu =
          migration.probability(latency[served_path], latency[sampled_path]);
      if (rng.bernoulli(mu)) {
        migrated = true;
        const double moved = flow_per_client_[client.commodity];
        ledger_->add(b, served_path, -moved);
        ledger_->add(b, sampled_path, +moved);
        client.local_path = static_cast<std::uint32_t>(sampled);
        served_path = sampled_path;
      }
    }
    ledger_->count_query(b, migrated);

    // The latency this query's client experiences on the board it was
    // routed against — a deterministic board value, not wall clock.
    ++served[served_path];
    route_sum += latency[served_path];

    if (timed) {
      sub.wall_hist.record(1e6 * seconds_between(begin, WallClock::now()));
    }
  }
  sub.rng = rng;
  sub.route_hist.record_tally(latency, sub.path_served, route_sum);
}

void EpochEngine::add_epoch(TaskGraph& graph) {
  if (clients_.empty()) {
    throw std::logic_error("EpochEngine::add_epoch: begin() first");
  }
  if (epoch_in_flight_) {
    throw std::logic_error(
        "EpochEngine::add_epoch: previous epoch not finished");
  }
  if (done()) {
    throw std::logic_error("EpochEngine::add_epoch: all epochs served");
  }
  epoch_in_flight_ = true;

  const std::uint64_t e = epochs_done();
  EpochStage& stage = stage_;
  const double T = options_.update_period;
  const std::size_t shards = options_.shards;
  stage.trace_epoch = e;
  if (trace::active()) stage.trace_begin_ns = trace::now_ns();

  // Derive this epoch's streams in canonical order: one for the
  // workload, then one per sub-batch in (shard, sub-batch) order.
  // Depends only on (seed, e) and the batch sizes — never on threads.
  Rng epoch_rng = master_.split();
  Rng arrivals_rng = epoch_rng.split();
  LoadFeedback feedback;
  if (!epochs_.empty()) {
    feedback.has_previous = true;
    feedback.route_p50 = epochs_.back().route_p50;
  }
  std::size_t total = workload_->arrivals(
      e, static_cast<double>(e) * T, T, feedback, arrivals_rng);

  // Fault windows for this (tenant, epoch). Brownout sheds arrivals
  // BEFORE the sub-batch plan is derived, so the shed run is simply a
  // different (still fully deterministic) load level: floor(total * shed)
  // queries are turned away at admission. drop-telemetry only sets the
  // emission gate; slowdowns are applied per sub-batch task.
  const faults::FaultSchedule* fault_plan = options_.faults;
  stage.trace_drop = fault_plan != nullptr &&
                     fault_plan->telemetry_dropped(trace_tenant_, e);
  std::size_t shed_queries = 0;
  if (fault_plan != nullptr) {
    const double shed = fault_plan->brownout_shed(trace_tenant_, e);
    if (shed > 0.0) {
      shed_queries = std::min(
          total, static_cast<std::size_t>(static_cast<double>(total) * shed));
      total -= shed_queries;
      static trace::Counter& shed_counter =
          trace::MetricsRegistry::global().counter("faults.shed_queries");
      shed_counter.add(shed_queries);
    }
    if (trace::active()) {
      // One kFaultSpan marker per engine-level fault active this epoch —
      // emitted even inside a drop-telemetry window, so the offline
      // analyzer can attribute the dark window (and any latency shift)
      // to its cause.
      for (const faults::ActiveFault& fault : fault_plan->faults()) {
        const faults::FaultKind kind = fault.clause.kind;
        if (kind != faults::FaultKind::kShardSlowdown &&
            kind != faults::FaultKind::kDropTelemetry &&
            kind != faults::FaultKind::kBrownout)
          continue;
        if (fault.clause.tenant != trace_tenant_ || !fault.covers(e)) continue;
        const std::uint64_t magnitude =
            kind == faults::FaultKind::kShardSlowdown ? fault.clause.slow_us
            : kind == faults::FaultKind::kBrownout    ? shed_queries
                                                      : 0;
        trace::instant(trace::EventKind::kFaultSpan, trace_tenant_, e,
                       static_cast<std::uint64_t>(kind), magnitude);
      }
    }
  }

  // The split threshold: fixed, or (auto mode) derived from this epoch's
  // total arrivals — either way a function of the configuration and the
  // deterministic arrival sequence only.
  const std::size_t target = options_.sub_batch_auto
                                 ? auto_sub_batch_target(total, shards)
                                 : options_.sub_batch_queries;

  // The deterministic sub-batch plan: a shard whose batch exceeds the
  // target splits into balanced sub-batches over disjoint client
  // slices. One sub-batch per shard minimum keeps the stream layout
  // aligned with the unsplit (PR-2/PR-3) dynamics when nothing splits.
  std::size_t planned = 0;
  std::size_t shard_begin = 0;  // the shard's first row in the table
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t batch = total / shards + (s < total % shards ? 1 : 0);
    const std::size_t pieces =
        sub_batch_count(batch, target, shard_clients_[s]);
    if (stage.ctx.size() < planned + pieces) {
      stage.ctx.resize(planned + pieces);
    }
    for (std::size_t piece = 0; piece < pieces; ++piece) {
      detail::SubBatchContext& sub = stage.ctx[planned + piece];
      const SubRange slice = sub_range(shard_clients_[s], pieces, piece);
      sub.shard = s;
      sub.client_begin = shard_begin + slice.begin;
      sub.client_count = slice.count;
      sub.arrivals = sub_range(batch, pieces, piece).count;
      sub.rng = epoch_rng.split();
      sub.path_served.resize(instance_->path_count());
      sub.route_hist.reset();
      sub.wall_hist.reset();
    }
    planned += pieces;
    shard_begin += shard_clients_[s];
  }
  stage.batches = planned;
  ledger_->ensure_slots(stage.batches);

  // The epoch task graph: serve -> fold -> {next snapshot build,
  // summary}. The snapshot's board post and per-commodity CDF nodes
  // overlap the summary tail; everything after fold reads the folded
  // flow, nothing writes shared state concurrently — and nothing outside
  // this engine at all, so epochs of distinct engines coexist in one
  // graph. Serve nodes carry their shard id as the affinity key: every
  // sub-batch of one shard runs on the same worker lane (cache locality),
  // which never changes what it computes.
  stage.served = store_->acquire();
  stage.totals = FlowLedger::Totals{};
  stage.next.reset();
  stage.summary = EpochSummary{};

  std::vector<TaskGraph::NodeId> serve_nodes;
  serve_nodes.reserve(stage.batches);
  for (std::size_t b = 0; b < stage.batches; ++b) {
    serve_nodes.push_back(graph.add([this, b] { serve_sub_batch(b); }, {},
                                    /*affinity=*/stage.ctx[b].shard));
  }
  const TaskGraph::NodeId fold = graph.add(
      [this] { stage_.totals = ledger_->fold_into(flow_, stage_.batches); },
      std::span<const TaskGraph::NodeId>(serve_nodes));
  const TaskGraph::NodeId post = graph.add(
      [this, e, T] {
        stage_.next = std::make_shared<BoardSnapshot>(
            BoardSnapshot::DeferCdf{}, *instance_, *policy_, e + 1,
            static_cast<double>(e + 1) * T, flow_);
      },
      {fold});
  for (std::size_t c = 0; c < instance_->commodity_count(); ++c) {
    graph.add([this, c] { stage_.next->build_cdf(CommodityId{c}); }, {post});
  }
  graph.add([this] { summarize(); }, {fold});
}

void EpochEngine::summarize() {
  EpochStage& stage = stage_;
  const std::uint64_t e = stage.trace_epoch;
  const double T = options_.update_period;
  stage.summary.epoch = e;
  stage.summary.start_time = static_cast<double>(e) * T;
  stage.summary.end_time = static_cast<double>(e + 1) * T;
  stage.summary.queries = stage.totals.queries;
  stage.summary.migrations = stage.totals.migrations;
  stage.summary.migration_rate =
      stage.totals.queries > 0
          ? static_cast<double>(stage.totals.migrations) /
                static_cast<double>(stage.totals.queries)
          : 0.0;
  stage.summary.wardrop_gap = wardrop_gap(*instance_, flow_);
  double board_latency = 0.0;
  double board_volume = 0.0;
  for (std::size_t p = 0; p < instance_->path_count(); ++p) {
    board_latency += stage.served->board().path_flow()[p] *
                     stage.served->board().path_latency()[p];
    board_volume += stage.served->board().path_flow()[p];
  }
  stage.summary.board_latency =
      board_volume > 0.0 ? board_latency / board_volume : 0.0;

  // Merge per-sub-batch histograms in plan order (the canonical order
  // the determinism contract fixes) into this epoch's distribution.
  stage.epoch_route.reset();
  for (std::size_t b = 0; b < stage.batches; ++b) {
    stage.epoch_route.merge(stage.ctx[b].route_hist);
  }
  if (!stage.epoch_route.empty()) {
    stage.summary.route_p50 = stage.epoch_route.quantile(0.5);
    stage.summary.route_p99 = stage.epoch_route.quantile(0.99);
    stage.summary.route_p999 = stage.epoch_route.quantile(0.999);
  }
  if (options_.record_latency) {
    stage.epoch_wall.reset();
    for (std::size_t b = 0; b < stage.batches; ++b) {
      stage.epoch_wall.merge(stage.ctx[b].wall_hist);
    }
    if (!stage.epoch_wall.empty()) {
      stage.summary.p50_us = stage.epoch_wall.quantile(0.5);
      stage.summary.p99_us = stage.epoch_wall.quantile(0.99);
      stage.summary.p999_us = stage.epoch_wall.quantile(0.999);
    }
  }
}

void EpochEngine::finish_epoch(double epoch_seconds,
                               const EpochObserver& observer) {
  if (!epoch_in_flight_) {
    throw std::logic_error("EpochEngine::finish_epoch: no epoch in flight");
  }
  epoch_in_flight_ = false;
  EpochStage& stage = stage_;

  // Phase boundary: the fold tail (summary) and the snapshot build
  // already ran inside the graph; publish the folded flow's board.
  run_route_.merge(stage.epoch_route);
  if (options_.record_latency) {
    run_wall_us_.merge(stage.epoch_wall);
    stage.summary.queries_per_second =
        epoch_seconds > 0.0
            ? static_cast<double>(stage.totals.queries) / epoch_seconds
            : 0.0;
  }

  total_queries_ += stage.totals.queries;
  total_migrations_ += stage.totals.migrations;
  epochs_.push_back(stage.summary);
  if (observer) observer(stage.summary);

  store_->publish(std::move(stage.next));
  stage.served.reset();

  static trace::Counter& epochs_counter =
      trace::MetricsRegistry::global().counter("engine.epochs");
  static trace::Counter& queries_counter =
      trace::MetricsRegistry::global().counter("engine.queries");
  static trace::Counter& migrations_counter =
      trace::MetricsRegistry::global().counter("engine.migrations");
  epochs_counter.inc();
  queries_counter.add(stage.totals.queries);
  migrations_counter.add(stage.totals.migrations);

  if (trace::active() && !stage.trace_drop) {
    // The board just swapped: epoch e+1 is now live for readers.
    trace::instant(trace::EventKind::kSnapshotPublish, trace_tenant_,
                   stage.trace_epoch + 1, /*arg=*/0, /*value=*/0);
    trace::TraceEvent epoch_event;
    epoch_event.kind = trace::EventKind::kEpochSpan;
    epoch_event.tenant = trace_tenant_;
    epoch_event.epoch = stage.trace_epoch;
    epoch_event.arg = stage.batches;
    epoch_event.begin_ns = stage.trace_begin_ns;
    epoch_event.end_ns = trace::now_ns();
    epoch_event.value = stage.totals.queries;
    trace::emit(epoch_event);
  }
}

EngineCheckpoint EpochEngine::checkpoint() const {
  if (epoch_in_flight_ || epochs_.empty()) {
    throw std::logic_error(
        "EpochEngine::checkpoint: need a finished epoch and none in "
        "flight");
  }
  EngineCheckpoint cut;
  cut.summary = epochs_.back();
  cut.rng_state = master_.state();
  cut.flow = flow_;
  cut.client_paths.resize(clients_.size());  // in client-id order
  for_each_client(clients_, shard_clients_,
                  [&cut](std::size_t id, const detail::ClientEntry& row) {
                    cut.client_paths[id] = row.local_path;
                  });
  // The just-finished epoch's merged route latencies, still staged.
  cut.route_hist = stage_.epoch_route;
  return cut;
}

void EpochEngine::restore(std::span<const EngineCheckpoint> cuts) {
  if (clients_.empty()) {
    throw std::logic_error("EpochEngine::restore: begin() first");
  }
  if (!epochs_.empty() || epoch_in_flight_) {
    throw std::logic_error(
        "EpochEngine::restore: engine has already served epochs");
  }
  if (cuts.empty()) return;
  if (cuts.size() > options_.epochs) {
    throw std::invalid_argument(
        "EpochEngine::restore: more cuts than the epoch budget");
  }
  const EngineCheckpoint& last = cuts.back();
  if (last.flow.size() != instance_->path_count()) {
    throw std::invalid_argument(
        "EpochEngine::restore: flow does not match the instance's path "
        "count");
  }
  if (last.client_paths.size() != clients_.size()) {
    throw std::invalid_argument(
        "EpochEngine::restore: client paths do not match num_clients");
  }

  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const EngineCheckpoint& cut = cuts[i];
    if (cut.summary.epoch != i) {
      throw std::invalid_argument(
          "EpochEngine::restore: cuts are not the contiguous epochs "
          "0..n-1");
    }
    epochs_.push_back(cut.summary);
    total_queries_ += cut.summary.queries;
    total_migrations_ += cut.summary.migrations;
    run_route_.merge(cut.route_hist);
  }

  flow_ = last.flow;
  master_ = Rng::from_state(last.rng_state);
  for_each_client(
      clients_, shard_clients_,
      [this, &last](std::size_t id, detail::ClientEntry& row) {
        const std::uint32_t path = last.client_paths[id];
        const Commodity& commodity = instance_->commodity(
            CommodityId{static_cast<std::size_t>(row.commodity)});
        if (path >= commodity.paths.size()) {
          throw std::invalid_argument(
              "EpochEngine::restore: client path out of its commodity's "
              "range");
        }
        row.local_path = path;
      });

  // Re-publish the board the checkpointed process was serving against:
  // the epoch-n post of the restored flow — the same bits finish_epoch
  // published, because the flow doubles round-tripped exactly.
  const auto n = static_cast<std::uint64_t>(cuts.size());
  store_->publish(std::make_shared<BoardSnapshot>(
      *instance_, *policy_, n,
      static_cast<double>(n) * options_.update_period, flow_));
}

RouteServerResult EpochEngine::finish(double wall_seconds) {
  if (clients_.empty() || epoch_in_flight_ || epochs_.empty()) {
    throw std::logic_error(
        "EpochEngine::finish: run at least one epoch to completion first");
  }
  const double final_gap = epochs_.back().wardrop_gap;
  RouteServerResult result{
      .final_flow = FlowVector(*instance_, std::move(flow_)),
      .epochs = std::move(epochs_),
      .total_queries = total_queries_,
      .total_migrations = total_migrations_,
      .final_gap = final_gap,
      .route_latency = run_route_,
      .wall_latency_us = LogHistogram(),
      .wall_seconds = 0.0,
      .queries_per_second = 0.0,
      .p50_us = 0.0,
      .p99_us = 0.0,
      .p999_us = 0.0,
  };
  if (options_.record_latency) {
    result.wall_latency_us = run_wall_us_;
    result.wall_seconds = wall_seconds;
    result.queries_per_second =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.total_queries) / result.wall_seconds
            : 0.0;
    if (!result.wall_latency_us.empty()) {
      result.p50_us = result.wall_latency_us.quantile(0.5);
      result.p99_us = result.wall_latency_us.quantile(0.99);
      result.p999_us = result.wall_latency_us.quantile(0.999);
    }
  }
  return result;
}

}  // namespace staleflow
