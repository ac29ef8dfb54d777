// Tests for the route service engine: snapshot store, sharded ledger,
// client population, workload generators, the RouteServer pipeline and
// its thread-count determinism contract, plus the BulletinBoard edge
// cases at the simulator/service boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agents/agent_simulator.h"
#include "agents/population.h"
#include "core/bulletin_board.h"
#include "core/fluid_simulator.h"
#include "equilibrium/metrics.h"
#include "exec/executor.h"
#include "net/flow.h"
#include "net/generators.h"
#include "service/service.h"
#include "sweep/scenario.h"
#include "util/rng.h"

namespace staleflow {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --------------------------------------------------------------- Population

TEST(Population, AllocatesAtLeastOneClientPerCommodity) {
  const Instance instance = shared_bottleneck();
  const FlowVector initial = FlowVector::uniform(instance);
  const Population population(instance, 5, initial.values());
  EXPECT_EQ(population.size(), 5u);
  std::vector<std::size_t> per_commodity(instance.commodity_count(), 0);
  for (std::size_t client = 0; client < population.size(); ++client) {
    ++per_commodity[population.commodity_of(client).index()];
  }
  for (std::size_t c = 0; c < per_commodity.size(); ++c) {
    EXPECT_GE(per_commodity[c], 1u);
    EXPECT_EQ(per_commodity[c], population.clients_of(CommodityId{c}));
  }
}

TEST(Population, RejectsFewerClientsThanCommodities) {
  const Instance instance = shared_bottleneck();  // 2 commodities
  const FlowVector initial = FlowVector::uniform(instance);
  EXPECT_THROW(Population(instance, 1, initial.values()),
               std::invalid_argument);
}

TEST(Population, EmpiricalFlowIsFeasibleAndTracksMigrations) {
  const Instance instance = braess(true);
  const FlowVector initial = FlowVector::uniform(instance);
  Population population(instance, 999, initial.values());
  EXPECT_TRUE(is_feasible(instance, population.empirical_flow(), 1e-9));

  const std::size_t before = population.local_path(0);
  const std::size_t target = before == 0 ? 1 : 0;
  const double flow_before =
      population.empirical_flow()[population.path_of(0).index()];
  population.migrate(0, target);
  EXPECT_EQ(population.local_path(0), target);
  EXPECT_TRUE(is_feasible(instance, population.empirical_flow(), 1e-9));
  const Commodity& commodity =
      instance.commodity(population.commodity_of(0));
  EXPECT_NEAR(
      population.empirical_flow()[commodity.paths[before].index()],
      flow_before - population.flow_of(0), 1e-12);
}

// ------------------------------------------------------------ SnapshotStore

TEST(SnapshotStore, EmptyUntilFirstPublish) {
  SnapshotStore store;
  EXPECT_EQ(store.acquire(), nullptr);
}

TEST(SnapshotStore, SwapKeepsOldSnapshotAliveForReaders) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector flow = FlowVector::uniform(instance);

  SnapshotStore store;
  store.publish(std::make_shared<BoardSnapshot>(instance, policy, 1, 0.0,
                                                flow.values()));
  const SnapshotPtr reader = store.acquire();
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->epoch(), 1u);

  store.publish(std::make_shared<BoardSnapshot>(instance, policy, 2, 0.1,
                                                flow.values()));
  // The old epoch stays valid for the reader that pinned it.
  EXPECT_EQ(reader->epoch(), 1u);
  EXPECT_EQ(store.acquire()->epoch(), 2u);
  EXPECT_DOUBLE_EQ(reader->board().posted_at(), 0.0);
}

TEST(SnapshotStore, ConcurrentReadersAndPublisher) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector flow = FlowVector::uniform(instance);

  SnapshotStore store;
  store.publish(std::make_shared<BoardSnapshot>(instance, policy, 0, 0.0,
                                                flow.values()));
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store] {
      for (int i = 0; i < 2000; ++i) {
        const SnapshotPtr snapshot = store.acquire();
        ASSERT_NE(snapshot, nullptr);
        // The pinned snapshot is internally consistent at all times.
        ASSERT_EQ(snapshot->board().posted_at(),
                  0.1 * static_cast<double>(snapshot->epoch()));
      }
    });
  }
  for (std::uint64_t e = 1; e <= 500; ++e) {
    store.publish(std::make_shared<BoardSnapshot>(
        instance, policy, e, 0.1 * static_cast<double>(e), flow.values()));
  }
  for (std::thread& t : readers) t.join();
}

TEST(BoardSnapshot, CdfIsMonotoneAndEndsAtOne) {
  const Instance instance = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector flow = FlowVector::uniform(instance);
  const BoardSnapshot snapshot(instance, policy, 0, 0.0, flow.values());
  const std::span<const double> cdf = snapshot.cdf(CommodityId{std::size_t{0}});
  ASSERT_EQ(cdf.size(), 8u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_GE(cdf.back(), 1.0);
}

// ----------------------------------------------------------------- FlowLedger

TEST(FlowLedger, FoldsShardsInOrderAndResets) {
  FlowLedger ledger(3, 4);
  std::vector<double> flow = {1.0, 2.0, 3.0};
  ledger.add(0, 0, +0.5);
  ledger.add(3, 0, -0.25);
  ledger.add(1, 2, +1.0);
  ledger.count_query(0, true);
  ledger.count_query(3, false);

  const FlowLedger::Totals totals = ledger.fold_into(flow);
  EXPECT_EQ(totals.queries, 2u);
  EXPECT_EQ(totals.migrations, 1u);
  EXPECT_DOUBLE_EQ(flow[0], 1.25);
  EXPECT_DOUBLE_EQ(flow[1], 2.0);
  EXPECT_DOUBLE_EQ(flow[2], 4.0);

  // Folding again is a no-op: the ledger reset.
  const FlowLedger::Totals empty = ledger.fold_into(flow);
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_DOUBLE_EQ(flow[0], 1.25);
}

TEST(FlowLedger, RejectsZeroShards) {
  EXPECT_THROW(FlowLedger(3, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ Workloads

TEST(Workload, PoissonIsDeterministicWithMeanNearRate) {
  const WorkloadPtr workload = poisson_workload(1000.0);
  Rng rng_a(5);
  Rng rng_b(5);
  const LoadFeedback none;
  double total = 0.0;
  for (std::uint64_t e = 0; e < 200; ++e) {
    const std::size_t a = workload->arrivals(e, 0.0, 0.1, none, rng_a);
    EXPECT_EQ(a, workload->arrivals(e, 0.0, 0.1, none, rng_b));
    total += static_cast<double>(a);
  }
  // Mean 100 per epoch; the average over 200 epochs concentrates.
  EXPECT_NEAR(total / 200.0, 100.0, 5.0);
}

TEST(Workload, PoissonDrawSmallAndLargeMeans) {
  Rng rng(11);
  double small = 0.0;
  double large = 0.0;
  for (int i = 0; i < 4000; ++i) {
    small += static_cast<double>(poisson_draw(2.0, rng));
    large += static_cast<double>(poisson_draw(400.0, rng));
  }
  EXPECT_NEAR(small / 4000.0, 2.0, 0.15);
  EXPECT_NEAR(large / 4000.0, 400.0, 4.0);
  EXPECT_EQ(poisson_draw(0.0, rng), 0u);
}

TEST(Workload, BurstyAlternatesRates) {
  const WorkloadPtr workload = bursty_workload(10000.0, 0.0, 2, 3);
  Rng rng(1);
  const LoadFeedback none;
  for (std::uint64_t e = 0; e < 10; ++e) {
    const std::size_t n = workload->arrivals(e, 0.0, 1.0, none, rng);
    if (e % 5 < 2) {
      EXPECT_GT(n, 0u) << "epoch " << e;
    } else {
      EXPECT_EQ(n, 0u) << "epoch " << e;
    }
  }
}

TEST(Workload, DiurnalPeaksMidDay) {
  const WorkloadPtr workload = diurnal_workload(1000.0, 0.9, 4.0);
  Rng rng(3);
  const LoadFeedback none;
  // Peak of sin at t = day/4 = 1.0; trough at t = 3.0.
  const std::size_t peak = workload->arrivals(0, 0.95, 0.1, none, rng);
  const std::size_t trough = workload->arrivals(0, 2.95, 0.1, none, rng);
  EXPECT_GT(peak, trough);
}

TEST(Workload, ClosedLoopIsConstant) {
  const WorkloadPtr workload = closed_loop_workload(123);
  Rng rng(1);
  const LoadFeedback none;
  for (std::uint64_t e = 0; e < 5; ++e) {
    EXPECT_EQ(workload->arrivals(e, 0.0, 0.1, none, rng), 123u);
  }
}

TEST(Workload, ClosedLoopLatencyShedsLoadUnderCongestion) {
  // 1000 clients, base think time 0.5: the first epoch (no served
  // latency yet) offers 1000 * 0.1 / 0.5 = 200 queries; a served median
  // of 0.5 halves the rate; rising latency sheds further load. No rng
  // draws — the feedback loop is fully deterministic.
  const WorkloadPtr workload = closed_loop_latency_workload(1000, 0.5);
  Rng rng(1);
  LoadFeedback feedback;
  EXPECT_EQ(workload->arrivals(0, 0.0, 0.1, feedback, rng), 200u);
  feedback.has_previous = true;
  feedback.route_p50 = 0.5;
  EXPECT_EQ(workload->arrivals(1, 0.1, 0.1, feedback, rng), 100u);
  feedback.route_p50 = 1.5;
  EXPECT_EQ(workload->arrivals(2, 0.2, 0.1, feedback, rng), 50u);
  EXPECT_EQ(workload->name(), "closed-loop-lat:1000,0.5");
  EXPECT_THROW(closed_loop_latency_workload(1000, 0.0),
               std::invalid_argument);
}

TEST(Workload, MakeWorkloadParsesAndRejects) {
  EXPECT_EQ(make_workload("poisson:500")->name(), "poisson:500");
  EXPECT_EQ(make_workload("bursty:10,1,5,5")->name(), "bursty:10,1,5,5");
  EXPECT_EQ(make_workload("diurnal:100,0.5,24")->name(),
            "diurnal:100,0.5,24");
  EXPECT_EQ(make_workload("closed-loop:42")->name(), "closed-loop:42");
  EXPECT_EQ(make_workload("closed-loop-lat:500,0.2")->name(),
            "closed-loop-lat:500,0.2");
  EXPECT_THROW(make_workload("poison:500"), std::invalid_argument);
  EXPECT_THROW(make_workload("poisson"), std::invalid_argument);
  EXPECT_THROW(make_workload("poisson:-3"), std::invalid_argument);
  EXPECT_THROW(make_workload("bursty:1,2,3"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop:nope"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop-lat:500"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop-lat:500,0"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- RouteServer

RouteServerOptions small_options() {
  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = 30;
  options.num_clients = 1000;
  options.shards = 8;
  options.threads = 1;
  options.seed = 17;
  options.record_latency = false;
  return options;
}

TEST(RouteServer, RejectsBadOptionsAtTheServiceBoundary) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(100);
  RouteServer server(instance, policy, *workload);
  const FlowVector initial = FlowVector::uniform(instance);

  RouteServerOptions options = small_options();
  options.update_period = 0.0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.update_period = -0.1;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  options.epochs = 0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  options.shards = options.num_clients + 1;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.shards = 0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  options.record_latency = true;
  options.latency_sample_every = 0;  // would be a modulo-by-zero
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  FlowVector infeasible(instance);  // all-zero: violates demands
  EXPECT_THROW(server.run(infeasible, options), std::invalid_argument);
}

TEST(RouteServer, LatencyFeedbackClosesTheLoopDeterministically) {
  // The served p50 rises above zero immediately, so from epoch 1 on the
  // latency-fed fleet offers strictly less than its uncongested rate —
  // and the whole trajectory replays bit-for-bit.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_latency_workload(4000, 0.1);
  RouteServerOptions options = small_options();
  options.epochs = 10;

  std::vector<std::size_t> reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    ASSERT_EQ(result.epochs.size(), 10u);
    // Epoch 0 pays no latency: 4000 * 0.1 / 0.1 = 4000 queries.
    EXPECT_EQ(result.epochs[0].queries, 4000u);
    for (std::size_t e = 1; e < result.epochs.size(); ++e) {
      EXPECT_LT(result.epochs[e].queries, 4000u) << e;
      EXPECT_GT(result.epochs[e].queries, 0u) << e;
    }
    if (repeat == 0) {
      for (const EpochSummary& epoch : result.epochs) {
        reference.push_back(epoch.queries);
      }
    } else {
      for (std::size_t e = 0; e < result.epochs.size(); ++e) {
        EXPECT_EQ(result.epochs[e].queries, reference[e]) << e;
      }
    }
  }
}

TEST(RouteServer, ServesEveryArrivalAndConservesFlow) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(500);
  RouteServer server(instance, policy, *workload);

  const RouteServerOptions options = small_options();
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);

  EXPECT_EQ(result.total_queries, 500u * options.epochs);
  EXPECT_EQ(result.epochs.size(), options.epochs);
  EXPECT_TRUE(is_feasible(instance, result.final_flow.values(), 1e-7));
  EXPECT_GT(result.total_migrations, 0u);
  EXPECT_LE(result.total_migrations, result.total_queries);
  // The published snapshot advanced to the last fold.
  ASSERT_NE(server.snapshot(), nullptr);
  EXPECT_EQ(server.snapshot()->epoch(), options.epochs);
}

TEST(RouteServer, ClosesTheLoopTowardEquilibrium) {
  // Enough traffic per epoch for the replicator dynamics to descend: the
  // Wardrop gap at the end is well below the uniform split's.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(4000);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();
  options.epochs = 60;
  options.num_clients = 4000;
  const FlowVector initial = FlowVector::uniform(instance);
  const double initial_gap = wardrop_gap(instance, initial.values());
  const RouteServerResult result = server.run(initial, options);

  EXPECT_LT(result.final_gap, 0.25 * initial_gap);
  // Telemetry is self-consistent.
  for (const EpochSummary& e : result.epochs) {
    EXPECT_GE(e.migration_rate, 0.0);
    EXPECT_LE(e.migration_rate, 1.0);
    EXPECT_GE(e.board_latency, 0.0);
    // Route-latency quantiles are populated (every query records one) and
    // ordered.
    EXPECT_GT(e.route_p50, 0.0);
    EXPECT_LE(e.route_p50, e.route_p99);
    EXPECT_LE(e.route_p99, e.route_p999);
  }
  // The run-level histogram holds exactly one sample per query and its
  // extremes bracket the per-epoch medians.
  EXPECT_EQ(result.route_latency.count(), result.total_queries);
  EXPECT_LE(result.route_latency.min(), result.epochs.front().route_p50);
  EXPECT_GE(result.route_latency.max(), result.epochs.back().route_p50);
}

TEST(RouteServer, DeterministicAcrossThreadCounts) {
  const Instance instance = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = make_workload("poisson:20000");

  RouteServerOptions options = small_options();
  options.num_clients = 2000;
  options.epochs = 20;

  std::vector<EpochSummary> reference;
  std::vector<double> reference_flow;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    if (threads == 1) {
      reference = result.epochs;
      reference_flow.assign(result.final_flow.values().begin(),
                            result.final_flow.values().end());
      continue;
    }
    // Bit-identical dynamics: digest, counters and the final flow.
    EXPECT_EQ(telemetry_digest(result.epochs),
              telemetry_digest(reference));
    ASSERT_EQ(result.epochs.size(), reference.size());
    for (std::size_t e = 0; e < reference.size(); ++e) {
      EXPECT_EQ(result.epochs[e].queries, reference[e].queries);
      EXPECT_EQ(result.epochs[e].migrations, reference[e].migrations);
      EXPECT_EQ(result.epochs[e].wardrop_gap, reference[e].wardrop_gap);
      // The histogram-backed route quantiles are part of the contract:
      // bit-equal, not approximately equal.
      EXPECT_EQ(result.epochs[e].route_p50, reference[e].route_p50);
      EXPECT_EQ(result.epochs[e].route_p99, reference[e].route_p99);
      EXPECT_EQ(result.epochs[e].route_p999, reference[e].route_p999);
    }
    for (std::size_t p = 0; p < reference_flow.size(); ++p) {
      EXPECT_EQ(result.final_flow.values()[p], reference_flow[p]);
    }
  }
}

TEST(RouteServer, ReplayCsvIsByteIdenticalForOneAndFourThreads) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = make_workload("bursty:30000,5000,3,2");

  RouteServerOptions options = small_options();
  options.epochs = 25;

  const std::string path1 = "service_replay_t1.csv";
  const std::string path4 = "service_replay_t4.csv";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    write_epoch_csv(threads == 1 ? path1 : path4, result.epochs,
                    /*include_timing=*/false);
  }
  const std::string csv1 = slurp(path1);
  const std::string csv4 = slurp(path4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(RouteServer, LatencyRecordingPopulatesWallClockFields) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(2000);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();
  options.epochs = 5;
  options.record_latency = true;
  options.latency_sample_every = 8;
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);

  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.queries_per_second, 0.0);
  EXPECT_GE(result.p99_us, result.p50_us);
  EXPECT_GE(result.p999_us, result.p99_us);
  EXPECT_GT(result.p50_us, 0.0);
  // Quantiles come from the merged wall-clock histogram: one sample per
  // timed query (every latency_sample_every-th of each shard).
  EXPECT_FALSE(result.wall_latency_us.empty());
  EXPECT_LE(result.wall_latency_us.count(), result.total_queries);
  EXPECT_DOUBLE_EQ(result.p50_us, result.wall_latency_us.quantile(0.5));
}

TEST(RouteServer, ReplayModeLeavesWallClockFieldsZeroed) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(500);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();  // record_latency = false
  options.epochs = 3;
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);
  EXPECT_TRUE(result.wall_latency_us.empty());
  EXPECT_EQ(result.p50_us, 0.0);
  EXPECT_EQ(result.p999_us, 0.0);
  // ...while the deterministic route histogram is still fully populated.
  EXPECT_EQ(result.route_latency.count(), result.total_queries);
  for (const EpochSummary& e : result.epochs) {
    EXPECT_EQ(e.p50_us, 0.0);
    EXPECT_GT(e.route_p50, 0.0);
  }
}

// ------------------------------------------------------ --tenants grammar

TEST(TenantSpecs, ParsesNamesFieldsAndInheritance) {
  const std::vector<TenantSpec> specs = parse_tenant_specs(
      "plain;"
      "big:clients=5000,shards=16,epochs=40,seed=9,weight=3,period=0.05;"
      "custom:scenario=braess,policy=alpha:0.5,workload=closed-loop:200");
  ASSERT_EQ(specs.size(), 3u);

  EXPECT_EQ(specs[0].name, "plain");  // all fields inherit
  EXPECT_TRUE(specs[0].scenario.empty());
  EXPECT_FALSE(specs[0].clients.has_value());
  EXPECT_FALSE(specs[0].seed.has_value());
  EXPECT_FALSE(specs[0].sub_batch_auto);

  EXPECT_EQ(specs[1].name, "big");
  EXPECT_EQ(specs[1].clients, 5000u);
  EXPECT_EQ(specs[1].shards, 16u);
  EXPECT_EQ(specs[1].epochs, 40u);
  EXPECT_EQ(specs[1].seed, 9u);
  EXPECT_EQ(specs[1].weight, 3u);
  EXPECT_EQ(specs[1].period, 0.05);

  EXPECT_EQ(specs[2].scenario, "braess");
  EXPECT_EQ(specs[2].policy, "alpha:0.5");
  EXPECT_EQ(specs[2].workload, "closed-loop:200");
}

TEST(TenantSpecs, CommaValuesContinueThePreviousField) {
  // A workload spec's own commas must survive the field split.
  const std::vector<TenantSpec> specs = parse_tenant_specs(
      "bursty:workload=bursty:40000,2000,3,2,shards=8;"
      "diurnal:workload=diurnal:1000,0.5,24");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].workload, "bursty:40000,2000,3,2");
  EXPECT_EQ(specs[0].shards, 8u);
  EXPECT_EQ(specs[1].workload, "diurnal:1000,0.5,24");
}

TEST(TenantSpecs, SubBatchTakesCountOrAuto) {
  const std::vector<TenantSpec> specs =
      parse_tenant_specs("fixed:sub-batch=512;adaptive:sub-batch=auto");
  EXPECT_EQ(specs[0].sub_batch, 512u);
  EXPECT_FALSE(specs[0].sub_batch_auto);
  EXPECT_FALSE(specs[1].sub_batch.has_value());
  EXPECT_TRUE(specs[1].sub_batch_auto);
}

TEST(TenantSpecs, RejectsMalformedSpecs) {
  // Zero tenants.
  EXPECT_THROW(parse_tenant_specs(""), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs(";;"), std::invalid_argument);
  // Bad names.
  EXPECT_THROW(parse_tenant_specs(":clients=5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("has space:clients=5"),
               std::invalid_argument);
  // Duplicate names.
  EXPECT_THROW(parse_tenant_specs("a;b;a"), std::invalid_argument);
  // Unknown key, missing '=', empty value, bad numbers.
  EXPECT_THROW(parse_tenant_specs("a:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:justvalue"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients="), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients=-5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients=many"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:period=fast"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:sub-batch=never"),
               std::invalid_argument);
  // The error message lists the key catalogue (the CLI surfaces it).
  try {
    parse_tenant_specs("a:bogus=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sub-batch"), std::string::npos);
  }
}

// ------------------------------------------------------ client table

/// Serves a multi-commodity instance (the 3x3 grid with two border-pair
/// commodities) and collects every epoch's checkpoint.
struct GridRun {
  Instance instance = make_grid();
  Policy policy = make_replicator_policy(instance);
  WorkloadPtr workload = make_workload("closed-loop:1500");
  RouteServerOptions options = small_options();

  static Instance make_grid() {
    Rng rng(3);
    return ScenarioRegistry::builtin().at("multicommodity-grid-3x3").make(rng);
  }

  RouteServerResult run(std::vector<EngineCheckpoint>* cuts,
                        std::span<const EngineCheckpoint> resume = {}) {
    RouteServer server(instance, policy, *workload);
    RoundCutObserver observer;
    if (cuts != nullptr) {
      observer = [cuts](const RoundCheckpoint& round) {
        for (const auto& [tenant, cut] : round.cuts) cuts->push_back(cut);
      };
    }
    return server.run(FlowVector::uniform(instance), options, nullptr,
                      observer, resume);
  }
};

/// Checkpoint -> restore -> continue equals the uninterrupted run for
/// shard counts that do not divide the fleet, one shard, and one client
/// per shard — the shapes of the engine's shard-major client table.
TEST(ClientTable, CheckpointRestoreContinueIsBitIdentical) {
  struct Shape {
    std::size_t clients;
    std::size_t shards;
    std::size_t sub_batch;
  };
  for (const Shape shape : {Shape{1003, 7, 16384}, Shape{1003, 7, 40},
                            Shape{500, 1, 16384}, Shape{64, 64, 16384}}) {
    GridRun fixture;
    fixture.options.num_clients = shape.clients;
    fixture.options.shards = shape.shards;
    fixture.options.sub_batch_queries = shape.sub_batch;
    fixture.options.epochs = 12;
    std::vector<EngineCheckpoint> cuts;
    const RouteServerResult full = fixture.run(&cuts);
    ASSERT_EQ(cuts.size(), fixture.options.epochs);
    ASSERT_GT(full.total_migrations, 0u) << shape.clients;
    const std::uint64_t golden = telemetry_digest(full.epochs);
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{11}}) {
      const RouteServerResult resumed =
          fixture.run(nullptr, std::span(cuts).subspan(0, k));
      const std::string label = std::to_string(shape.clients) + " clients, " +
                                std::to_string(shape.shards) +
                                " shards, cut " + std::to_string(k);
      EXPECT_EQ(telemetry_digest(resumed.epochs), golden) << label;
      EXPECT_TRUE(resumed.route_latency == full.route_latency) << label;
      EXPECT_TRUE(std::equal(resumed.final_flow.values().begin(),
                             resumed.final_flow.values().end(),
                             full.final_flow.values().begin(),
                             full.final_flow.values().end()))
          << label;
      // The resumed run's own cuts continue the original's exactly,
      // client paths included.
      std::vector<EngineCheckpoint> resumed_cuts;
      fixture.run(&resumed_cuts, std::span(cuts).subspan(0, k));
      ASSERT_EQ(resumed_cuts.size(), cuts.size() - k) << label;
      EXPECT_EQ(resumed_cuts.back().client_paths, cuts.back().client_paths)
          << label;
    }
  }
}

/// The first epoch served by a plain client-id-indexed reference: a
/// Population in client-id order, shard s owning clients s, s + shards,
/// ..., each sub-batch drawing client ids from its slice with
/// Rng::below — the engine's plan and streams, without its table.
std::vector<std::uint32_t> reference_epoch0_paths(GridRun& fixture) {
  const Instance& instance = fixture.instance;
  const RouteServerOptions& options = fixture.options;
  Population population(instance, options.num_clients,
                        FlowVector::uniform(instance).values());
  const BoardSnapshot snapshot(instance, fixture.policy, 0, 0.0,
                               population.empirical_flow());
  const std::span<const double> latency = snapshot.board().path_latency();

  Rng master(options.seed);
  Rng epoch_rng = master.split();
  Rng arrivals_rng = epoch_rng.split();
  const std::size_t total = fixture.workload->arrivals(
      0, 0.0, options.update_period, LoadFeedback{}, arrivals_rng);
  const std::size_t shards = options.shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t batch = total / shards + (s < total % shards ? 1 : 0);
    const std::size_t shard_clients =
        options.num_clients / shards + (s < options.num_clients % shards);
    const std::size_t pieces =
        sub_batch_count(batch, options.sub_batch_queries, shard_clients);
    for (std::size_t piece = 0; piece < pieces; ++piece) {
      const SubRange slice = sub_range(shard_clients, pieces, piece);
      Rng rng = epoch_rng.split();
      for (std::size_t q = 0; q < sub_range(batch, pieces, piece).count;
           ++q) {
        const std::size_t client =
            s + shards * (slice.begin + rng.below(slice.count));
        const CommodityId c = population.commodity_of(client);
        const Commodity& commodity = instance.commodity(c);
        const std::size_t sampled = sample_from_cdf(snapshot.cdf(c), rng);
        const std::size_t current = population.local_path(client);
        if (sampled == current) continue;
        const double mu = fixture.policy.migration().probability(
            latency[commodity.paths[current].index()],
            latency[commodity.paths[sampled].index()]);
        if (rng.bernoulli(mu)) population.reassign(client, sampled);
      }
    }
  }
  std::vector<std::uint32_t> paths(population.size());
  for (std::size_t client = 0; client < paths.size(); ++client) {
    paths[client] = static_cast<std::uint32_t>(population.local_path(client));
  }
  return paths;
}

TEST(ClientTable, CheckpointListsClientPathsInClientIdOrder) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{7},
                                   std::size_t{1003}}) {
    GridRun fixture;
    fixture.options.num_clients = 1003;
    fixture.options.shards = shards;
    fixture.options.sub_batch_queries = 100;  // split the larger shards
    fixture.options.epochs = 1;
    std::vector<EngineCheckpoint> cuts;
    const RouteServerResult result = fixture.run(&cuts);
    ASSERT_EQ(cuts.size(), 1u);
    ASSERT_GT(result.total_migrations, 0u);
    EXPECT_EQ(cuts[0].client_paths, reference_epoch0_paths(fixture))
        << shards << " shards";
  }
}

// ------------------------------------------- BulletinBoard boundary cases

TEST(BulletinBoard, EmptyBeforeFirstPost) {
  const Instance instance = braess(true);
  const BulletinBoard board(instance);
  EXPECT_FALSE(board.has_data());
  EXPECT_DOUBLE_EQ(board.posted_at(), 0.0);
  // Buffers exist (zeroed) so accidental reads are defined, not UB.
  ASSERT_EQ(board.path_latency().size(), instance.path_count());
  for (const double l : board.path_latency()) EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(BulletinBoard, RepostAtIdenticalTimestampRefreshesData) {
  const Instance instance = uniform_parallel_links(2, 0.5, 1.0);
  BulletinBoard board(instance);
  const std::vector<double> even = {0.5, 0.5};
  const std::vector<double> skewed = {1.0, 0.0};
  board.post(1.0, even);
  const double latency_even = board.path_latency()[0];
  board.post(1.0, skewed);  // same timestamp, new flow
  EXPECT_TRUE(board.has_data());
  EXPECT_DOUBLE_EQ(board.posted_at(), 1.0);
  EXPECT_GT(board.path_latency()[0], latency_even);
  EXPECT_DOUBLE_EQ(board.path_flow()[0], 1.0);
}

TEST(BulletinBoard, PostRejectsWrongPathCount) {
  const Instance instance = braess(true);
  BulletinBoard board(instance);
  const std::vector<double> wrong(instance.path_count() + 1, 0.0);
  EXPECT_THROW(board.post(0.0, wrong), std::invalid_argument);
}

TEST(SimulatorBoundary, NonPositiveUpdatePeriodsAreRejected) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector initial = FlowVector::uniform(instance);

  {
    AgentSimOptions options;
    options.update_period = 0.0;
    const AgentSimulator simulator(instance, policy);
    EXPECT_THROW(simulator.run(initial, options), std::invalid_argument);
  }
  {
    // Fluid: 0 selects fresh mode by contract, but negative is an error.
    SimulationOptions options;
    options.update_period = -0.5;
    const FluidSimulator simulator(instance, policy);
    EXPECT_THROW(simulator.run(initial, options), std::invalid_argument);
  }
}

}  // namespace
}  // namespace staleflow
