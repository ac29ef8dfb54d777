// Deterministic fault-injection plane tests (ctest label `faults`, run
// under the sanitizer CI job).
//
// The contract under test (src/faults/): a FaultSchedule is a pure
// function of (spec, seed, epochs) — chaos runs are bit-for-bit
// replayable. Slow/drop-telemetry clauses are digest-neutral; a
// brownout changes ONLY the victim tenant's digest, and a faulted run
// pins to the same bytes at any thread count, through resume, and
// across sweep cells.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "faults/fault_plan.h"
#include "net/flow.h"
#include "net/generators.h"
#include "service/service.h"
#include "sweep/sweep.h"

namespace staleflow {
namespace {

using faults::FaultClause;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultSchedule;
using faults::parse_fault_plan;

// ------------------------------------------------------------------ grammar

TEST(FaultPlanParse, AcceptsEveryClauseKind) {
  const FaultPlan plan = parse_fault_plan(
      "slow:shard=3,us=250,tenant=1,at=2,for=4;"
      "stall:workers=2,ms=50,at=0,for=1;"
      "drop-telemetry:tenant=2,at=5;"
      "brownout:shed=0.5,at=1,for=3;"
      "crash:at=6");
  ASSERT_EQ(plan.clauses.size(), 5u);

  const FaultClause& slow = plan.clauses[0];
  EXPECT_EQ(slow.kind, FaultKind::kShardSlowdown);
  EXPECT_EQ(slow.shard, 3u);
  EXPECT_EQ(slow.slow_us, 250u);
  EXPECT_EQ(slow.tenant, 1u);
  EXPECT_EQ(slow.at, 2u);
  EXPECT_EQ(slow.duration, 4u);

  const FaultClause& stall = plan.clauses[1];
  EXPECT_EQ(stall.kind, FaultKind::kWorkerStall);
  EXPECT_EQ(stall.workers, 2u);
  EXPECT_EQ(stall.stall_ms, 50u);

  const FaultClause& drop = plan.clauses[2];
  EXPECT_EQ(drop.kind, FaultKind::kDropTelemetry);
  EXPECT_EQ(drop.tenant, 2u);
  EXPECT_EQ(drop.at, 5u);
  EXPECT_FALSE(drop.duration.has_value());  // drawn at materialize time

  const FaultClause& brown = plan.clauses[3];
  EXPECT_EQ(brown.kind, FaultKind::kBrownout);
  EXPECT_DOUBLE_EQ(brown.shed, 0.5);
  EXPECT_EQ(brown.tenant, 0u);  // defaulted

  const FaultClause& crash = plan.clauses[4];
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_EQ(crash.at, 6u);
}

TEST(FaultPlanParse, PlusAndSemicolonBothSeparateClauses) {
  // '+' lets one sweep-axis value (split on ';') hold a multi-clause plan.
  const FaultPlan plus = parse_fault_plan(
      "brownout:shed=0.25+slow:shard=0,us=10");
  const FaultPlan semi = parse_fault_plan(
      "brownout:shed=0.25;slow:shard=0,us=10");
  ASSERT_EQ(plus.clauses.size(), 2u);
  ASSERT_EQ(semi.clauses.size(), 2u);
  EXPECT_EQ(plus.clauses[0].kind, semi.clauses[0].kind);
  EXPECT_EQ(plus.clauses[1].kind, semi.clauses[1].kind);
}

TEST(FaultPlanParse, NoneIsTheExplicitHealthyPlan) {
  EXPECT_TRUE(parse_fault_plan("none").empty());
  // A "none" clause mixed into a list is skipped, not an error.
  EXPECT_EQ(parse_fault_plan("none;brownout:shed=0.5").clauses.size(), 1u);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                            // empty spec
      ";",                           // no clauses
      "meteor:strike=1",             // unknown kind
      "slow",                        // missing required keys
      "slow:shard=0",                // missing us
      "slow:shard=0,us=0",           // zero slowdown is not a fault
      "slow:shard=0,us=10,vol=3",    // unknown key
      "stall:workers=0,ms=10",       // zero workers
      "stall:workers=2,ms=0",        // zero sleep
      "brownout",                    // missing shed
      "brownout:shed=0",             // shed outside (0, 1]
      "brownout:shed=1.5",           // shed outside (0, 1]
      "brownout:shed=-0.5",          // shed outside (0, 1]
      "brownout:shed=abc",           // not a number
      "crash",                       // crash needs at
      "crash:at=0",                  // crash before any commit = no-op
      "slow:shard=x,us=10",          // not a number
      "slow:shard=0,us=10,at=",      // empty value
      "brownout:shed=0.5,,at=1",     // empty key=value item
  };
  for (const std::string& spec : bad) {
    EXPECT_THROW(parse_fault_plan(spec), std::invalid_argument) << spec;
  }
}

// -------------------------------------------------------------- materialize

TEST(FaultSchedule, IsAPureFunctionOfSpecSeedEpochs) {
  const FaultPlan plan =
      parse_fault_plan("brownout:shed=0.5;drop-telemetry;slow:shard=1,us=20");
  const FaultSchedule a = FaultSchedule::materialize(plan, 99, 16);
  const FaultSchedule b = FaultSchedule::materialize(plan, 99, 16);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].begin, b.faults()[i].begin) << "clause " << i;
    EXPECT_EQ(a.faults()[i].end, b.faults()[i].end) << "clause " << i;
  }
  // A different seed draws different windows for at least one clause
  // (three independent draws; collision of all three is astronomically
  // unlikely, and deterministic — this is not a flaky assertion).
  bool any_differ = false;
  for (std::uint64_t seed = 100; seed < 110 && !any_differ; ++seed) {
    const FaultSchedule c = FaultSchedule::materialize(plan, seed, 16);
    for (std::size_t i = 0; i < a.faults().size(); ++i) {
      if (c.faults()[i].begin != a.faults()[i].begin ||
          c.faults()[i].end != a.faults()[i].end) {
        any_differ = true;
      }
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultSchedule, DrawnWindowsStayInsideTheRun) {
  const FaultPlan plan = parse_fault_plan("brownout:shed=0.5;drop-telemetry");
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FaultSchedule schedule = FaultSchedule::materialize(plan, seed, 12);
    for (const faults::ActiveFault& fault : schedule.faults()) {
      EXPECT_LT(fault.begin, 12u) << "seed " << seed;
      EXPECT_GT(fault.end, fault.begin) << "seed " << seed;
    }
  }
}

TEST(FaultSchedule, PinnedWindowsAreKeptVerbatim) {
  const FaultPlan plan =
      parse_fault_plan("brownout:shed=0.5,at=3,for=2;crash:at=5");
  const FaultSchedule schedule = FaultSchedule::materialize(plan, 7, 10);
  ASSERT_EQ(schedule.faults().size(), 2u);
  EXPECT_EQ(schedule.faults()[0].begin, 3u);
  EXPECT_EQ(schedule.faults()[0].end, 5u);
  EXPECT_EQ(schedule.faults()[1].begin, 5u);  // crash: duration pinned to 1

  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 4), 0.5);
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(1, 3), 0.0);  // other tenant

  EXPECT_FALSE(schedule.crash_after(0));  // never before the first commit
  EXPECT_FALSE(schedule.crash_after(4));
  EXPECT_TRUE(schedule.crash_after(5));
  EXPECT_FALSE(schedule.crash_after(6));  // fires exactly once
}

TEST(FaultSchedule, OverlappingClausesCompose) {
  const FaultPlan plan = parse_fault_plan(
      "slow:shard=2,us=100,at=1,for=4;slow:shard=2,us=50,at=3,for=2;"
      "brownout:shed=0.5,at=1,for=2;brownout:shed=0.5,at=1,for=2;"
      "stall:workers=2,ms=30,at=0,for=2;stall:workers=1,ms=80,at=1,for=2");
  const FaultSchedule schedule = FaultSchedule::materialize(plan, 1, 8);

  EXPECT_EQ(schedule.slowdown_us(0, 2, 2), 100u);
  EXPECT_EQ(schedule.slowdown_us(0, 2, 3), 150u);  // windows sum
  EXPECT_EQ(schedule.slowdown_us(0, 3, 3), 0u);    // other shard

  // Two 50% brownouts compose as independent survivor products: 75%.
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(schedule.brownout_shed(0, 3), 0.0);

  const FaultSchedule::Stall at1 = schedule.stall_at(1);
  EXPECT_EQ(at1.workers, 3u);  // workers sum
  EXPECT_EQ(at1.ms, 80u);      // sleeps max
  EXPECT_EQ(schedule.stall_at(3).workers, 0u);
}

TEST(FaultSchedule, RejectsZeroEpochRunsWithClauses) {
  const FaultPlan plan = parse_fault_plan("brownout:shed=0.5");
  EXPECT_THROW(FaultSchedule::materialize(plan, 1, 0), std::invalid_argument);
  EXPECT_TRUE(
      FaultSchedule::materialize(parse_fault_plan("none"), 1, 0).empty());
}

// ---------------------------------------------------- serving digest contract

/// A deterministic single-server run: braess (libm-free dynamics),
/// closed-loop load, replay mode — every telemetry byte reproducible.
struct FaultedRun {
  Instance instance = braess(true);
  Policy policy = named_policy("replicator").make(instance, 0.1);
  WorkloadPtr workload = make_workload("closed-loop:800");
  RouteServerOptions options;

  FaultedRun() {
    options.update_period = 0.1;
    options.epochs = 10;
    options.num_clients = 400;
    options.shards = 4;
    options.threads = 1;
    options.seed = 5;
    options.record_latency = false;
  }

  RouteServerResult run(const FaultSchedule* schedule,
                        const RoundCutObserver& rounds = nullptr,
                        std::span<const EngineCheckpoint> resume = {}) {
    options.faults = schedule;
    RouteServer server(instance, policy, *workload);
    return server.run(FlowVector::uniform(instance), options, nullptr, rounds,
                      resume);
  }
};

TEST(FaultDigest, SlowAndDropClausesAreDigestNeutral) {
  FaultedRun fixture;
  const std::uint64_t healthy =
      telemetry_digest(fixture.run(nullptr).epochs);

  const FaultPlan plan = parse_fault_plan(
      "slow:shard=1,us=30,at=2,for=3;drop-telemetry:at=4,for=2");
  const FaultSchedule schedule =
      FaultSchedule::materialize(plan, fixture.options.seed,
                                 fixture.options.epochs);
  const RouteServerResult faulted = fixture.run(&schedule);
  EXPECT_EQ(telemetry_digest(faulted.epochs), healthy);
  EXPECT_EQ(faulted.epochs.size(), fixture.options.epochs);
}

TEST(FaultDigest, BrownoutShedsDeterministicallyAndRepinnably) {
  FaultedRun fixture;
  const RouteServerResult healthy = fixture.run(nullptr);

  const FaultPlan plan = parse_fault_plan("brownout:shed=0.5,at=3,for=4");
  const FaultSchedule schedule =
      FaultSchedule::materialize(plan, fixture.options.seed,
                                 fixture.options.epochs);
  const RouteServerResult a = fixture.run(&schedule);
  const RouteServerResult b = fixture.run(&schedule);

  // Shedding changes the digest (it IS load shedding)...
  EXPECT_NE(telemetry_digest(a.epochs), telemetry_digest(healthy.epochs));
  EXPECT_LT(a.total_queries, healthy.total_queries);
  // ...but identically on every run of the same (spec, seed, epochs).
  EXPECT_EQ(telemetry_digest(a.epochs), telemetry_digest(b.epochs));
  EXPECT_EQ(a.total_queries, b.total_queries);

  // Closed-loop load plans the same arrival count every epoch, so the
  // deficit is exactly 4 epochs x floor(per_epoch * 0.5).
  const std::size_t per_epoch =
      healthy.total_queries / fixture.options.epochs;
  EXPECT_EQ(healthy.total_queries - a.total_queries, 4u * (per_epoch / 2));
}

TEST(FaultDigest, FaultedRunIsThreadCountIndependent) {
  const FaultPlan plan = parse_fault_plan(
      "brownout:shed=0.25,at=2,for=3;slow:shard=0,us=20");
  std::map<std::size_t, std::uint64_t> digests;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    FaultedRun fixture;
    fixture.options.threads = threads;
    fixture.options.sub_batch_queries = 64;  // force real sub-batch fan-out
    const FaultSchedule schedule =
        FaultSchedule::materialize(plan, fixture.options.seed,
                                   fixture.options.epochs);
    digests[threads] = telemetry_digest(fixture.run(&schedule).epochs);
  }
  EXPECT_EQ(digests[1], digests[8]);
}

TEST(FaultDigest, ResumedFaultedRunMatchesUninterruptedFaultedRun) {
  // The --resume contract under faults: a run killed at a commit point
  // and resumed under the SAME re-materialized schedule finishes with
  // the uninterrupted faulted run's exact bytes.
  FaultedRun fixture;
  const FaultPlan plan = parse_fault_plan("brownout:shed=0.5,at=3,for=4");
  const FaultSchedule schedule =
      FaultSchedule::materialize(plan, fixture.options.seed,
                                 fixture.options.epochs);

  std::vector<EngineCheckpoint> cuts;
  const RouteServerResult full =
      fixture.run(&schedule, [&cuts](const RoundCheckpoint& round) {
        cuts.push_back(round.cuts.front().second);
      });
  const std::uint64_t golden = telemetry_digest(full.epochs);
  ASSERT_EQ(cuts.size(), fixture.options.epochs);

  // Resume from every cut — including cuts inside the brownout window —
  // against a freshly materialized schedule (what do_resume builds from
  // the WAL header's spec + seed + epochs).
  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const FaultSchedule rebuilt =
        FaultSchedule::materialize(parse_fault_plan(plan.spec),
                                   fixture.options.seed,
                                   fixture.options.epochs);
    const RouteServerResult resumed =
        fixture.run(&rebuilt, nullptr, std::span(cuts).subspan(0, k));
    EXPECT_EQ(telemetry_digest(resumed.epochs), golden) << "cut " << k;
    EXPECT_EQ(resumed.total_queries, full.total_queries) << "cut " << k;
  }
}

// ------------------------------------------------------- tenant isolation

/// Builds a two-tenant fleet and returns each tenant's digest. The
/// schedule (when non-null) is wired exactly the way route_server_cli
/// does it: every tenant's options point at the one shared schedule.
std::map<std::string, std::uint64_t> run_pair(const FaultSchedule* schedule,
                                              std::size_t threads) {
  Instance braess_net = braess(true);
  Policy braess_policy = named_policy("replicator").make(braess_net, 0.1);
  WorkloadPtr braess_load = make_workload("closed-loop:1200");

  Instance links = uniform_parallel_links(8, 0.5, 1.0);
  Policy links_policy = named_policy("alpha:0.5").make(links, 0.1);
  WorkloadPtr links_load = make_workload("closed-loop:900");

  TenantOptions base;
  base.server.update_period = 0.1;
  base.server.epochs = 10;
  base.server.num_clients = 600;
  base.server.shards = 4;
  base.server.record_latency = false;
  base.server.faults = schedule;

  TenantOptions victim = base;
  victim.server.seed = 21;
  TenantOptions bystander = base;
  bystander.server.seed = 22;

  TenantRegistry registry;
  registry.add("victim", braess_net, braess_policy, *braess_load, victim);
  registry.add("bystander", links, links_policy, *links_load, bystander);

  Executor executor(threads);
  if (schedule != nullptr && !schedule->empty()) {
    executor.set_fault_schedule(schedule);
  }
  const MultiTenantResult result = registry.run(executor);
  std::map<std::string, std::uint64_t> digests;
  for (const TenantResult& tenant : result.tenants) {
    digests[tenant.name] = telemetry_digest(tenant.server.epochs);
  }
  return digests;
}

TEST(FaultIsolation, BrownoutTouchesOnlyTheVictimTenant) {
  const auto healthy = run_pair(nullptr, 1);

  // Tenant 0 ("victim" — registry order is insertion order) browns out;
  // the co-scheduled bystander must not notice, byte for byte.
  const FaultPlan plan =
      parse_fault_plan("brownout:shed=0.5,tenant=0,at=2,for=5");
  const FaultSchedule schedule = FaultSchedule::materialize(plan, 21, 10);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto faulted = run_pair(&schedule, threads);
    EXPECT_NE(faulted.at("victim"), healthy.at("victim"))
        << "threads " << threads;
    EXPECT_EQ(faulted.at("bystander"), healthy.at("bystander"))
        << "threads " << threads;
  }
}

TEST(FaultIsolation, WorkerStallIsDigestNeutralForEveryTenant) {
  const auto healthy = run_pair(nullptr, 4);
  // Hold 2 of 4 workers for the first few scheduled graphs: pure
  // wall-clock pressure on the shared pool.
  const FaultPlan plan = parse_fault_plan("stall:workers=2,ms=5,at=0,for=3");
  const FaultSchedule schedule = FaultSchedule::materialize(plan, 21, 10);
  const auto stalled = run_pair(&schedule, 4);
  EXPECT_EQ(stalled.at("victim"), healthy.at("victim"));
  EXPECT_EQ(stalled.at("bystander"), healthy.at("bystander"));
}

// ------------------------------------------------------------ sweep axis

ExperimentSpec chaos_sweep_spec() {
  ExperimentSpec spec;
  spec.simulator = SimulatorKind::kService;
  spec.scenarios = {"braess"};
  spec.policies = {named_policy("replicator")};
  spec.update_periods = {0.1};
  spec.replicas = 1;
  spec.horizon = 1.0;  // 10 epochs
  spec.workloads = {"closed-loop:1000"};
  spec.shard_counts = {4};
  spec.num_clients = 500;
  spec.fault_specs = {"none", "brownout:shed=0.5,at=2,for=4"};
  return spec;
}

TEST(FaultSweep, ExpandsTheFaultAxisInCanonicalOrder) {
  const ExperimentSpec spec = chaos_sweep_spec();
  const std::vector<CellSpec> cells =
      expand(spec, ScenarioRegistry::builtin());
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].faults, "none");
  EXPECT_EQ(cells[1].faults, "brownout:shed=0.5,at=2,for=4");
  EXPECT_EQ(cell_count(spec), 2u);
}

TEST(FaultSweep, RejectsCrashStallAndDuplicateAxisValues) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  ExperimentSpec spec = chaos_sweep_spec();
  spec.fault_specs = {"crash:at=3"};
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  spec.fault_specs = {"stall:workers=1,ms=10"};
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  spec.fault_specs = {"none", "none"};
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  spec.fault_specs = {"meteor"};
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  // The axis is service-only, like workloads/shards/tenants.
  ExperimentSpec fluid = chaos_sweep_spec();
  fluid.simulator = SimulatorKind::kFluid;
  fluid.workloads.clear();
  fluid.shard_counts.clear();
  EXPECT_THROW(expand(fluid, registry), std::invalid_argument);
}

TEST(FaultSweep, ChaosCellsDifferFromHealthyAndPinAcrossThreads) {
  const ExperimentSpec spec = chaos_sweep_spec();
  const SweepRunner runner;
  const SweepResult one = runner.run(spec, 1);
  const SweepResult four = runner.run(spec, 4);
  ASSERT_EQ(one.cells.size(), 2u);
  ASSERT_TRUE(one.cells[0].ok) << one.cells[0].error;
  ASSERT_TRUE(one.cells[1].ok) << one.cells[1].error;

  // The healthy and browned-out cells disagree (the fault axis is real)...
  EXPECT_NE(one.cells[0].queries, one.cells[1].queries);
  // ...and the whole chaos sweep pins across thread counts.
  EXPECT_EQ(cells_digest(one), cells_digest(four));
}

}  // namespace
}  // namespace staleflow
