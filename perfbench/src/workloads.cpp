#include "workloads.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <numeric>
#include <span>

#include "stats.h"

namespace perfbench {

using namespace staleflow;

namespace {

double seconds_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Step figures from the step-callback timestamps of one run that
/// started constructing its inputs at `start_ns`; `cycle` callbacks make
/// one step (see schedule_cycle).
void fill_steps(RunSample& sample, std::uint64_t start_ns,
                const std::vector<std::uint64_t>& at_ns,
                const std::vector<std::uint64_t>& queries,
                std::size_t cycle) {
  sample.steps = at_ns.size();
  if (at_ns.empty()) return;
  sample.setup_s = seconds_between(start_ns, at_ns.front());
  std::vector<double> between(at_ns.size(), 0.0);
  for (std::size_t i = 1; i < at_ns.size(); ++i) {
    between[i] = seconds_between(at_ns[i - 1], at_ns[i]);
  }
  sample.step_s = per_cycle(between, cycle);
  const std::vector<double> served =
      per_cycle(std::vector<double>(queries.begin(), queries.end()), cycle);
  double wall = 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < served.size(); ++j) {
    wall += sample.step_s[j];
    total += served[j];
  }
  sample.queries_per_s = wall > 0.0 ? total / wall : 0.0;
}

/// Builds every tenant's inputs into `hosts` (stable addresses: the
/// registry borrows them) and registers it with `registry`.
void add_tenants(const std::vector<TenantDef>& tenants, std::uint64_t seed,
                 std::deque<Host>& hosts, TenantRegistry& registry) {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    hosts.push_back(make_host(tenants[i], i, seed));
    TenantOptions options;
    options.server = hosts.back().options;
    options.weight = tenants[i].weight;
    registry.add(tenants[i].name, hosts.back().instance, hosts.back().policy,
                 *hosts.back().workload, options);
  }
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  // Sizes per step follow the regimes the workloads exist for; epochs
  // per run are chosen so one run takes a fraction of a second and a
  // measured window holds many runs (medians over runs, pooled steps).
  // The pinned digests are what route_server_cli prints for the same
  // configuration at --seed 1 (tenants via --tenants) on any --threads;
  // the prefix pins are its digests at --epochs <side_steps>.
  static const std::vector<WorkloadDef> defs = {
      {"bulk-serve",
       "large epochs: the per-query serve loop does nearly all the work",
       false,
       {{"bulk-serve", "random-links-32", "replicator", "closed-loop:100000",
         200'000, 32, 16384, 1, 150}},
       16,
       {0xd356210e0517b7f1},
       0x4eddfb8a5b8585f1},
      {"fine-epochs",
       "tiny epochs: fixed per-epoch costs (plan, graph, fold, board, "
       "summary) dominate",
       false,
       {{"fine-epochs", "multicommodity-grid-3x3", "replicator",
         "closed-loop:200", 4'000, 8, 16384, 1, 3000}},
       400,
       {0xbee5603da6188ef4},
       0xb01bd7b87f20c314},
      {"logged-tenants",
       "three tenants on one executor with a WAL: scheduler, combined "
       "graphs, forced splits, latency feedback and log writes",
       true,
       {{"edge", "random-links-32", "replicator", "bursty:1500000,150000,3,2",
         40'000, 16, 4096, 1, 505, 5},
        {"core", "multicommodity-grid-3x3", "replicator",
         "closed-loop-lat:40000,0.02", 10'000, 16, 16384, 2, 1010},
        {"tiny", "braess", "replicator", "closed-loop:2000", 2'000, 16, 16384,
         1, 505}},
       0,
       {0x16c237137bcce726, 0x84a4ff088f2b1408, 0xe57c7e67db4f5595}},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& def : workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

Host make_host(const TenantDef& tenant, std::size_t index,
               std::uint64_t seed) {
  // The construction order of route_server_cli's make_host: scenario,
  // then policy, then workload.
  Rng scenario_rng(instance_seed(index));
  Instance instance =
      ScenarioRegistry::builtin().at(tenant.scenario).make(scenario_rng);
  Policy policy = named_policy(tenant.policy).make(instance, 0.1);
  WorkloadPtr workload = make_workload(tenant.workload);
  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = tenant.epochs;
  options.num_clients = tenant.clients;
  options.shards = tenant.shards;
  options.sub_batch_queries = tenant.sub_batch;
  options.seed = tenant_seed(seed, index);
  return Host{std::move(instance), std::move(policy), std::move(workload),
              options};
}

RunSample run_solo(const WorkloadDef& def, std::uint64_t seed,
                   Executor& executor, const Inspect& inspect) {
  const TenantDef& tenant = def.tenants.front();
  std::vector<std::uint64_t> at_ns;
  std::vector<std::uint64_t> queries;
  at_ns.reserve(tenant.epochs);
  queries.reserve(tenant.epochs);

  const std::uint64_t start_ns = trace::now_ns();
  Host host = make_host(tenant, 0, seed);
  host.options.executor = &executor;
  RouteServer server(host.instance, host.policy, *host.workload);
  const RouteServerResult result = server.run(
      FlowVector::uniform(host.instance), host.options,
      [&](const EpochSummary& epoch) {
        at_ns.push_back(trace::now_ns());
        queries.push_back(epoch.queries);
      });

  RunSample sample;
  fill_steps(sample, start_ns, at_ns, queries, 1);
  sample.digests = {telemetry_digest(result.epochs)};
  if (inspect) inspect(host, server.snapshot());
  return sample;
}

RunSample run_logged(const std::vector<TenantDef>& tenants,
                     std::uint64_t seed, Executor& executor,
                     const std::string& wal_path, const Inspect& inspect) {
  std::vector<std::uint64_t> at_ns;
  std::vector<std::uint64_t> queries;
  std::vector<double> log_s;
  RunSample sample;
  // A fresh file rather than a truncated one: ext4 writes a file that was
  // truncated and rewritten back to disk when it is closed, which would
  // put one disk write of the whole WAL behind every run.
  std::filesystem::remove(wal_path);

  const std::uint64_t start_ns = trace::now_ns();
  std::deque<Host> hosts;
  TenantRegistry registry;
  add_tenants(tenants, seed, hosts, registry);
  recovery::RunManifest manifest;
  manifest.multi_tenant = true;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    manifest.tenants.push_back({tenants[i].name, tenants[i].scenario,
                                tenants[i].policy, tenants[i].workload,
                                hosts[i].options, tenants[i].weight});
  }
  recovery::WalLog wal(wal_path, manifest);

  std::uint64_t round_queries = 0;
  const MultiTenantResult result = registry.run(
      executor,
      [&](std::size_t, const EpochSummary& epoch) {
        round_queries += epoch.queries;
      },
      [&](const RoundCheckpoint& round) {
        const std::uint64_t now = trace::now_ns();
        at_ns.push_back(now);
        queries.push_back(round_queries);
        round_queries = 0;
        wal.log_round(round);
        log_s.push_back(seconds_between(now, trace::now_ns()));
      });
  wal.finish();

  const std::size_t cycle = schedule_cycle(tenants);
  fill_steps(sample, start_ns, at_ns, queries, cycle);
  // The log call of a round runs right after the round's callback, so
  // it is work the next callback closes (the last one, none).
  if (!log_s.empty()) {
    log_s.pop_back();
    log_s.insert(log_s.begin(), 0.0);
  }
  sample.log_round_s = per_cycle(log_s, cycle);
  for (const TenantResult& tenant : result.tenants) {
    sample.digests.push_back(telemetry_digest(tenant.server.epochs));
  }
  sample.wal_bytes = std::filesystem::file_size(wal_path);
  if (inspect) inspect(hosts.front(), registry.snapshot(0));
  return sample;
}

std::size_t schedule_cycle(const std::vector<TenantDef>& tenants) {
  std::size_t max_weight = 1;
  for (const TenantDef& tenant : tenants) {
    max_weight = std::max(max_weight, tenant.weight);
  }
  std::size_t cycle = max_weight;
  for (const TenantDef& tenant : tenants) {
    // Schedules of W rounds until the tenant's epochs fill whole periods.
    const std::size_t schedules =
        tenant.period / std::gcd(tenant.weight, tenant.period);
    cycle = std::lcm(cycle, max_weight * schedules);
  }
  return cycle;
}

std::vector<TenantDef> logged_tenants(const WorkloadDef& def) {
  if (def.registry) return def.tenants;
  TenantDef side = def.tenants.front();
  side.epochs = def.side_steps;
  return {side};
}

Expected reference_digests(const WorkloadDef& def, std::uint64_t seed) {
  Executor executor(kReferenceThreads);
  Expected expected;
  if (!def.registry) {
    Host host = make_host(def.tenants.front(), 0, seed);
    host.options.executor = &executor;
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), host.options);
    const std::span<const EpochSummary> epochs(result.epochs);
    expected.digests = {telemetry_digest(epochs)};
    expected.prefix = telemetry_digest(
        epochs.first(std::min(def.side_steps, epochs.size())));
    return expected;
  }
  std::deque<Host> hosts;
  TenantRegistry registry;
  add_tenants(def.tenants, seed, hosts, registry);
  const MultiTenantResult result = registry.run(executor);
  for (const TenantResult& tenant : result.tenants) {
    expected.digests.push_back(telemetry_digest(tenant.server.epochs));
  }
  return expected;
}

EngineSample run_engine_loop(const TenantDef& tenant, std::uint64_t seed,
                             Executor& executor) {
  Host host = make_host(tenant, 0, seed);
  SnapshotStore store;
  EpochEngine engine(host.instance, host.policy, *host.workload, store);
  EngineSample sample;
  sample.plan_s.reserve(tenant.epochs);
  sample.graph_s.reserve(tenant.epochs);
  sample.finish_s.reserve(tenant.epochs);
  sample.callback_s.reserve(tenant.epochs);
  sample.step_s.reserve(tenant.epochs);

  const std::uint64_t begin_ns = trace::now_ns();
  engine.begin(FlowVector::uniform(host.instance), host.options);
  sample.begin_s = seconds_between(begin_ns, trace::now_ns());

  std::uint64_t callback_begin = 0;
  std::uint64_t callback_end = 0;
  bool first_callback = true;
  const EpochObserver observer = [&](const EpochSummary&) {
    const std::uint64_t now = trace::now_ns();
    if (!first_callback) {
      sample.step_s.push_back(seconds_between(callback_begin, now));
    }
    first_callback = false;
    callback_begin = now;
    callback_end = trace::now_ns();
  };
  const std::uint64_t run_ns = trace::now_ns();
  while (!engine.done()) {
    TaskGraph graph;
    const std::uint64_t t0 = trace::now_ns();
    engine.add_epoch(graph);
    const std::uint64_t t1 = trace::now_ns();
    executor.run(graph);
    const std::uint64_t t2 = trace::now_ns();
    engine.finish_epoch(seconds_between(t1, t2), observer);
    const std::uint64_t t3 = trace::now_ns();
    const double callback = seconds_between(callback_begin, callback_end);
    sample.plan_s.push_back(seconds_between(t0, t1));
    sample.graph_s.push_back(seconds_between(t1, t2));
    sample.callback_s.push_back(callback);
    sample.finish_s.push_back(seconds_between(t2, t3) - callback);
  }
  const RouteServerResult result =
      engine.finish(seconds_between(run_ns, trace::now_ns()));
  sample.digest = telemetry_digest(result.epochs);
  return sample;
}

}  // namespace perfbench
