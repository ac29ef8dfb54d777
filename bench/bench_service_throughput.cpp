// bench_service_throughput — queries/sec scaling of the route service on
// the execution layer.
//
// Serves two fixed workloads on 1..N worker threads and reports
// throughput, latency quantiles, speedup over single-threaded and
// parallel efficiency:
//   - closed-loop: the PR-2/PR-3 baseline shape (uniform batches, no
//     sub-batch splitting at the default threshold) — comparable against
//     the historical BENCH_service.json trajectory;
//   - bursty: skewed on/off load with the sub-batch split threshold
//     forced low, exercising deterministic work-splitting and the
//     parallel epoch snapshot build — the configuration the execution
//     layer exists for.
// Alongside the human-readable tables it writes BENCH_service.json, the
// machine-readable perf-trajectory record future PRs diff against. The
// dynamics outcome (digest) is asserted identical across thread counts
// for every workload — the determinism contract under load.
//
// Usage: bench_service_throughput [max_threads] [json_path]
//                                 [--force-bench-overwrite]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

struct ScalingPoint {
  std::size_t threads = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double wall_seconds = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
};

struct WorkloadRun {
  std::string name;
  std::size_t sub_batch_queries = 0;
  std::vector<ScalingPoint> points;
};

int run_main(int argc, char** argv) {
  const bool force_overwrite = bench::take_force_overwrite(argc, argv);
  std::size_t max_threads = 8;
  std::string json_path = "BENCH_service.json";
  if (argc > 1) {
    const int parsed = std::atoi(argv[1]);
    if (parsed < 0 || parsed > 1024) {
      std::cerr << "usage: bench_service_throughput [max_threads 0..1024] "
                   "[json_path]\n";
      return 2;
    }
    max_threads = static_cast<std::size_t>(parsed);
  }
  if (argc > 2) json_path = argv[2];
  if (max_threads == 0) {
    max_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  // Fixed configuration: a 32-link instance keeps the per-query CDF search
  // nontrivial; both workloads answer the same queries at every thread
  // count (closed loop by construction, bursty by the replay contract).
  Rng scenario_rng(7);
  const Instance instance = random_parallel_links(32, scenario_rng);
  const Policy policy = make_replicator_policy(instance);

  RouteServerOptions options;
  options.update_period = 0.05;
  options.epochs = 15;
  options.num_clients = 50'000;
  options.shards = 32;
  options.seed = 42;

  std::cout << "service throughput: " << instance.describe() << "\n  "
            << policy.name() << " x " << options.epochs << " epochs, "
            << options.num_clients << " clients, " << options.shards
            << " shards (hardware: " << std::thread::hardware_concurrency()
            << " cores)\n";

  // The two measured shapes. The bursty peaks offer 4e6 * 0.05 = 200k
  // queries (6250 per shard), so the forced 2048-query threshold splits
  // every peak shard into ~4 sub-batches; the closed-loop run keeps the
  // default threshold (no splitting) as the historical baseline.
  std::vector<WorkloadRun> runs;
  runs.push_back({"closed-loop:200000", 16384, {}});
  runs.push_back({"bursty:4000000,200000,3,2", 2048, {}});

  for (WorkloadRun& run : runs) {
    const WorkloadPtr workload = make_workload(run.name);
    options.sub_batch_queries = run.sub_batch_queries;

    std::cout << "\n  workload " << run.name << " (sub-batch "
              << run.sub_batch_queries << ")\n\n";
    Table table({"threads", "Mq/s", "p50 us", "p99 us", "speedup", "eff"});
    std::uint64_t reference_digest = 0;

    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      options.threads = threads;
      RouteServer server(instance, policy, *workload);
      const RouteServerResult result =
          server.run(FlowVector::uniform(instance), options);

      const std::uint64_t digest = telemetry_digest(result.epochs);
      if (threads == 1) {
        reference_digest = digest;
      } else if (digest != reference_digest) {
        std::cerr << "FAIL: digest differs at " << threads
                  << " threads — determinism contract broken\n";
        return 1;
      }

      ScalingPoint point;
      point.threads = threads;
      point.qps = result.queries_per_second;
      point.p50_us = result.p50_us;
      point.p99_us = result.p99_us;
      point.wall_seconds = result.wall_seconds;
      point.speedup =
          run.points.empty() ? 1.0 : point.qps / run.points.front().qps;
      point.efficiency = point.speedup / static_cast<double>(threads);
      run.points.push_back(point);

      table.add_row({std::to_string(threads), fmt(point.qps / 1e6, 3),
                     fmt(point.p50_us, 2), fmt(point.p99_us, 2),
                     fmt(point.speedup, 2), fmt(point.efficiency, 2)});
    }
    table.print(std::cout);
  }

  if (bench::refuse_single_core_overwrite(json_path, force_overwrite)) {
    return 1;
  }
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot open " << json_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"service_throughput\",\n"
       << "  \"config\": {\n"
       << "    \"scenario\": \"random-links-32\",\n"
       << "    \"policy\": \"" << policy.name() << "\",\n"
       << "    \"epochs\": " << options.epochs << ",\n"
       << "    \"clients\": " << options.num_clients << ",\n"
       << "    \"shards\": " << options.shards << ",\n"
       << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
       << "\n  },\n"
       << "  \"workloads\": [\n";
  for (std::size_t w = 0; w < runs.size(); ++w) {
    const WorkloadRun& run = runs[w];
    json << "    {\"workload\": \"" << run.name
         << "\", \"sub_batch_queries\": " << run.sub_batch_queries
         << ", \"results\": [\n";
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      const ScalingPoint& p = run.points[i];
      json << "      {\"threads\": " << p.threads << ", \"qps\": " << p.qps
           << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
           << ", \"wall_seconds\": " << p.wall_seconds
           << ", \"speedup\": " << bench::json_scaling(p.speedup)
           << ", \"efficiency\": " << bench::json_scaling(p.efficiency) << "}"
           << (i + 1 < run.points.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (w + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace staleflow

int main(int argc, char** argv) { return staleflow::run_main(argc, argv); }
