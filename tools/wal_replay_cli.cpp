// wal_replay_cli — inspect and re-execute write-ahead epoch logs.
//
// Usage:
//   wal_replay_cli info <wal>
//   wal_replay_cli replay <wal> [--epoch <e>] [--epochs <k>]
//                         [--tenant <name>] [--threads <t>] [--quiet]
//
// `info` prints the WAL's manifest (mode line and per-tenant
// configuration), the committed progress (cuts=<n> per tenant,
// rounds=<r>), the shutdown state, and one row per committed cut (its
// byte offset in the file and the epoch's route_p99, for correlating WAL
// cuts with trace spans) — greppable key=value fields, used by the CI
// crash smoke to poll how far a background run has progressed.
//
// `replay` is the point-in-time debugger: it restores one tenant's state
// at epoch cut e (--epoch, default 0) directly into an EpochEngine —
// no round scheduler, no other tenants — re-executes epochs [e, e+k)
// (--epochs, default: every committed epoch from e), and prints each
// re-executed epoch's single-epoch telemetry digest next to the digest
// recomputed from the WAL's recorded cut. The determinism contract makes
// the comparison exact: a re-executed epoch either matches its record
// bit-for-bit or the WAL does not describe this build's dynamics.
// Exit 0 = all replayed epochs match, 1 = a mismatch, 2 = usage error
// (missing/corrupt-beyond-recovery WAL, unknown tenant, out-of-range
// epoch window). Replay forces deterministic mode (no wall-clock
// recording): wall-clock fields are not replayable state and do not
// enter the digests.
#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  wal_replay_cli info <wal>\n"
      "  wal_replay_cli replay <wal> [--epoch <e>] [--epochs <k>]\n"
      "                        [--tenant <name>] [--threads <t>] [--quiet]\n"
      "\n"
      "info prints the WAL manifest and committed progress (cuts=<n>,\n"
      "rounds=<r>); replay restores tenant state at epoch cut e and\n"
      "re-executes epochs [e, e+k), checking each against the recorded\n"
      "cuts (exit 1 on a mismatch).\n";
  std::exit(2);
}

template <typename Make>
auto usage_error(const Make& make) {
  try {
    return make();
  } catch (const std::invalid_argument& e) {
    throw cli::UsageError(e.what());
  }
}

recovery::RecoveredRun recover_or_usage(const std::string& path) {
  cli::require_readable(path, "WAL");
  try {
    return recovery::recover_wal(path);
  } catch (const std::runtime_error& e) {
    throw cli::UsageError(e.what());
  }
}

std::string display_name(const recovery::TenantManifest& tenant) {
  return tenant.name.empty() ? std::string("run") : tenant.name;
}

int do_info(const std::string& path) {
  const recovery::RecoveredRun state = recover_or_usage(path);
  std::cout << "wal: " << path << "\n"
            << "mode: "
            << (state.manifest.multi_tenant ? "multi-tenant"
                                            : "single-server")
            << "\n"
            << "rounds=" << state.rounds
            << " clean_shutdown=" << (state.clean_shutdown ? 1 : 0)
            << " truncated=" << (state.truncated ? 1 : 0)
            << " valid_bytes=" << state.valid_bytes << "\n";
  if (state.truncated) std::cout << "note: " << state.note << "\n";
  for (std::size_t i = 0; i < state.manifest.tenants.size(); ++i) {
    const recovery::TenantManifest& tenant = state.manifest.tenants[i];
    const RouteServerOptions& o = tenant.options;
    std::cout << "tenant " << display_name(tenant)
              << ": scenario=" << tenant.scenario
              << " policy=" << tenant.policy
              << " workload=" << tenant.workload << " epochs=" << o.epochs
              << " clients=" << o.num_clients << " shards=" << o.shards
              << " seed=" << o.seed << " weight=" << tenant.weight
              << " cuts=" << state.cuts[i].size() << " digest=" << std::hex
              << state.digests[i] << std::dec << "\n";
    // Per-cut rows: where each committed cut's record starts in the file
    // (seekable, and correlatable with trace spans) and the epoch's
    // deterministic route_p99.
    for (std::size_t c = 0; c < state.cuts[i].size(); ++c) {
      const EpochSummary& summary = state.cuts[i][c].summary;
      std::cout << "cut[" << display_name(tenant)
                << "]: epoch=" << summary.epoch
                << " offset=" << state.cut_offsets[i][c]
                << " route_p99=" << fmt(summary.route_p99, 6) << "\n";
    }
  }
  return 0;
}

int do_replay(const std::string& path,
              const std::map<std::string, std::string>& flags) {
  std::size_t from_epoch = 0;
  bool epochs_given = false;
  std::size_t epoch_count = 0;
  std::string tenant_name;
  std::size_t threads = 1;
  bool quiet = false;
  for (const auto& [key, value] : flags) {
    if (key == "epoch") {
      from_epoch = cli::parse_count(value, "--epoch");
    } else if (key == "epochs") {
      epoch_count = cli::parse_count(value, "--epochs");
      epochs_given = true;
    } else if (key == "tenant") {
      tenant_name = value;
    } else if (key == "threads") {
      threads = cli::parse_count(value, "--threads");
    } else if (key == "quiet") {
      quiet = true;
    } else {
      usage("unknown flag --" + key);
    }
  }

  const recovery::RecoveredRun state = recover_or_usage(path);
  std::size_t tenant = 0;
  if (!tenant_name.empty()) {
    bool found = false;
    for (std::size_t i = 0; i < state.manifest.tenants.size(); ++i) {
      if (state.manifest.tenants[i].name == tenant_name) {
        tenant = i;
        found = true;
        break;
      }
    }
    if (!found) {
      throw cli::UsageError("no tenant '" + tenant_name + "' in this WAL");
    }
  }
  const recovery::TenantManifest& manifest = state.manifest.tenants[tenant];
  const std::vector<EngineCheckpoint>& cuts = state.cuts[tenant];

  if (from_epoch > cuts.size()) {
    throw cli::UsageError(
        "--epoch " + std::to_string(from_epoch) + " is past the committed "
        "prefix (" + std::to_string(cuts.size()) + " cuts in the WAL)");
  }
  if (!epochs_given) epoch_count = cuts.size() - from_epoch;
  if (from_epoch + epoch_count > cuts.size()) {
    throw cli::UsageError(
        "--epoch " + std::to_string(from_epoch) + " + --epochs " +
        std::to_string(epoch_count) + " exceeds the committed prefix (" +
        std::to_string(cuts.size()) + " cuts in the WAL)");
  }
  if (epoch_count == 0) {
    std::cout << "nothing to replay (0 epochs requested)\n";
    return 0;
  }

  // Rebuild the tenant's world exactly as the serving CLI does, then
  // drive its engine by hand: restore cuts [0, e), serve k more epochs.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  cli::require_known(manifest.scenario, registry.names(), "scenario");
  Rng scenario_rng(manifest.options.seed);
  const Instance instance = registry.at(manifest.scenario).make(scenario_rng);
  const Policy policy = usage_error([&] {
    return named_policy(manifest.policy)
        .make(instance, manifest.options.update_period);
  });
  const WorkloadPtr workload =
      usage_error([&] { return make_workload(manifest.workload); });

  RouteServerOptions options = manifest.options;
  options.threads = threads;
  options.executor = nullptr;
  options.record_latency = false;  // replay is deterministic by definition

  SnapshotStore store;
  EpochEngine engine(instance, policy, *workload, store);
  engine.begin(FlowVector::uniform(instance), options);
  engine.restore(std::span(cuts).subspan(0, from_epoch));

  if (!quiet) {
    std::cout << "replaying " << display_name(manifest) << " epochs ["
              << from_epoch << ", " << from_epoch + epoch_count << ") of "
              << manifest.scenario << "/" << manifest.policy << "\n";
  }

  Executor executor(threads);
  std::size_t mismatches = 0;
  for (std::size_t e = from_epoch; e < from_epoch + epoch_count; ++e) {
    TaskGraph graph;
    engine.add_epoch(graph);
    executor.run(graph);
    engine.finish_epoch(0.0, nullptr);
    const EngineCheckpoint replayed = engine.checkpoint();
    const std::uint64_t replay_digest =
        telemetry_digest(std::span(&replayed.summary, 1));
    const std::uint64_t recorded_digest =
        telemetry_digest(std::span(&cuts[e].summary, 1));
    const bool match = replay_digest == recorded_digest;
    if (!match) ++mismatches;
    if (!quiet || !match) {
      std::cout << "epoch " << e << ": digest=" << std::hex << replay_digest
                << std::dec << " queries=" << replayed.summary.queries
                << " gap=" << fmt(replayed.summary.wardrop_gap, 6) << " "
                << (match ? "match" : "MISMATCH (recorded ") ;
      if (!match) {
        std::cout << std::hex << recorded_digest << std::dec << ")";
      }
      std::cout << "\n";
    }
  }
  if (mismatches != 0) {
    std::cerr << "error: " << mismatches
              << " replayed epoch(s) diverged from the WAL\n";
    return 1;
  }
  if (!quiet) {
    std::cout << epoch_count << " epoch(s) replayed, all match the WAL\n";
  }
  return 0;
}

int run_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) usage();
  const std::string& command = args[0];
  const std::string& path = args[1];
  try {
    if (command == "info") {
      if (args.size() != 2) usage("info takes exactly one argument");
      return do_info(path);
    }
    if (command == "replay") {
      return do_replay(path, cli::parse_flags(args, 2, {"quiet"}));
    }
  } catch (const cli::UsageError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command " + command);
}

}  // namespace
}  // namespace staleflow

int main(int argc, char** argv) { return staleflow::run_main(argc, argv); }
