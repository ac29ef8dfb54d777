// trace_dump_cli — decode and analyze binary trace files (src/trace/).
//
// Usage:
//   trace_dump_cli info <trace>
//   trace_dump_cli csv <trace> [--out <path>]
//   trace_dump_cli summary <trace> [--by kind|tenant|shard|worker|lane]
//
// `info` prints the trace's header, shutdown state and greppable
// event/counter totals (`events[<kind>]=<n>`, `counter[<name>]=<v>`) —
// the CI traced-run smoke greps these to assert recording invariants
// (epochs recorded == epochs served, local lane hits beating steals).
//
// `csv` writes one row per event: kind, tenant, epoch, worker, shard,
// lane, sub-batch index, begin/end timestamps and the span duration in
// microseconds — the raw material for external analysis.
//
// `summary` aggregates wall-clock span durations into exact
// util/log_histogram quantiles (p50/p99/p999 µs) per event type, or per
// event type crossed with tenant, shard, worker, or execution lane
// (--by), with each group's total time and value sum. Its ns_per_unit
// column is total time ÷ value sum: on sub_batch rows the value is the
// batch's arrivals, so it reads the per-query service time in ns — the
// serving engine records no wall clock of its own, and this is how any
// trace answers "how long does a query take" (trace_summary.h).
// `--by lane` splits sub-batch spans by the pool lane that ran them
// ("main" is the caller helping while it waits); together with the
// pool.local_hits / pool.steals locality line this is the offline answer
// to "did placement stick" that the always-on recording makes available
// for every run.
//
// All modes read the trusted prefix of a torn trace (same recovery
// posture as the WAL scanner) and report the truncation; exit 0 even for
// truncated traces — a crash image is still analyzable — but exit 2 for
// files that are not traces at all.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"
#include "trace_summary.h"

namespace staleflow {
namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  trace_dump_cli info <trace>\n"
      "  trace_dump_cli csv <trace> [--out <path>]\n"
      "  trace_dump_cli summary <trace> [--by kind|tenant|shard|worker|lane]\n"
      "\n"
      "info prints header + greppable event/counter totals; csv dumps\n"
      "one row per recorded span; summary reports exact p50/p99/p999\n"
      "span-duration quantiles (us) per event type (or crossed with\n"
      "tenant/shard/worker/lane via --by), span time per unit of value\n"
      "(ns per query on sub_batch rows) and the pool locality ratio.\n";
  std::exit(2);
}

trace::LoadedTrace load_or_usage(const std::string& path) {
  cli::require_readable(path, "trace");
  try {
    return trace::load_trace(path);
  } catch (const std::runtime_error& e) {
    throw cli::UsageError(e.what());
  }
}

void print_truncation(const trace::LoadedTrace& loaded) {
  if (loaded.truncated) {
    std::cout << "note: trace truncated at byte " << loaded.valid_bytes
              << " (" << loaded.note << ")\n";
  }
}

/// Greppable placement-locality line from the final counter sample: how
/// many pool tasks ran on their submitted lane vs were stolen across.
void print_locality(const trace::LoadedTrace& loaded) {
  if (loaded.counter_batches.empty()) return;
  std::uint64_t local_hits = 0;
  std::uint64_t steals = 0;
  bool seen = false;
  for (const auto& [id, value] : loaded.counter_batches.back().values) {
    if (loaded.counter_names[id] == "pool.local_hits") {
      local_hits = value;
      seen = true;
    } else if (loaded.counter_names[id] == "pool.steals") {
      steals = value;
      seen = true;
    }
  }
  if (!seen) return;
  const std::uint64_t total = local_hits + steals;
  std::cout << "locality: pool.local_hits=" << local_hits
            << " pool.steals=" << steals << " local_ratio="
            << fmt(total == 0 ? 0.0
                              : static_cast<double>(local_hits) /
                                    static_cast<double>(total),
                   3)
            << "\n";
}

int do_info(const std::string& path) {
  const trace::LoadedTrace loaded = load_or_usage(path);
  std::cout << "trace: " << path << "\n"
            << "producer: " << loaded.producer << "\n"
            << "version=" << loaded.version
            << " clean_shutdown=" << (loaded.clean_shutdown ? 1 : 0)
            << " truncated=" << (loaded.truncated ? 1 : 0)
            << " valid_bytes=" << loaded.valid_bytes << "\n";
  print_truncation(loaded);
  if (loaded.clean_shutdown) {
    std::cout << "trailer: events=" << loaded.trailer_events
              << " dropped=" << loaded.trailer_dropped << "\n";
  }

  std::uint32_t workers = 0;
  std::map<std::string, std::size_t> kind_counts;
  for (const trace::LoadedEvent& event : loaded.events) {
    workers = std::max(workers, event.worker + 1);
    ++kind_counts[std::string(trace::event_kind_name(event.event.kind))];
  }
  std::cout << "events=" << loaded.events.size() << " workers=" << workers
            << "\n";
  for (const auto& [kind, count] : kind_counts) {
    std::cout << "events[" << kind << "]=" << count << "\n";
  }
  // Final counter values: the last sampling pass wins (values are
  // monotonic, so the last batch is the run total at the final sample).
  if (!loaded.counter_batches.empty()) {
    const trace::CounterBatch& last = loaded.counter_batches.back();
    for (const auto& [id, value] : last.values) {
      std::cout << "counter[" << loaded.counter_names[id] << "]=" << value
                << "\n";
    }
  }
  return 0;
}

int do_csv(const std::string& path,
           const std::map<std::string, std::string>& flags) {
  std::string out_path;
  for (const auto& [key, value] : flags) {
    if (key == "out") {
      out_path = value;
    } else {
      usage("unknown flag --" + key);
    }
  }
  const trace::LoadedTrace loaded = load_or_usage(path);

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) throw cli::UsageError("cannot write --out '" + out_path + "'");
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  out << "kind,tenant,epoch,worker,shard,lane,arg,value,begin_ns,end_ns,"
         "duration_us\n";
  for (const trace::LoadedEvent& loaded_event : loaded.events) {
    const trace::TraceEvent& e = loaded_event.event;
    out << trace::event_kind_name(e.kind) << ',' << e.tenant << ','
        << e.epoch << ',' << loaded_event.worker << ','
        << cli::event_shard(e) << ',' << cli::event_lane(e) << ',' << e.arg
        << ',' << e.value << ',' << e.begin_ns << ',' << e.end_ns << ','
        << fmt(static_cast<double>(e.end_ns - e.begin_ns) / 1e3, 3) << "\n";
  }
  if (!out_path.empty()) {
    std::cout << "wrote " << loaded.events.size() << " events to "
              << out_path << "\n";
  }
  print_truncation(loaded);
  return 0;
}

int do_summary(const std::string& path,
               const std::map<std::string, std::string>& flags) {
  std::string by = "kind";
  for (const auto& [key, value] : flags) {
    if (key == "by") {
      by = value;
      if (by != "kind" && by != "tenant" && by != "shard" && by != "worker" &&
          by != "lane") {
        usage("--by must be kind, tenant, shard, worker or lane");
      }
    } else {
      usage("unknown flag --" + key);
    }
  }
  const trace::LoadedTrace loaded = load_or_usage(path);

  Table table({"span", "count", "p50_us", "p99_us", "p999_us", "total_ms",
               "value_sum", "ns_per_unit"});
  for (const auto& [key, group] : cli::summarize_spans(loaded, by)) {
    table.add_row({key, fmt_int(static_cast<long long>(group.hist.count())),
                   fmt(group.hist.quantile(0.5), 2),
                   fmt(group.hist.quantile(0.99), 2),
                   fmt(group.hist.quantile(0.999), 2),
                   fmt(group.hist.sum() / 1e3, 2),
                   fmt_int(static_cast<long long>(group.value_total)),
                   group.value_total == 0 ? "-"
                                          : fmt(group.ns_per_unit(), 1)});
  }
  table.print(std::cout);
  print_locality(loaded);
  print_truncation(loaded);
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
    if (command == "csv") {
      return do_csv(path, cli::parse_flags(args, 2, {}));
    }
    if (command == "summary") {
      return do_summary(path, cli::parse_flags(args, 2, {}));
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
