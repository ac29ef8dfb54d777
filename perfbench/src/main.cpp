// perfbench — the route service's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git <describe>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that gives the per-layer metrics. Both
// check every run's digests (pinned at kPinnedSeed, otherwise against a
// single-thread run of the same workload) and, for logged runs, that
// recovery::recover_wal reads the WAL back as a clean shutdown with the
// run's digests. Human-readable lines (host fingerprint, one line per
// metric with unit and sample count, the layer-budget table) precede
// the last line, a JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count steps. The exit code is 0 only when every
// check passed.
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace staleflow;

/// recover_wal and scan_wal calls timed per measured run. One call's time
/// varies by about a quarter from call to call (it reads the whole WAL
/// into fresh memory), so each run contributes several and recover_s and
/// recovery.scan_ms are medians over all of them.
constexpr std::size_t kRecoveries = 3;

/// Set-up probes (see Bench::setup_probe) after every measured run, each
/// from the trimmed heap a measured run starts from: setup_s is the
/// median of the runs' own set-ups and the probes', so that a window of
/// a few long runs still has many set-up samples.
constexpr std::size_t kSetupProbes = 4;

/// step_ms_tail's ladder stops at p90. On fine-epochs' sub-0.1 ms steps the
/// per-run p99 spread 0.16 to 0.28 (interquartile share over five seeds)
/// with host preemptions, p90 0.03; the other workloads' runs are too
/// short for p99 anyway.
constexpr std::size_t kStepTailPermille = 900;

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-run";
  std::string git = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>] "
               "[--git <describe>]\nworkloads:";
  for (const WorkloadDef& def : workloads()) std::cerr << ' ' << def.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--git") {
        args.git = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": '" + value + "'");
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

std::string compiler() {
#if defined(__clang__)
  return "clang++ " __clang_version__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

/// Starts a fresh peak-memory window: returns freed heap to the system
/// and resets the kernel's resident high-water mark (Linux), so that the
/// next peak_rss_mb() reads the peak of one run, not of every run
/// before it. Returns false where the reset is unavailable.
bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return static_cast<bool>(clear_refs);
}

/// Resident high-water mark since the last reset_peak_rss() (VmHWM), or
/// of the whole process (ru_maxrss) where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double since_s(std::uint64_t begin_ns) {
  return static_cast<double>(trace::now_ns() - begin_ns) * 1e-9;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

std::string hex_list(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t value : values) {
    if (!out.empty()) out += ',';
    out += hex(value);
  }
  return out;
}

/// One reported metric: value, unit, sample count and (for tails) the
/// percentile the value is.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
  std::string note;
};

class Report {
 public:
  explicit Report(Gate& gate) : gate_(gate) {}

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n, const std::string& note = "") {
    metrics_.push_back({name, value, unit, n, note});
  }

  /// Median of `samples` scaled by `scale`, noted with the samples'
  /// interquartile spread; an empty sample fails the gate (the metric was
  /// not measured) and reports 0.
  void median_of(const std::string& name, const std::vector<double>& samples,
                 double scale, const std::string& unit) {
    if (samples.empty()) {
      gate_.check(false, "no samples for " + name);
      add(name, 0.0, unit, 0, "not measured");
      return;
    }
    std::string note;
    if (samples.size() >= 2) {
      char spread[64];
      std::snprintf(spread, sizeof spread, "iqr/median %.3f",
                    iqr_share(samples));
      note = spread;
    }
    add(name, median(samples) * scale, unit, samples.size(), note);
  }

  void tail_of(const std::string& name, const std::vector<double>& samples,
               double scale, const std::string& unit) {
    if (samples.empty()) {
      gate_.check(false, "no samples for " + name);
      add(name, 0.0, unit, 0, "not measured");
      return;
    }
    const Tail t = tail(samples);
    std::ostringstream note;
    note << "p" << t.percentile;
    add(name, t.value * scale, unit, t.n, note.str());
  }

  double value(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  void print_table(std::ostream& out) const {
    for (const Metric& m : metrics_) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-30s %16.6g %-10s n=%-8zu %s\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.n,
                    m.note.c_str());
      out << line;
    }
  }

  void print_json(std::ostream& out) const {
    out << "{\"correct\": " << (gate_.correct() ? "true" : "false")
        << ", \"attempted\": " << gate_.attempted()
        << ", \"failed\": " << gate_.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
          << "\": {\"value\": " << value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}\n";
  }

 private:
  Gate& gate_;
  std::vector<Metric> metrics_;
};

/// Records a trace to `path` for the lifetime of the object.
class TraceSession {
 public:
  TraceSession(const std::string& path, const std::string& what) {
    std::filesystem::remove(path);  // see run_logged: fresh, not truncated
    trace::start(path, "perfbench " + what);
  }
  ~TraceSession() { trace::stop(); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
};

/// Everything one invocation shares: the workload, its expected digests,
/// the executor and the correctness gate.
struct Bench {
  const Args& args;
  const WorkloadDef& def;
  Executor executor;
  Expected expected;
  Gate gate;
  std::string wal_path;
  std::string trace_path;

  Bench(const Args& a, const WorkloadDef& d, std::size_t threads,
        const std::string& dir)
      : args(a),
        def(d),
        executor(threads),
        wal_path(dir + "/" + d.name + ".wal"),
        trace_path(dir + "/" + d.name + ".trace") {}

  /// Records one run's steps as passed or failed against `expected`;
  /// `extra_ok`/`extra_error` fold in a further check of the same run.
  void check_digests(const RunSample& sample, const std::string& what,
                     bool extra_ok = true,
                     const std::string& extra_error = "") {
    const bool digests_ok = sample.digests == expected.digests;
    gate.record(sample.steps, digests_ok && extra_ok,
                what + ": " +
                    (digests_ok ? extra_error
                                : "digests " + hex_list(sample.digests) +
                                      " != expected " +
                                      hex_list(expected.digests)));
  }

  /// Times kRecoveries calls of recover_wal on the WAL just written,
  /// appending each to `seconds`, and checks that every call reads back a
  /// clean shutdown with the run's own digests; an empty error means the
  /// check passed.
  void recover(const std::vector<std::uint64_t>& digests,
               std::vector<double>& seconds, std::string& error) {
    for (std::size_t i = 0; i < kRecoveries; ++i) {
      const std::uint64_t begin = trace::now_ns();
      const recovery::RecoveredRun run = recovery::recover_wal(wal_path);
      seconds.push_back(since_s(begin));
      if (!run.clean_shutdown) {
        error = "recover_wal: no clean shutdown (" + run.note + ")";
      } else if (run.digests != digests) {
        error = "recover_wal: digests " + hex_list(run.digests) +
                " != run's " + hex_list(digests);
      }
    }
  }

  /// A solo workload's logged side pass: its first side_steps epochs as a
  /// one-tenant registry with a WAL, which must reproduce the solo run's
  /// digest over those epochs (a one-tenant registry == a solo server).
  RunSample side_pass() {
    RunSample sample = run_logged(logged_tenants(def), args.seed, executor,
                                  wal_path);
    gate.check(sample.digests == std::vector<std::uint64_t>{expected.prefix},
               "side pass: digest " + hex_list(sample.digests) +
                   " != solo prefix " + hex(expected.prefix));
    return sample;
  }

  /// The public-entry run of this workload: RouteServer::run for solo
  /// workloads, the logged registry otherwise.
  RunSample public_run(const Inspect& inspect = nullptr) {
    return def.registry
               ? run_logged(def.tenants, args.seed, executor, wal_path,
                            inspect)
               : run_solo(def, args.seed, executor, inspect);
  }

  /// The set-up of a public-entry run whose tenants serve one epoch
  /// each: its first step is the full run's first step, so it measures
  /// the same set-up at a fraction of the cost. Its digests are not
  /// checked (they cover one epoch).
  double setup_probe() {
    std::vector<TenantDef> tenants = def.tenants;
    for (TenantDef& tenant : tenants) tenant.epochs = 1;
    if (def.registry) {
      return run_logged(tenants, args.seed, executor, wal_path).setup_s;
    }
    WorkloadDef one = def;
    one.tenants = tenants;
    return run_solo(one, args.seed, executor).setup_s;
  }

  std::size_t planned_steps() const {
    std::size_t steps = 0;
    for (const TenantDef& tenant : def.tenants) {
      steps = std::max(steps, tenant.epochs);
    }
    return steps;
  }

  /// Runs `body` and fails the planned steps if it throws.
  template <typename Body>
  void guarded(const std::string& what, Body&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      gate.record(planned_steps(), false, what + " threw: " + e.what());
    }
  }
};

void run_end_to_end(Bench& bench, Report& report) {
  const bool solo = !bench.def.registry;
  std::vector<double> setup_s;
  std::vector<double> qps;
  std::vector<double> steps_s;
  std::vector<double> tails_s;  // each run's own tail
  Tail run_tail;
  std::vector<double> recover_s;
  std::vector<double> wal_bytes_per_step;
  std::vector<double> rss_mb;
  std::vector<std::uint64_t> side_digests;

  // A solo workload writes its side-pass WAL once, up front (checked
  // against the pinned or reference prefix digest); every measured run
  // then recovers it, so recovery samples spread over the window like
  // the runs themselves.
  if (solo) {
    bench.guarded("side pass", [&] {
      const RunSample side = bench.side_pass();
      wal_bytes_per_step.push_back(static_cast<double>(side.wal_bytes) /
                                   static_cast<double>(side.steps));
      side_digests = side.digests;
    });
  }

  const std::uint64_t window = trace::now_ns();
  std::size_t runs = 0;
  while (runs < 3 || since_s(window) < bench.args.seconds) {
    ++runs;
    const std::string tag = "run " + std::to_string(runs);
    bench.guarded(tag, [&] {
      const bool per_run_rss = reset_peak_rss();
      const RunSample sample = bench.public_run();
      if (per_run_rss) rss_mb.push_back(peak_rss_mb());
      std::string recovery_error;
      if (bench.def.registry) {
        wal_bytes_per_step.push_back(static_cast<double>(sample.wal_bytes) /
                                     static_cast<double>(sample.steps));
      }
      bench.recover(solo ? side_digests : sample.digests, recover_s,
                    recovery_error);
      bench.check_digests(sample, tag, recovery_error.empty(),
                          recovery_error);
      setup_s.push_back(sample.setup_s);
      for (std::size_t i = 0; i < kSetupProbes; ++i) {
        reset_peak_rss();  // the heap state a measured run starts from
        setup_s.push_back(bench.setup_probe());
      }
      qps.push_back(sample.queries_per_s);
      steps_s.insert(steps_s.end(), sample.step_s.begin(),
                     sample.step_s.end());
      if (!sample.step_s.empty()) {
        run_tail = tail(sample.step_s, kStepTailPermille);
        tails_s.push_back(run_tail.value);
      }
    });
  }

  report.median_of("queries_per_s", qps, 1.0, "queries/s");
  report.median_of("step_ms_p50", steps_s, 1e3, "ms");
  // The tail is taken per run (n = one run's steps) and reported as the
  // median over runs: a pooled percentile moves with whichever run met a
  // burst of host contention, the typical run's tail does not.
  std::ostringstream tail_note;
  tail_note << "median over runs of p" << run_tail.percentile << " of "
            << run_tail.n << " steps";
  if (tails_s.empty()) {
    report.median_of("step_ms_tail", tails_s, 1e3, "ms");
  } else {
    report.add("step_ms_tail", median(tails_s) * 1e3, "ms", tails_s.size(),
               tail_note.str());
  }
  report.median_of("setup_s", setup_s, 1.0, "s");
  // The peak of one served run (the recovery check after it excluded),
  // median over runs; the whole process's peak where the high-water mark
  // cannot be reset.
  if (rss_mb.empty()) rss_mb.push_back(peak_rss_mb());
  report.median_of("peak_rss_mb", rss_mb, 1.0, "MB");
  report.median_of("wal_bytes_per_step", wal_bytes_per_step, 1.0, "B");
  report.median_of("recover_s", recover_s, 1.0, "s");
}

/// Prints the layer-budget rows (median per step, share of the step
/// median) and the residual that makes them add up to the step median.
void print_budget(const std::string& title, double step_us,
                  const std::vector<std::pair<std::string, double>>& rows) {
  std::printf("layer budget (%s), step_ms_p50 = %.4f ms:\n", title.c_str(),
              step_us * 1e-3);
  double explained = 0.0;
  for (const auto& [name, us] : rows) {
    std::printf("  %-34s %12.3f us %7.1f%%\n", name.c_str(), us,
                100.0 * us / step_us);
    explained += us;
  }
  std::printf("  %-34s %12.3f us %7.1f%%\n", "residual (unexplained)",
              step_us - explained, 100.0 * (step_us - explained) / step_us);
}

void run_layers(Bench& bench, Report& report) {
  const WorkloadDef& def = bench.def;
  TraceStats traced;      // the workload's public-entry runs
  TraceStats traced_log;  // solo workloads: the logged side pass
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> traced_steps;
  std::vector<double> log_round_s;
  std::vector<double> begin_s, plan_s, graph_s, finish_s, callback_s,
      engine_steps;
  std::vector<double> scan_s;
  LeafTimes leaves;
  bool leaves_timed = false;

  // The engine loop serves the first tenant alone; by the isolation
  // contract its digest equals that tenant's digest in the workload.
  const TenantDef& engine_tenant = def.tenants.front();

  const std::uint64_t window = trace::now_ns();
  std::size_t cycles = 0;
  while (cycles < 2 || since_s(window) < bench.args.seconds) {
    ++cycles;
    const std::string tag = "cycle " + std::to_string(cycles);
    bench.guarded(tag + " untraced", [&] {
      const std::uint64_t begin = trace::now_ns();
      const RunSample sample = bench.public_run();
      untraced_wall.push_back(since_s(begin));
      bench.check_digests(sample, tag + " untraced");
    });
    bench.guarded(tag + " traced", [&] {
      RunSample sample;
      {
        const TraceSession session(bench.trace_path, def.name);
        const std::uint64_t begin = trace::now_ns();
        sample = bench.public_run();
        traced_wall.push_back(since_s(begin));
      }
      bench.check_digests(sample, tag + " traced");
      pool_trace(bench.trace_path, schedule_cycle(def.tenants), traced);
      traced_steps.insert(traced_steps.end(), sample.step_s.begin(),
                          sample.step_s.end());
      log_round_s.insert(log_round_s.end(), sample.log_round_s.begin(),
                         sample.log_round_s.end());
    });
    bench.guarded(tag + " engine loop", [&] {
      const EngineSample sample =
          run_engine_loop(engine_tenant, bench.args.seed, bench.executor);
      bench.gate.record(sample.plan_s.size(),
                        sample.digest == bench.expected.digests.front(),
                        tag + " engine loop: digest " + hex(sample.digest) +
                            " != expected " +
                            hex(bench.expected.digests.front()));
      begin_s.push_back(sample.begin_s);
      plan_s.insert(plan_s.end(), sample.plan_s.begin(), sample.plan_s.end());
      graph_s.insert(graph_s.end(), sample.graph_s.begin(),
                     sample.graph_s.end());
      finish_s.insert(finish_s.end(), sample.finish_s.begin(),
                      sample.finish_s.end());
      callback_s.insert(callback_s.end(), sample.callback_s.begin(),
                        sample.callback_s.end());
      engine_steps.insert(engine_steps.end(), sample.step_s.begin(),
                          sample.step_s.end());
    });
    if (!def.registry) {
      bench.guarded(tag + " logged side pass", [&] {
        RunSample side;
        {
          const TraceSession session(bench.trace_path, def.name + " wal");
          side = bench.side_pass();
        }
        pool_trace(bench.trace_path, 1, traced_log);
        log_round_s.insert(log_round_s.end(), side.log_round_s.begin(),
                           side.log_round_s.end());
      });
    }
    bench.guarded(tag + " wal scan", [&] {
      for (std::size_t i = 0; i < kRecoveries; ++i) {
        const std::uint64_t begin = trace::now_ns();
        const recovery::WalScan scan = recovery::scan_wal(bench.wal_path);
        scan_s.push_back(since_s(begin));
        bench.gate.check(!scan.truncated && !scan.records.empty(),
                         "scan_wal: truncated WAL (" + scan.note + ")");
      }
    });
  }
  // Leaf calls on the workload's own inputs and final snapshot.
  bench.guarded("leaf timing", [&] {
    const RunSample sample =
        bench.public_run([&](const Host& host, const SnapshotPtr& snapshot) {
          leaves = time_leaves(host, snapshot,
                               std::max<std::size_t>(1, traced.peak_slots));
          leaves_timed = true;
        });
    bench.check_digests(sample, "leaf timing run");
  });
  bench.gate.check(leaves_timed, "leaf calls not timed");
  bench.gate.check(traced.runs > 0,
                   "every traced run dropped events or was torn");

  const TraceStats& wal_stats = def.registry ? traced : traced_log;
  report.median_of("engine.begin_ms", begin_s, 1e3, "ms");
  report.median_of("engine.plan_us_p50", plan_s, 1e6, "us");
  report.median_of("engine.finish_us_p50", finish_s, 1e6, "us");
  report.median_of("exec.graph_us_p50", traced.graph_us, 1.0, "us");
  report.tail_of("exec.graph_us_tail", traced.graph_us, 1.0, "us");
  report.median_of("exec.graph_self_us_p50", traced.graph_self_us, 1.0, "us");
  report.median_of("exec.dispatch_us_p50", traced.dispatch_us, 1.0, "us");
  const double threads = static_cast<double>(bench.executor.threads());
  report.add("exec.busy_frac",
             traced.graph_ns > 0.0
                 ? traced.sub_batch_ns / (traced.graph_ns * threads)
                 : 0.0,
             "frac", traced.graph_us.size());
  report.add("exec.nodes_per_step",
             traced.graphs > 0 ? static_cast<double>(traced.nodes) /
                                     static_cast<double>(traced.graphs)
                               : 0.0,
             "count", traced.graphs);
  report.add("serve.ns_per_query",
             traced.arrivals > 0
                 ? traced.sub_batch_ns / static_cast<double>(traced.arrivals)
                 : 0.0,
             "ns", traced.arrivals);
  report.median_of("serve.sub_batch_us_p50", traced.sub_batch_us, 1.0, "us");
  report.tail_of("serve.sub_batch_us_tail", traced.sub_batch_us, 1.0, "us");
  report.add("core.sample_from_cdf_ns", leaves.sample_from_cdf_ns, "ns", 5);
  report.add("core.migration_probability_ns",
             leaves.migration_probability_ns, "ns", 5);
  report.add("util.rng_below_ns", leaves.rng_below_ns, "ns", 5);
  report.add("util.rng_bernoulli_ns", leaves.rng_bernoulli_ns, "ns", 5);
  report.add("util.hist_record_ns", leaves.hist_record_ns, "ns", 5);
  report.add("service.ledger_add_ns", leaves.ledger_add_ns, "ns", 5);
  report.add("leaf.serve_sum_ns", leaves.serve_sum_ns(), "ns", 5);
  report.add("service.snapshot_build_us", leaves.snapshot_build_us, "us", 5);
  report.add("service.fold_us", leaves.fold_us, "us", 5);
  report.add("util.hist_merge_us", leaves.hist_merge_us, "us", 5);
  report.median_of("registry.round_us_p50", wal_stats.round_us, 1.0, "us");
  report.tail_of("registry.round_us_tail", wal_stats.round_us, 1.0, "us");
  report.median_of("registry.host_us_p50", wal_stats.host_us, 1.0, "us");
  report.median_of("wal.log_round_us_p50", log_round_s, 1e6, "us");
  report.tail_of("wal.log_round_us_tail", log_round_s, 1e6, "us");
  report.median_of("wal.append_us_p50", wal_stats.wal_append_us, 1.0, "us");
  report.add("recovery.encode_cut_us", leaves.encode_cut_us, "us", 5);
  report.median_of("recovery.scan_ms", scan_s, 1e3, "ms");
  report.add("trace.overhead_frac",
             untraced_wall.empty() || traced_wall.empty()
                 ? 0.0
                 : median(traced_wall) / median(untraced_wall) - 1.0,
             "frac", std::min(untraced_wall.size(), traced_wall.size()));
  report.add("trace.events", static_cast<double>(traced.events +
                                                 traced_log.events),
             "count", traced.runs + traced.runs_rejected);
  report.add("trace.dropped", static_cast<double>(traced.dropped +
                                                  traced_log.dropped),
             "count", traced.runs + traced.runs_rejected);

  std::cout << "metrics (per-layer, traced run):\n";
  report.print_table(std::cout);
  if (engine_steps.empty() || traced_steps.empty() || graph_s.empty() ||
      traced.graph_us.empty() || (def.registry && traced.host_us.empty())) {
    return;  // the gate already failed; no budget to print
  }
  if (def.registry) {
    // Per step, i.e. per scheduling cycle, like step_ms_p50 itself.
    print_budget("traced registry run, per cycle of " +
                     std::to_string(schedule_cycle(def.tenants)) + " rounds",
                 median(traced_steps) * 1e6,
                 {{"registry host (rounds - graphs)",
                   median(traced.host_us)},
                  {"graphs (inside the rounds)",
                   median(traced.round_graph_us)},
                  {"WAL log (wal.log_round_us_p50)",
                   report.value("wal.log_round_us_p50")}});
  } else {
    const double graph_us = median(graph_s) * 1e6;
    print_budget("EpochEngine host loop", median(engine_steps) * 1e6,
                 {{"plan (add_epoch)", median(plan_s) * 1e6},
                  {"graph (Executor::run)", graph_us},
                  {"finish (finish_epoch)", median(finish_s) * 1e6},
                  {"callback", median(callback_s) * 1e6}});
    const double self_us = report.value("exec.graph_self_us_p50");
    std::printf(
        "  graph split (traced): serve sub_batches %.3f us, graph self "
        "(dispatch, fold, post, CDF, summary) %.3f us\n",
        report.value("exec.graph_us_p50") - self_us, self_us);
  }
  std::printf("leaf calls: sum %.2f ns vs serve.ns_per_query %.2f ns\n",
              leaves.serve_sum_ns(), report.value("serve.ns_per_query"));
}

int run(const Args& args) {
  const WorkloadDef& def = *find_workload(args.workload);
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  // One directory per process, so concurrent runs never share a WAL.
  const std::string dir =
      args.work_dir + "/" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(dir);

  std::cout << "host: nproc=" << nproc << " threads=" << kThreads
            << " compiler=\"" << compiler() << "\" build=" << PERFBENCH_BUILD_TYPE
            << " git=" << args.git << " seed=" << args.seed
            << " workload=" << def.name << " trace=" << (args.trace ? 1 : 0)
            << " seconds=" << args.seconds << "\n";

  Bench bench(args, def, kThreads, dir);
  const bool pinned = args.seed == kPinnedSeed;
  bench.expected = pinned ? Expected{def.pinned, def.pinned_prefix}
                          : reference_digests(def, args.seed);
  std::cout << "expected digests ("
            << (pinned ? std::string("pinned")
                       : std::to_string(kReferenceThreads) + "-thread run")
            << "): " << hex_list(bench.expected.digests) << "\n";

  Report report(bench.gate);
  if (args.trace) {
    run_layers(bench, report);
  } else {
    run_end_to_end(bench, report);
    std::cout << "metrics (end-to-end, untraced):\n";
    report.print_table(std::cout);
  }
  std::printf("  %-30s %16.6g %-10s n=%zu (failed %zu of %zu steps)\n",
              "failed_frac", bench.gate.failed_frac(), "frac",
              bench.gate.attempted(), bench.gate.failed(),
              bench.gate.attempted());
  for (const std::string& error : bench.gate.errors()) {
    std::cout << "CHECK FAILED: " << error << "\n";
  }
  std::filesystem::remove_all(dir);
  std::cout.flush();
  report.print_json(std::cout);
  return bench.gate.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
