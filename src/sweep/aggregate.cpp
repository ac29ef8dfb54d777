#include "sweep/aggregate.h"

#include <iomanip>
#include <sstream>

#include "util/csv.h"
#include "util/fnv.h"

namespace staleflow {
namespace {

GroupSummary& group_for(std::vector<GroupSummary>& groups,
                        const CellResult& cell) {
  for (GroupSummary& group : groups) {
    if (group.scenario == cell.cell.scenario &&
        group.policy == cell.cell.policy) {
      return group;
    }
  }
  GroupSummary fresh;
  fresh.scenario = cell.cell.scenario;
  fresh.policy = cell.cell.policy;
  groups.push_back(std::move(fresh));
  return groups.back();
}

/// Mean rendered as "-" for empty accumulators (e.g. no converged cells).
std::string fmt_mean(const RunningStats& stats, int precision = 4) {
  return stats.empty() ? "-" : fmt(stats.mean(), precision);
}

/// Histogram quantile rendered with round-trip precision, "" when empty —
/// the CSV convention for not-applicable numeric columns.
std::string fmt_quantile(const LogHistogram& histogram, double q) {
  return histogram.empty() ? "" : fmt_exact(histogram.quantile(q));
}

}  // namespace

std::vector<GroupSummary> summarise(const SweepResult& result) {
  std::vector<GroupSummary> groups;
  for (const CellResult& cell : result.cells) {
    GroupSummary& group = group_for(groups, cell);
    ++group.cells;
    if (!cell.ok) {
      ++group.errors;
      continue;
    }
    if (cell.converged) {
      ++group.converged;
      group.time_to_converge.add(cell.time_to_converge);
    }
    if (cell.settled) ++group.settled;
    if (cell.period_two) ++group.period_two;
    group.final_gap.add(cell.final_gap);
    group.final_potential.add(cell.final_potential);
    group.oscillation.add(cell.oscillation_amplitude);

    if (result.simulator == SimulatorKind::kService) {
      group.queries += cell.queries;
      group.migrations += cell.migrations;
      group.migration_rate.add(cell.migration_rate);
      group.latency.merge(cell.latency);
    }
  }
  return groups;
}

Table summary_table(std::span<const GroupSummary> groups) {
  Table table({"scenario", "policy", "cells", "conv", "err", "mean gap",
               "mean phi", "mean t_conv", "mean osc", "settled", "p2",
               "mean mig", "p99 lat"});
  for (const GroupSummary& group : groups) {
    table.add_row({group.scenario, group.policy, fmt_int((long long)group.cells),
                   fmt_int((long long)group.converged),
                   fmt_int((long long)group.errors),
                   group.final_gap.empty() ? "-"
                                           : fmt_sci(group.final_gap.mean()),
                   fmt_mean(group.final_potential),
                   fmt_mean(group.time_to_converge),
                   group.oscillation.empty()
                       ? "-"
                       : fmt_sci(group.oscillation.mean()),
                   fmt_int((long long)group.settled),
                   fmt_int((long long)group.period_two),
                   fmt_mean(group.migration_rate),
                   group.latency.empty()
                       ? "-"
                       : fmt(group.latency.quantile(0.99), 4)});
  }
  return table;
}

std::string fmt_exact(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

void write_cells_csv(const std::string& path, const SweepResult& result) {
  CsvWriter csv(path,
                {"index", "scenario", "policy", "update_period", "replica",
                 "workload", "shards", "tenants", "faults", "ok", "paths",
                 "commodities", "phases", "final_time", "converged",
                 "time_to_converge", "final_gap", "final_potential",
                 "oscillation_amplitude", "settled", "period_two",
                 "queries", "migrations", "migration_rate", "latency_p50",
                 "latency_p99", "latency_p999", "error"});
  for (const CellResult& cell : result.cells) {
    csv.add_row({fmt_int((long long)cell.cell.index), cell.cell.scenario,
                 cell.cell.policy, fmt_exact(cell.cell.update_period),
                 fmt_int((long long)cell.cell.replica), cell.cell.workload,
                 fmt_int((long long)cell.cell.shards),
                 fmt_int((long long)cell.cell.tenants), cell.cell.faults,
                 fmt_bool(cell.ok),
                 fmt_int((long long)cell.paths),
                 fmt_int((long long)cell.commodities),
                 fmt_int((long long)cell.phases), fmt_exact(cell.final_time),
                 fmt_bool(cell.converged),
                 cell.converged ? fmt_exact(cell.time_to_converge) : "",
                 fmt_exact(cell.final_gap), fmt_exact(cell.final_potential),
                 fmt_exact(cell.oscillation_amplitude),
                 fmt_bool(cell.settled), fmt_bool(cell.period_two),
                 fmt_int((long long)cell.queries),
                 fmt_int((long long)cell.migrations),
                 fmt_exact(cell.migration_rate),
                 fmt_quantile(cell.latency, 0.5),
                 fmt_quantile(cell.latency, 0.99),
                 fmt_quantile(cell.latency, 0.999), cell.error});
  }
  csv.close();
}

void write_summary_csv(const std::string& path,
                       std::span<const GroupSummary> groups) {
  CsvWriter csv(path, {"scenario", "policy", "cells", "errors", "converged",
                       "settled", "period_two", "mean_final_gap",
                       "max_final_gap", "mean_final_potential",
                       "mean_time_to_converge", "mean_oscillation",
                       "queries", "migrations", "mean_migration_rate",
                       "latency_p50", "latency_p99", "latency_p999"});
  for (const GroupSummary& group : groups) {
    csv.add_row({group.scenario, group.policy,
                 fmt_int((long long)group.cells),
                 fmt_int((long long)group.errors),
                 fmt_int((long long)group.converged),
                 fmt_int((long long)group.settled),
                 fmt_int((long long)group.period_two),
                 group.final_gap.empty() ? ""
                                         : fmt_exact(group.final_gap.mean()),
                 group.final_gap.empty() ? ""
                                         : fmt_exact(group.final_gap.max()),
                 group.final_potential.empty()
                     ? ""
                     : fmt_exact(group.final_potential.mean()),
                 group.time_to_converge.empty()
                     ? ""
                     : fmt_exact(group.time_to_converge.mean()),
                 group.oscillation.empty()
                     ? ""
                     : fmt_exact(group.oscillation.mean()),
                 fmt_int((long long)group.queries),
                 fmt_int((long long)group.migrations),
                 group.migration_rate.empty()
                     ? ""
                     : fmt_exact(group.migration_rate.mean()),
                 fmt_quantile(group.latency, 0.5),
                 fmt_quantile(group.latency, 0.99),
                 fmt_quantile(group.latency, 0.999)});
  }
  csv.close();
}

void write_hist_csv(const std::string& path, const SweepResult& result) {
  CsvWriter csv(path, {"index", "scenario", "policy", "update_period",
                       "replica", "workload", "shards", "tenants", "faults",
                       "bucket", "lower", "upper", "count", "cumulative"});
  for (const CellResult& cell : result.cells) {
    std::uint64_t cumulative = 0;
    // Occupied buckets only: CDFs, not zeros.
    cell.latency.for_each_bucket([&](std::size_t b, std::uint64_t count) {
      cumulative += count;
      csv.add_row({fmt_int((long long)cell.cell.index), cell.cell.scenario,
                   cell.cell.policy, fmt_exact(cell.cell.update_period),
                   fmt_int((long long)cell.cell.replica), cell.cell.workload,
                   fmt_int((long long)cell.cell.shards),
                   fmt_int((long long)cell.cell.tenants), cell.cell.faults,
                   fmt_int((long long)b), fmt_exact(cell.latency.bucket_lower(b)),
                   fmt_exact(cell.latency.bucket_upper(b)),
                   fmt_int((long long)count), fmt_int((long long)cumulative)});
    });
  }
  csv.close();
}

std::uint64_t cells_digest(const SweepResult& result) {
  std::uint64_t h = fnv::kOffsetBasis;
  for (const CellResult& cell : result.cells) {
    fnv::hash_u64(h, cell.cell.index);
    fnv::hash_string(h, cell.cell.scenario);
    fnv::hash_string(h, cell.cell.policy);
    fnv::hash_double(h, cell.cell.update_period);
    fnv::hash_u64(h, cell.cell.replica);
    fnv::hash_string(h, cell.cell.workload);
    fnv::hash_u64(h, cell.cell.shards);
    fnv::hash_u64(h, cell.cell.tenants);
    // Gated so healthy sweeps keep their pre-fault-axis digests; a chaos
    // sweep hashes the spec so a silently dropped fault axis cannot pin.
    if (!cell.cell.faults.empty()) fnv::hash_string(h, cell.cell.faults);
    fnv::hash_u64(h, cell.ok ? 1 : 0);
    fnv::hash_u64(h, cell.paths);
    fnv::hash_u64(h, cell.commodities);
    fnv::hash_u64(h, cell.phases);
    fnv::hash_double(h, cell.final_time);
    fnv::hash_u64(h, cell.converged ? 1 : 0);
    fnv::hash_double(h, cell.converged ? cell.time_to_converge : 0.0);
    fnv::hash_double(h, cell.final_gap);
    fnv::hash_double(h, cell.final_potential);
    fnv::hash_double(h, cell.oscillation_amplitude);
    fnv::hash_u64(h, cell.queries);
    fnv::hash_u64(h, cell.migrations);
    fnv::hash_double(h, cell.migration_rate);
    if (!cell.latency.empty()) {
      fnv::hash_u64(h, cell.latency.count());
      fnv::hash_double(h, cell.latency.quantile(0.5));
      fnv::hash_double(h, cell.latency.quantile(0.99));
      fnv::hash_double(h, cell.latency.quantile(0.999));
    }
  }
  return h;
}

}  // namespace staleflow
