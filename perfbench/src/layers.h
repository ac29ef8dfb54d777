// Per-layer figures of the traced run: statistics over the spans and
// counters the program already records (read back through
// trace::load_trace), and leaf calls of the serve loop and the phase
// boundary timed in a loop on a workload's own inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "staleflow/staleflow.h"
#include "workloads.h"

namespace perfbench {

/// Span and counter statistics pooled over traced runs.
struct TraceStats {
  std::vector<double> graph_us;       // graph spans
  std::vector<double> graph_self_us;  // graph minus its sub_batch union
  std::vector<double> dispatch_us;    // graph begin -> first sub_batch
  std::vector<double> sub_batch_us;   // sub_batch spans
  // Registry runs, per scheduling cycle (one step: schedule_cycle
  // rounds after the first round), summed over the cycle's rounds.
  std::vector<double> round_us;        // scheduler_round spans
  std::vector<double> round_graph_us;  // graph spans inside those rounds
  std::vector<double> host_us;         // rounds minus their graphs
  std::vector<double> wal_append_us;  // wal_append spans
  double sub_batch_ns = 0.0;  // sum of sub_batch durations
  double graph_ns = 0.0;      // sum of graph durations
  std::uint64_t arrivals = 0;  // sum of sub_batch arrival quotas
  std::uint64_t nodes = 0;       // exec.nodes delta
  std::uint64_t graphs = 0;      // exec.graphs delta
  std::uint64_t events = 0;      // events written, all traced runs
  std::uint64_t dropped = 0;     // events dropped, all traced runs
  std::size_t peak_slots = 0;     // most sub-batches in one tenant-0 epoch
  std::size_t runs = 0;          // traced runs pooled (dropped == 0)
  std::size_t runs_rejected = 0;  // traced runs left out (dropped > 0)
};

/// Loads the trace at `path` and pools it into `stats`; `cycle` is the
/// traced registry's schedule_cycle. A trace that dropped events, or did
/// not shut down cleanly, adds only to the event/drop totals and the
/// rejected count: its spans are incomplete.
void pool_trace(const std::string& path, std::size_t cycle,
                TraceStats& stats);

/// Leaf calls, each the median of several timed loops.
struct LeafTimes {
  double sample_from_cdf_ns = 0.0;
  double migration_probability_ns = 0.0;
  double rng_below_ns = 0.0;
  double rng_bernoulli_ns = 0.0;
  double hist_record_ns = 0.0;
  double ledger_add_ns = 0.0;
  double snapshot_build_us = 0.0;  // BoardSnapshot constructor
  double fold_us = 0.0;            // FlowLedger::fold_into at `slots`
  double hist_merge_us = 0.0;      // one LogHistogram::merge
  double encode_cut_us = 0.0;      // recovery::encode_epoch_cut

  double serve_sum_ns() const noexcept {
    return sample_from_cdf_ns + migration_probability_ns + rng_below_ns +
           rng_bernoulli_ns + hist_record_ns + ledger_add_ns;
  }
};

/// Times the leaf calls on `host`'s instance and policy and the final
/// published `snapshot` of a run; `slots` is the ledger slot count one
/// epoch folds (its sub-batch count).
LeafTimes time_leaves(const Host& host,
                      const staleflow::SnapshotPtr& snapshot,
                      std::size_t slots);

}  // namespace perfbench
