// The span aggregation behind `trace_dump_cli summary`, in a header so the
// trace suite can check it against a real traced run.
//
// Every event of a loaded trace lands in one group: its kind, optionally
// crossed with tenant, shard, worker or lane (--by). A group keeps exact
// log-bucket quantiles of the span durations, their exact total and the
// sum of the spans' `value` fields. Total time ÷ value is the group's
// per-unit cost: on sub_batch rows the value is the batch's arrivals, so
// it reads nanoseconds per served query — the serve loop's cost from any
// trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "trace/trace.h"
#include "util/log_histogram.h"

namespace staleflow::cli {

/// The shard a sub-batch span ran against (packed into arg bits 32..47);
/// 0 for every other kind.
inline std::uint64_t event_shard(const trace::TraceEvent& event) {
  return event.kind == trace::EventKind::kSubBatchSpan
             ? (event.arg >> 32) & 0xFFFF
             : 0;
}

/// The execution lane a sub-batch span ran on (arg bits 48..63), as a
/// label: "?" for pre-lane traces (code 0), "main" for a non-pool thread
/// helping (code 1), the worker lane number otherwise (code k+2); "-" for
/// every other event kind.
inline std::string event_lane(const trace::TraceEvent& event) {
  if (event.kind != trace::EventKind::kSubBatchSpan) return "-";
  const std::uint64_t code = event.arg >> 48;
  if (code == 0) return "?";
  if (code == 1) return "main";
  return std::to_string(code - 2);
}

struct SpanGroup {
  LogHistogram hist{1e-3, 1e9};  // durations in us: 1 ns .. ~17 min
  std::uint64_t total_ns = 0;     // exact summed durations
  std::uint64_t value_total = 0;

  /// Span time per unit of value in ns (ns per query on sub_batch and
  /// epoch rows); 0 when the group's spans carry no value.
  double ns_per_unit() const {
    return value_total == 0 ? 0.0
                            : static_cast<double>(total_ns) /
                                  static_cast<double>(value_total);
  }
};

/// Groups `loaded`'s events by kind, or by kind crossed with `by`
/// ("tenant", "shard", "worker" or "lane"; anything else means kind).
inline std::map<std::string, SpanGroup> summarize_spans(
    const trace::LoadedTrace& loaded, const std::string& by) {
  std::map<std::string, SpanGroup> groups;
  for (const trace::LoadedEvent& loaded_event : loaded.events) {
    const trace::TraceEvent& e = loaded_event.event;
    std::string key(trace::event_kind_name(e.kind));
    if (by == "tenant") {
      key += "/tenant=" + std::to_string(e.tenant);
    } else if (by == "shard") {
      key += "/shard=" + std::to_string(event_shard(e));
    } else if (by == "worker") {
      key += "/worker=" + std::to_string(loaded_event.worker);
    } else if (by == "lane") {
      key += "/lane=" + event_lane(e);
    }
    SpanGroup& group = groups[key];
    const std::uint64_t duration_ns = e.end_ns - e.begin_ns;
    // Instants (publish events) record as zero-length spans; clamp into
    // the histogram's range so they count without skewing quantiles up.
    group.hist.record(
        std::max(static_cast<double>(duration_ns) / 1e3, 1e-3));
    group.total_ns += duration_ns;
    group.value_total += e.value;
  }
  return groups;
}

}  // namespace staleflow::cli
