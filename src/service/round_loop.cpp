#include "service/round_loop.h"

#include <algorithm>

#include "exec/executor.h"
#include "faults/fault_plan.h"
#include "service/epoch_engine.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace staleflow {

RoundState run_rounds(std::span<const RoundTenant> tenants,
                      Executor& executor, RoundState state,
                      const TenantObserver& observer,
                      const RoundCutObserver& rounds,
                      const faults::FaultSchedule* faults) {
  if (state.credits.empty()) state.credits.assign(tenants.size(), 0);
  std::size_t max_weight = 1;
  for (const RoundTenant& tenant : tenants) {
    max_weight = std::max(max_weight, tenant.weight);
  }

  std::vector<std::size_t> scheduled;
  for (;;) {
    scheduled.clear();
    bool all_done = true;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i].engine->done()) continue;
      all_done = false;
      state.credits[i] += tenants[i].weight;
      if (state.credits[i] >= max_weight) {
        state.credits[i] -= max_weight;
        scheduled.push_back(i);
      }
    }
    if (all_done) break;
    ++state.rounds;
    static trace::Counter& rounds_counter =
        trace::MetricsRegistry::global().counter("registry.rounds");
    rounds_counter.inc();
    if (!scheduled.empty()) {
      trace::Span round_span(trace::EventKind::kSchedulerRound,
                             /*tenant=*/0, /*epoch=*/0,
                             /*arg=*/scheduled.size());
      round_span.value(state.rounds);
      // One combined graph: one epoch per scheduled engine. This is where
      // co-tenancy actually overlaps work on the pool.
      TaskGraph graph;
      for (const std::size_t i : scheduled) {
        tenants[i].engine->add_epoch(graph);
      }
      executor.run(graph);
      for (const std::size_t i : scheduled) {
        EpochObserver epoch_observer;
        if (observer) {
          epoch_observer = [&observer, i](const EpochSummary& summary) {
            observer(i, summary);
          };
        }
        tenants[i].engine->finish_epoch(0.0, epoch_observer);
      }
    }
    if (rounds) {
      RoundCheckpoint cut;
      cut.rounds = state.rounds;
      cut.credits = state.credits;
      cut.cuts.reserve(scheduled.size());
      for (const std::size_t i : scheduled) {
        cut.cuts.emplace_back(i, tenants[i].engine->checkpoint());
      }
      rounds(cut);
    }
    // The crash point fires AFTER the round's cut observer: the WAL holds
    // exactly the committed rounds. Every iteration commits a new round,
    // so a resumed run never re-fires the clause at its restored count.
    if (faults != nullptr && faults->crash_after(state.rounds)) {
      faults::crash_process(state.rounds);
    }
  }
  return state;
}

}  // namespace staleflow
