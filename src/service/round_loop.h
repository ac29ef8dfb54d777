// The one host loop every serving front end runs: weighted round-robin
// scheduler rounds over EpochEngines on one Executor.
//
// Per round every unfinished engine accrues `weight` credits and serves
// one epoch when its credits reach the maximum weight, so a weight-w
// engine serves w epochs for every max_weight rounds. The round's epochs
// go into ONE combined TaskGraph (engines share no mutable state, so
// their nodes interleave freely), then every scheduled engine finishes
// its epoch in order. The schedule is a pure function of the weights and
// epoch budgets — never of threads or timing.
//
// TenantRegistry::run is this loop over its tenants; RouteServer::run is
// the same loop over one engine of weight 1, where rounds equal epochs.
// A solo run's WAL is therefore the WAL of a one-tenant registry, and a
// `crash:at=N` fault counts rounds in both.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "service/checkpoint.h"
#include "service/telemetry.h"

namespace staleflow {

class EpochEngine;
class Executor;

namespace faults {
class FaultSchedule;
}

/// Called at every finished epoch with the engine's index and the
/// epoch's summary. Invoked on the driving thread, between scheduler
/// rounds, in index order within a round.
using TenantObserver =
    std::function<void(std::size_t tenant, const EpochSummary&)>;

/// One engine the round loop serves, with its relative epoch rate.
struct RoundTenant {
  EpochEngine* engine = nullptr;  // begun (and restored, when resuming)
  std::size_t weight = 1;         // >= 1
};

/// Where the scheduler stands: rounds executed and per-engine credits
/// (empty = all zero). A fresh run starts at {0, {}}; a resumed one at
/// the last committed round mark.
struct RoundState {
  std::size_t rounds = 0;
  std::vector<std::size_t> credits;
};

/// Serves every engine's remaining epochs and returns the final state.
/// `rounds`, when set, is called after every round with the post-round
/// credits and the cut of every engine that finished an epoch in it —
/// even a round where credits only accrued is checkpointed. The crash
/// point of `faults` (nullptr = none) fires after that call, so the WAL
/// holds exactly the committed rounds.
RoundState run_rounds(std::span<const RoundTenant> tenants,
                      Executor& executor, RoundState state,
                      const TenantObserver& observer,
                      const RoundCutObserver& rounds,
                      const faults::FaultSchedule* faults);

}  // namespace staleflow
