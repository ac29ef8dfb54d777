#include "service/route_server.h"

#include <memory>
#include <stdexcept>

#include "exec/executor.h"
#include "service/epoch_engine.h"
#include "service/round_loop.h"
#include "util/stopwatch.h"

namespace staleflow {

RouteServer::RouteServer(const Instance& instance, const Policy& policy,
                         const WorkloadGenerator& workload)
    : instance_(&instance), policy_(&policy), workload_(&workload) {}

RouteServerResult RouteServer::run(const FlowVector& initial,
                                   const RouteServerOptions& options,
                                   const EpochObserver& observer,
                                   const RoundCutObserver& rounds,
                                   std::span<const EngineCheckpoint> resume) {
  // A solo run is a one-tenant registry: one engine of weight 1 served by
  // the registry's round loop, so rounds equal epochs and the WAL, the
  // crash gate and the trace are the registry's.
  EpochEngine engine(*instance_, *policy_, *workload_, store_);
  engine.begin(initial, options);
  engine.restore(resume);

  // The execution layer: borrowed from the caller (shared-pool mode, e.g.
  // inside a sweep) or owned for this run.
  std::unique_ptr<Executor> owned_executor;
  Executor* exec = options.executor;
  if (exec == nullptr) {
    owned_executor = std::make_unique<Executor>(options.threads);
    // Worker-stall faults apply to the executor this run owns; a borrowed
    // executor's host (sweep runner, tenant CLI) wires its own.
    owned_executor->set_fault_schedule(options.faults);
    exec = owned_executor.get();
  }

  TenantObserver tenant_observer;
  if (observer) {
    tenant_observer = [&observer](std::size_t, const EpochSummary& summary) {
      observer(summary);
    };
  }
  const RoundTenant tenant{&engine, 1};
  RoundState state;
  state.rounds = resume.size();
  const Stopwatch run_watch;
  run_rounds(std::span(&tenant, 1), *exec, std::move(state), tenant_observer,
             rounds, options.faults);
  return engine.finish(run_watch.seconds());
}

}  // namespace staleflow
