// A finite client population partitioned across commodities.
//
// The offline AgentSimulator and the online RouteServer simulate the same
// pre-limit object: N discrete clients, each pinned to one commodity,
// currently sitting on one of its paths and carrying demand_i / N_i flow.
// This class is that shared state — the allocation of clients to
// commodities (proportional to demand, at least one each), the initial
// path assignment approximating a target flow, and the induced empirical
// path-flow vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/instance.h"

namespace staleflow {

/// The deterministic initial assignment of a client fleet, as counts.
/// Client ids enumerate commodities in order, then each commodity's paths
/// in local order, so these counts fix every client's (commodity, path)
/// without a per-client table: Population expands them client by client,
/// the route service builds its own client table from them.
struct InitialAssignment {
  std::vector<std::size_t> clients_per_commodity;
  std::vector<double> flow_per_client;  // by commodity: demand_i / N_i
  /// Clients starting on each local path: path_clients[c][j].
  std::vector<std::vector<std::size_t>> path_clients;
  std::vector<double> empirical;  // induced path flow, by path
};

/// Allocates `num_clients` across commodities proportionally to demand
/// (at least one each; throws std::invalid_argument when num_clients <
/// commodity_count()) and spreads each commodity's clients over its paths
/// so the empirical flow approximates `target` (counts are rounded;
/// rounding drift is corrected greedily).
InitialAssignment initial_assignment(const Instance& instance,
                                     std::size_t num_clients,
                                     std::span<const double> target);

class Population {
 public:
  /// Expands initial_assignment(instance, num_clients, target) into one
  /// (commodity, path) entry per client, in client-id order.
  Population(const Instance& instance, std::size_t num_clients,
             std::span<const double> target);

  std::size_t size() const noexcept { return commodity_.size(); }

  CommodityId commodity_of(std::size_t client) const {
    return CommodityId{static_cast<std::size_t>(commodity_[client])};
  }

  /// Index into the client's commodity path list.
  std::size_t local_path(std::size_t client) const {
    return local_path_[client];
  }

  /// Global path the client currently uses.
  PathId path_of(std::size_t client) const;

  /// Flow volume the client carries (its commodity's demand_i / N_i).
  double flow_of(std::size_t client) const {
    return flow_per_client_[commodity_[client]];
  }

  std::size_t clients_of(CommodityId c) const {
    return clients_per_commodity_[c.index()];
  }

  /// Empirical path flow induced by the assignment. Reflects migrate()
  /// calls only — reassign() leaves it to the caller's own accounting.
  std::span<const double> empirical_flow() const noexcept {
    return empirical_;
  }

  /// Moves the client to local path `target` and updates the empirical
  /// flow (single-threaded use: AgentSimulator).
  void migrate(std::size_t client, std::size_t target);

  /// Moves the client without touching the shared empirical flow; the
  /// caller accounts the flow deltas itself. Distinct clients may be
  /// reassigned from distinct threads concurrently (sharded server mode).
  void reassign(std::size_t client, std::size_t target) {
    local_path_[client] = static_cast<std::uint32_t>(target);
  }

 private:
  const Instance* instance_;
  std::vector<std::uint32_t> commodity_;   // by client
  std::vector<std::uint32_t> local_path_;  // by client
  std::vector<std::size_t> clients_per_commodity_;
  std::vector<double> flow_per_client_;    // by commodity
  std::vector<double> empirical_;          // by path
};

}  // namespace staleflow
