// Epoch-swapped bulletin boards: the read side of the route service.
//
// The paper's bulletin board is rebuilt once per period T and frozen in
// between — exactly the shape of a production routing snapshot. A
// BoardSnapshot wraps one frozen BulletinBoard together with everything a
// query needs precomputed (per-commodity sampling CDFs, one binary search
// per query), and the SnapshotStore swaps snapshots RCU-style: readers
// acquire() a shared_ptr copy under a short lock, writers publish() the
// next epoch and the old board dies when its last reader drops it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/bulletin_board.h"
#include "core/policy.h"
#include "net/instance.h"

namespace staleflow {

/// One immutable, epoch-stamped board. Safe to read from any number of
/// threads once fully constructed (i.e. after every CDF is built).
class BoardSnapshot {
 public:
  /// Tag selecting the two-phase build used by the epoch task graph.
  struct DeferCdf {};

  /// Posts `path_flow` at time `now` and precomputes the sampling CDF of
  /// `policy` for every commodity.
  BoardSnapshot(const Instance& instance, const Policy& policy,
                std::uint64_t epoch, double now,
                std::span<const double> path_flow);

  /// Two-phase build for the execution layer: posts the board and sizes
  /// the CDF table but leaves every commodity's CDF empty. The owner must
  /// call build_cdf() for every commodity before publishing — distinct
  /// commodities may be built concurrently (they write disjoint rows),
  /// which is how the epoch task graph parallelizes the snapshot build.
  BoardSnapshot(DeferCdf, const Instance& instance, const Policy& policy,
                std::uint64_t epoch, double now,
                std::span<const double> path_flow);

  /// Fills commodity `c`'s sampling CDF from the posted board. Safe to
  /// call concurrently for distinct commodities; must not race readers
  /// (call before the snapshot is published).
  void build_cdf(CommodityId c);

  std::uint64_t epoch() const noexcept { return epoch_; }
  const BulletinBoard& board() const noexcept { return board_; }

  /// Cumulative sampling distribution over commodity `c`'s local path
  /// list (see sampling_cdf() in core/policy.h).
  std::span<const double> cdf(CommodityId c) const {
    return cdf_[c.index()];
  }

 private:
  const Instance* instance_;
  const Policy* policy_;
  std::uint64_t epoch_;
  BulletinBoard board_;
  std::vector<std::vector<double>> cdf_;  // by commodity
};

using SnapshotPtr = std::shared_ptr<const BoardSnapshot>;

/// Swappable current-snapshot holder. acquire() and publish() may race
/// freely; a reader keeps its snapshot alive for as long as it holds the
/// pointer, so queries never observe a half-updated board. The lock
/// guards only the pointer copy (a serving task acquires once per
/// sub-batch, never per query) — libstdc++'s std::atomic<shared_ptr>
/// store is reported racy by ThreadSanitizer.
class SnapshotStore {
 public:
  /// Current snapshot, or nullptr before the first publish().
  SnapshotPtr acquire() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  void publish(SnapshotPtr next) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      current_.swap(next);
    }
    // `next` now holds the previous board: release it outside the lock.
  }

 private:
  mutable std::mutex mutex_;
  SnapshotPtr current_;
};

}  // namespace staleflow
