#include "layers.h"

#include <algorithm>
#include <map>

#include "stats.h"

namespace perfbench {

using namespace staleflow;

namespace {

double span_us(const Interval& span) {
  return static_cast<double>(span.second - span.first) * 1e-3;
}

/// counter name -> (first sampled value, last sampled value).
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
counter_ranges(const trace::LoadedTrace& loaded) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const trace::CounterBatch& batch : loaded.counter_batches) {
    for (const auto& [id, value] : batch.values) {
      if (id >= loaded.counter_names.size()) continue;
      const auto [it, fresh] =
          ranges.try_emplace(loaded.counter_names[id], value, value);
      if (!fresh) it->second.second = value;
    }
  }
  return ranges;
}

/// Keeps the optimizer from discarding a timed loop's result.
volatile double g_sink = 0.0;

/// Median over five timed repetitions of `loop` (which performs `ops`
/// operations and returns a value to sink), in ns per operation.
template <typename Loop>
double ns_per_op(std::size_t ops, Loop&& loop) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t begin = trace::now_ns();
    g_sink = g_sink + static_cast<double>(loop());
    samples.push_back(static_cast<double>(trace::now_ns() - begin) /
                      static_cast<double>(ops));
  }
  return median(samples);
}

}  // namespace

void pool_trace(const std::string& path, std::size_t cycle,
                TraceStats& stats) {
  const trace::LoadedTrace loaded = trace::load_trace(path);
  stats.events += loaded.trailer_events;
  stats.dropped += loaded.trailer_dropped;
  if (!loaded.clean_shutdown || loaded.trailer_dropped > 0) {
    ++stats.runs_rejected;
    return;
  }
  ++stats.runs;

  std::vector<Interval> graphs;
  std::vector<Interval> rounds;
  std::vector<std::pair<Interval, std::uint64_t>> subs;  // span, arrivals
  for (const trace::LoadedEvent& loaded_event : loaded.events) {
    const trace::TraceEvent& event = loaded_event.event;
    const Interval span{event.begin_ns, event.end_ns};
    switch (event.kind) {
      case trace::EventKind::kGraphSpan:
        graphs.push_back(span);
        break;
      case trace::EventKind::kSubBatchSpan:
        subs.emplace_back(span, event.value);
        stats.sub_batch_us.push_back(span_us(span));
        stats.sub_batch_ns += static_cast<double>(span.second - span.first);
        stats.arrivals += event.value;
        break;
      case trace::EventKind::kSchedulerRound:
        rounds.push_back(span);
        break;
      case trace::EventKind::kWalAppend:
        stats.wal_append_us.push_back(span_us(span));
        break;
      case trace::EventKind::kEpochSpan:
        if (event.tenant == 0) {
          stats.peak_slots =
              std::max<std::size_t>(stats.peak_slots, event.arg);
        }
        break;
      default:
        break;
    }
  }
  std::sort(graphs.begin(), graphs.end());
  std::sort(rounds.begin(), rounds.end());
  std::sort(subs.begin(), subs.end());

  // The host runs one graph at a time, so a sub_batch span belongs to the
  // graph whose interval contains it; both lists are sorted by begin.
  std::size_t next_sub = 0;
  std::vector<Interval> children;
  for (const Interval& graph : graphs) {
    stats.graph_us.push_back(span_us(graph));
    stats.graph_ns += static_cast<double>(graph.second - graph.first);
    while (next_sub < subs.size() && subs[next_sub].first.first < graph.first)
      ++next_sub;
    children.clear();
    while (next_sub < subs.size() &&
           subs[next_sub].first.second <= graph.second) {
      children.push_back(subs[next_sub].first);
      ++next_sub;
    }
    if (children.empty()) continue;
    stats.graph_self_us.push_back(
        static_cast<double>(self_ns(graph, children)) * 1e-3);
    stats.dispatch_us.push_back(
        static_cast<double>(children.front().first - graph.first) * 1e-3);
  }

  // A scheduler round runs one combined graph; its host time is the rest.
  // Round i closes at the registry's i-th step callback.
  std::vector<double> round_ns;
  std::vector<double> inside_ns;
  std::size_t next_graph = 0;
  for (const Interval& round : rounds) {
    while (next_graph < graphs.size() && graphs[next_graph].first < round.first)
      ++next_graph;
    std::uint64_t inside = 0;
    while (next_graph < graphs.size() &&
           graphs[next_graph].second <= round.second) {
      inside += graphs[next_graph].second - graphs[next_graph].first;
      ++next_graph;
    }
    round_ns.push_back(static_cast<double>(round.second - round.first));
    inside_ns.push_back(static_cast<double>(inside));
  }
  const std::vector<double> cycle_ns = per_cycle(round_ns, cycle);
  const std::vector<double> cycle_inside_ns = per_cycle(inside_ns, cycle);
  for (std::size_t c = 0; c < cycle_ns.size(); ++c) {
    stats.round_us.push_back(cycle_ns[c] * 1e-3);
    stats.round_graph_us.push_back(cycle_inside_ns[c] * 1e-3);
    stats.host_us.push_back((cycle_ns[c] - cycle_inside_ns[c]) * 1e-3);
  }

  const auto ranges = counter_ranges(loaded);
  const auto delta = [&](const std::string& name) -> std::uint64_t {
    const auto it = ranges.find(name);
    return it == ranges.end() ? 0 : it->second.second - it->second.first;
  };
  stats.nodes += delta("exec.nodes");
  stats.graphs += delta("exec.graphs");
}

LeafTimes time_leaves(const Host& host, const SnapshotPtr& snapshot,
                      std::size_t slots) {
  const Instance& instance = host.instance;
  const BulletinBoard& board = snapshot->board();
  const std::span<const double> latency = board.path_latency();
  const std::size_t paths = instance.path_count();
  const std::size_t commodities = instance.commodity_count();
  const MigrationRule& migration = host.policy.migration();
  constexpr std::size_t kOps = 1 << 20;
  LeafTimes t;

  Rng rng(host.options.seed);
  t.sample_from_cdf_ns = ns_per_op(kOps, [&] {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      sum += sample_from_cdf(snapshot->cdf(CommodityId{i % commodities}), rng);
    }
    return sum;
  });
  t.migration_probability_ns = ns_per_op(kOps, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < kOps; ++i) {
      sum += migration.probability(latency[i % paths],
                                   latency[(i * 7 + 3) % paths]);
    }
    return sum;
  });
  const std::uint64_t range = host.options.num_clients / host.options.shards;
  t.rng_below_ns = ns_per_op(kOps, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kOps; ++i) sum += rng.below(range);
    return sum;
  });
  std::vector<double> chances;
  for (std::size_t p = 0; p < paths; ++p) {
    chances.push_back(migration.probability(latency[p], latency[0]));
  }
  t.rng_bernoulli_ns = ns_per_op(kOps, [&] {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      sum += rng.bernoulli(chances[i % paths]) ? 1 : 0;
    }
    return sum;
  });
  LogHistogram recorded;
  t.hist_record_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) recorded.record(latency[i % paths]);
    return recorded.count();
  });
  FlowLedger ledger(paths, slots);
  std::vector<double> flow(board.path_flow().begin(), board.path_flow().end());
  t.ledger_add_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      ledger.add(i % slots, i % paths, (i & 1) != 0 ? 1e-6 : -1e-6);
    }
    return ledger.fold_into(flow).queries;
  });

  constexpr std::size_t kBuilds = 2000;
  t.snapshot_build_us = 1e-3 * ns_per_op(kBuilds, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kBuilds; ++i) {
      const BoardSnapshot built(instance, host.policy, i, 0.0, flow);
      sum += built.epoch();
    }
    return sum;
  });
  t.fold_us = 1e-3 * ns_per_op(kBuilds, [&] {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < kBuilds; ++i) {
      ledger.add(i % slots, i % paths, 1e-9);
      sum += ledger.fold_into(flow, slots).queries;
    }
    return sum;
  });
  // A served sub-batch's route histogram holds the board latencies of the
  // paths its queries were routed on.
  LogHistogram sub_batch_hist;
  for (std::size_t i = 0; i < 4096; ++i) {
    sub_batch_hist.record(latency[(i * 7 + 3) % paths]);
  }
  t.hist_merge_us = 1e-3 * ns_per_op(kBuilds, [&] {
    LogHistogram merged;
    for (std::size_t i = 0; i < kBuilds; ++i) merged.merge(sub_batch_hist);
    return merged.count();
  });

  // A cut of this workload's shape: the final board's flow, one path per
  // client, and an epoch's route histogram.
  EngineCheckpoint cut;
  cut.summary.epoch = snapshot->epoch();
  cut.rng_state = rng.state();
  cut.flow = flow;
  cut.client_paths.assign(host.options.num_clients, 0);
  cut.route_hist = sub_batch_hist;
  constexpr std::size_t kEncodes = 50;
  t.encode_cut_us = 1e-3 * ns_per_op(kEncodes, [&] {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < kEncodes; ++i) {
      sum += recovery::encode_epoch_cut(0, cut, i).size();
    }
    return sum;
  });
  return t;
}

}  // namespace perfbench
