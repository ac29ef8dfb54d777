// E12 — engine micro-benchmarks (google-benchmark): the cost of the
// building blocks every experiment leans on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "staleflow/staleflow.h"
#include "util/fnv.h"

namespace staleflow {
namespace {

void BM_PathEnumerationGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{r * n + c + 1});
      if (r + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{(r + 1) * n + c});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        count_simple_paths(g, VertexId{0}, VertexId{n * n - 1}));
  }
}
BENCHMARK(BM_PathEnumerationGrid)->Arg(4)->Arg(6)->Arg(8);

void BM_FlowEvaluate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const FlowVector f = FlowVector::uniform(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(inst, f.values()));
  }
}
BENCHMARK(BM_FlowEvaluate)->Arg(8)->Arg(64)->Arg(512);

void BM_PotentialClosedForm(benchmark::State& state) {
  Rng rng(3);
  const Instance inst = grid(4, 4, rng);
  const FlowVector f = FlowVector::uniform(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential(inst, f.values()));
  }
}
BENCHMARK(BM_PotentialClosedForm);

void BM_PhaseRatesBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhaseRates(inst, policy, board));
  }
}
BENCHMARK(BM_PhaseRatesBuild)->Arg(8)->Arg(32)->Arg(128);

void BM_ExpmTransition(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  const PhaseRates rates(inst, policy, board);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rates.transition(0.25));
  }
}
BENCHMARK(BM_ExpmTransition)->Arg(8)->Arg(32)->Arg(64);

void BM_Rk4Phase(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Instance inst = uniform_parallel_links(m, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  BulletinBoard board(inst);
  board.post(0.0, FlowVector::uniform(inst).values());
  const PhaseRates rates(inst, policy, board);
  const OdeRhs rhs = [&rates](double, std::span<const double> y,
                              std::span<double> dydt) { rates.rhs(y, dydt); };
  const RungeKutta4 integrator(0.25 / 32.0);
  const FlowVector start = FlowVector::uniform(inst);
  for (auto _ : state) {
    std::vector<double> f(start.values().begin(), start.values().end());
    integrator.integrate(rhs, 0.0, 0.25, f);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_Rk4Phase)->Arg(8)->Arg(32)->Arg(128);

void BM_FrankWolfeSolve(benchmark::State& state) {
  Rng rng(17);
  const Instance inst = random_parallel_links(
      static_cast<std::size_t>(state.range(0)), rng);
  FrankWolfeOptions options;
  options.gap_tolerance = 1e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_equilibrium(inst, options));
  }
}
BENCHMARK(BM_FrankWolfeSolve)->Arg(4)->Arg(16)->Arg(64);

void BM_AgentSimulator(benchmark::State& state) {
  const Instance inst = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_uniform_linear_policy(inst);
  const AgentSimulator sim(inst, policy);
  AgentSimOptions options;
  options.num_agents = static_cast<std::size_t>(state.range(0));
  options.update_period = 0.25;
  options.horizon = 1.0;
  options.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(FlowVector::uniform(inst), options));
  }
}
BENCHMARK(BM_AgentSimulator)->Arg(1'000)->Arg(10'000);

void BM_BestResponsePhase(benchmark::State& state) {
  const Instance inst = two_link_pulse(4.0);
  const BestResponseSimulator sim(inst);
  BestResponseOptions options;
  options.update_period = 0.1;
  options.horizon = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(FlowVector(inst, {0.7, 0.3}), options));
  }
}
BENCHMARK(BM_BestResponsePhase);

/// 1 MB of record bytes cut into 16 records of 64 KiB: what a WAL scan
/// checksums.
std::vector<std::string_view> checksum_spans(const std::string& bytes) {
  std::vector<std::string_view> spans;
  for (std::size_t at = 0; at < bytes.size(); at += 64 * 1024) {
    spans.push_back(std::string_view(bytes).substr(at, 64 * 1024));
  }
  return spans;
}

std::string megabyte() {
  std::string bytes(1 << 20, '\0');
  Rng rng(3);
  for (char& byte : bytes) byte = static_cast<char>(rng.below(256));
  return bytes;
}

void BM_FnvSerial(benchmark::State& state) {
  const std::string bytes = megabyte();
  const std::vector<std::string_view> spans = checksum_spans(bytes);
  std::vector<std::uint64_t> sums(spans.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      sums[i] = fnv::kOffsetBasis;
      fnv::hash_bytes(sums[i], spans[i].data(), spans[i].size());
    }
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FnvSerial);

void BM_FnvFourLanes(benchmark::State& state) {
  const std::string bytes = megabyte();
  const std::vector<std::string_view> spans = checksum_spans(bytes);
  std::vector<std::uint64_t> sums(spans.size());
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), fnv::kOffsetBasis);
    fnv::hash_lanes(spans, sums);
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FnvFourLanes);

/// A 40,000-client cut on 8 paths, as a WAL records it.
EngineCheckpoint large_cut() {
  EngineCheckpoint cut;
  cut.summary.epoch = 0;
  Rng rng(9);
  cut.flow.assign(8, 0.125);
  for (std::size_t c = 0; c < 40'000; ++c) {
    cut.client_paths.push_back(static_cast<std::uint32_t>(rng.below(8)));
  }
  for (int i = 0; i < 1000; ++i) cut.route_hist.record(rng.uniform(1.0, 9.0));
  return cut;
}

void BM_EncodeEpochCut(benchmark::State& state) {
  const EngineCheckpoint cut = large_cut();
  for (auto _ : state) {
    benchmark::DoNotOptimize(recovery::encode_epoch_cut(0, cut, 1));
  }
}
BENCHMARK(BM_EncodeEpochCut);

void BM_DecodeEpochCut(benchmark::State& state) {
  const std::string payload = recovery::encode_epoch_cut(0, large_cut(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recovery::decode_epoch_cut(payload));
  }
}
BENCHMARK(BM_DecodeEpochCut);

/// A default-geometry histogram with `occupied` adjacent nonzero buckets:
/// a few (a served sub-batch holds one value per path, here from 1.0 up)
/// or all 1,916 (full occupancy, the worst case).
LogHistogram histogram_occupying(std::size_t occupied) {
  LogHistogram hist;
  const std::size_t first =
      occupied >= hist.bucket_count() ? 0 : hist.bucket_index(1.0);
  for (std::size_t b = first; b < first + occupied; ++b) {
    hist.record(hist.bucket_lower(b), 1 + b % 7);
  }
  return hist;
}

/// One epoch's summary merge: reset the epoch histogram, then merge eight
/// sub-batch histograms into it. Costs the occupied buckets only.
void BM_HistogramResetMerge(benchmark::State& state) {
  const LogHistogram sub = histogram_occupying(
      static_cast<std::size_t>(state.range(0)));
  LogHistogram epoch;
  epoch.merge(sub);  // allocated, as in a serving loop's second epoch
  for (auto _ : state) {
    epoch.reset();
    for (int b = 0; b < 8; ++b) epoch.merge(sub);
    benchmark::DoNotOptimize(epoch.count());
  }
}
BENCHMARK(BM_HistogramResetMerge)->ArgName("occupied")->Arg(4)->Arg(1916);

/// An epoch summary's three serving percentiles.
void BM_HistogramQuantiles(benchmark::State& state) {
  const LogHistogram hist = histogram_occupying(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.quantile(0.5));
    benchmark::DoNotOptimize(hist.quantile(0.99));
    benchmark::DoNotOptimize(hist.quantile(0.999));
  }
}
BENCHMARK(BM_HistogramQuantiles)->ArgName("occupied")->Arg(4)->Arg(1916);

}  // namespace
}  // namespace staleflow

BENCHMARK_MAIN();
