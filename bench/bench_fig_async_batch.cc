// Async storage batches (beyond the paper): response time as the per-
// processor multiget window grows, overlapping next-level cache probes with
// outstanding storage fetches (CachedStorageSource issue/probe/complete
// pipeline; sim: per-batch completion events, threaded: per-processor fetch
// threads).
//
//   (a) window x cache capacity at 2 storage servers, embed routing: the
//       smaller the cache the more miss batches a level has to hide, so the
//       async win is largest exactly where the paper's decoupling tax is
//       worst. Two storage servers bound a level at two batches, so the
//       sweep is structurally monotone: window 1 (synchronous barrier) is
//       the ceiling, any window >= 2 overlaps every batch a level has.
//   (b) window x routing scheme at a small cache: the overlap is orthogonal
//       to routing quality — every scheme keeps its relative order while
//       all of them shave the probe-side work off the fetch path.
//
// Expected shape: mean response improves monotonically-or-flat as the
// window grows, saturating once the window covers a level's batch fan-out;
// fetch_overlap_us grows with the window while hit rates stay put (the
// pipeline is answer- and cache-state-identical for every window). Runs on
// either engine via GROUTING_BENCH_ENGINE.

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

constexpr uint32_t kStorageServers = 2;

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& CacheRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& SchemeRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

// Cache sizes as fractions of the dataset's adjacency bytes (fig 9 axis).
const std::vector<double>& CacheFractions() {
  static const std::vector<double> kFractions = {0.004, 0.0625, 1.25};
  return kFractions;
}

const std::vector<uint32_t>& Windows() {
  static const std::vector<uint32_t> kWindows = {1, 2, 4, 8};
  return kWindows;
}

uint64_t CacheBytesFor(double fraction) {
  const auto bytes = static_cast<uint64_t>(
      fraction * static_cast<double>(Env().graph().TotalAdjacencyBytes()));
  return std::max<uint64_t>(bytes, 1);
}

void BM_AsyncBatch_WindowXCache(benchmark::State& state) {
  const uint32_t window = Windows()[static_cast<size_t>(state.range(0))];
  const double fraction = CacheFractions()[static_cast<size_t>(state.range(1))];
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.storage_servers = kStorageServers;
  opts.cache_bytes = CacheBytesFor(fraction);
  opts.max_inflight_batches = window;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m, {"fetch_overlap_us", "batches_inflight_peak"});
  char label[128];
  std::snprintf(label, sizeof(label), "embed W=%u cache=%.1f%%", window,
                100.0 * fraction);
  CacheRows().push_back({label, m});
}

void BM_AsyncBatch_WindowXScheme(benchmark::State& state) {
  const auto scheme = AllSchemes()[static_cast<size_t>(state.range(0))];
  const uint32_t window = state.range(1) == 0 ? 1 : 4;
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = scheme;
  opts.storage_servers = kStorageServers;
  opts.cache_bytes = CacheBytesFor(/*fraction=*/0.0625);
  opts.max_inflight_batches = window;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m, {"fetch_overlap_us", "batches_inflight_peak"});
  SchemeRows().push_back(
      {RoutingSchemeKindName(scheme) + " W=" + std::to_string(window), m});
}

BENCHMARK(BM_AsyncBatch_WindowXCache)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_AsyncBatch_WindowXScheme)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable(
      "Async storage batches: multiget window x cache capacity (embed, 2 "
      "storage servers)",
      grouting::bench::CacheRows());
  grouting::bench::PrintPaperShape(
      "mean response improves monotonically-or-flat as the window grows — "
      "probe/merge work hides under outstanding fetch round trips — with the "
      "largest gain at small caches (most miss batches to hide) and "
      "saturation once the window covers a level's per-server fan-out.");
  grouting::bench::PrintMetricsTable(
      "Async storage batches: window 1 vs 4 across routing schemes (small cache)",
      grouting::bench::SchemeRows());
  grouting::bench::PrintPaperShape(
      "the async pipeline is orthogonal to routing quality: every scheme "
      "keeps its relative order and hit rate (cache state is window-"
      "invariant), while response drops for all of them.");
  grouting::bench::WriteBenchJson("fig_async_batch",
                                  {{"window_x_cache", &grouting::bench::CacheRows()},
                                   {"window_x_scheme", &grouting::bench::SchemeRows()}});
  return 0;
}
