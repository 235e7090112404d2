// Adaptive arrival re-splitting (beyond the paper): router-shard load
// balance under skewed session streams, static splitters vs the adaptive
// splitter at different migration thresholds (RouterFleet + ArrivalSplitter
// ::Rebalance, src/frontend/).
//
//   (a) splitter x session skew at 4 shards, embed routing: a Zipf session
//       stream concentrates arrivals on a few hot sessions; hash pins each
//       hot session to its hash shard and sticky to its first-touch shard,
//       so both stay imbalanced, while adaptive migrates hot sessions off
//       the loaded shard every gossip round,
//   (b) adaptive threshold sweep at fixed high skew: tighter thresholds buy
//       flatter load at the cost of more migrations; threshold <= 1
//       (disabled) reproduces sticky exactly.
//
// Expected shape: router_load_imbalance (max/min routed per shard) grows
// with skew for hash/sticky and stays near 1 for adaptive; the threshold
// sweep trades sessions_migrated against final imbalance. Runs on either
// engine via GROUTING_BENCH_ENGINE.

#include "bench/bench_common.h"

#include <algorithm>

namespace grouting {
namespace bench {
namespace {

constexpr uint32_t kShards = 4;

// The session stream honours GROUTING_BENCH_SCALE so the CI small-scale run
// actually shrinks these legs; the default scale (0.5) reproduces the
// original 96-session x 3000-query sweep.
size_t ScaledSessions() {
  return std::max<size_t>(12, static_cast<size_t>(192.0 * BenchScale()));
}
size_t ScaledQueries() {
  return std::max<size_t>(240, static_cast<size_t>(6000.0 * BenchScale()));
}

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& SkewRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& ThresholdRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

RunOptions AdaptiveOpts(SplitterKind splitter, double threshold) {
  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.router_shards = kShards;
  opts.splitter = splitter;
  opts.router_rebalance.threshold = threshold;
  opts.router_rebalance.migration_cap = 8;
  // Spread arrivals so rebalance rounds interleave with the stream (with a
  // back-to-back stream every arrival is assigned before the first gossip
  // event) and give each round a ~40-arrival window — enough signal for the
  // controller's noise floor to separate skew from sampling jitter.
  opts.gossip_period_us = 400.0;
  opts.arrival_gap_us = 10.0;
  return opts;
}

std::string Pct(double v) { return Table::Num(v, 2); }

void BM_AdaptiveSplit_SkewXSplitter(benchmark::State& state) {
  static const SplitterKind kSplitters[] = {
      SplitterKind::kHash, SplitterKind::kSticky, SplitterKind::kAdaptive};
  static const double kSkews[] = {0.0, 0.8, 1.2};
  const SplitterKind splitter = kSplitters[static_cast<size_t>(state.range(0))];
  const double zipf_s = kSkews[static_cast<size_t>(state.range(1))];
  const RunOptions opts = AdaptiveOpts(splitter, /*threshold=*/1.3);
  const auto queries = Env().SkewedWorkload(ScaledSessions(), ScaledQueries(), zipf_s);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  SetCounters(state, m, {"router_load_imbalance", "sessions_migrated"});
  // Labels are parameter-only: they are the regression gate's join key, so
  // measured values (imbalance, migrations) stay in the counters above.
  SkewRows().push_back({SplitterKindName(splitter) + " zipf=" + Pct(zipf_s), m});
}

void BM_AdaptiveSplit_Threshold(benchmark::State& state) {
  static const double kThresholds[] = {0.0, 2.0, 1.5, 1.2};  // 0 = disabled
  const double threshold = kThresholds[static_cast<size_t>(state.range(0))];
  const RunOptions opts = AdaptiveOpts(SplitterKind::kAdaptive, threshold);
  const auto queries =
      Env().SkewedWorkload(ScaledSessions(), ScaledQueries(), /*zipf_s=*/1.2);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  SetCounters(state, m, {"router_load_imbalance", "sessions_migrated"});
  ThresholdRows().push_back(
      {"adaptive thr=" + (threshold > 1.0 ? Pct(threshold) : std::string("off")), m});
}

BENCHMARK(BM_AdaptiveSplit_SkewXSplitter)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_AdaptiveSplit_Threshold)
    ->ArgsProduct({{0, 1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable(
      "Adaptive re-splitting: splitter kind x session skew (4 router shards, "
      "embed; load_imbalance + sessions_migrated in the benchmark counters)",
      grouting::bench::SkewRows());
  grouting::bench::PrintPaperShape(
      "hash/sticky splitters stay imbalanced as Zipf skew grows (hot sessions "
      "pin to one shard); the adaptive splitter migrates hot sessions at gossip "
      "rounds and holds max/min routed load near 1.");
  grouting::bench::PrintMetricsTable(
      "Adaptive re-splitting: migration threshold sweep at zipf=1.2",
      grouting::bench::ThresholdRows());
  grouting::bench::PrintPaperShape(
      "threshold off reproduces sticky (imbalanced, zero migrations); "
      "tightening the threshold trades more session migrations for flatter "
      "per-shard load.");
  grouting::bench::WriteBenchJson("fig_adaptive_split",
                                  {{"skew_x_splitter", &grouting::bench::SkewRows()},
                                   {"threshold", &grouting::bench::ThresholdRows()}});
  return 0;
}
