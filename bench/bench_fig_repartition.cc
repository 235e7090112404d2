// Storage-tier adaptive repartitioning (beyond the paper): per-server load
// balance under Zipf-skewed session streams, static hash placement vs the
// repartitioning overlay (PartitionMonitor + PlanRepartition +
// StorageTier::MigratePartition, src/partition/ + src/storage/).
//
//   (a) zipf skew x repartition on/off at 4 storage servers, embed routing,
//       a deliberately small processor cache (so hot neighbourhoods keep
//       hitting storage and the access monitor sees the skew all run) and
//       an async window of 2: hash placement spreads KEYS evenly but not
//       LOAD — the hot sessions' neighbourhoods land unevenly, and the
//       static tier has no answer; the repartitioner migrates hot
//       partitions to the cold servers at gossip-aligned rounds,
//   (b) repartition threshold sweep at fixed high skew: tighter thresholds
//       buy flatter storage load at the cost of more partition copies
//       (repartition_stall_us); threshold <= 1 (off) is the exact static
//       tier.
//
// Expected shape: storage_load_imbalance (max/min served gets per server)
// grows with skew for the static tier and is strictly lower with
// repartitioning on, on BOTH engines; mean response improves alongside,
// since multiget batches stop queueing behind one hot server. Runs on
// either engine via GROUTING_BENCH_ENGINE.

#include "bench/bench_common.h"

#include <algorithm>

namespace grouting {
namespace bench {
namespace {

// The session stream honours GROUTING_BENCH_SCALE so the CI small-scale run
// actually shrinks these legs (defaults reproduce a 96-session x 3000-query
// sweep at the standard scale 0.5).
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

RunOptions RepartitionOpts(double threshold) {
  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.processors = 3;
  opts.repartition.migration.threshold = threshold;
  opts.repartition.migration.migration_cap = 4;
  opts.repartition.partitions_per_server = 8;
  // Small cache + few processors: the skewed hot set must keep missing into
  // storage, or the tier never sees the skew (with an ample cache every key
  // is fetched at most once per processor, the residual miss traffic is
  // cold and hash placement balances it on its own — the paper's point).
  opts.cache_bytes = 64 << 10;
  opts.max_inflight_batches = 2;
  // Spread arrivals so repartition rounds interleave with the stream, and
  // give each round a window wide enough for the monitor's noise floor to
  // separate real skew from sampling jitter.
  opts.gossip_period_us = 400.0;
  opts.arrival_gap_us = 10.0;
  return opts;
}

std::string Num2(double v) { return Table::Num(v, 2); }

void RepartitionCounters(benchmark::State& state, const ClusterMetrics& m) {
  SetCounters(state, m,
              {"storage_load_imbalance", "partitions_migrated", "repartition_stall_us"});
}

void BM_Repartition_SkewXOnOff(benchmark::State& state) {
  static const double kSkews[] = {0.0, 1.0, 1.4};
  const double zipf_s = kSkews[static_cast<size_t>(state.range(0))];
  const bool on = state.range(1) != 0;
  const RunOptions opts = RepartitionOpts(on ? 1.15 : 0.0);
  const auto queries = Env().SkewedWorkload(ScaledSessions(), ScaledQueries(), zipf_s);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  RepartitionCounters(state, m);
  // Labels are parameter-only: they are the regression gate's join key, so
  // measured values (imbalance, migrations) stay in the counters above.
  SkewRows().push_back({std::string(on ? "repartition" : "static") +
                            " zipf=" + Num2(zipf_s),
                        m});
}

void BM_Repartition_Threshold(benchmark::State& state) {
  static const double kThresholds[] = {0.0, 2.0, 1.5, 1.15};  // 0 = disabled
  const double threshold = kThresholds[static_cast<size_t>(state.range(0))];
  const RunOptions opts = RepartitionOpts(threshold);
  const auto queries =
      Env().SkewedWorkload(ScaledSessions(), ScaledQueries(), /*zipf_s=*/1.4);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  RepartitionCounters(state, m);
  ThresholdRows().push_back(
      {"repartition thr=" + (threshold > 1.0 ? Num2(threshold) : std::string("off")),
       m});
}

BENCHMARK(BM_Repartition_SkewXOnOff)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Repartition_Threshold)
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
      "Storage repartitioning: zipf skew x on/off (4 storage servers, embed, "
      "small cache; storage_load_imbalance + partitions_migrated in the "
      "benchmark counters)",
      grouting::bench::SkewRows());
  grouting::bench::PrintPaperShape(
      "the static hash-placed tier ends skewed runs with max/min served load "
      "well above 1 (hot neighbourhoods land unevenly and nothing can move); "
      "with repartitioning on, hot partitions migrate to cold servers at "
      "gossip-aligned rounds and the final imbalance is strictly lower, on "
      "both engines.");
  grouting::bench::PrintMetricsTable(
      "Storage repartitioning: threshold sweep at zipf=1.4",
      grouting::bench::ThresholdRows());
  grouting::bench::PrintPaperShape(
      "threshold off is the exact static tier (zero migrations); tightening "
      "the threshold trades more partition copies (repartition_stall_us) for "
      "flatter per-server storage load.");
  grouting::bench::WriteBenchJson(
      "fig_repartition", {{"skew_x_repartition", &grouting::bench::SkewRows()},
                          {"threshold", &grouting::bench::ThresholdRows()}});
  return 0;
}
