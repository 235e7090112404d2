// Hot-partition replication (beyond the paper): tail latency and per-server
// load balance under Zipf-skewed session streams, migration-only
// repartitioning vs migration + replication (PlanReplication +
// StorageTier::AddReplica/RemoveReplica + p2c read fan-out,
// src/partition/ + src/storage/).
//
//   (a) zipf skew x mode {static, migration-only, migration+replication} on
//       the no-cache scheme (hot session traffic must reach the storage
//       tier — a processor cache absorbs exactly the keys replication would
//       spread) with 1-hop traversals and few sessions, so the top session
//       concentrates a fixed hot key set: migration alone plateaus at high
//       skew because relocating a hot partition only moves its heat, while
//       a replica set splits it across holders,
//   (b) replication_top_k sweep at fixed high skew: more replicated
//       partitions buy flatter storage load at the cost of more replica
//       copies; top_k=0 is exactly migration-only.
//
// Expected shape: at zipf >= 1.4 migration-only leaves
// storage_load_imbalance near its static plateau while
// migration+replication pushes it toward 1.0 and lowers p99 response, on
// BOTH engines. Runs on either engine via GROUTING_BENCH_ENGINE.

#include "bench/bench_common.h"

#include <algorithm>

namespace grouting {
namespace bench {
namespace {

// The query stream honours GROUTING_BENCH_SCALE (defaults reproduce a
// 9600-query sweep at the standard scale 0.5). Sessions stay fixed at a
// handful: the point of the figure is a few scorching sessions, and scaling
// the session count would dilute the very skew being measured.
size_t ScaledQueries() {
  return std::max<size_t>(960, static_cast<size_t>(9600.0 * BenchScale()));
}

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& SkewRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& TopKRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

RunOptions ReplicationOpts(double threshold, uint32_t top_k) {
  RunOptions opts;
  // No-cache routing keeps every hot read on the storage tier; 8 processors
  // keep enough queries in flight for per-server queueing to show up in the
  // tail.
  opts.scheme = RoutingSchemeKind::kNoCache;
  opts.processors = 8;
  opts.storage_servers = 4;
  opts.max_inflight_batches = 2;
  opts.repartition.migration.threshold = threshold;
  opts.repartition.migration.migration_cap = 4;
  opts.repartition.partitions_per_server = 8;
  opts.repartition.replication_top_k = top_k;
  opts.repartition.max_replicas_per_partition = 3;
  opts.repartition.replica_demote_threshold = 0.05;
  opts.gossip_period_us = 100.0;
  opts.arrival_gap_us = 0.5;
  // 1-hop traversals: deeper hops fan the hot sessions' reads across the
  // whole key space and hash placement balances them on its own.
  opts.hops = 1;
  return opts;
}

std::string Num2(double v) { return Table::Num(v, 2); }

void ReplicationCounters(benchmark::State& state, const ClusterMetrics& m) {
  SetCounters(state, m,
              {"storage_load_imbalance", "partitions_migrated", "partitions_replicated",
               "replica_reads", "replica_demotions", "repartition_stall_us"});
}

// mode: 0 = static placement, 1 = migration-only, 2 = migration+replication.
void BM_Replication_SkewXMode(benchmark::State& state) {
  static const double kSkews[] = {1.0, 1.4, 1.8};
  const double zipf_s = kSkews[static_cast<size_t>(state.range(0))];
  const int mode = static_cast<int>(state.range(1));
  const RunOptions opts =
      ReplicationOpts(mode >= 1 ? 1.15 : 0.0, mode >= 2 ? 4 : 0);
  const auto queries =
      Env().SkewedWorkload(/*sessions=*/4, ScaledQueries(), zipf_s, /*h=*/1);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  ReplicationCounters(state, m);
  // Labels are parameter-only: they are the regression gate's join key, so
  // measured values (imbalance, replica counts) stay in the counters above.
  static const char* kModes[] = {"static", "migration", "migration+replication"};
  SkewRows().push_back({std::string(kModes[mode]) + " zipf=" + Num2(zipf_s), m});
}

void BM_Replication_TopK(benchmark::State& state) {
  static const uint32_t kTopK[] = {0, 1, 2, 4};  // 0 = migration-only
  const uint32_t top_k = kTopK[static_cast<size_t>(state.range(0))];
  const RunOptions opts = ReplicationOpts(1.15, top_k);
  const auto queries =
      Env().SkewedWorkload(/*sessions=*/4, ScaledQueries(), /*zipf_s=*/1.4,
                           /*h=*/1);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts, queries);
  }
  ReplicationCounters(state, m);
  TopKRows().push_back(
      {"replication top_k=" + std::to_string(top_k) +
           (top_k == 0 ? std::string(" (off)") : std::string()),
       m});
}

BENCHMARK(BM_Replication_SkewXMode)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Replication_TopK)
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
      "Hot-partition replication: zipf skew x mode (4 storage servers, "
      "no-cache routing, 1-hop; storage_load_imbalance + replica counters in "
      "the benchmark counters)",
      grouting::bench::SkewRows());
  grouting::bench::PrintPaperShape(
      "at zipf >= 1.4 a few sessions re-read one fixed hot key set and "
      "migration-only plateaus: relocating the hot partitions just moves the "
      "heat. Promoting them to replica sets splits each partition's reads "
      "across its holders (p2c), pushing max/min served load toward 1.0 and "
      "cutting the p99 tail, on both engines.");
  grouting::bench::PrintMetricsTable(
      "Hot-partition replication: top_k sweep at zipf=1.4",
      grouting::bench::TopKRows());
  grouting::bench::PrintPaperShape(
      "top_k=0 is exactly migration-only; raising top_k replicates more of "
      "the hot partitions and flattens per-server storage load, with "
      "diminishing returns once every scorching partition holds a replica "
      "set (the imbalance gate stops further copies).");
  grouting::bench::WriteBenchJson(
      "fig_replication", {{"skew_x_mode", &grouting::bench::SkewRows()},
                          {"top_k", &grouting::bench::TopKRows()}});
  return 0;
}
