// Router-tier scaling (beyond the paper): throughput and routing quality as
// the router frontend is sharded 1 -> N (RouterFleet, src/frontend/).
//
//   (a) shards x routing scheme at the paper's 7/4 tier split, round-robin
//       splitter, default gossip — does smart routing survive a sharded
//       frontend?
//   (b) embed routing at 4 shards across splitter kinds and gossip on/off —
//       how much of the EMA signal does gossip recover?
//
// Expected shape: stateless schemes (next_ready, hash) are shard-invariant;
// embed loses cache hits as shards fragment its EMA view, and gossip claws
// most of that back (divergence shrinks every round). Runs on either engine
// via GROUTING_BENCH_ENGINE.

#include "bench/bench_common.h"

#include <algorithm>

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& ShardRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& GossipRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

void BM_RouterShards_Scheme(benchmark::State& state) {
  const auto scheme = AllSchemes()[static_cast<size_t>(state.range(0))];
  const auto shards = static_cast<uint32_t>(state.range(1));
  RunOptions opts;
  opts.scheme = scheme;
  opts.router_shards = shards;
  opts.num_hotspots = ScaledHotspots();
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m, {"gossip_rounds", "router_ema_divergence"});
  ShardRows().push_back(
      {RoutingSchemeKindName(scheme) + " S=" + std::to_string(shards), m});
}

void BM_RouterShards_SplitterGossip(benchmark::State& state) {
  static const SplitterKind kSplitters[] = {
      SplitterKind::kRoundRobin, SplitterKind::kHash, SplitterKind::kSticky};
  const SplitterKind splitter = kSplitters[static_cast<size_t>(state.range(0))];
  const bool gossip = state.range(1) != 0;
  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.router_shards = 4;
  opts.splitter = splitter;
  opts.gossip_period_us = gossip ? 200.0 : 0.0;
  // Spread arrivals so gossip rounds interleave with routing decisions;
  // with the paper's back-to-back stream every route happens before the
  // first gossip event and the comparison degenerates.
  opts.arrival_gap_us = 25.0;
  opts.num_hotspots = ScaledHotspots();
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m, {"gossip_rounds", "router_ema_divergence"});
  GossipRows().push_back({"embed S=4 " + SplitterKindName(splitter) +
                              (gossip ? " +gossip" : " -gossip"),
                          m});
}

BENCHMARK(BM_RouterShards_Scheme)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 2, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_RouterShards_SplitterGossip)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable(
      "Router-tier scaling: router shards x routing scheme",
      grouting::bench::ShardRows());
  grouting::bench::PrintPaperShape(
      "next_ready/hash are shard-invariant; embed's hit rate dips as shards "
      "fragment the EMA view, with gossip recovering most of the single-router "
      "quality.");
  grouting::bench::PrintMetricsTable(
      "Embed at 4 router shards: splitter kind x gossip",
      grouting::bench::GossipRows());
  grouting::bench::PrintPaperShape(
      "sticky/hash splitters keep hotspot runs on one shard (less EMA "
      "fragmentation than round-robin); enabling gossip lowers cross-shard "
      "divergence and lifts hit rate toward the 1-shard baseline.");
  grouting::bench::WriteBenchJson("fig_router_shards",
                                  {{"shards_x_scheme", &grouting::bench::ShardRows()},
                                   {"splitter_x_gossip", &grouting::bench::GossipRows()}});
  return 0;
}
