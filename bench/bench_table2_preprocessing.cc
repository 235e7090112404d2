// Tables 2 & 3: preprocessing time and storage of the smart routing schemes
// on the webgraph-like dataset.
//
// Paper (WebGraph, 105.9M nodes): BFS ~35s per landmark; landmark embedding
// 36s; ~1s per node embedding (parallelisable). Storage: landmark index
// 2.8 GB, embedding 4 GB, vs 60.3 GB graph.

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

void BM_LandmarkBfs(benchmark::State& state) {
  for (auto _ : state) {
    LandmarkConfig cfg;
    cfg.seed = 7;
    auto lms = LandmarkSet::Select(Env().graph(), cfg);
    benchmark::DoNotOptimize(lms.count());
    state.counters["bfs_seconds_total"] = lms.stats().bfs_seconds;
    state.counters["bfs_seconds_per_landmark"] =
        lms.stats().bfs_seconds / static_cast<double>(lms.count());
  }
}

void BM_EmbedLandmarks(benchmark::State& state) {
  const auto& lms = Env().landmarks();
  for (auto _ : state) {
    EmbedConfig cfg;
    cfg.seed = 8;
    auto emb = GraphEmbedding::Build(lms, cfg);
    benchmark::DoNotOptimize(emb.num_nodes());
    state.counters["landmark_embed_seconds"] = emb.stats().landmark_embed_seconds;
    state.counters["node_embed_seconds_total"] = emb.stats().node_embed_seconds;
    state.counters["node_embed_us_per_node"] =
        1e6 * emb.stats().node_embed_seconds / static_cast<double>(emb.num_nodes());
  }
}

// FNV-1a over every coordinate's bits and every embedded flag. Equal
// digests mean bit-identical embeddings, so a change to the embedding or
// landmark code can be checked against its parent with one line of output.
uint64_t EmbeddingDigest(const GraphEmbedding& emb) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  for (NodeId u = 0; u < emb.num_nodes(); ++u) {
    const auto coords = emb.Coords(u);
    mix(coords.data(), coords.size_bytes());
    const uint8_t embedded = emb.IsEmbedded(u) ? 1 : 0;
    mix(&embedded, 1);
  }
  return h;
}

BENCHMARK(BM_LandmarkBfs)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EmbedLandmarks)->Iterations(1)->Unit(benchmark::kMillisecond);

void PrintTables() {
  auto& env = Env();
  const auto& lms = env.landmarks();
  const auto& emb = env.embedding();
  const auto& index = env.landmark_index(PaperDefaults::kProcessors);
  const Graph& g = env.graph();

  Table t2({"step", "paper (WebGraph)", "ours"});
  t2.AddRow({"BFS per landmark", "35 s",
             Table::Num(lms.stats().bfs_seconds / static_cast<double>(lms.count()) * 1000.0, 1) +
                 " ms"});
  t2.AddRow({"BFS all landmarks (96)", "~56 min (parallelisable)",
             Table::Num(lms.stats().bfs_seconds, 2) + " s"});
  t2.AddRow({"embed landmarks", "36 s",
             Table::Num(emb.stats().landmark_embed_seconds, 2) + " s"});
  t2.AddRow({"embed per node", "1 s (parallelisable)",
             Table::Num(1e6 * emb.stats().node_embed_seconds /
                            static_cast<double>(emb.num_nodes()), 1) +
                 " us"});
  t2.AddRow({"embed all nodes", "-", Table::Num(emb.stats().node_embed_seconds, 2) + " s"});
  std::printf("\n=== Table 2: preprocessing times ===\n%s", t2.ToString().c_str());
  std::printf("embedding digest (FNV-1a, %zu nodes x %zu dims + flags): %016llx\n",
              emb.num_nodes(), emb.dimensions(),
              static_cast<unsigned long long>(EmbeddingDigest(emb)));
  PrintPaperShape("both preprocessing steps are modest and parallelise per landmark / per node.");

  Table t3({"structure", "paper", "ours", "% of graph"});
  const double graph_bytes = static_cast<double>(g.AdjacencyListFileBytes());
  t3.AddRow({"landmark d(u,p) router table", "2.8 GB",
             Table::Bytes(index.RouterStorageBytes()),
             Table::Num(100.0 * static_cast<double>(index.RouterStorageBytes()) / graph_bytes, 1)});
  t3.AddRow({"embedding coordinates", "4 GB", Table::Bytes(emb.MemoryBytes()),
             Table::Num(100.0 * static_cast<double>(emb.MemoryBytes()) / graph_bytes, 1)});
  t3.AddRow({"original graph (adj-list file)", "60.3 GB",
             Table::Bytes(g.AdjacencyListFileBytes()), "100"});
  std::printf("\n=== Table 3: preprocessing storage ===\n%s", t3.ToString().c_str());
  PrintPaperShape("router state is a small fraction of the graph (O(nP) / O(nD) vs O(m)).");
}

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintTables();
  return 0;
}
