// Shared plumbing for the per-table / per-figure benchmark binaries.
//
// Every bench binary:
//   * builds (lazily, once) an ExperimentEnv for its dataset at the bench
//     scale (override with GROUTING_BENCH_SCALE, default 0.5),
//   * runs its cluster configurations on the engine selected by
//     GROUTING_BENCH_ENGINE (sim | threaded, default sim) — the same sweep
//     re-runs on real threads with one flag,
//   * registers one google-benchmark per configuration point, carrying the
//     paper's metrics (throughput, response time, cache hit rate) as
//     counters — wall time of a benchmark iteration is the simulation's
//     execution cost, NOT the reproduced metric,
//   * prints a paper-style results table plus the expected shape from the
//     paper after the benchmark run, so bench_output.txt reads as an
//     EXPERIMENTS log.

#ifndef GROUTING_BENCH_BENCH_COMMON_H_
#define GROUTING_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/grouting.h"
#include "src/util/table.h"

namespace grouting {
namespace bench {

inline double BenchScale() {
  if (const char* s = std::getenv("GROUTING_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) {
      return v;
    }
  }
  return 0.5;
}

// Which ClusterEngine the bench sweeps run on: GROUTING_BENCH_ENGINE=threaded
// reruns every figure on real threads; anything else (or unset) keeps the
// paper's deterministic discrete-event simulation.
inline EngineKind BenchEngine() {
  if (const char* s = std::getenv("GROUTING_BENCH_ENGINE")) {
    if (std::string(s) == "threaded") {
      return EngineKind::kThreaded;
    }
  }
  return EngineKind::kSimulated;
}

// Paper-shaped hotspot count scaled to the bench size: the figure benches
// replay the paper's 100-hotspot workload, but at the CI scale
// (GROUTING_BENCH_SCALE=0.08) the full count swamps the shrunken graphs.
// At the default scale (0.5) this returns `paper_hotspots` unchanged, so
// local runs reproduce the paper exactly; smaller scales shrink the
// workload proportionally with a floor of 10 hotspots.
inline size_t ScaledHotspots(size_t paper_hotspots = 100) {
  return std::max<size_t>(
      10, static_cast<size_t>(static_cast<double>(paper_hotspots) * BenchScale() / 0.5));
}

inline const std::vector<RoutingSchemeKind>& AllSchemes() {
  static const std::vector<RoutingSchemeKind> kSchemes = {
      RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
      RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
      RoutingSchemeKind::kEmbed};
  return kSchemes;
}

// Benchmark counters: the paper's headline metrics plus the `extra` keys a
// bench reports, each read from its ClusterMetricFields() row.
inline void SetCounters(benchmark::State& state, const ClusterMetrics& m,
                        std::initializer_list<std::string_view> extra = {}) {
  static constexpr std::string_view kHeadline[] = {
      "throughput_qps",  "mean_response_ms", "p50_response_ms", "p95_response_ms",
      "p99_response_ms", "p999_response_ms", "hit_rate",        "cache_hits",
      "cache_misses",    "steals",           "cache_entries",   "decompress_us",
      "adjacency_compression_ratio"};
  for (const MetricField& field : ClusterMetricFields()) {
    if (std::ranges::count(kHeadline, field.name) > 0 ||
        std::ranges::count(extra, field.name) > 0) {
      state.counters[field.name] = field.get(m);
    }
  }
}

// One collected row for the post-run summary table.
struct ResultRow {
  std::string label;
  ClusterMetrics metrics;
};

inline void PrintMetricsTable(const std::string& title,
                              const std::vector<ResultRow>& rows) {
  Table t({"configuration", "throughput (q/s)", "response (ms)", "hit rate (%)",
           "cache hits", "cache misses", "steals"});
  for (const auto& row : rows) {
    t.AddRow({row.label, Table::Num(row.metrics.throughput_qps, 1),
              Table::Num(row.metrics.mean_response_ms, 3),
              Table::Num(100.0 * row.metrics.CacheHitRate(), 1),
              Table::Int(static_cast<int64_t>(row.metrics.cache_hits)),
              Table::Int(static_cast<int64_t>(row.metrics.cache_misses)),
              Table::Int(static_cast<int64_t>(row.metrics.steals))});
  }
  std::printf("\n=== %s [engine: %s] ===\n%s", title.c_str(),
              EngineKindName(BenchEngine()).c_str(), t.ToString().c_str());
  std::fflush(stdout);
}

inline void PrintPaperShape(const char* shape) {
  std::printf("--- paper shape: %s\n", shape);
  std::fflush(stdout);
}

// --- machine-readable results: BENCH_<name>.json ------------------------
//
// Every figure bench ends its main() with WriteBenchJson, emitting one JSON
// document per bench run into GROUTING_BENCH_JSON_DIR (default: the working
// directory). CI uploads these as artifacts — the bench trajectory — and
// tools/check_bench_regression.py gates pushes against the checked-in
// bench/baselines/*.json on the deterministic simulated engine. Each row
// carries one key per ClusterMetricFields() entry (docs/METRICS.md). The two
// table benches (bench_table1_datasets, bench_table2_preprocessing) only
// print their tables and write no JSON.

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One named group of result rows (a bench's summary tables map 1:1).
struct JsonGroup {
  const char* group;
  const std::vector<ResultRow>* rows;
};

inline void WriteBenchJson(const std::string& name,
                           std::initializer_list<JsonGroup> groups) {
  const char* dir = std::getenv("GROUTING_BENCH_JSON_DIR");
  const std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                           "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteBenchJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"engine\": \"%s\",\n  \"scale\": %g,\n",
               JsonEscape(name).c_str(), EngineKindName(BenchEngine()).c_str(),
               BenchScale());
  std::fprintf(f, "  \"results\": [");
  bool first = true;
  for (const JsonGroup& g : groups) {
    for (const ResultRow& row : *g.rows) {
      std::fprintf(f, "%s\n    {\"group\": \"%s\", \"label\": \"%s\"", first ? "" : ",",
                   JsonEscape(g.group).c_str(), JsonEscape(row.label).c_str());
      for (const MetricField& field : ClusterMetricFields()) {
        std::fprintf(f, ", \"%s\": %s", field.name,
                     FormatMetric(field, row.metrics).c_str());
      }
      std::fprintf(f, "}");
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("--- wrote %s\n", path.c_str());
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace grouting

#endif  // GROUTING_BENCH_BENCH_COMMON_H_
