// perfbench: wall-clock benchmark of gRouting's threaded engine.
//
//   perfbench --workload <hotspot-evict|hotspot-fit|open-mixed> --seed N
//             --seconds S --trace <0|1>
//
// Builds a webgraph-like dataset at scale 0.25 from the seed, selects
// landmarks and embeds the graph for embed routing, then runs the workload
// on the threaded engine (2 query processors, 4 storage servers, 1 router
// shard) for S seconds of back-to-back runs. Each run uses a fresh, cold
// cluster and one of sixteen seed-derived input sets, and every answer is
// checked. Untraced runs come in pairs: the same inputs under embed routing
// and under hash routing, so the embed/hash ratios compare runs made under
// the same host conditions.
//
//   --trace 0  untraced pairs; prints the end-to-end metrics.
//   --trace 1  S/2 seconds of untraced pairs, S/2 seconds of traced embed
//              runs (every query), then standalone layer replays; prints the
//              per-layer metrics.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Exits 1 when any check fails. README.md
// lists the workloads, the metrics and what each layer metric should move.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/layers.h"

namespace grouting::perfbench {
namespace {

constexpr double kScale = 0.25;
constexpr uint32_t kProcessors = 2;
constexpr uint32_t kStorageServers = 4;
constexpr uint64_t kEvictCacheBytes = 1'500'000;  // ~22% of the graph
constexpr double kOfferedQps = 5000.0;
constexpr double kWriteFraction = 0.05;
constexpr size_t kOpenArrivals = 2500;  // half a second of schedule per run
constexpr size_t kHotspots = 100;
constexpr size_t kQueriesPerHotspot = 10;
constexpr int kSetupRounds = 3;
constexpr int kMinRuns = 3;
constexpr int kInputSets = 16;
// Embedding build threads: with the engine's own threads this keeps the
// benchmark at about three busy cores.
constexpr size_t kEmbedThreads = 3;

struct Workload {
  const char* name;
  uint64_t cache_bytes;  // per processor; 0 = ample (whole graph + 16 MiB)
  AdjacencyEncoding encoding;
  bool open_loop;  // Poisson arrivals with writes; else a hotspot batch at t=0
};

constexpr Workload kWorkloads[] = {
    {"hotspot-evict", kEvictCacheBytes, AdjacencyEncoding::kRaw, false},
    {"hotspot-fit", 0, AdjacencyEncoding::kRaw, false},
    {"open-mixed", 0, AdjacencyEncoding::kDeltaVarint, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 4242;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args->workload = &w;
        }
      }
      if (args->workload == nullptr) {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return args->workload != nullptr;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double CpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& t) { return t.tv_sec * 1e6 + t.tv_usec; };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Bytes the allocator holds for live objects, across all arenas.
double LiveHeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- set-up ---

struct SetupTimes {
  double graph_s = 0.0;
  double landmark_s = 0.0;
  double embed_s = 0.0;
  double load_s = 0.0;  // MakeClusterEngine: storage load + processors

  double total() const { return graph_s + landmark_s + embed_s + load_s; }
};

// Everything built before the measured runs. The landmark set and the
// embedding are the benchmark's own: the open-mixed index maintainer
// refreshes them in place, and ExperimentEnv hands out const references.
struct Setup {
  std::unique_ptr<ExperimentEnv> env;
  std::unique_ptr<LandmarkSet> landmarks;
  std::unique_ptr<GraphEmbedding> embedding;
  SetupTimes times;

  const Graph& graph() const { return env->graph(); }
};

ClusterConfig MakeConfig(ExperimentEnv& env, const Workload& w, uint32_t trace_capacity) {
  RunOptions o;
  o.scheme = RoutingSchemeKind::kEmbed;
  o.processors = kProcessors;
  o.storage_servers = kStorageServers;
  o.router_shards = 1;
  o.stealing = true;
  o.max_inflight_batches = 1;
  o.cache_bytes = w.cache_bytes;
  o.cache_policy = CachePolicy::kLru;
  o.adjacency_encoding = w.encoding;
  o.open_loop = w.open_loop;
  o.enable_mutations = w.open_loop;
  if (trace_capacity > 0) {
    o.trace_sample_every_n = 1;
    o.trace_buffer_capacity = trace_capacity;
  }
  ClusterConfig config = env.MakeClusterConfig(o);
  // MakeClusterConfig copies the network profile's one-way delay, which the
  // threaded engine busy-waits per batch: a cost-model constant, not work
  // the program does.
  config.injected_network_us = 0.0;
  return config;
}

// The routing under test, and the paper's cache-oblivious baseline it is
// compared with.
enum class Routing { kEmbed, kHash };

std::unique_ptr<RoutingStrategy> MakeStrategy(const Setup& s, Routing routing,
                                              RouteTimes* times) {
  if (routing == Routing::kHash) {
    return std::make_unique<HashStrategy>();
  }
  auto embed = std::make_unique<EmbedStrategy>(
      s.embedding.get(), PaperDefaults::kAlpha, PaperDefaults::kLoadFactor, kProcessors,
      s.env->seed() ^ 0x44);
  if (times == nullptr) {
    return embed;
  }
  return std::make_unique<TimedStrategy>(std::move(embed), times);
}

Setup BuildSetup(const Workload& w, uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  s.env = std::make_unique<ExperimentEnv>(DatasetId::kWebGraphLike, kScale, seed);
  s.env->graph();
  const auto t1 = Clock::now();
  LandmarkConfig lc;  // the settings ExperimentEnv::landmarks uses
  lc.num_landmarks = PaperDefaults::kNumLandmarks;
  lc.min_separation = PaperDefaults::kMinSeparation;
  lc.seed = seed ^ 0x11;
  s.landmarks = std::make_unique<LandmarkSet>(LandmarkSet::Select(s.graph(), lc));
  const auto t2 = Clock::now();
  EmbedConfig ec;  // the settings ExperimentEnv::embedding uses
  ec.dimensions = PaperDefaults::kDimensions;
  ec.seed = seed ^ 0x22;
  ec.num_threads = kEmbedThreads;
  s.embedding = std::make_unique<GraphEmbedding>(GraphEmbedding::Build(*s.landmarks, ec));
  const auto t3 = Clock::now();
  auto engine = MakeClusterEngine(EngineKind::kThreaded, s.graph(),
                                  MakeConfig(*s.env, w, 0),
                                  MakeStrategy(s, Routing::kEmbed, nullptr));
  const auto t4 = Clock::now();
  s.times = {Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3), Seconds(t3, t4)};
  return s;
}

// Sets up kSetupRounds times and keeps the last set-up, reporting the phase
// times of the round with the median total (so the phases sum to setup_s).
Setup SetupMedian(const Workload& w, uint64_t seed) {
  std::vector<SetupTimes> rounds;
  Setup s;
  for (int i = 0; i < kSetupRounds; ++i) {
    s = Setup{};  // free the previous round before building the next
    s = BuildSetup(w, seed);
    rounds.push_back(s.times);
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const SetupTimes& a, const SetupTimes& b) { return a.total() < b.total(); });
  s.times = rounds[rounds.size() / 2];
  return s;
}

// ----------------------------------------------------------------- inputs ---

struct Inputs {
  std::vector<Query> queries;
  std::vector<GraphMutation> writes;
  std::vector<QueryResult> expected;  // by query id; hotspot workloads only
  std::vector<double> schedule_us;    // by query id: arrive_us, or 0 at t=0
};

uint64_t RunSeed(uint64_t seed, int run) {
  SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(run));
  return mix.Next();
}

MixedWorkload MixedInputs(const Graph& g, uint64_t run_seed) {
  OpenLoopConfig ol;
  ol.num_tenants = 1;
  ol.num_arrivals = kOpenArrivals;
  ol.arrival_rate_qps = kOfferedQps;
  ol.hops = 2;
  ol.seed = run_seed;
  MutationScheduleConfig mc;
  mc.seed = run_seed ^ 0x66;
  return GenerateMixedOpenLoopWorkload(g, ol, kWriteFraction, mc);
}

Inputs MakeInputs(const Workload& w, const Graph& g, uint64_t run_seed) {
  Inputs in;
  if (w.open_loop) {
    MixedWorkload mixed = MixedInputs(g, run_seed);
    in.queries = std::move(mixed.queries);
    in.writes = std::move(mixed.mutations);
  } else {
    WorkloadConfig wc;
    wc.num_hotspots = kHotspots;
    wc.queries_per_hotspot = kQueriesPerHotspot;
    wc.hotspot_radius = 2;
    wc.hops = 2;
    wc.seed = run_seed;
    in.queries = GenerateHotspotWorkload(g, wc);
  }
  uint64_t max_id = 0;
  for (const Query& q : in.queries) {
    max_id = std::max(max_id, q.id);
  }
  in.schedule_us.assign(max_id + 1, 0.0);
  for (const Query& q : in.queries) {
    in.schedule_us[q.id] = std::max(0.0, q.arrive_us);
  }
  if (!w.open_loop) {
    // Reference answers: the same queries over the graph itself.
    DirectGraphSource direct(g);
    in.expected.resize(max_id + 1);
    for (const Query& q : in.queries) {
      in.expected[q.id] = ExecuteQuery(q, direct);
    }
  }
  return in;
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.type == b.type && a.aggregate == b.aggregate && a.walk_end == b.walk_end &&
         a.walk_distinct_nodes == b.walk_distinct_nodes && a.reachable == b.reachable &&
         a.distance == b.distance;
}

// Missing, duplicate and unknown answers, plus wrong ones where reference
// answers exist. Open-loop answer values depend on write timing, so there
// only the id accounting is checked.
uint64_t CountBadAnswers(const Inputs& in, const std::vector<AnsweredQuery>& answers) {
  std::vector<uint8_t> asked(in.schedule_us.size(), 0);
  for (const Query& q : in.queries) {
    asked[q.id] = 1;
  }
  std::vector<uint8_t> seen(asked.size(), 0);
  uint64_t bad = 0;
  for (const AnsweredQuery& a : answers) {
    if (a.query_id >= asked.size() || asked[a.query_id] == 0 || seen[a.query_id] != 0) {
      ++bad;
      continue;
    }
    seen[a.query_id] = 1;
    if (!in.expected.empty() && !SameAnswer(a.result, in.expected[a.query_id])) {
      ++bad;
    }
  }
  for (const Query& q : in.queries) {
    bad += seen[q.id] == 0 ? 1 : 0;
  }
  return bad;
}

// ------------------------------------------------------------------- runs ---

struct RefreshTimes {
  double ns = 0.0;
  uint64_t calls = 0;
};

struct RunResult {
  ClusterMetrics m;
  double cpu_us = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t evictions = 0;
  double last_schedule_us = 0.0;
  double heap_mb = 0.0;  // live heap at the end of the run, cluster still up
};

// Optional instruments of a traced run.
struct Instruments {
  RouteTimes route;
  TraceTotals trace;
};

RunResult RunOnce(Setup& s, const Workload& w, const Inputs& in, Routing routing,
                  Instruments* inst, RefreshTimes* refresh) {
  const Graph& g = s.graph();
  const uint32_t capacity =
      inst == nullptr ? 0
                      : std::max<uint32_t>(1u << 16,
                                           static_cast<uint32_t>(in.queries.size() * 128));
  RouteTimes* route_times = inst == nullptr ? nullptr : &inst->route;
  auto engine =
      MakeClusterEngine(EngineKind::kThreaded, g, MakeConfig(*s.env, w, capacity),
                        MakeStrategy(s, routing, route_times));
  if (!in.writes.empty()) {
    engine->set_mutation_schedule(in.writes);
    // The index maintainer bench_fig10 registers, timed. It runs on the
    // gossip tick with every router-shard mutex held.
    engine->set_index_maintainer([&s, &g, refresh](std::span<const NodeId> nodes) {
      const auto start = Clock::now();
      IndexRefreshResult r;
      r.nodes_refreshed = s.embedding->RefreshNodes(g, nodes, *s.landmarks);
      refresh->ns += ElapsedNs(start, Clock::now());
      ++refresh->calls;
      return r;
    });
  }
  RunResult r;
  const double cpu_start = CpuUs();
  r.m = engine->Run(in.queries);
  r.cpu_us = CpuUs() - cpu_start;
  r.heap_mb = LiveHeapMb();
  r.attempted = in.queries.size() + in.writes.size();
  r.failed = CountBadAnswers(in, engine->answers());
  const uint64_t applied = r.m.mutations_applied;
  r.failed += applied > in.writes.size() ? applied - in.writes.size()
                                         : in.writes.size() - applied;
  for (uint32_t p = 0; p < kProcessors; ++p) {
    r.evictions += engine->processor(p).cache()->stats().evictions;
  }
  for (const double t : in.schedule_us) {
    r.last_schedule_us = std::max(r.last_schedule_us, t);
  }
  if (inst != nullptr) {
    AddTrace(engine->tracer()->MergedEvents(), in.schedule_us, &inst->trace);
  }
  return r;
}

// The inputs runs cycle through: kInputSets seed-derived sets, generated
// (with their reference answers) before any run is timed.
std::vector<Inputs> MakeInputPool(const Workload& w, const Setup& s) {
  std::vector<Inputs> pool;
  for (int k = 0; k < kInputSets; ++k) {
    pool.push_back(MakeInputs(w, s.graph(), RunSeed(s.env->seed(), k)));
  }
  return pool;
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

RunResult RunCold(Setup& s, const Workload& w, const Inputs& in, Routing routing,
                  Instruments* inst, RefreshTimes* refresh) {
  RunResult r = RunOnce(s, w, in, routing, inst, refresh);
  // Hand the finished cluster's freed pages back: each run then starts from
  // a heap like a fresh process's and faults its memory in, as a cold
  // cluster does, instead of inheriting the previous run's leftovers.
  malloc_trim(0);
  return r;
}

// Untraced runs in pairs for `seconds` (at least kMinRuns pairs): pair k runs
// input set k mod kInputSets under embed and under hash routing, alternating
// which goes first. Both halves of a pair see the same host, so the ratio of
// the two series cancels the host's drift, which reaches 2x over minutes on a
// shared machine.
struct PairedRuns {
  std::vector<RunResult> embed;
  std::vector<RunResult> hash;
};

PairedRuns RunPairs(Setup& s, const Workload& w, std::span<const Inputs> pool,
                    double seconds, RefreshTimes* refresh) {
  PairedRuns runs;
  const auto deadline = Deadline(seconds);
  while (static_cast<int>(runs.embed.size()) < kMinRuns || Clock::now() < deadline) {
    const size_t k = runs.embed.size();
    const Inputs& in = pool[k % pool.size()];
    if (k % 2 == 0) {
      runs.embed.push_back(RunCold(s, w, in, Routing::kEmbed, nullptr, refresh));
      runs.hash.push_back(RunCold(s, w, in, Routing::kHash, nullptr, refresh));
    } else {
      runs.hash.push_back(RunCold(s, w, in, Routing::kHash, nullptr, refresh));
      runs.embed.push_back(RunCold(s, w, in, Routing::kEmbed, nullptr, refresh));
    }
  }
  return runs;
}

// Traced embed runs for `seconds` (at least kMinRuns); run k uses input set
// k mod kInputSets, as the pairs do.
std::vector<RunResult> RunTraced(Setup& s, const Workload& w,
                                 std::span<const Inputs> pool, double seconds,
                                 Instruments* inst, RefreshTimes* refresh) {
  std::vector<RunResult> runs;
  const auto deadline = Deadline(seconds);
  while (static_cast<int>(runs.size()) < kMinRuns || Clock::now() < deadline) {
    const Inputs& in = pool[runs.size() % pool.size()];
    runs.push_back(RunCold(s, w, in, Routing::kEmbed, inst, refresh));
  }
  return runs;
}

template <typename F>
double MedianOf(const std::vector<RunResult>& runs, F f) {
  std::vector<double> v;
  for (const RunResult& r : runs) {
    v.push_back(f(r));
  }
  return Median(std::move(v));
}

template <typename F>
uint64_t SumOf(const std::vector<RunResult>& runs, F f) {
  uint64_t total = 0;
  for (const RunResult& r : runs) {
    total += f(r);
  }
  return total;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double Qps(const RunResult& r) { return r.m.throughput_qps; }
double P50Ms(const RunResult& r) { return r.m.p50_response_ms; }
double P99Ms(const RunResult& r) { return r.m.p99_response_ms; }
double CpuUsPerQuery(const RunResult& r) {
  return r.cpu_us / static_cast<double>(std::max<uint64_t>(1, r.m.queries));
}

double HitRate(const std::vector<RunResult>& runs) {
  const uint64_t hits = SumOf(runs, [](const RunResult& r) { return r.m.cache_hits; });
  const uint64_t misses =
      SumOf(runs, [](const RunResult& r) { return r.m.cache_misses; });
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

// Wall-clock figures of one series, for the report. They are not in the
// result line: the host's drift swamps them (see README.md).
void PrintSeries(const char* name, const std::vector<RunResult>& runs) {
  uint64_t samples = runs.front().m.queries;
  for (const RunResult& r : runs) {
    samples = std::min(samples, r.m.queries);
  }
  std::printf("  %-6s %4zu runs: qps %.6g, p50 %.6g ms, p99 %.6g ms (%llu+ samples a "
              "run), cpu %.6g us/query\n",
              name, runs.size(), MedianOf(runs, Qps), MedianOf(runs, P50Ms),
              MedianOf(runs, P99Ms), static_cast<unsigned long long>(samples),
              MedianOf(runs, CpuUsPerQuery));
}

// Median over pairs of embed qps / hash qps: each ratio compares two runs of
// the same inputs made back to back.
double QpsGain(const PairedRuns& runs) {
  std::vector<double> ratios;
  for (size_t k = 0; k < runs.embed.size(); ++k) {
    ratios.push_back(Qps(runs.embed[k]) / Qps(runs.hash[k]));
  }
  return Median(std::move(ratios));
}

std::vector<Metric> EndToEnd(const PairedRuns& runs, const Setup& s) {
  const std::vector<RunResult>& embed = runs.embed;
  const uint64_t queries = SumOf(embed, [](const RunResult& r) { return r.m.queries; });
  const uint64_t bytes =
      SumOf(embed, [](const RunResult& r) { return r.m.bytes_from_storage; });
  return {
      {"qps_gain", QpsGain(runs), "ratio"},
      {"hit_rate", HitRate(embed), "fraction"},
      {"storage_kb_per_query",
       Ratio(static_cast<double>(bytes) / 1024.0, static_cast<double>(queries)), "KB"},
      {"setup_s", s.times.total(), "s"},
      {"heap_mb", MedianOf(embed, [](const RunResult& r) { return r.heap_mb; }), "MB"},
  };
}

double Imbalance(const ClusterMetrics& m) {
  const auto [lo, hi] =
      std::minmax_element(m.queries_per_processor.begin(), m.queries_per_processor.end());
  return Ratio(static_cast<double>(*hi), static_cast<double>(std::max<uint64_t>(1, *lo)));
}

std::vector<Metric> PerLayer(const Workload& w, Setup& s, const Inputs& first,
                             const std::vector<RunResult>& plain,
                             const std::vector<RunResult>& traced, const Instruments& inst,
                             const RefreshTimes& refresh) {
  const Graph& g = s.graph();
  const auto total = [&plain](auto f) { return static_cast<double>(SumOf(plain, f)); };
  const double queries = total([](const RunResult& r) { return r.m.queries; });
  const TraceTotals& t = inst.trace;
  const double traced_queries = static_cast<double>(std::max<uint64_t>(1, t.queries));
  double traced_makespan_us = 0.0;
  for (const RunResult& r : traced) {
    traced_makespan_us += r.m.makespan_us;
  }
  const double timer_ns = TimerOverheadNs();

  // Standalone replays over this workload's data (the first input set).
  RecordingSource recorder(g);
  for (const Query& q : first.queries) {
    ExecuteQuery(q, recorder);
  }
  const ClusterConfig config = MakeConfig(*s.env, w, 0);
  const CacheCost cache = TimeCacheReplay(g, recorder.accesses(),
                                          config.processor.cache_bytes,
                                          config.processor.cache_policy);
  const std::vector<GraphMutation> writes =
      w.open_loop ? first.writes : MixedInputs(g, RunSeed(s.env->seed(), 0)).mutations;
  const double refresh_us = w.open_loop
                                ? Ratio(refresh.ns / 1e3, static_cast<double>(refresh.calls))
                                : TimeRefresh(g, writes, *s.embedding, *s.landmarks);
  const double plain_qps = MedianOf(plain, Qps);
  const double traced_qps = MedianOf(traced, Qps);

  return {
      {"engine.qps", plain_qps, "q/s"},
      {"engine.p50_ms", MedianOf(plain, P50Ms), "ms"},
      {"engine.p99_ms", MedianOf(plain, P99Ms), "ms"},
      {"engine.cpu_us_per_query", MedianOf(plain, CpuUsPerQuery), "us"},
      {"frontend.arrival_late_p99_us", Percentile(t.arrival_late_us, 99.0), "us"},
      {"routing.route_ns",
       Ratio(static_cast<double>(inst.route.route_ns), static_cast<double>(inst.route.routes)) -
           timer_ns,
       "ns"},
      {"routing.dispatch_ns",
       Ratio(static_cast<double>(inst.route.dispatch_ns),
             static_cast<double>(inst.route.dispatches)) -
           timer_ns,
       "ns"},
      {"routing.steal_share", total([](const RunResult& r) { return r.m.steals; }) / queries,
       "fraction"},
      {"routing.proc_imbalance",
       MedianOf(plain, [](const RunResult& r) { return Imbalance(r.m); }), "ratio"},
      {"runtime.wait_ms",
       MedianOf(plain, [](const RunResult& r) { return r.m.mean_queue_wait_ms; }), "ms"},
      {"runtime.wait_p99_ms", Percentile(t.queue_wait_us, 99.0) / 1e3, "ms"},
      {"runtime.busy_share",
       Ratio(t.query_us, static_cast<double>(kProcessors) * traced_makespan_us), "fraction"},
      {"runtime.lag_ms",
       MedianOf(plain,
                [](const RunResult& r) {
                  return (r.m.makespan_us - r.last_schedule_us) / 1e3;
                }),
       "ms"},
      {"proc.level_self_us", (t.level_us - t.batch_us) / traced_queries, "us"},
      {"query.compute_us", (t.query_us - t.level_us) / traced_queries, "us"},
      {"query.visited_per_query",
       total([](const RunResult& r) { return r.m.nodes_visited; }) / queries, "count"},
      {"cache.evictions_per_query",
       total([](const RunResult& r) { return r.evictions; }) / queries, "count"},
      {"cache.get_ns", cache.get_ns, "ns"},
      {"cache.put_ns", cache.put_ns, "ns"},
      {"storage.batch_us", Ratio(t.batch_us, static_cast<double>(t.batches)), "us"},
      {"storage.keys_per_batch",
       Ratio(total([](const RunResult& r) { return r.m.cache_misses; }),
             total([](const RunResult& r) { return r.m.storage_batches; })),
       "count"},
      {"storage.decode_raw_ns_per_edge", TimeDecode(g, AdjacencyEncoding::kRaw), "ns"},
      {"storage.decode_v2_ns_per_edge", TimeDecode(g, AdjacencyEncoding::kDeltaVarint), "ns"},
      {"storage.write_us", TimeWrites(g, writes, kStorageServers, w.encoding), "us"},
      {"storage.load_s", s.times.load_s, "s"},
      {"graph.build_s", s.times.graph_s, "s"},
      {"landmark.select_s", s.times.landmark_s, "s"},
      {"embed.build_s", s.times.embed_s, "s"},
      {"embed.refresh_us", refresh_us, "us"},
      {"obs.trace_overhead", 1.0 - Ratio(traced_qps, plain_qps), "fraction"},
      {"obs.events_dropped",
       static_cast<double>(SumOf(traced, [](const RunResult& r) {
         return r.m.trace_events_dropped;
       })),
       "count"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hotspot-evict|hotspot-fit|open-mixed> "
                 "[--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const Workload& w = *args.workload;
  Setup s = SetupMedian(w, args.seed);
  const Graph& g = s.graph();
  std::printf("workload %s, seed %llu: %zu nodes, %zu edges, %llu B adjacency\n", w.name,
              static_cast<unsigned long long>(args.seed), g.num_nodes(), g.num_edges(),
              static_cast<unsigned long long>(g.TotalAdjacencyBytes()));

  RefreshTimes refresh;
  const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::vector<Inputs> pool = MakeInputPool(w, s);
  const PairedRuns pairs = RunPairs(s, w, pool, plain_seconds, &refresh);
  const std::vector<RunResult>& plain = pairs.embed;
  std::vector<RunResult> all = plain;
  all.insert(all.end(), pairs.hash.begin(), pairs.hash.end());
  std::vector<Metric> metrics = EndToEnd(pairs, s);
  PrintMetrics("end to end (untraced)", metrics);
  PrintSeries("embed", pairs.embed);
  PrintSeries("hash", pairs.hash);
  bool correct = true;
  if (args.trace) {
    Instruments inst;
    RefreshTimes traced_refresh;
    const std::vector<RunResult> traced =
        RunTraced(s, w, pool, args.seconds / 2.0, &inst, &traced_refresh);
    all.insert(all.end(), traced.begin(), traced.end());
    metrics = PerLayer(w, s, pool.front(), plain, traced, inst, refresh);
    PrintMetrics("per layer", metrics);
    correct = SumOf(traced, [](const RunResult& r) { return r.m.trace_events_dropped; }) == 0;
  }
  const uint64_t attempted = SumOf(all, [](const RunResult& r) { return r.attempted; });
  const uint64_t failed = SumOf(all, [](const RunResult& r) { return r.failed; });
  const uint64_t answered = SumOf(plain, [](const RunResult& r) { return r.m.queries; });
  const uint64_t visited = SumOf(plain, [](const RunResult& r) { return r.m.nodes_visited; });
  std::printf("pairs %zu untraced (%llu answered queries under embed, %.1f nodes visited per "
              "query), peak_rss_mb %.1f MB, error_rate %.6g (%llu of %llu)\n",
              plain.size(), static_cast<unsigned long long>(answered),
              Ratio(static_cast<double>(visited), static_cast<double>(answered)), PeakRssMb(),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  correct = correct && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace grouting::perfbench

int main(int argc, char** argv) { return grouting::perfbench::Main(argc, argv); }
