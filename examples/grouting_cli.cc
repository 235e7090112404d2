// gRouting experiment CLI: run any cluster configuration from the command
// line without writing code.
//
//   ./grouting_cli --dataset=webgraph --scale=0.3 --scheme=embed \
//                  --engine=sim --processors=7 --storage=4 --cache=16MB \
//                  --radius=2 --hops=2 --hotspots=100 --per-hotspot=10 \
//                  --network=infiniband --load-factor=20 --alpha=0.5
//
// Prints the run's metrics as a table. `--help` lists every flag.

#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/grouting.h"

using namespace grouting;

namespace {

// Command-line flags of the form --key=value or --key. Every lookup marks
// its key as read and records its default and help text, so Errors() can
// report malformed values and flags that nothing asked for, and Help() lists
// exactly the flags the program reads, without a second list of flag names.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg(argv[i]);
      if (arg.rfind("--", 0) != 0) {
        errors_.push_back("unexpected argument '" + arg + "'");
        continue;
      }
      const auto eq = arg.find('=');
      values_[arg.substr(2, eq == std::string::npos ? eq : eq - 2)] =
          eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
  }

  bool Has(const std::string& key, const char* help) {
    return Find(key, "", help) != nullptr;
  }
  std::string Get(const std::string& key, const std::string& def, const char* help) {
    const std::string* text = Find(key, def, help);
    return text == nullptr ? def : *text;
  }
  // A number in [min, max].
  double GetDouble(const std::string& key, double def, const char* help,
                   double min = -std::numeric_limits<double>::infinity(),
                   double max = std::numeric_limits<double>::infinity()) {
    const double v = Parse(key, def, help, "a number");
    return InRange(key, v, min, max) ? v : def;
  }
  // A non-negative integer in [min, max] (max defaults to what T holds).
  template <typename T>
  T GetInt(const std::string& key, T def, const char* help, uint64_t min = 0,
           uint64_t max = std::numeric_limits<T>::max()) {
    const uint64_t v = Parse<uint64_t>(key, def, help, "a non-negative integer");
    return InRange(key, v, min, max) ? static_cast<T>(v) : def;
  }
  // A byte size such as 16MB or 512KB (ParseByteSize).
  uint64_t GetBytes(const std::string& key, const std::string& def, const char* help) {
    const std::string text = Get(key, def, help);
    const uint64_t bytes = ParseByteSize(text);
    if (bytes == 0 && text.rfind('0', 0) != 0) {
      errors_.push_back("bad value '" + text + "' for --" + key +
                        " (expected e.g. 16MB)");
    }
    return bytes;
  }

  // Malformed values seen so far, then every flag that nothing read.
  std::vector<std::string> Errors() const {
    std::vector<std::string> errors = errors_;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        errors.push_back("unknown flag --" + key);
      }
    }
    return errors;
  }
  // One line per flag read so far: --key=default, then its help text.
  const std::string& Help() const { return help_; }

 private:
  const std::string* Find(const std::string& key, const std::string& def,
                          const char* help) {
    if (read_.insert(key).second) {
      char line[256];
      const std::string flag = "--" + key + (def.empty() ? "" : "=" + def);
      std::snprintf(line, sizeof(line), "  %-32s %s\n", flag.c_str(), help);
      help_ += line;
    }
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  template <typename T>
  bool InRange(const std::string& key, T v, T min, T max) {
    if (v >= min && v <= max) {
      return true;
    }
    errors_.push_back("--" + key + "=" + std::to_string(v) + " is outside [" +
                      std::to_string(min) + ", " + std::to_string(max) + "]");
    return false;
  }

  // The whole value must parse (std::from_chars, no trailing characters);
  // NaN is refused too (v != v).
  template <typename T>
  T Parse(const std::string& key, T def, const char* help, const char* expected) {
    std::ostringstream def_text;
    def_text << def;
    const std::string* text = Find(key, def_text.str(), help);
    if (text == nullptr) {
      return def;
    }
    T v{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, v);
    if (ec != std::errc() || ptr != end || text->empty() || v != v) {
      errors_.push_back("bad value '" + *text + "' for --" + key + " (expected " +
                        expected + ")");
      return def;
    }
    return v;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
  std::vector<std::string> errors_;
  std::string help_;
};

// Order-independent checksum over the run's answers: each answer folds its
// id and result fields through a SplitMix64 chain into one 64-bit word, and
// the words XOR together — so the value is identical across engines
// regardless of completion order (the soak pipeline's exactly-once check).
// With `ids_only`, only query ids are folded: under concurrent mutations
// the VALUE a query observes legitimately depends on whether the write
// landed first (engine timing), but the SET of answered ids must still
// match exactly-once across engines.
uint64_t AnswerChecksum(const std::vector<AnsweredQuery>& answers, bool ids_only) {
  uint64_t sum = 0;
  for (const AnsweredQuery& a : answers) {
    SplitMix64 chain(a.query_id);
    if (ids_only) {
      sum ^= chain.Next();
      continue;
    }
    uint64_t w = chain.Next();
    chain = SplitMix64(w ^ static_cast<uint64_t>(a.result.type));
    w = chain.Next();
    chain = SplitMix64(w ^ a.result.aggregate);
    w = chain.Next();
    chain = SplitMix64(w ^ (static_cast<uint64_t>(a.result.walk_end) << 32 |
                            a.result.walk_distinct_nodes));
    w = chain.Next();
    chain = SplitMix64(w ^ (a.result.reachable ? 1u : 0u) ^
                       (static_cast<uint64_t>(static_cast<uint32_t>(a.result.distance))
                        << 8));
    sum ^= chain.Next();
  }
  return sum;
}

// Per-tenant admission/latency metrics as JSON, consumed by
// tools/check_soak.py to gate the CI multi-tenant soak on both engines.
bool WriteTenantMetricsJson(const std::string& path, const std::string& engine,
                            const RunOptions& opts, size_t arrivals,
                            const ClusterMetrics& m, uint64_t checksum) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\n  \"engine\": \"%s\",\n  \"tenants\": %u,\n"
               "  \"quota_qps\": %.6g,\n  \"arrivals\": %zu,\n"
               "  \"answered\": %llu,\n  \"shed_total\": %llu,\n"
               "  \"mutations_applied\": %llu,\n  \"index_refreshes\": %llu,\n"
               "  \"answer_checksum\": \"%016llx\",\n  \"per_tenant\": [",
               engine.c_str(), opts.num_tenants, opts.tenant_quota_qps, arrivals,
               static_cast<unsigned long long>(m.queries),
               static_cast<unsigned long long>(m.queries_shed),
               static_cast<unsigned long long>(m.mutations_applied),
               static_cast<unsigned long long>(m.index_refreshes),
               static_cast<unsigned long long>(checksum));
  for (size_t i = 0; i < m.per_tenant.size(); ++i) {
    const TenantMetrics& t = m.per_tenant[i];
    std::fprintf(f,
                 "%s\n    {\"tenant\": %u, \"queries\": %llu, \"shed\": %llu, "
                 "\"shed_rate\": %.6g, \"mean_response_ms\": %.6g, "
                 "\"p50_response_ms\": %.6g, \"p99_response_ms\": %.6g, "
                 "\"p999_response_ms\": %.6g}",
                 i == 0 ? "" : ",", t.tenant, static_cast<unsigned long long>(t.queries),
                 static_cast<unsigned long long>(t.shed), t.ShedRate(),
                 t.mean_response_ms, t.p50_response_ms, t.p99_response_ms,
                 t.p999_response_ms);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool help = flags.Has("help", "print this list and exit");

  static const std::map<std::string, DatasetId> kDatasets = {
      {"webgraph", DatasetId::kWebGraphLike},
      {"friendster", DatasetId::kFriendsterLike},
      {"memetracker", DatasetId::kMemetrackerLike},
      {"freebase", DatasetId::kFreebaseLike},
  };
  static const std::map<std::string, RoutingSchemeKind> kSchemes = {
      {"no_cache", RoutingSchemeKind::kNoCache},
      {"next_ready", RoutingSchemeKind::kNextReady},
      {"hash", RoutingSchemeKind::kHash},
      {"landmark", RoutingSchemeKind::kLandmark},
      {"embed", RoutingSchemeKind::kEmbed},
  };
  static const std::map<std::string, CachePolicy> kPolicies = {
      {"lru", CachePolicy::kLru},
      {"fifo", CachePolicy::kFifo},
      {"lfu", CachePolicy::kLfu},
      {"clock", CachePolicy::kClock},
  };
  static const std::map<std::string, SplitterKind> kSplitters = {
      {"round_robin", SplitterKind::kRoundRobin},
      {"hash", SplitterKind::kHash},
      {"sticky", SplitterKind::kSticky},
      {"adaptive", SplitterKind::kAdaptive},
  };

  // Every flag is read here, before any work, so a typo or a bad value fails
  // fast instead of after the graph is built.
  const std::string dataset_name =
      flags.Get("dataset", "webgraph", "webgraph|friendster|memetracker|freebase");
  const std::string scheme_name =
      flags.Get("scheme", "embed", "no_cache|next_ready|hash|landmark|embed");
  const std::string engine_name = flags.Get("engine", "sim", "sim|threaded");
  const std::string policy_name = flags.Get("policy", "lru", "lru|fifo|lfu|clock");
  const std::string network_name =
      flags.Get("network", "infiniband", "infiniband|ethernet cost profile");
  const std::string splitter_name = flags.Get(
      "splitter", "round_robin", "round_robin|hash|sticky|adaptive arrival splitter");
  const std::string encoding_name =
      flags.Get("adjacency-encoding", "raw", "raw|delta_varint storage wire format");
  if (kDatasets.count(dataset_name) == 0 || kSchemes.count(scheme_name) == 0 ||
      (engine_name != "sim" && engine_name != "threaded") ||
      kPolicies.count(policy_name) == 0 ||
      (network_name != "infiniband" && network_name != "ethernet") ||
      kSplitters.count(splitter_name) == 0 ||
      (encoding_name != "raw" && encoding_name != "delta_varint")) {
    std::fprintf(stderr,
                 "unknown --dataset, --scheme, --engine, --policy, --network, --splitter "
                 "or --adjacency-encoding; see --help\n");
    return 1;
  }
  const EngineKind engine =
      engine_name == "threaded" ? EngineKind::kThreaded : EngineKind::kSimulated;
  constexpr double kPositive = std::numeric_limits<double>::min();
  const double scale = flags.GetDouble("scale", 0.25, "dataset scale", kPositive);
  const uint64_t seed = flags.GetInt<uint64_t>("seed", 4242, "experiment seed");

  // A flag that sets a field defaults to the field's default value.
  RunOptions opts;
  opts.scheme = kSchemes.at(scheme_name);
  opts.processors = flags.GetInt("processors", opts.processors, "query processors", 1);
  opts.storage_servers =
      flags.GetInt("storage", opts.storage_servers, "storage servers", 1);
  opts.cache_bytes = flags.GetBytes("cache", std::to_string(opts.cache_bytes),
                                    "per-processor cache, e.g. 16MB; 0 = ample");
  opts.cache_policy = kPolicies.at(policy_name);
  opts.cost = network_name == "ethernet" ? CostModel::EthernetDefaults()
                                         : CostModel::InfinibandDefaults();
  opts.hotspot_radius = flags.GetInt("radius", opts.hotspot_radius, "hotspot radius r");
  opts.hops = flags.GetInt("hops", opts.hops, "traversal depth h");
  opts.num_hotspots = flags.GetInt("hotspots", opts.num_hotspots, "workload hotspots");
  opts.queries_per_hotspot =
      flags.GetInt("per-hotspot", opts.queries_per_hotspot, "queries per hotspot");
  opts.num_landmarks = flags.GetInt("landmarks", opts.num_landmarks, "landmark count", 1);
  opts.min_separation = flags.GetInt("separation", opts.min_separation,
                                     "minimum landmark separation (hops)");
  opts.dimensions = flags.GetInt("dims", opts.dimensions, "embedding dimensions", 1);
  opts.load_factor = flags.GetDouble("load-factor", opts.load_factor,
                                     "load-penalty weight", kPositive);
  opts.alpha =
      flags.GetDouble("alpha", opts.alpha, "embed distance/load blend", 0.0, 1.0);
  opts.stealing = !flags.Has("no-stealing", "disable idle-processor stealing");
  opts.router_shards =
      flags.GetInt("router-shards", opts.router_shards, "router frontend shards", 1);
  opts.splitter = kSplitters.at(splitter_name);
  opts.gossip_period_us = flags.GetDouble("gossip-period", opts.gossip_period_us,
                                          "µs between gossip rounds; 0 = off", 0.0);
  opts.router_rebalance.threshold =
      flags.GetDouble("rebalance-threshold", opts.router_rebalance.threshold,
                      "adaptive splitter max/min load trigger; <=1 = off");
  opts.router_rebalance.migration_cap =
      flags.GetInt("migration-cap", opts.router_rebalance.migration_cap,
                   "sessions moved per rebalance round");
  opts.session_capacity = flags.GetInt("session-capacity", opts.session_capacity,
                                       "sticky/adaptive session-table bound", 1);
  opts.arrival_gap_us =
      flags.GetDouble("arrival-gap", opts.arrival_gap_us, "inter-arrival gap (µs)", 0.0);
  opts.max_inflight_batches = flags.GetInt("inflight-batches", opts.max_inflight_batches,
                                           "async multiget window; 1 = level barrier", 1);
  opts.repartition.migration.threshold =
      flags.GetDouble("repartition-threshold", opts.repartition.migration.threshold,
                      "storage max/min access-rate trigger; <=1 = off");
  opts.repartition.migration.migration_cap =
      flags.GetInt("repartition-cap", opts.repartition.migration.migration_cap,
                   "partitions moved per round");
  opts.repartition.partitions_per_server =
      flags.GetInt("partitions-per-server", opts.repartition.partitions_per_server,
                   "virtual partitions per storage server", 1);
  opts.repartition.replication_top_k =
      flags.GetInt("replication-top-k", opts.repartition.replication_top_k,
                   "hot partitions promoted per round; 0 = off");
  opts.repartition.replica_demote_threshold = flags.GetDouble(
      "replica-demote-threshold", opts.repartition.replica_demote_threshold,
      "demote below this share of mean load", 0.0);
  opts.repartition.max_replicas_per_partition = flags.GetInt(
      "max-replicas-per-partition", opts.repartition.max_replicas_per_partition,
      "extra copies per partition (max 3)", 0, PartitionMap::kMaxReplicas);
  if (opts.repartition.replication_top_k > 0 &&
      opts.storage_servers > PartitionMap::kMaxReplicaServers) {
    std::fprintf(stderr, "--replication-top-k requires --storage <= %u\n",
                 PartitionMap::kMaxReplicaServers);
    return 1;
  }
  opts.adjacency_encoding = encoding_name == "delta_varint"
                                ? AdjacencyEncoding::kDeltaVarint
                                : AdjacencyEncoding::kRaw;
  opts.cache_compressed =
      flags.Has("cache-compressed", "cache the encoded blob, decode on every hit");
  const std::string trace_out =
      flags.Get("trace-out", "", "write the Chrome-trace/Perfetto JSON here");
  opts.trace_sample_every_n =
      flags.GetInt<uint32_t>("trace-sample-every-n", trace_out.empty() ? 0 : 1,
                             "trace every Nth query; 0 = off");
  opts.trace_buffer_capacity = flags.GetInt(
      "trace-buffer-capacity", opts.trace_buffer_capacity, "events per trace ring", 1);
  if (!trace_out.empty() && opts.trace_sample_every_n == 0) {
    std::fprintf(stderr, "--trace-out requires --trace-sample-every-n >= 1\n");
    return 1;
  }
  opts.num_tenants = flags.GetInt("num-tenants", opts.num_tenants, "tenant keyspaces", 1);
  opts.tenant_quota_qps = flags.GetDouble("tenant-quota-qps", opts.tenant_quota_qps,
                                          "per-tenant admission quota (q/s); <=0 = off");
  opts.tenant_quota_burst = flags.GetDouble("tenant-quota-burst", opts.tenant_quota_burst,
                                            "admission token-bucket burst", 1.0);
  opts.open_loop = flags.Has("open-loop", "open-loop Poisson arrivals on both engines");
  const std::string tenant_metrics_out = flags.Get(
      "tenant-metrics-out", "", "write per-tenant metrics + answer checksum JSON here");
  OpenLoopConfig ol;
  ol.num_tenants = opts.num_tenants;
  ol.num_arrivals = flags.GetInt("arrivals", ol.num_arrivals, "open-loop arrivals");
  ol.arrival_rate_qps = flags.GetDouble("arrival-rate", ol.arrival_rate_qps,
                                        "open-loop aggregate q/s", kPositive);
  ol.tenant_skew =
      flags.GetDouble("tenant-skew", ol.tenant_skew, "Zipf skew of tenant rates", 0.0);
  ol.sessions_per_tenant = flags.GetInt("sessions-per-tenant", ol.sessions_per_tenant,
                                        "open-loop sessions per tenant", 1);
  ol.hops = opts.hops;
  const double mutation_fraction = flags.GetDouble(
      "mutation-fraction", 0.0, "share of open-loop arrivals that write", 0.0, 1.0);
  if (mutation_fraction > 0.0 && !opts.open_loop) {
    std::fprintf(stderr, "--mutation-fraction requires --open-loop\n");
    return 1;
  }
  opts.enable_mutations = mutation_fraction > 0.0;
  opts.index_refresh_period_us =
      flags.GetDouble("index-refresh-period", opts.index_refresh_period_us,
                      "µs between index-maintenance passes", 0.0);
  if (help) {
    std::printf("gRouting experiment CLI\n%s", flags.Help().c_str());
    return 0;
  }
  const std::vector<std::string> errors = flags.Errors();
  for (const std::string& error : errors) {
    std::fprintf(stderr, "grouting_cli: %s\n", error.c_str());
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "see --help\n");
    return 1;
  }

  ExperimentEnv env(kDatasets.at(dataset_name), scale, seed);
  const Graph& g = env.graph();
  std::printf("dataset %s (scale %.2f): %zu nodes, %zu edges\n", dataset_name.c_str(),
              scale, g.num_nodes(), g.num_edges());
  std::printf("running %s on %u processors / %u storage servers (%s, %s engine)...\n",
              scheme_name.c_str(), opts.processors, opts.storage_servers,
              opts.cost.net.name.c_str(), EngineKindName(engine).c_str());

  // Assembled by hand (rather than env.Run) so the engine outlives the run:
  // the trace export reads the recorder after the metrics come back.
  std::vector<Query> workload;
  std::vector<GraphMutation> mutations;
  if (opts.open_loop) {
    ol.seed = env.seed() ^ 0x99;
    if (mutation_fraction > 0.0) {
      // Mixed read/write stream from one arrival process: a deterministic
      // slice of the arrivals becomes live edge writes at the same instants.
      MutationScheduleConfig mc;
      mc.seed = env.seed() ^ 0x66;
      MixedWorkload mixed =
          GenerateMixedOpenLoopWorkload(env.graph(), ol, mutation_fraction, mc);
      workload = std::move(mixed.queries);
      mutations = std::move(mixed.mutations);
    } else {
      workload = GenerateOpenLoopWorkload(env.graph(), ol);
    }
  } else {
    workload = env.HotspotWorkload(opts.hotspot_radius, opts.hops, opts.num_hotspots,
                                   opts.queries_per_hotspot);
  }
  auto cluster = MakeClusterEngine(engine, env.graph(), env.MakeClusterConfig(opts),
                                   env.MakeStrategy(opts));
  if (!mutations.empty()) {
    cluster->set_mutation_schedule(std::move(mutations));
  }
  const ClusterMetrics m = cluster->Run(workload);

  if (!trace_out.empty()) {
    TraceMetadata metadata;
    metadata.emplace_back("dataset", dataset_name);
    metadata.emplace_back("scheme", scheme_name);
    char scale_text[32];
    std::snprintf(scale_text, sizeof(scale_text), "%g", scale);
    metadata.emplace_back("scale", scale_text);
    if (cluster->ExportTrace(trace_out, metadata)) {
      std::printf("wrote trace: %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(m.trace_events_recorded),
                  static_cast<unsigned long long>(m.trace_events_dropped));
    } else {
      std::fprintf(stderr, "trace export to %s failed\n", trace_out.c_str());
      return 1;
    }
  }

  Table t({"metric", "value", "unit"});
  t.AddRow({"engine", EngineKindName(engine), ""});
  for (const MetricField& field : ClusterMetricFields()) {
    t.AddRow({field.name, FormatMetric(field, m), field.unit});
  }
  if (m.per_tenant.size() > 1 || m.queries_shed > 0) {
    for (const TenantMetrics& tm : m.per_tenant) {
      t.AddRow({"tenant " + Table::Int(tm.tenant),
                Table::Int(static_cast<int64_t>(tm.queries)) + " q / " +
                    Table::Int(static_cast<int64_t>(tm.shed)) + " shed / p99 " +
                    Table::Num(tm.p99_response_ms, 3),
                "ms"});
    }
  }
  std::printf("%s", t.ToString().c_str());

  if (!tenant_metrics_out.empty()) {
    // Under concurrent mutations the observed values depend on engine
    // timing; exactly-once is then asserted over the answered-id set.
    const uint64_t checksum =
        AnswerChecksum(cluster->answers(), /*ids_only=*/opts.enable_mutations);
    if (WriteTenantMetricsJson(tenant_metrics_out, engine_name, opts, workload.size(),
                               m, checksum)) {
      std::printf("wrote tenant metrics: %s\n", tenant_metrics_out.c_str());
    } else {
      std::fprintf(stderr, "tenant metrics export to %s failed\n",
                   tenant_metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}
