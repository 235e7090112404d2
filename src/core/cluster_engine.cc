#include "src/core/cluster_engine.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/frontend/admission.h"
#include "src/runtime/threaded_cluster.h"
#include "src/sim/decoupled_sim.h"
#include "src/util/load_balance.h"

namespace grouting {

std::string EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSimulated:
      return "simulated";
    case EngineKind::kThreaded:
      return "threaded";
  }
  GROUTING_CHECK_MSG(false, "unknown engine kind");
  return "";
}

namespace {

// Worst per-tenant response-time tail across the run's tenants (ms); 0 when
// per-tenant metrics are absent.
template <double TenantMetrics::*percentile>
double MaxTenantPercentile(const ClusterMetrics& m) {
  double worst = 0.0;
  for (const TenantMetrics& t : m.per_tenant) {
    worst = std::max(worst, t.*percentile);
  }
  return worst;
}

// A row that reads one scalar field; integer fields print as counts.
template <auto field>
MetricField ScalarRow(const char* name, const char* unit) {
  using T = std::remove_cvref_t<decltype(std::declval<ClusterMetrics>().*field)>;
  return {name, unit, std::is_integral_v<T>,
          [](const ClusterMetrics& m) { return static_cast<double>(m.*field); }};
}

}  // namespace

// The row key is the field's own identifier.
#define GROUTING_METRIC(field, unit) ScalarRow<&ClusterMetrics::field>(#field, unit)

std::span<const MetricField> ClusterMetricFields() {
  static const MetricField kFields[] = {
      GROUTING_METRIC(queries, "count"),
      GROUTING_METRIC(makespan_us, "us"),
      GROUTING_METRIC(throughput_qps, "q/s"),
      GROUTING_METRIC(mean_response_ms, "ms"),
      GROUTING_METRIC(p50_response_ms, "ms"),
      GROUTING_METRIC(p95_response_ms, "ms"),
      GROUTING_METRIC(p99_response_ms, "ms"),
      GROUTING_METRIC(p999_response_ms, "ms"),
      GROUTING_METRIC(mean_queue_wait_ms, "ms"),
      GROUTING_METRIC(cache_hits, "count"),
      GROUTING_METRIC(cache_misses, "count"),
      {"hit_rate", "fraction", false,
       [](const ClusterMetrics& m) { return m.CacheHitRate(); }},
      GROUTING_METRIC(nodes_visited, "count"),
      GROUTING_METRIC(bytes_from_storage, "bytes"),
      GROUTING_METRIC(storage_batches, "count"),
      GROUTING_METRIC(steals, "count"),
      GROUTING_METRIC(gossip_rounds, "count"),
      GROUTING_METRIC(router_ema_divergence, "ratio"),
      GROUTING_METRIC(sessions_migrated, "count"),
      GROUTING_METRIC(sticky_evictions, "count"),
      GROUTING_METRIC(router_load_imbalance, "ratio"),
      GROUTING_METRIC(batches_inflight_peak, "count"),
      GROUTING_METRIC(fetch_overlap_us, "us"),
      GROUTING_METRIC(partitions_migrated, "count"),
      GROUTING_METRIC(storage_load_imbalance, "ratio"),
      GROUTING_METRIC(repartition_stall_us, "us"),
      GROUTING_METRIC(partitions_replicated, "count"),
      GROUTING_METRIC(replica_reads, "count"),
      GROUTING_METRIC(replica_demotions, "count"),
      GROUTING_METRIC(adjacency_compression_ratio, "ratio"),
      GROUTING_METRIC(cache_entries, "count"),
      GROUTING_METRIC(decompress_us, "us"),
      GROUTING_METRIC(trace_events_recorded, "count"),
      GROUTING_METRIC(trace_events_dropped, "count"),
      GROUTING_METRIC(trace_buffer_high_water, "count"),
      {"tenants", "count", true,
       [](const ClusterMetrics& m) {
         return static_cast<double>(std::max<size_t>(1, m.per_tenant.size()));
       }},
      GROUTING_METRIC(queries_shed, "count"),
      {"shed_rate", "fraction", false,
       [](const ClusterMetrics& m) {
         return TenantMetrics{.queries = m.queries, .shed = m.queries_shed}.ShedRate();
       }},
      {"max_tenant_p99_ms", "ms", false,
       MaxTenantPercentile<&TenantMetrics::p99_response_ms>},
      {"max_tenant_p999_ms", "ms", false,
       MaxTenantPercentile<&TenantMetrics::p999_response_ms>},
      GROUTING_METRIC(mutations_applied, "count"),
      GROUTING_METRIC(index_refreshes, "count"),
      GROUTING_METRIC(stale_distance_error, "ratio"),
  };
  return kFields;
}

#undef GROUTING_METRIC

std::string FormatMetric(const MetricField& field, const ClusterMetrics& m,
                         int precision) {
  char buf[40];
  const double v = field.get(m);
  if (field.integer) {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  }
  return buf;
}

std::ostream& operator<<(std::ostream& os, const ClusterMetrics& m) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (const MetricField& field : ClusterMetricFields()) {
    out << "\n  " << field.name << ": " << FormatMetric(field, m, 17);
  }
  for (const auto& [name, counts] :
       {std::pair{"queries_per_processor", &m.queries_per_processor},
        std::pair{"queries_per_router_shard", &m.queries_per_router_shard}}) {
    out << "\n  " << name << ":";
    for (const uint64_t count : *counts) {
      out << ' ' << count;
    }
  }
  for (const TenantMetrics& t : m.per_tenant) {
    out << "\n  per_tenant[" << t.tenant << "]: queries " << t.queries << ", shed "
        << t.shed << ", mean " << t.mean_response_ms << ", p50 " << t.p50_response_ms
        << ", p99 " << t.p99_response_ms << ", p999 " << t.p999_response_ms;
  }
  return os << out.str() << "\n}";
}

ClusterEngine::ClusterEngine(const Graph& graph, const ClusterConfig& config,
                             const PartitionAssignment* placement)
    : config_(config) {
  GROUTING_CHECK(config_.num_processors > 0);
  GROUTING_CHECK(config_.num_storage_servers > 0);
  GROUTING_CHECK(config_.num_router_shards > 0);
  GROUTING_CHECK(config_.router_session_capacity > 0);
  GROUTING_CHECK_MSG(config_.processor.max_inflight_batches > 0,
                     "max_inflight_batches must be >= 1");
  GROUTING_CHECK(config_.num_tenants > 0);
  GROUTING_CHECK(config_.tenant_quota_burst >= 1.0);
  storage_ = std::make_unique<StorageTier>(config_.num_storage_servers);
  if (config_.num_tenants > 1) {
    GROUTING_CHECK_MSG(placement == nullptr,
                       "multi-tenant federation is incompatible with an "
                       "explicit storage placement");
    // Federated keyspaces: the tier stores one copy of the graph per tenant
    // and the processors offset their keys by tenant * num_nodes. Must be
    // set before LoadGraph below.
    storage_->set_num_tenants(config_.num_tenants);
    config_.processor.tenant_stride = static_cast<NodeId>(graph.num_nodes());
  }
  storage_->set_encoding(config_.adjacency_encoding);
  if (config_.processor.cache_compressed) {
    // Compressed processor caches admit the wire blob, so every decode must
    // keep it attached to the entry.
    storage_->set_retain_wire(true);
  }
  if (config_.repartition.active()) {
    GROUTING_CHECK_MSG(placement == nullptr,
                       "storage repartitioning/replication is incompatible with "
                       "an explicit storage placement");
    storage_->EnableRepartitioning(config_.repartition.partitions_per_server);
    if (config_.repartition.replication_enabled()) {
      GROUTING_CHECK_MSG(
          config_.repartition.max_replicas_per_partition <= PartitionMap::kMaxReplicas,
          "max_replicas_per_partition exceeds the map's packing limit");
      GROUTING_CHECK_MSG(config_.num_storage_servers <= PartitionMap::kMaxReplicaServers,
                         "replica stamps pack 8-bit server ids");
      storage_->EnableReplication();
    }
  }
  if (config_.enable_mutations) {
    // Versioned write path: counters must exist before the load below so
    // LoadGraphSubset can register withheld keys. The graph reference is
    // the mutation universe (kAddVertex materialises from it), so callers
    // keep it alive across Run — same lifetime rule every engine already
    // has for traversal.
    storage_->EnableMutations(graph);
  } else {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.empty(),
                       "mutation_preload_keep requires enable_mutations");
  }
  if (placement != nullptr) {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.empty(),
                       "a preload keep mask is incompatible with an explicit "
                       "storage placement");
    storage_->LoadGraph(graph, *placement);
  } else if (!config_.mutation_preload_keep.empty()) {
    GROUTING_CHECK_MSG(config_.mutation_preload_keep.size() == graph.num_nodes(),
                       "mutation_preload_keep must be sized num_nodes");
    storage_->LoadGraphSubset(graph, config_.mutation_preload_keep);
  } else {
    storage_->LoadGraph(graph);
  }
  processors_.reserve(config_.num_processors);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    processors_.push_back(
        std::make_unique<QueryProcessor>(p, storage_.get(), config_.processor));
  }
  if (config_.trace_sample_every_n > 0) {
    tracer_ = std::make_unique<TraceRecorder>(
        config_.trace_sample_every_n, config_.trace_buffer_capacity,
        config_.num_processors, config_.num_router_shards);
  }
}

void ClusterEngine::AddTraceStats(ClusterMetrics* m) const {
  if (tracer_ == nullptr) {
    return;
  }
  const TraceCounters c = tracer_->counters();
  m->trace_events_recorded = c.recorded;
  m->trace_events_dropped = c.dropped;
  m->trace_buffer_high_water = c.high_water;
}

bool ClusterEngine::ExportTrace(const std::string& path, TraceMetadata metadata) const {
  if (tracer_ == nullptr) {
    return false;
  }
  const TraceCounters c = tracer_->counters();
  metadata.emplace_back("engine", EngineKindName(kind()));
  metadata.emplace_back("trace_sample_every_n",
                        std::to_string(tracer_->sample_every_n()));
  metadata.emplace_back("num_processors", std::to_string(config_.num_processors));
  metadata.emplace_back("num_router_shards",
                        std::to_string(config_.num_router_shards));
  metadata.emplace_back("events_recorded", std::to_string(c.recorded));
  metadata.emplace_back("events_dropped", std::to_string(c.dropped));
  metadata.emplace_back("time_unit", "us");
  return WriteChromeTrace(path, tracer_->MergedEvents(), config_.num_processors,
                          config_.num_router_shards, metadata);
}

void ClusterEngine::AddProcessorStats(ClusterMetrics* m) const {
  for (const auto& proc : processors_) {
    m->cache_hits += proc->stats().cache_hits;
    m->cache_misses += proc->stats().cache_misses;
    m->nodes_visited += proc->stats().nodes_visited;
    m->bytes_from_storage += proc->stats().bytes_fetched;
    m->storage_batches += proc->stats().storage_batches;
    m->batches_inflight_peak =
        std::max(m->batches_inflight_peak, proc->stats().batches_inflight_peak);
    m->fetch_overlap_us += proc->stats().fetch_overlap_us;
    m->decompress_us += proc->stats().decompress_us;
    if (proc->cache_enabled()) {
      m->cache_entries += proc->cache()->entry_count();
    }
  }
}

void ClusterEngine::AddStorageTierStats(ClusterMetrics* m) const {
  m->storage_load_imbalance = MaxMinLoadRatio(storage_->GetRequestsPerServer());
  m->partitions_migrated = partitions_migrated_;
  m->adjacency_compression_ratio = storage_->AdjacencyCompressionRatio();
  m->partitions_replicated = replica_promotions_;
  m->replica_demotions = replica_demotions_;
  m->replica_reads = storage_->replica_reads();
}

std::vector<StorageTier::MigrationResult> ClusterEngine::RepartitionRound() {
  std::vector<StorageTier::MigrationResult> executed;
  PartitionMonitor* monitor = storage_->partition_monitor();
  if (monitor == nullptr) {
    return executed;
  }
  monitor->RollWindow(config_.repartition.migration.load_decay);
  if (config_.repartition.replication_enabled()) {
    const ReplicationPlan plan = PlanReplication(
        *storage_->partition_map(), monitor->rates(), config_.repartition);
    for (const ReplicaChange& d : plan.demote) {
      executed.push_back(storage_->RemoveReplica(d.partition, d.server));
      ++replica_demotions_;
    }
    for (const ReplicaChange& p : plan.promote) {
      executed.push_back(storage_->AddReplica(p.partition, p.server));
      ++replica_promotions_;
    }
  }
  if (config_.repartition.enabled()) {
    // Planned after the replica changes landed, so replicated partitions
    // are excluded as migration victims against the freshest replica sets.
    const std::vector<PartitionMigration> plan = PlanRepartition(
        *storage_->partition_map(), monitor->rates(), config_.repartition);
    for (const PartitionMigration& mig : plan) {
      executed.push_back(storage_->MigratePartition(mig.partition, mig.to));
      ++partitions_migrated_;
    }
  }
  return executed;
}

void ClusterEngine::set_mutation_schedule(std::vector<GraphMutation> schedule) {
  GROUTING_CHECK_MSG(config_.enable_mutations,
                     "set_mutation_schedule requires enable_mutations");
  GROUTING_CHECK_MSG(!ran_, "set the mutation schedule before Run()");
  mutation_schedule_ = std::move(schedule);
  // Stable by apply_us: entries at the same offset keep schedule order, so
  // both engines apply identical sequences.
  std::stable_sort(mutation_schedule_.begin(), mutation_schedule_.end(),
                   [](const GraphMutation& a, const GraphMutation& b) {
                     return a.apply_us < b.apply_us;
                   });
}

void ClusterEngine::set_index_maintainer(IndexMaintainer maintainer) {
  GROUTING_CHECK_MSG(config_.enable_mutations,
                     "set_index_maintainer requires enable_mutations");
  GROUTING_CHECK_MSG(!ran_, "set the index maintainer before Run()");
  index_maintainer_ = std::move(maintainer);
}

uint64_t ClusterEngine::ApplyOneMutation(const GraphMutation& m) {
  const uint64_t writes = storage_->ApplyMutation(m);
  std::lock_guard<std::mutex> lock(mutation_mu_);
  ++mutations_applied_;
  pending_refresh_.push_back(m.u);
  if (m.v != kInvalidNode) {
    pending_refresh_.push_back(m.v);
  }
  return writes;
}

void ClusterEngine::ApplyQuiescedMutations() {
  for (const GraphMutation& m : mutation_schedule_) {
    if (m.apply_us <= 0.0) {
      ApplyOneMutation(m);
    }
  }
}

uint64_t ClusterEngine::RunIndexMaintenance(double now_us) {
  if (!config_.enable_mutations) {
    return 0;
  }
  if (config_.index_refresh_period_us > 0.0 &&
      now_us - last_index_refresh_us_ < config_.index_refresh_period_us) {
    return 0;  // gated: dirty nodes stay pending for a later tick
  }
  std::vector<NodeId> dirty;
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    dirty.swap(pending_refresh_);
  }
  if (dirty.empty()) {
    return 0;
  }
  last_index_refresh_us_ = now_us;
  // Canonical order regardless of which thread dirtied what first, so the
  // maintainer sees an engine-independent node list.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  ++index_refreshes_;
  if (index_maintainer_) {
    const IndexRefreshResult r = index_maintainer_(dirty);
    stale_error_sum_ += r.error_sum;
    stale_error_samples_ += r.error_samples;
  }
  return dirty.size();
}

void ClusterEngine::AddMutationStats(ClusterMetrics* m) const {
  m->mutations_applied = mutations_applied_;
  m->index_refreshes = index_refreshes_;
  m->stale_distance_error =
      stale_error_sum_ /
      static_cast<double>(std::max<uint64_t>(1, stale_error_samples_));
}

double ClusterEngine::ArrivalTimeUs(const Query& q, size_t index) const {
  if (config_.open_loop_arrivals && q.arrive_us >= 0.0) {
    return q.arrive_us;
  }
  return config_.arrival_gap_us * static_cast<double>(index);
}

ClusterEngine::AdmissionPlan ClusterEngine::PlanAdmission(
    std::span<const Query> queries) const {
  AdmissionPlan plan;
  plan.shed_per_tenant.assign(config_.num_tenants, 0);
  for (const Query& q : queries) {
    GROUTING_CHECK_MSG(q.tenant < config_.num_tenants,
                       "query tenant id out of range");
  }
  if (config_.tenant_quota_qps <= 0.0) {
    plan.admitted = queries.size();
    return plan;
  }
  AdmissionConfig admission;
  admission.num_tenants = config_.num_tenants;
  admission.quota_qps = config_.tenant_quota_qps;
  admission.burst = config_.tenant_quota_burst;
  TenantAdmission buckets(admission);
  plan.admit.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool ok = buckets.Admit(queries[i].tenant, ArrivalTimeUs(queries[i], i));
    plan.admit[i] = ok ? 1 : 0;
    if (ok) {
      ++plan.admitted;
    } else {
      ++plan.shed;
      ++plan.shed_per_tenant[queries[i].tenant];
    }
  }
  return plan;
}

void ClusterEngine::FillTenantMetrics(
    ClusterMetrics* m, std::span<const LatencyHistogram> tenant_response_us,
    std::span<const uint64_t> tenant_queries, const AdmissionPlan& plan) const {
  m->queries_shed = plan.shed;
  m->per_tenant.clear();
  m->per_tenant.reserve(config_.num_tenants);
  for (uint32_t t = 0; t < config_.num_tenants; ++t) {
    TenantMetrics tm;
    tm.tenant = t;
    tm.queries = tenant_queries[t];
    tm.shed = t < plan.shed_per_tenant.size() ? plan.shed_per_tenant[t] : 0;
    const LatencyHistogram& h = tenant_response_us[t];
    if (h.count() > 0) {
      tm.mean_response_ms = h.mean() / 1000.0;
      tm.p50_response_ms = h.Percentile(50.0) / 1000.0;
      tm.p99_response_ms = h.Percentile(99.0) / 1000.0;
      tm.p999_response_ms = h.Percentile(99.9) / 1000.0;
    }
    m->per_tenant.push_back(tm);
  }
}

void ClusterEngine::FillLatencyStats(ClusterMetrics* m,
                                     const LatencyHistogram& response_us,
                                     const RunningStat& queue_wait_us) {
  // The histogram's embedded RunningStat keeps the mean exact (identical to
  // the historical sample-vector mean); every percentile is one bucket walk
  // instead of a full sort per quantile.
  m->mean_response_ms = response_us.mean() / 1000.0;
  m->p50_response_ms = response_us.Percentile(50.0) / 1000.0;
  m->p95_response_ms = response_us.Percentile(95.0) / 1000.0;
  m->p99_response_ms = response_us.Percentile(99.0) / 1000.0;
  m->p999_response_ms = response_us.Percentile(99.9) / 1000.0;
  m->mean_queue_wait_ms = queue_wait_us.mean() / 1000.0;
}

std::unique_ptr<ClusterEngine> MakeClusterEngine(
    EngineKind kind, const Graph& graph, const ClusterConfig& config,
    std::unique_ptr<RoutingStrategy> strategy, const PartitionAssignment* placement) {
  GROUTING_CHECK(strategy != nullptr);
  switch (kind) {
    case EngineKind::kSimulated:
      return std::make_unique<DecoupledClusterSim>(graph, config, std::move(strategy),
                                                   placement);
    case EngineKind::kThreaded:
      return std::make_unique<ThreadedCluster>(graph, config, std::move(strategy),
                                               placement);
  }
  GROUTING_CHECK_MSG(false, "unknown engine kind");
  return nullptr;
}

}  // namespace grouting
