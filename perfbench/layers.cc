#include "perfbench/layers.h"

#include <algorithm>
#include <unordered_map>

namespace grouting::perfbench {
namespace {

constexpr int kPasses = 3;

void AddNs(std::atomic<uint64_t>& sum, std::atomic<uint64_t>& count,
           Clock::time_point start) {
  sum.fetch_add(static_cast<uint64_t>(ElapsedNs(start, Clock::now())),
                std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

double TimerOverheadNs() {
  constexpr int kPairs = 200000;
  double total = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const auto a = Clock::now();
    total += ElapsedNs(a, Clock::now());
  }
  return total / kPairs;
}

uint32_t TimedStrategy::Route(NodeId query_node, const RouterContext& ctx) {
  const auto start = Clock::now();
  const uint32_t target = inner_->Route(query_node, ctx);
  AddNs(times_->route_ns, times_->routes, start);
  return target;
}

void TimedStrategy::OnDispatch(NodeId query_node, uint32_t processor,
                               uint32_t routed_processor) {
  const auto start = Clock::now();
  inner_->OnDispatch(query_node, processor, routed_processor);
  AddNs(times_->dispatch_ns, times_->dispatches, start);
}

std::unique_ptr<RoutingStrategy> TimedStrategy::Clone() const {
  auto inner = inner_->Clone();
  if (inner == nullptr) {
    return nullptr;
  }
  return std::make_unique<TimedStrategy>(std::move(inner), times_);
}

void TimedStrategy::MergeRemoteState(const RoutingStrategy& remote, double weight) {
  const auto* timed = dynamic_cast<const TimedStrategy*>(&remote);
  inner_->MergeRemoteState(timed != nullptr ? *timed->inner_ : remote, weight);
}

void AddTrace(const std::vector<TraceEvent>& events, std::span<const double> schedule_us,
              TraceTotals* totals) {
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kQuery:
        ++totals->queries;
        totals->query_us += e.dur_us;
        break;
      case TraceEventType::kLevel:
        totals->level_us += e.dur_us;
        break;
      case TraceEventType::kBatch:
        ++totals->batches;
        totals->batch_us += e.dur_us;
        break;
      case TraceEventType::kQueueWait:
        totals->queue_wait_us.push_back(e.dur_us);
        break;
      case TraceEventType::kArrival:
        GROUTING_CHECK(e.query_id < schedule_us.size());
        totals->arrival_late_us.push_back(e.ts_us - schedule_us[e.query_id]);
        break;
      default:
        break;
    }
  }
}

double TimeDecode(const Graph& g, AdjacencyEncoding encoding) {
  std::vector<std::vector<uint8_t>> blobs;
  blobs.reserve(g.num_nodes());
  uint64_t edges = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    blobs.push_back(EncodeAdjacency(g, u, encoding));
    edges += g.Degree(u);
  }
  std::vector<double> per_edge;
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t decoded_edges = 0;
    const auto start = Clock::now();
    for (const auto& blob : blobs) {
      const AdjacencyPtr entry = DecodeAdjacency(blob);
      GROUTING_CHECK(entry != nullptr);
      decoded_edges += entry->out.size() + entry->in.size();
    }
    per_edge.push_back(ElapsedNs(start, Clock::now()) / static_cast<double>(edges));
    GROUTING_CHECK(decoded_edges == edges);
  }
  return Median(per_edge);
}

CacheCost TimeCacheReplay(const Graph& g, std::span<const NodeId> accesses,
                          uint64_t capacity_bytes, CachePolicy policy) {
  std::unordered_map<NodeId, AdjacencyPtr> entries;
  DirectGraphSource direct(g);
  for (NodeId u : accesses) {
    if (!entries.contains(u)) {
      entries.emplace(u, direct.FetchOne(u));
    }
  }
  const double overhead = TimerOverheadNs();
  std::vector<double> gets;
  std::vector<double> puts;
  for (int pass = 0; pass < kPasses; ++pass) {
    NodeCache<CachedAdjacency> cache(capacity_bytes, policy);
    double get_ns = 0.0;
    double put_ns = 0.0;
    uint64_t put_count = 0;
    for (NodeId u : accesses) {
      const auto get_start = Clock::now();
      const bool hit = cache.Get(u).has_value();
      const auto get_end = Clock::now();
      get_ns += ElapsedNs(get_start, get_end);
      if (!hit) {
        const AdjacencyPtr& entry = entries.at(u);
        const auto put_start = Clock::now();
        cache.Put(u, CachedAdjacency{entry, nullptr, 0}, entry->SerializedBytes());
        put_ns += ElapsedNs(put_start, Clock::now());
        ++put_count;
      }
    }
    gets.push_back(get_ns / static_cast<double>(accesses.size()) - overhead);
    puts.push_back(put_count == 0 ? 0.0 : put_ns / static_cast<double>(put_count) - overhead);
  }
  return {Median(gets), Median(puts)};
}

double TimeWrites(const Graph& g, std::span<const GraphMutation> writes, uint32_t servers,
                  AdjacencyEncoding encoding) {
  std::vector<double> per_write;
  for (int pass = 0; pass < kPasses; ++pass) {
    // A fresh tier per pass: writes are idempotent, so a replay on the same
    // tier would skip the edges the previous pass already toggled.
    StorageTier tier(servers);
    tier.set_encoding(encoding);
    tier.EnableMutations(g);
    tier.LoadGraph(g);
    const auto start = Clock::now();
    for (const GraphMutation& m : writes) {
      tier.ApplyMutation(m);
    }
    per_write.push_back(ElapsedNs(start, Clock::now()) / 1e3 /
                        static_cast<double>(writes.size()));
  }
  return Median(per_write);
}

double TimeRefresh(const Graph& g, std::span<const GraphMutation> writes,
                   GraphEmbedding& embedding, LandmarkSet& landmarks) {
  double total_ns = 0.0;
  for (const GraphMutation& m : writes) {
    std::vector<NodeId> dirty = {m.u};
    if (m.v != kInvalidNode && m.v != m.u) {
      dirty.push_back(m.v);
      std::sort(dirty.begin(), dirty.end());
    }
    const auto start = Clock::now();
    embedding.RefreshNodes(g, dirty, landmarks);
    total_ns += ElapsedNs(start, Clock::now());
  }
  return total_ns / 1e3 / static_cast<double>(writes.size());
}

}  // namespace grouting::perfbench
