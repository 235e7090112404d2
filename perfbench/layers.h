// Per-layer instruments of the wall-clock benchmark: a timing decorator for
// routing strategies, a recording data source, trace-span accounting, and
// standalone replays of single layers (adjacency decode, cache probe and
// insert, storage writes, embedding refresh) over a workload's own data.

#ifndef GROUTING_PERFBENCH_LAYERS_H_
#define GROUTING_PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/grouting.h"

namespace grouting::perfbench {

using Clock = std::chrono::steady_clock;

inline double ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// Mean cost of one back-to-back pair of Clock::now() calls (ns): what a
// single per-call timing adds on top of the timed call.
double TimerOverheadNs();

// Accumulated wall time of the calls a TimedStrategy forwards. Relaxed
// atomics, so clones on several router shards may share one sink.
struct RouteTimes {
  std::atomic<uint64_t> route_ns{0};
  std::atomic<uint64_t> routes{0};
  std::atomic<uint64_t> dispatch_ns{0};
  std::atomic<uint64_t> dispatches{0};
};

// Decorator timing Route and OnDispatch of the wrapped strategy. Every other
// hook is forwarded unchanged, so routing decisions stay identical.
class TimedStrategy final : public RoutingStrategy {
 public:
  TimedStrategy(std::unique_ptr<RoutingStrategy> inner, RouteTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  std::string name() const override { return inner_->name(); }
  uint32_t Route(NodeId query_node, const RouterContext& ctx) override;
  void OnDispatch(NodeId query_node, uint32_t processor,
                  uint32_t routed_processor) override;
  std::unique_ptr<RoutingStrategy> Clone() const override;
  void MergeRemoteState(const RoutingStrategy& remote, double weight) override;
  std::span<const double> GossipState() const override { return inner_->GossipState(); }
  SimTimeUs DecisionCostUs(const CostModel& cm, uint32_t num_processors) const override {
    return inner_->DecisionCostUs(cm, num_processors);
  }

 private:
  std::unique_ptr<RoutingStrategy> inner_;
  RouteTimes* times_;
};

// DirectGraphSource that also records every node id a traversal asks for,
// in request order: the node-access stream a processor cache would see.
class RecordingSource : public NodeDataSource {
 public:
  explicit RecordingSource(const Graph& g) : direct_(g) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    accesses_.insert(accesses_.end(), nodes.begin(), nodes.end());
    return direct_.FetchBatch(nodes);
  }
  const FetchTrace& trace() const override { return direct_.trace(); }
  void ResetTrace() override { direct_.ResetTrace(); }

  const std::vector<NodeId>& accesses() const { return accesses_; }

 private:
  DirectGraphSource direct_;
  std::vector<NodeId> accesses_;
};

// Span totals of traced runs, pooled across runs.
struct TraceTotals {
  uint64_t queries = 0;     // kQuery spans
  double query_us = 0.0;    // sum of kQuery durations
  double level_us = 0.0;    // sum of kLevel durations
  double batch_us = 0.0;    // sum of kBatch durations
  uint64_t batches = 0;     // kBatch spans
  std::vector<double> queue_wait_us;   // one per kQueueWait span
  std::vector<double> arrival_late_us; // router kArrival ts - schedule time
};

// Adds one traced run's events. `schedule_us[id]` is query id's schedule
// time (its arrive_us, or 0 for queries queued at t=0).
void AddTrace(const std::vector<TraceEvent>& events, std::span<const double> schedule_us,
              TraceTotals* totals);

// Standalone layer costs over one workload's data. TimeDecode,
// TimeCacheReplay and TimeWrites report the median of three passes.

// Wall time (ns) per edge of DecodeAdjacency over every node's blob.
double TimeDecode(const Graph& g, AdjacencyEncoding encoding);

struct CacheCost {
  double get_ns = 0.0;
  double put_ns = 0.0;
};
// Replays `accesses` through a fresh NodeCache<CachedAdjacency> of the given
// capacity and policy: a Get per access, and a Put of the node's adjacency
// entry after each miss, as a processor does.
CacheCost TimeCacheReplay(const Graph& g, std::span<const NodeId> accesses,
                          uint64_t capacity_bytes, CachePolicy policy);

// Mean wall time (µs) of StorageTier::ApplyMutation over `writes`, applied to
// a freshly loaded tier in the given encoding.
double TimeWrites(const Graph& g, std::span<const GraphMutation> writes,
                  uint32_t servers, AdjacencyEncoding encoding);

// Mean wall time (µs) of one GraphEmbedding::RefreshNodes call over the
// endpoints of each write, one call per write.
double TimeRefresh(const Graph& g, std::span<const GraphMutation> writes,
                   GraphEmbedding& embedding, LandmarkSet& landmarks);

}  // namespace grouting::perfbench

#endif  // GROUTING_PERFBENCH_LAYERS_H_
