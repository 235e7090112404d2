// Coupled (non-decoupled) baseline systems the paper compares against
// (Section 4.2): each of the 12 servers stores a graph partition AND
// processes the queries whose query node lives in its partition — a fixed
// routing table, no stealing, no decoupling.
//
//   SedgeLikeSystem      — SEDGE/Giraph: vertex-centric BULK-SYNCHRONOUS
//                          PARALLEL. Every traversal hop is a global
//                          superstep with a barrier; frontier nodes compute
//                          on their owning servers; edges that cross
//                          partitions become network messages. Partitioned
//                          with our METIS-like multilevel partitioner
//                          (standing in for ParMETIS).
//   PowerGraphLikeSystem — PowerGraph: GAS over a greedy vertex-cut. No
//                          global barrier (asynchronous engine), but every
//                          hop synchronises the mirrors of active vertices.
//
// Query answers are computed with the shared executors (so correctness is
// cross-checked against the decoupled engine); timing replays the recorded
// per-level frontiers against each system's cost model.

#ifndef GROUTING_SRC_BASELINES_COUPLED_H_
#define GROUTING_SRC_BASELINES_COUPLED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/net/cost_model.h"
#include "src/partition/partitioner.h"
#include "src/partition/vertex_cut.h"
#include "src/query/query.h"

namespace grouting {

// Cost knobs. These are scaled to THIS repo's ~1000x-smaller graphs: in the
// paper a Giraph superstep barrier (~10-30 ms) is of the same order as one
// whole query (~30-90 ms); here queries finish in ~0.1-1 ms, so the barrier
// is scaled to a few hundred microseconds to preserve that ratio.
struct CoupledConfig {
  uint32_t num_servers = 12;  // paper: 12-machine configurations
  NetworkProfile net = NetworkProfile::Ethernet();
  double compute_per_node_us = 0.40;  // same work as the decoupled processors

  // BSP knobs (Giraph-like).
  double superstep_overhead_us = 350.0;  // global barrier + superstep setup
  double per_message_us = 0.3;           // per cross-partition message
  double message_flush_base_us = 25.0;   // per communicating server pair/superstep

  // GAS knobs (PowerGraph-like).
  double gas_round_overhead_us = 130.0;  // per-hop engine scheduling (no barrier)
  double per_mirror_sync_us = 0.25;      // master<->mirror sync per replica
  double per_edge_us = 0.03;             // gather/scatter per edge

  // Concurrent queries the engine keeps in flight (throughput overlaps in a
  // pipeline; per-query response time is unchanged). Giraph-style BSP can
  // overlap a couple of jobs; PowerGraph's asynchronous engine a few more.
  double bsp_pipeline_overlap = 2.0;
  double gas_pipeline_overlap = 3.0;
};

struct CoupledMetrics {
  uint64_t queries = 0;
  SimTimeUs makespan_us = 0.0;
  double throughput_qps = 0.0;
  double mean_response_ms = 0.0;
  uint64_t network_messages = 0;
  uint64_t supersteps = 0;
  double partition_seconds = 0.0;  // offline partitioning cost (reported)
};

// Records the per-level frontier node ids of a query execution; shared by
// both baseline cost models.
struct LevelFrontiers {
  std::vector<std::vector<NodeId>> levels;
  QueryResult result;
};

LevelFrontiers TraceQueryLevels(const Graph& g, const Query& q);

class SedgeLikeSystem {
 public:
  // `partition_seconds` is the measured offline cost of building
  // `assignment` (reported alongside throughput, as the paper does).
  SedgeLikeSystem(const Graph& g, CoupledConfig config, PartitionAssignment assignment,
                  double partition_seconds);

  CoupledMetrics Run(std::span<const Query> queries);
  const std::vector<QueryResult>& results() const { return results_; }

 private:
  SimTimeUs SimulateQuery(const LevelFrontiers& lf, CoupledMetrics* m) const;

  const Graph& graph_;
  CoupledConfig config_;
  PartitionAssignment assignment_;
  double partition_seconds_;
  std::vector<QueryResult> results_;
};

class PowerGraphLikeSystem {
 public:
  PowerGraphLikeSystem(const Graph& g, CoupledConfig config, VertexCutResult cut,
                       double partition_seconds);

  CoupledMetrics Run(std::span<const Query> queries);
  const std::vector<QueryResult>& results() const { return results_; }

 private:
  SimTimeUs SimulateQuery(const LevelFrontiers& lf, CoupledMetrics* m) const;

  const Graph& graph_;
  CoupledConfig config_;
  VertexCutResult cut_;
  double partition_seconds_;
  std::vector<QueryResult> results_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_BASELINES_COUPLED_H_
