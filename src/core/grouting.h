// gRouting — public umbrella header.
//
// A from-scratch reproduction of "On Smart Query Routing: For Distributed
// Graph Querying with Decoupled Storage" (Khan, Segovia, Kossmann).
//
// Typical usage (see examples/quickstart.cc):
//
//   Graph g = GenerateCommunityGraph(...);
//   ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.5);
//   RunOptions opts;
//   opts.scheme = RoutingSchemeKind::kEmbed;
//   auto metrics = env.Run(EngineKind::kSimulated, opts);   // virtual time
//   auto real = env.Run(EngineKind::kThreaded, opts);       // real threads
//
// or assemble an engine manually from the unified config:
//
//   auto engine = MakeClusterEngine(EngineKind::kThreaded, g, ClusterConfig{},
//                                   std::make_unique<HashStrategy>());
//   auto metrics = engine->Run(queries);

#ifndef GROUTING_SRC_CORE_GROUTING_H_
#define GROUTING_SRC_CORE_GROUTING_H_

#include "src/baselines/coupled.h"
#include "src/cache/cache.h"
#include "src/core/cluster_engine.h"
#include "src/core/experiment.h"
#include "src/embed/embedding.h"
#include "src/frontend/gossip.h"
#include "src/frontend/router_fleet.h"
#include "src/frontend/splitter.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_stats.h"
#include "src/graph/io.h"
#include "src/graph/traversal.h"
#include "src/landmark/landmark.h"
#include "src/landmark/landmark_index.h"
#include "src/net/cost_model.h"
#include "src/partition/metrics.h"
#include "src/partition/multilevel.h"
#include "src/partition/partitioner.h"
#include "src/partition/repartition.h"
#include "src/partition/vertex_cut.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/routing/router.h"
#include "src/routing/strategy.h"
#include "src/runtime/threaded_cluster.h"
#include "src/sim/decoupled_sim.h"
#include "src/storage/storage_tier.h"
#include "src/util/load_balance.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/datasets.h"
#include "src/workload/mutations.h"
#include "src/workload/open_loop.h"
#include "src/workload/workload.h"

#endif  // GROUTING_SRC_CORE_GROUTING_H_
