// Seed-determinism regression: the simulated engine is the repo's reference
// implementation, so two runs of the SAME ClusterConfig + seed must produce
// bit-identical ClusterMetrics — every counter and every double, no
// tolerance — for every routing scheme and a spread of seeds, with the full
// adaptive stack (repartitioning + hot-partition replication + async
// fetch + tracing) enabled. Anything nondeterministic snuck into the sim
// (wall-clock reads, RNG without a seeded stream, map iteration order,
// address-keyed containers) shows up here as a single flipped bit.

#include <gtest/gtest.h>

#include <functional>

#include "src/core/grouting.h"

namespace grouting {
namespace {

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

constexpr uint64_t kSeeds[] = {1, 7, 23, 31, 4242};

// Runs every seed x scheme twice on the simulated engine with the full
// adaptive stack (repartitioning + hot-partition replication + async fetch)
// plus whatever `configure` adds, and expects the two runs to agree on every
// ClusterMetrics field, per_tenant included. Doubles compare exactly on
// purpose: determinism means the same float ops in the same order.
void ExpectDeterministic(const std::function<void(RunOptions*)>& configure) {
  for (const uint64_t seed : kSeeds) {
    ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.06, seed);
    const auto queries = env.SkewedWorkload(/*sessions=*/16, /*queries=*/150,
                                            /*zipf_s=*/1.3);
    for (const RoutingSchemeKind scheme : kAllSchemes) {
      RunOptions opts;
      opts.scheme = scheme;
      opts.processors = 3;
      opts.storage_servers = 4;
      opts.num_landmarks = 12;
      opts.min_separation = 2;
      opts.dimensions = 4;
      opts.cache_bytes = 32 << 10;
      opts.max_inflight_batches = 2;
      opts.repartition_threshold = 1.1;
      opts.repartition_cap = 4;
      opts.partitions_per_server = 4;
      opts.replication_top_k = 2;
      opts.gossip_period_us = 50.0;
      opts.arrival_gap_us = 2.0;
      configure(&opts);

      const ClusterMetrics first = env.Run(EngineKind::kSimulated, opts, queries);
      const ClusterMetrics second = env.Run(EngineKind::kSimulated, opts, queries);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", scheme "
                   << RoutingSchemeKindName(scheme));
      EXPECT_EQ(first.queries, queries.size());
      EXPECT_EQ(first.mutations_applied, opts.enable_mutations ? opts.num_mutations : 0);
      EXPECT_EQ(first, second);
    }
  }
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalAcrossRuns) {
  ExpectDeterministic([](RunOptions* opts) { opts->trace_sample_every_n = 3; });
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalUnderOnlineMutations) {
  // Same invariant with the online write path live: timed mutation events
  // interleave with queries, migrations, and replica churn in virtual time,
  // and index maintenance runs on the gossip cadence.
  ExpectDeterministic([](RunOptions* opts) {
    opts->enable_mutations = true;
    opts->num_mutations = 96;
    opts->index_refresh_period_us = 100.0;
  });
}

}  // namespace
}  // namespace grouting
