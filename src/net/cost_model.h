// Cost model for the simulated cluster.
//
// The paper's cluster runs 40 Gbps Infiniband with RDMA (5-10 µs per
// RAMCloud get) and 10 Gbps Ethernet. We reproduce both as network profiles
// and add calibrated service/compute costs. Absolute values are documented
// constants — the figure benches compare result *shapes*, which depend on
// the ratios (network vs compute vs cache maintenance), not on the absolute
// microsecond numbers.

#ifndef GROUTING_SRC_NET_COST_MODEL_H_
#define GROUTING_SRC_NET_COST_MODEL_H_

#include <cstdint>
#include <string>

namespace grouting {

// Simulated virtual time is measured in microseconds.
using SimTimeUs = double;

struct NetworkProfile {
  std::string name;
  // One-way propagation + protocol latency for a message (µs). A fetch round
  // trip costs 2x this plus serialisation.
  double one_way_us = 3.0;
  // Transfer cost per kilobyte of payload (µs/KB).
  double per_kb_us = 0.25;

  // 40 Gbps Infiniband with RDMA: RAMCloud-style ~6 µs round trip.
  static NetworkProfile Infiniband();
  // 10 Gbps Ethernet with kernel TCP stack: ~60 µs round trip.
  static NetworkProfile Ethernet();

  double RoundTripUs(uint64_t payload_bytes) const {
    return 2.0 * one_way_us + per_kb_us * static_cast<double>(payload_bytes) / 1024.0;
  }
};

struct CostModel {
  NetworkProfile net = NetworkProfile::Infiniband();

  // --- Storage tier (RAMCloud-like) ---
  // Fixed cost a storage server pays to service one (multi)get request.
  double storage_request_base_us = 2.0;
  // Marginal cost per value (adjacency entry) looked up and shipped. In
  // RAMCloud a pipelined get costs ~2-5 us per key end to end; this is the
  // dominant term of a cache miss, which is what makes hit rate translate
  // into response time (paper Figs. 9/14).
  double storage_per_value_us = 1.2;

  // --- Storage-tier repartitioning (src/partition/repartition.h) ---
  // Fixed cost to set up one partition migration (plan message, ownership
  // handshake), charged to both ends of the move on the simulated storage
  // timeline.
  double migration_base_us = 5.0;
  // Per-key cost to copy one value from the old to the new owner during a
  // migration. Together with migration_base_us this is what
  // ClusterMetrics::repartition_stall_us accumulates in virtual time.
  double migration_per_key_us = 0.3;

  // --- Online mutations (StorageTier::ApplyMutation) ---
  // Fixed cost to apply one mutation (version bump, write-path handshake),
  // charged in virtual time to the mutated key's owning server; with
  // replicas, every copy is written inside the same charge.
  double mutation_base_us = 3.0;
  // Per-blob cost of one versioned adjacency write (re-encode + store).
  // An edge mutation rewrites two blobs (both endpoint halves), a vertex
  // add one per tenant.
  double mutation_per_write_us = 0.8;
  // Incremental index maintenance (landmark re-estimate + embedding
  // coordinate solve), charged on the gossip cadence: fixed cost per
  // refresh pass plus a per-refreshed-node term.
  double index_refresh_base_us = 2.0;
  double index_refresh_per_node_us = 0.5;

  // --- Processing tier ---
  // Traversal compute per visited node (neighbour iteration, aggregation).
  double compute_per_node_us = 0.40;
  // Cost to open one async multiget batch (build request, doorbell) on the
  // issuing processor. Charged only on the async pipeline
  // (max_inflight_batches > 1); kept below cache_lookup_us-scale work so a
  // single-batch level loses almost nothing to going async.
  double batch_issue_us = 0.1;
  // Cache maintenance: probe cost per lookup, and insert cost (including
  // possible eviction) per miss brought into cache. These are what make a
  // too-small cache WORSE than no cache at all (paper Fig. 9).
  double cache_lookup_us = 0.05;
  double cache_insert_us = 0.15;
  // Decoding a delta+varint (v2) adjacency blob back into edge arrays:
  // fixed per-entry cost plus a per-edge term (varint decode + prefix sum).
  // Charged on every compressed cache hit and on every compressed blob
  // fetched from storage; zero-cost in raw mode by construction.
  double decompress_base_us = 0.1;
  double decompress_per_edge_us = 0.005;

  // --- Router ---
  // Fixed routing decision cost plus per-processor scan cost; Embed routing
  // additionally pays per-dimension (handled via RoutingDecisionUs).
  double route_base_us = 0.5;
  double route_per_proc_us = 0.02;

  // Named defaults.
  static CostModel InfinibandDefaults();
  static CostModel EthernetDefaults();
};

}  // namespace grouting

#endif  // GROUTING_SRC_NET_COST_MODEL_H_
