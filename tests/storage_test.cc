// Tests for the log-structured KV store, the adjacency wire codec, and the
// partitioned storage tier.

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/generators.h"
#include "src/storage/adjacency.h"
#include "src/storage/kv_store.h"
#include "src/storage/storage_tier.h"

namespace grouting {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> list) { return {list}; }

TEST(KvStoreTest, PutGetRoundTrip) {
  LogStructuredStore store;
  const auto value = Bytes({1, 2, 3, 4});
  store.Put(7, value);
  auto got = store.Get(7);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 4u);
  EXPECT_EQ((*got)[0], 1);
  EXPECT_EQ((*got)[3], 4);
}

TEST(KvStoreTest, GetMissing) {
  LogStructuredStore store;
  EXPECT_FALSE(store.Get(42).has_value());
  EXPECT_EQ(store.stats().gets, 1u);
}

TEST(KvStoreTest, OverwriteCreatesDeadSpace) {
  LogStructuredStore store;
  store.Put(1, Bytes({1, 1, 1, 1}));
  store.Put(1, Bytes({2, 2}));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.live_bytes(), 2u);
  EXPECT_EQ(store.log_bytes(), 6u);
  EXPECT_LT(store.Utilization(), 1.0);
  auto got = store.Get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 2);
}

TEST(KvStoreTest, DeleteRemoves) {
  LogStructuredStore store;
  store.Put(1, Bytes({9}));
  EXPECT_TRUE(store.Delete(1));
  EXPECT_FALSE(store.Get(1).has_value());
  EXPECT_FALSE(store.Delete(1));  // second delete is a no-op
  EXPECT_EQ(store.live_bytes(), 0u);
}

TEST(KvStoreTest, CompactReclaimsDeadSpace) {
  LogStructuredStore store(256);
  for (uint64_t k = 0; k < 50; ++k) {
    store.Put(k, Bytes({static_cast<uint8_t>(k), 0, 0, 0, 0, 0, 0, 0}));
  }
  for (uint64_t k = 0; k < 50; k += 2) {
    store.Delete(k);
  }
  const uint64_t live_before = store.live_bytes();
  store.Compact();
  EXPECT_EQ(store.live_bytes(), live_before);
  EXPECT_EQ(store.log_bytes(), live_before);
  EXPECT_DOUBLE_EQ(store.Utilization(), 1.0);
  // Surviving values intact after relocation.
  for (uint64_t k = 1; k < 50; k += 2) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], static_cast<uint8_t>(k));
  }
}

TEST(KvStoreTest, ManySegments) {
  LogStructuredStore store(128);  // tiny segments force many
  std::vector<uint8_t> value(100, 0xAB);
  for (uint64_t k = 0; k < 64; ++k) {
    store.Put(k, value);
  }
  EXPECT_EQ(store.entry_count(), 64u);
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(store.Get(k).has_value());
  }
}

TEST(KvStoreTest, EmptyValueAllowed) {
  LogStructuredStore store;
  store.Put(5, {});
  auto got = store.Get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 0u);
}

// ----------------------------------------------------------- Adjacency --

TEST(AdjacencyCodecTest, RoundTripFromGraph) {
  GraphBuilder b;
  b.AddNode(0, 42);
  b.AddEdge(0, 1, 7);
  b.AddEdge(2, 0, 9);
  Graph g = b.Build();
  const auto blob = EncodeAdjacency(g, 0);
  EXPECT_EQ(blob.size(), g.AdjacencyBytes(0));
  auto entry = DecodeAdjacency(blob);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->node, 0u);
  EXPECT_EQ(entry->node_label, 42);
  ASSERT_EQ(entry->out.size(), 1u);
  EXPECT_EQ(entry->out[0].dst, 1u);
  EXPECT_EQ(entry->out[0].label, 7);
  ASSERT_EQ(entry->in.size(), 1u);
  EXPECT_EQ(entry->in[0].dst, 2u);
  EXPECT_EQ(entry->in[0].label, 9);
  EXPECT_EQ(entry->SerializedBytes(), blob.size());
}

TEST(AdjacencyCodecTest, RoundTripFromEntry) {
  const std::vector<Edge> out = {{10, 1}, {20, 2}};
  const std::vector<Edge> in = {{30, 3}};
  const AdjacencyPtr entry = MakeAdjacency(5, 3, out, in);
  EXPECT_EQ(entry->WireBytes(), entry->SerializedBytes());
  const auto blob = EncodeAdjacency(entry->node, entry->node_label, out, in);
  EXPECT_EQ(blob.size(), entry->SerializedBytes());
  auto decoded = DecodeAdjacency(blob);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->node, 5u);
  EXPECT_EQ(decoded->node_label, 3);
  EXPECT_EQ(decoded->out.size(), 2u);
  EXPECT_EQ(decoded->in.size(), 1u);
  EXPECT_EQ(decoded->out[1].dst, 20u);
  EXPECT_EQ(decoded->in[0], entry->in[0]);
}

TEST(AdjacencyCodecTest, RejectsTruncated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g = b.Build();
  auto blob = EncodeAdjacency(g, 0);
  blob.pop_back();
  EXPECT_EQ(DecodeAdjacency(blob), nullptr);
  EXPECT_EQ(DecodeAdjacency(std::span<const uint8_t>{}), nullptr);
}

TEST(AdjacencyCodecTest, IsolatedNode) {
  GraphBuilder b;
  b.AddNode();
  Graph g = b.Build();
  const auto blob = EncodeAdjacency(g, 0);
  EXPECT_EQ(blob.size(), 16u);
  auto entry = DecodeAdjacency(blob);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->out.empty());
  EXPECT_TRUE(entry->in.empty());
}

// ---------------------------------------------------------- StorageTier --

TEST(StorageTierTest, LoadAndFetchWholeGraph) {
  Graph g = GenerateErdosRenyi(200, 800, 1);
  StorageTier tier(4);
  tier.LoadGraph(g);
  EXPECT_EQ(tier.TotalValues(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto entry = tier.Get(u);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->node, u);
    EXPECT_EQ(entry->out.size(), g.OutDegree(u));
    EXPECT_EQ(entry->in.size(), g.InDegree(u));
  }
}

TEST(StorageTierTest, HashPlacementIsStable) {
  Graph g = GenerateErdosRenyi(100, 300, 2);
  StorageTier tier(3);
  tier.LoadGraph(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const uint32_t s = tier.ServerOf(u);
    EXPECT_LT(s, 3u);
    EXPECT_EQ(tier.ServerOf(u), s);  // stable
    EXPECT_NE(tier.server(s).Get(u), nullptr);
  }
}

TEST(StorageTierTest, ExplicitPlacementHonored) {
  Graph g = GenerateErdosRenyi(50, 150, 3);
  StorageTier tier(2);
  PartitionAssignment placement(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    placement[u] = u % 2;
  }
  tier.LoadGraph(g, placement);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(tier.ServerOf(u), u % 2);
  }
}

TEST(StorageTierTest, MissingKeyReturnsNull) {
  Graph g = GenerateErdosRenyi(10, 20, 4);
  StorageTier tier(2);
  tier.LoadGraph(g);
  EXPECT_EQ(tier.Get(9999), nullptr);
}

TEST(StorageTierTest, StatsTrackServing) {
  Graph g = GenerateErdosRenyi(40, 100, 5);
  StorageTier tier(2);
  tier.LoadGraph(g);
  for (NodeId u = 0; u < 40; ++u) {
    tier.Get(u);
  }
  uint64_t served = 0;
  uint64_t bytes = 0;
  for (size_t s = 0; s < 2; ++s) {
    served += tier.server(s).stats().values_served;
    bytes += tier.server(s).stats().bytes_served;
  }
  EXPECT_EQ(served, 40u);
  EXPECT_EQ(bytes, g.TotalAdjacencyBytes());
  EXPECT_EQ(tier.TotalLiveBytes(), g.TotalAdjacencyBytes());
}

TEST(StorageTierTest, DistributionAcrossServers) {
  Graph g = GenerateErdosRenyi(1000, 2000, 6);
  StorageTier tier(4);
  tier.LoadGraph(g);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(tier.server(s).store().entry_count(), 150u);
  }
}

}  // namespace
}  // namespace grouting
