// Round-trip and malformed-input tests for graph (de)serialisation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/io.h"

namespace grouting {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool GraphsEqual(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (a.node_label(u) != b.node_label(u)) {
      return false;
    }
    auto na = a.OutNeighbors(u);
    auto nb = b.OutNeighbors(u);
    if (na.size() != nb.size()) {
      return false;
    }
    for (size_t i = 0; i < na.size(); ++i) {
      if (!(na[i] == nb[i])) {
        return false;
      }
    }
  }
  return true;
}

TEST(IoTest, EdgeListTextRoundTrip) {
  LabelConfig labels;
  labels.num_node_labels = 3;
  labels.num_edge_labels = 5;
  Graph g = GenerateErdosRenyi(100, 400, 1, labels);
  const std::string path = TempPath("roundtrip.edges");
  ASSERT_TRUE(WriteEdgeListText(g, path));
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(GraphsEqual(g, *loaded));
  std::remove(path.c_str());
}

TEST(IoTest, EdgeListPreservesIsolatedNodes) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddNode();  // isolated node 2
  Graph g = b.Build();
  const std::string path = TempPath("isolated.edges");
  ASSERT_TRUE(WriteEdgeListText(g, path));
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_nodes(), 3u);
  std::remove(path.c_str());
}

TEST(IoTest, ReadPlainTwoColumnEdgeList) {
  const std::string path = TempPath("plain.edges");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0 1\n1 2\n\n2 0\n");
  std::fclose(f);
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), 3u);
  EXPECT_TRUE(loaded->HasEdge(2, 0));
  std::remove(path.c_str());
}

TEST(IoTest, ReadRejectsGarbage) {
  const std::string path = TempPath("garbage.edges");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "this is not an edge list\n");
  std::fclose(f);
  EXPECT_FALSE(ReadEdgeListText(path).has_value());
  std::remove(path.c_str());
}

// Each line set must be refused: ids that wrap to kInvalidNode (a negative
// id used to overflow the CSR build), a header count past the id space, and
// labels that do not fit in 16 bits (silently truncated before).
TEST(IoTest, ReadRejectsOutOfRangeIdsAndLabels) {
  const char* const kBad[] = {
      "0 -1 0\n",
      "-1 0\n",
      "4294967295 0\n",
      "0 99999999999999999999\n",
      "# grouting-edgelist 4294967296\n0 1\n",
      "0 1 65536\n",
      "L 0 65536\n",
      "L -1 1\n",
  };
  const std::string path = TempPath("out_of_range.edges");
  for (const char* text : kBad) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    EXPECT_FALSE(ReadEdgeListText(path).has_value()) << text;
  }
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsOutOfRangeCountsAndEdges) {
  const std::string path = TempPath("out_of_range.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t header[3] = {0x47524F5554473031ULL, ~0ULL, 0};  // n past the id space
  std::fwrite(header, sizeof(uint64_t), 3, f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).has_value());

  // A two-node snapshot whose only edge points at node 7.
  GraphBuilder b;
  b.AddEdge(0, 1);
  ASSERT_TRUE(WriteBinary(b.Build(), path));
  f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long dst_offset = 3 * sizeof(uint64_t) + 2 * sizeof(Label) + sizeof(uint32_t);
  const NodeId bad_dst = 7;
  ASSERT_EQ(std::fseek(f, dst_offset, SEEK_SET), 0);
  std::fwrite(&bad_dst, sizeof(bad_dst), 1, f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).has_value());
  std::remove(path.c_str());
}

// Writes a binary snapshot header followed by `body`.
void WriteBinaryFile(const std::string& path, uint64_t n, uint64_t m,
                     const std::vector<uint8_t>& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t header[3] = {0x47524F5554473031ULL, n, m};
  std::fwrite(header, sizeof(uint64_t), 3, f);
  if (!body.empty()) {
    std::fwrite(body.data(), 1, body.size(), f);
  }
  std::fclose(f);
}

TEST(IoTest, BinaryRejectsDegreeAboveEdgeCount) {
  // One node, one edge, and exactly the bytes those counts need — but the
  // node's degree word claims 0xFFFFFFFF edges (a 32 GiB buffer if trusted).
  const std::string path = TempPath("huge_degree.bin");
  std::vector<uint8_t> body(sizeof(Label) + sizeof(uint32_t) + sizeof(Edge), 0);
  std::fill_n(body.begin() + sizeof(Label), sizeof(uint32_t), 0xFF);
  WriteBinaryFile(path, 1, 1, body);
  EXPECT_FALSE(ReadBinary(path).has_value());

  // The same file with a degree that fits parses.
  body[sizeof(Label)] = 1;
  std::fill_n(body.begin() + sizeof(Label) + 1, sizeof(uint32_t) - 1, 0);
  WriteBinaryFile(path, 1, 1, body);
  EXPECT_TRUE(ReadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsCountsLargerThanFile) {
  const std::string path = TempPath("huge_counts.bin");
  // ~4 billion nodes declared, no label or degree bytes behind them.
  WriteBinaryFile(path, kInvalidNode - 1, 0, {});
  EXPECT_FALSE(ReadBinary(path).has_value());
  // A plausible node count whose edge count cannot fit in the file.
  WriteBinaryFile(path, 1, 1ULL << 40,
                  std::vector<uint8_t>(sizeof(Label) + sizeof(uint32_t), 0));
  EXPECT_FALSE(ReadBinary(path).has_value());
  // Counts that need exactly one byte more than the file holds.
  const size_t two_nodes = 2 * (sizeof(Label) + sizeof(uint32_t));
  WriteBinaryFile(path, 2, 0, std::vector<uint8_t>(two_nodes - 1, 0));
  EXPECT_FALSE(ReadBinary(path).has_value());
  WriteBinaryFile(path, 2, 0, std::vector<uint8_t>(two_nodes, 0));
  EXPECT_TRUE(ReadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadEdgeListText("/nonexistent/definitely/missing").has_value());
  EXPECT_FALSE(ReadBinary("/nonexistent/definitely/missing").has_value());
}

TEST(IoTest, BinaryRoundTrip) {
  LabelConfig labels;
  labels.num_node_labels = 7;
  labels.num_edge_labels = 7;
  Graph g = GenerateBarabasiAlbert(300, 4, 2, labels);
  const std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteBinary(g, path));
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(GraphsEqual(g, *loaded));
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsBadMagic) {
  const std::string path = TempPath("badmagic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t junk[3] = {0xdeadbeef, 10, 10};
  std::fwrite(junk, sizeof(uint64_t), 3, f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRejectsTruncated) {
  Graph g = GenerateErdosRenyi(50, 200, 3);
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteBinary(g, path));
  // Truncate the file to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(ReadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, EmptyGraphRoundTrips) {
  Graph g;
  const std::string text = TempPath("empty.edges");
  const std::string bin = TempPath("empty.bin");
  ASSERT_TRUE(WriteEdgeListText(g, text));
  ASSERT_TRUE(WriteBinary(g, bin));
  auto t = ReadEdgeListText(text);
  auto b = ReadBinary(bin);
  ASSERT_TRUE(t.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(t->num_nodes(), 0u);
  EXPECT_EQ(b->num_nodes(), 0u);
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace grouting
