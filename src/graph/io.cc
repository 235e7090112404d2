#include "src/graph/io.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace grouting {
namespace {

constexpr uint64_t kBinaryMagic = 0x47524F5554473031ULL;  // "GROUTG01"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBlob(std::FILE* f, const void* data, size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

bool ReadBlob(std::FILE* f, void* data, size_t bytes) {
  return std::fread(data, 1, bytes, f) == bytes;
}

// Bytes from the current position to the end of the file; false on error.
bool RemainingBytes(std::FILE* f, uint64_t* bytes) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    return false;
  }
  const long end = std::ftell(f);
  if (end < pos || std::fseek(f, pos, SEEK_SET) != 0) {
    return false;
  }
  *bytes = static_cast<uint64_t>(end - pos);
  return true;
}

}  // namespace

bool WriteEdgeListText(const Graph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return false;
  }
  if (std::fprintf(f.get(), "# grouting-edgelist %zu\n", g.num_nodes()) < 0) {
    return false;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.node_label(u) != kNoLabel) {
      std::fprintf(f.get(), "L %u %u\n", u, g.node_label(u));
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.OutNeighbors(u)) {
      std::fprintf(f.get(), "%u %u %u\n", u, e.dst, e.label);
    }
  }
  return true;
}

std::optional<Graph> ReadEdgeListText(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) {
    return std::nullopt;
  }
  // Fields are read 64 bits wide, so "-1" or an overflowing id lands at or
  // above kInvalidNode and is rejected instead of wrapping into range.
  const auto valid_node = [](unsigned long long u) { return u < kInvalidNode; };
  const auto valid_label = [](unsigned long long l) { return l <= 0xFFFF; };
  GraphBuilder builder;
  char line[256];
  bool first = true;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    if (line[0] == '#') {
      if (first) {
        unsigned long long declared_nodes = 0;
        if (std::sscanf(line, "# grouting-edgelist %llu", &declared_nodes) == 1 &&
            declared_nodes > 0) {
          if (declared_nodes > kInvalidNode) {
            return std::nullopt;
          }
          builder.AddNode(static_cast<NodeId>(declared_nodes - 1));
        }
      }
      first = false;
      continue;
    }
    first = false;
    if (line[0] == 'L') {
      unsigned long long node = 0;
      unsigned long long label = 0;
      if (std::sscanf(line, "L %llu %llu", &node, &label) != 2 || !valid_node(node) ||
          !valid_label(label)) {
        return std::nullopt;
      }
      builder.AddNode(static_cast<NodeId>(node), static_cast<Label>(label));
      continue;
    }
    unsigned long long src = 0;
    unsigned long long dst = 0;
    unsigned long long label = 0;
    const int fields = std::sscanf(line, "%llu %llu %llu", &src, &dst, &label);
    if (fields < 2) {
      if (line[0] == '\n' || line[0] == '\0') {
        continue;  // blank line
      }
      return std::nullopt;
    }
    if (!valid_node(src) || !valid_node(dst) || !valid_label(label)) {
      return std::nullopt;
    }
    builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                    static_cast<Label>(label));
  }
  return builder.Build();
}

bool WriteBinary(const Graph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return false;
  }
  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  if (!WriteBlob(f.get(), &kBinaryMagic, sizeof(kBinaryMagic)) ||
      !WriteBlob(f.get(), &n, sizeof(n)) || !WriteBlob(f.get(), &m, sizeof(m))) {
    return false;
  }
  for (NodeId u = 0; u < n; ++u) {
    const Label l = g.node_label(u);
    if (!WriteBlob(f.get(), &l, sizeof(l))) {
      return false;
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t deg = static_cast<uint32_t>(g.OutDegree(u));
    if (!WriteBlob(f.get(), &deg, sizeof(deg))) {
      return false;
    }
    auto nbrs = g.OutNeighbors(u);
    if (!nbrs.empty() && !WriteBlob(f.get(), nbrs.data(), nbrs.size() * sizeof(Edge))) {
      return false;
    }
  }
  return true;
}

std::optional<Graph> ReadBinary(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return std::nullopt;
  }
  uint64_t magic = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  if (!ReadBlob(f.get(), &magic, sizeof(magic)) || magic != kBinaryMagic ||
      !ReadBlob(f.get(), &n, sizeof(n)) || !ReadBlob(f.get(), &m, sizeof(m)) ||
      n >= kInvalidNode) {
    return std::nullopt;
  }
  // The counts size the allocations below, so they must fit in the rest of
  // the file first: a label and a degree per node, one Edge per edge.
  constexpr uint64_t kPerNodeBytes = sizeof(Label) + sizeof(uint32_t);
  uint64_t rest = 0;
  if (!RemainingBytes(f.get(), &rest) || n > rest / kPerNodeBytes ||
      m > (rest - n * kPerNodeBytes) / sizeof(Edge)) {
    return std::nullopt;
  }
  GraphBuilder builder(n);
  if (n > 0) {
    builder.AddNode(static_cast<NodeId>(n - 1));
  }
  for (NodeId u = 0; u < n; ++u) {
    Label l = kNoLabel;
    if (!ReadBlob(f.get(), &l, sizeof(l))) {
      return std::nullopt;
    }
    builder.SetNodeLabel(u, l);
  }
  uint64_t edges_seen = 0;
  std::vector<Edge> buf;
  for (NodeId u = 0; u < n; ++u) {
    uint32_t deg = 0;
    if (!ReadBlob(f.get(), &deg, sizeof(deg)) || deg > m - edges_seen) {
      return std::nullopt;
    }
    buf.resize(deg);
    if (deg > 0 && !ReadBlob(f.get(), buf.data(), deg * sizeof(Edge))) {
      return std::nullopt;
    }
    for (const Edge& e : buf) {
      if (e.dst >= n) {
        return std::nullopt;  // corrupt snapshot: edge leaves the node range
      }
      builder.AddEdge(u, e.dst, e.label);
    }
    edges_seen += deg;
  }
  if (edges_seen != m) {
    return std::nullopt;
  }
  return builder.Build();
}

}  // namespace grouting
