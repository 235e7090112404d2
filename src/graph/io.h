// Graph (de)serialisation: a human-readable edge-list text format and a
// compact binary snapshot format for fast reload of generated datasets.

#ifndef GROUTING_SRC_GRAPH_IO_H_
#define GROUTING_SRC_GRAPH_IO_H_

#include <optional>
#include <string>

#include "src/graph/graph.h"

namespace grouting {

// Text format, one edge per line: "<src> <dst> <edge_label>", preceded by a
// header line "# grouting-edgelist <num_nodes>" and one "L <node> <label>"
// line per labeled node. Returns false on I/O failure.
bool WriteEdgeListText(const Graph& g, const std::string& path);

// Parses the format above. Unlabeled plain "<src> <dst>" lines are accepted
// too (label 0). Returns nullopt on parse or I/O failure, and on node ids at
// or above kInvalidNode, a header count above it, or labels above 0xFFFF.
std::optional<Graph> ReadEdgeListText(const std::string& path);

// Binary snapshot (magic + counts + raw CSR arrays). Not portable across
// endianness; intended for local caching only. ReadBinary returns nullopt
// on a truncated file, a node count at or above kInvalidNode, or an edge
// whose target lies outside the node range.
bool WriteBinary(const Graph& g, const std::string& path);
std::optional<Graph> ReadBinary(const std::string& path);

}  // namespace grouting

#endif  // GROUTING_SRC_GRAPH_IO_H_
