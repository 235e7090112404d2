// Wire formats of a node's adjacency entry, the unit of transfer between
// the storage tier and query processors (paper Figure 3: key = node id,
// value = labeled out- and in-neighbour arrays). Two encodings share one
// auto-detecting decoder, so old blobs always decode:
//
// v1 / raw (little-endian, fixed width):
//   [0..4)   node id (sanity check)
//   [4..6)   node label
//   [6..8)   reserved (always 0 — the v1 structural signature)
//   [8..12)  out-edge count
//   [12..16) in-edge count
//   then     out edges, in edges — 6 bytes each (4-byte dst + 2-byte label)
// Total = 16 + 6 * (out + in), matching Graph::AdjacencyBytes().
//
// v2 / delta_varint (compressed):
//   [0]      magic 0xC2
//   [1]      version 0x02
//   then     LEB128 varints: node id, node label, out count, in count;
//            out dsts as zigzag-encoded deltas (sorted CSR neighbours make
//            the deltas small — a few bits each); out labels run-length
//            encoded as (run length, label) varint pairs; then the in side
//            the same way. Zigzag (not plain) deltas keep round-trip
//            fidelity for unsorted dynamic-update entries too.
//
// Decode detection: the v1 structural check runs FIRST (exact size match +
// reserved bytes zero) — a v1 blob whose node id happens to start 0xC2 0x02
// still decodes as v1. The v2 encoder defensively appends one 0x00 pad byte
// in the (astronomically rare) case its output would also pass the v1
// structural check; the v2 decoder tolerates exactly one trailing zero pad.

#ifndef GROUTING_SRC_STORAGE_ADJACENCY_H_
#define GROUTING_SRC_STORAGE_ADJACENCY_H_

#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace grouting {

// Which wire format EncodeAdjacency emits. Decoding auto-detects, so a
// store may hold a mix (e.g. after a dynamic update under a different
// setting than the bulk load).
enum class AdjacencyEncoding {
  kRaw,          // v1 fixed-width layout
  kDeltaVarint,  // v2 delta + LEB128 varint layout
};

// Size in bytes of one edge record in the v1 layout (4-byte dst, 2-byte label).
inline constexpr size_t kV1EdgeBytes = 6;

// Read-only view of edge records in the v1 layout. Records are unaligned, so
// each access copies one out into an Edge; iterators yield Edge by value.
// A view lives inside an AdjacencyEntry's heap block and stores a 32-bit
// offset from itself to its records rather than a pointer, so it is
// neither copyable nor movable: take it by reference.
class EdgeView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = Edge;
    using pointer = void;

    Iterator() = default;
    explicit Iterator(const uint8_t* p) : p_(p) {}

    Edge operator*() const { return Load(p_); }
    Iterator& operator++() {
      p_ += kV1EdgeBytes;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      p_ += kV1EdgeBytes;
      return old;
    }
    friend bool operator==(Iterator a, Iterator b) { return a.p_ == b.p_; }

   private:
    const uint8_t* p_ = nullptr;
  };

  // `records` must follow the view in the same allocation.
  EdgeView(const uint8_t* records, uint32_t count)
      : offset_(static_cast<uint32_t>(records - reinterpret_cast<const uint8_t*>(this))),
        count_(count) {}
  EdgeView(const EdgeView&) = delete;
  EdgeView& operator=(const EdgeView&) = delete;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Edge operator[](size_t i) const { return Load(records() + i * kV1EdgeBytes); }
  Iterator begin() const { return Iterator(records()); }
  Iterator end() const { return Iterator(records() + size() * kV1EdgeBytes); }

 private:
  // Little-endian host assumed (x86/ARM64), as for the rest of the codec.
  static Edge Load(const uint8_t* p) {
    Edge e;
    std::memcpy(&e.dst, p, sizeof(e.dst));
    std::memcpy(&e.label, p + 4, sizeof(e.label));
    return e;
  }
  const uint8_t* records() const {
    return reinterpret_cast<const uint8_t*>(this) + offset_;
  }

  uint32_t offset_;
  uint32_t count_;
};

// Decoded adjacency entry held in processor caches. One immutable heap
// block holds the shared_ptr control block, this header, and then the out
// and in edge records in the v1 layout, which `out` and `in` view.
// MakeAdjacency and DecodeAdjacency build entries; entries are never copied.
struct AdjacencyEntry {
 private:
  struct Key {
    explicit Key() = default;
  };

 public:
  // Allocates the block for an entry with out_count + in_count edge records
  // (all out records first) and sets *records to the first of them, for
  // the caller to fill.
  static std::shared_ptr<AdjacencyEntry> Allocate(NodeId node, Label node_label,
                                                  uint32_t out_count, uint32_t in_count,
                                                  uint8_t** records);

  // Reachable only through Allocate, which reserves room for the records
  // right after the entry.
  AdjacencyEntry(Key, NodeId node, Label node_label, uint32_t out_count,
                 uint32_t in_count)
      : node(node),
        node_label(node_label),
        out(Records(), out_count),
        in(Records() + size_t{out_count} * kV1EdgeBytes, in_count) {}
  AdjacencyEntry(const AdjacencyEntry&) = delete;
  AdjacencyEntry& operator=(const AdjacencyEntry&) = delete;

  NodeId node;
  Label node_label;
  // Wire size of the blob this entry was decoded from (== SerializedBytes()
  // for v1 blobs, typically much smaller for v2). 0 when the entry was built
  // directly rather than decoded — WireBytes() falls back to the v1 size.
  uint32_t wire_bytes = 0;
  EdgeView out;
  EdgeView in;
  // The encoded blob itself, retained only when the decoder is asked to
  // (StorageTier retain-wire mode): compressed processor caches admit these
  // bytes instead of the decoded entry.
  std::shared_ptr<const std::vector<uint8_t>> wire;

  // Logical (v1) size: the decoded in-memory footprint every byte budget in
  // the paper's experiments is expressed in.
  size_t SerializedBytes() const {
    return 16 + kV1EdgeBytes * (out.size() + in.size());
  }
  size_t WireBytes() const { return wire_bytes == 0 ? SerializedBytes() : wire_bytes; }

 private:
  uint8_t* Records() {
    return reinterpret_cast<uint8_t*>(this) + sizeof(AdjacencyEntry);
  }
};

using AdjacencyPtr = std::shared_ptr<const AdjacencyEntry>;

// Builds an entry from edge lists (the graph CSR, or a test's hand-made
// lists), whose v1 size must stay under 4 GiB. WireBytes() is the v1 size.
AdjacencyPtr MakeAdjacency(NodeId node, Label node_label, std::span<const Edge> out,
                           std::span<const Edge> in);

// Serialises node u's entry straight from the graph CSR.
std::vector<uint8_t> EncodeAdjacency(const Graph& g, NodeId u,
                                     AdjacencyEncoding encoding = AdjacencyEncoding::kRaw);

// Serialises an entry given as edge lists (used for dynamic updates).
std::vector<uint8_t> EncodeAdjacency(
    NodeId node, Label node_label, std::span<const Edge> out, std::span<const Edge> in,
    AdjacencyEncoding encoding = AdjacencyEncoding::kRaw);

// Parses a wire blob of either version (auto-detected). Returns nullptr on
// malformed input — never crashes, whatever the bytes — and on blobs of
// 4 GiB or more. A v1 blob's edge records are copied as they are; a v2
// blob is transcoded into them. Either way the entry is one heap
// allocation. With `retain_wire` the entry
// additionally keeps a copy of the blob (see AdjacencyEntry::wire).
AdjacencyPtr DecodeAdjacency(std::span<const uint8_t> bytes, bool retain_wire = false);

}  // namespace grouting

#endif  // GROUTING_SRC_STORAGE_ADJACENCY_H_
