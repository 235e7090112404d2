#include "src/storage/adjacency.h"

#include <cstring>

#include "src/util/check.h"

namespace grouting {
namespace {

constexpr uint8_t kV2Magic = 0xC2;
constexpr uint8_t kV2Version = 0x02;

// ---- v1 fixed-width helpers --------------------------------------------

void AppendU16(std::vector<uint8_t>* buf, uint16_t v) {
  buf->push_back(static_cast<uint8_t>(v & 0xff));
  buf->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian host assumed (x86/ARM64); documented in header
}

void AppendEdges(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    AppendU32(buf, e.dst);
    AppendU16(buf, e.label);
  }
}

// The v1 structural signature: exact size for the declared counts, reserved
// bytes zero. Checked BEFORE the v2 magic so every legacy blob keeps
// decoding as v1 (a node id may legitimately start with the magic bytes).
bool LooksLikeRawV1(std::span<const uint8_t> bytes) {
  if (bytes.size() < 16 || bytes[6] != 0 || bytes[7] != 0) {
    return false;
  }
  const uint64_t out_count = ReadU32(bytes.data() + 8);
  const uint64_t in_count = ReadU32(bytes.data() + 12);
  return bytes.size() == 16 + 6 * (out_count + in_count);
}

// ---- v2 varint helpers --------------------------------------------------

void AppendVarint(std::vector<uint8_t>* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf->push_back(static_cast<uint8_t>(v));
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Reads one LEB128 varint from [*pp, end); false on truncation/overflow.
// Decode runs on every compressed cache hit, so the 1- and 2-byte shapes
// (sorted CSR deltas, run lengths, small labels) take branch-light fast
// paths before the general guarded loop.
inline bool ReadVarint(const uint8_t** pp, const uint8_t* end, uint64_t* out) {
  const uint8_t* p = *pp;
  if (p < end && p[0] < 0x80) {
    *out = p[0];
    *pp = p + 1;
    return true;
  }
  if (end - p >= 2 && p[1] < 0x80) {
    *out = static_cast<uint64_t>(p[0] & 0x7f) |
           (static_cast<uint64_t>(p[1]) << 7);
    *pp = p + 2;
    return true;
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p >= end) {
      return false;
    }
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      *pp = p;
      return true;
    }
  }
  return false;  // > 10 continuation bytes: not a valid 64-bit varint
}

// span/size_t adapter for the header fields and tests' call shape.
bool ReadVarint(std::span<const uint8_t> bytes, size_t* pos, uint64_t* out) {
  const uint8_t* p = bytes.data() + *pos;
  if (!ReadVarint(&p, bytes.data() + bytes.size(), out)) {
    return false;
  }
  *pos = static_cast<size_t>(p - bytes.data());
  return true;
}

// Sorted (or arbitrary, via zigzag) dst list as successive deltas.
void AppendDeltaDsts(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  int64_t prev = 0;
  for (const Edge& e : edges) {
    AppendVarint(buf, Zigzag(static_cast<int64_t>(e.dst) - prev));
    prev = static_cast<int64_t>(e.dst);
  }
}

// Edge labels as (run length, label) pairs — hub neighbourhoods repeat the
// same relation label in long runs.
void AppendRleLabels(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  size_t i = 0;
  while (i < edges.size()) {
    size_t run = 1;
    while (i + run < edges.size() && edges[i + run].label == edges[i].label) {
      ++run;
    }
    AppendVarint(buf, run);
    AppendVarint(buf, edges[i].label);
    i += run;
  }
}

// Writes one v1 edge record at `p`.
void StoreEdge(uint8_t* p, const Edge& e) {
  std::memcpy(p, &e.dst, sizeof(e.dst));
  std::memcpy(p + 4, &e.label, sizeof(e.label));
}

// Fills the dst field of `count` v1 records starting at `records`.
bool ReadDeltaDsts(const uint8_t** pp, const uint8_t* end, uint8_t* records,
                   size_t count) {
  const uint8_t* p = *pp;
  int64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    if (!ReadVarint(&p, end, &raw)) {
      return false;
    }
    const int64_t dst = prev + Unzigzag(raw);
    if (dst < 0 || dst > static_cast<int64_t>(kInvalidNode)) {
      return false;
    }
    const auto node = static_cast<NodeId>(dst);
    std::memcpy(records + i * kV1EdgeBytes, &node, sizeof(node));
    prev = dst;
  }
  *pp = p;
  return true;
}

// Fills the label field of `count` v1 records starting at `records`.
bool ReadRleLabels(const uint8_t** pp, const uint8_t* end, uint8_t* records,
                   size_t count) {
  const uint8_t* p = *pp;
  size_t i = 0;
  while (i < count) {
    uint64_t run = 0;
    uint64_t label = 0;
    if (!ReadVarint(&p, end, &run) || !ReadVarint(&p, end, &label)) {
      return false;
    }
    if (run == 0 || run > count - i || label > 0xffff) {
      return false;
    }
    const auto l = static_cast<Label>(label);
    for (uint64_t k = 0; k < run; ++k, ++i) {
      std::memcpy(records + i * kV1EdgeBytes + 4, &l, sizeof(l));
    }
  }
  *pp = p;
  return true;
}

std::vector<uint8_t> EncodeV1(NodeId node, Label node_label,
                              std::span<const Edge> out, std::span<const Edge> in) {
  std::vector<uint8_t> buf;
  buf.reserve(16 + 6 * (out.size() + in.size()));
  AppendU32(&buf, node);
  AppendU16(&buf, node_label);
  AppendU16(&buf, 0);
  AppendU32(&buf, static_cast<uint32_t>(out.size()));
  AppendU32(&buf, static_cast<uint32_t>(in.size()));
  AppendEdges(&buf, out);
  AppendEdges(&buf, in);
  return buf;
}

std::vector<uint8_t> EncodeV2(NodeId node, Label node_label,
                              std::span<const Edge> out, std::span<const Edge> in) {
  std::vector<uint8_t> buf;
  buf.reserve(8 + 2 * (out.size() + in.size()));
  buf.push_back(kV2Magic);
  buf.push_back(kV2Version);
  AppendVarint(&buf, node);
  AppendVarint(&buf, node_label);
  AppendVarint(&buf, out.size());
  AppendVarint(&buf, in.size());
  AppendDeltaDsts(&buf, out);
  AppendRleLabels(&buf, out);
  AppendDeltaDsts(&buf, in);
  AppendRleLabels(&buf, in);
  // Disambiguation pad: if this v2 blob would also pass the v1 structural
  // check, one trailing zero byte breaks the exact-size match (the v2
  // decoder tolerates a single zero pad; sizes 16+6k cannot collide again
  // after a +1).
  if (LooksLikeRawV1(buf)) {
    buf.push_back(0);
  }
  return buf;
}

// The blob already passed LooksLikeRawV1, so its edge records are adopted
// with one copy.
std::shared_ptr<AdjacencyEntry> DecodeV1(std::span<const uint8_t> bytes) {
  uint8_t* records = nullptr;
  auto entry = AdjacencyEntry::Allocate(ReadU32(bytes.data()), ReadU16(bytes.data() + 4),
                                        ReadU32(bytes.data() + 8),
                                        ReadU32(bytes.data() + 12), &records);
  std::memcpy(records, bytes.data() + 16, bytes.size() - 16);
  return entry;
}

std::shared_ptr<AdjacencyEntry> DecodeV2(std::span<const uint8_t> bytes) {
  size_t pos = 2;  // past magic + version
  uint64_t node = 0;
  uint64_t label = 0;
  uint64_t out_count = 0;
  uint64_t in_count = 0;
  if (!ReadVarint(bytes, &pos, &node) || !ReadVarint(bytes, &pos, &label) ||
      !ReadVarint(bytes, &pos, &out_count) || !ReadVarint(bytes, &pos, &in_count)) {
    return nullptr;
  }
  // Each encoded edge costs at least one byte for its dst delta, so counts
  // beyond the remaining payload are corruption — reject before allocating.
  if (node > kInvalidNode || label > 0xffff || out_count > bytes.size() ||
      in_count > bytes.size() || out_count + in_count > bytes.size() - pos) {
    return nullptr;
  }
  uint8_t* records = nullptr;
  auto entry = AdjacencyEntry::Allocate(
      static_cast<NodeId>(node), static_cast<Label>(label),
      static_cast<uint32_t>(out_count), static_cast<uint32_t>(in_count), &records);
  uint8_t* in_records = records + kV1EdgeBytes * out_count;
  const uint8_t* p = bytes.data() + pos;
  const uint8_t* end = bytes.data() + bytes.size();
  if (!ReadDeltaDsts(&p, end, records, out_count) ||
      !ReadRleLabels(&p, end, records, out_count) ||
      !ReadDeltaDsts(&p, end, in_records, in_count) ||
      !ReadRleLabels(&p, end, in_records, in_count)) {
    return nullptr;
  }
  const size_t remaining = static_cast<size_t>(end - p);
  if (remaining > 1 || (remaining == 1 && *p != 0)) {
    return nullptr;  // trailing garbage (one zero pad byte is legitimate)
  }
  return entry;
}

// Allocator for std::allocate_shared that over-allocates by `tail_bytes`,
// so the control block, the entry and its edge records share one chunk.
// The entry lives inside the control block, so at least `tail_bytes` of the
// chunk follow the entry's last byte.
template <typename T>
struct TailAllocator {
  using value_type = T;

  explicit TailAllocator(size_t tail) : tail_bytes(tail) {}
  template <typename U>
  TailAllocator(const TailAllocator<U>& other) : tail_bytes(other.tail_bytes) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T) + tail_bytes));
  }
  void deallocate(T* p, size_t) { ::operator delete(p); }

  size_t tail_bytes;
};

}  // namespace

std::shared_ptr<AdjacencyEntry> AdjacencyEntry::Allocate(NodeId node, Label node_label,
                                                         uint32_t out_count,
                                                         uint32_t in_count,
                                                         uint8_t** records) {
  auto entry = std::allocate_shared<AdjacencyEntry>(
      TailAllocator<AdjacencyEntry>(kV1EdgeBytes * (size_t{out_count} + in_count)), Key{},
      node, node_label, out_count, in_count);
  *records = entry->Records();
  return entry;
}

std::vector<uint8_t> EncodeAdjacency(const Graph& g, NodeId u,
                                     AdjacencyEncoding encoding) {
  return EncodeAdjacency(u, g.node_label(u), g.OutNeighbors(u), g.InNeighbors(u),
                         encoding);
}

std::vector<uint8_t> EncodeAdjacency(NodeId node, Label node_label,
                                     std::span<const Edge> out, std::span<const Edge> in,
                                     AdjacencyEncoding encoding) {
  return encoding == AdjacencyEncoding::kDeltaVarint
             ? EncodeV2(node, node_label, out, in)
             : EncodeV1(node, node_label, out, in);
}

AdjacencyPtr MakeAdjacency(NodeId node, Label node_label, std::span<const Edge> out,
                           std::span<const Edge> in) {
  GROUTING_CHECK(16 + kV1EdgeBytes * (out.size() + in.size()) <= UINT32_MAX);
  uint8_t* p = nullptr;
  auto entry = AdjacencyEntry::Allocate(node, node_label,
                                        static_cast<uint32_t>(out.size()),
                                        static_cast<uint32_t>(in.size()), &p);
  for (const Edge& e : out) {
    StoreEdge(p, e);
    p += kV1EdgeBytes;
  }
  for (const Edge& e : in) {
    StoreEdge(p, e);
    p += kV1EdgeBytes;
  }
  return entry;
}

AdjacencyPtr DecodeAdjacency(std::span<const uint8_t> bytes, bool retain_wire) {
  std::shared_ptr<AdjacencyEntry> entry;
  if (bytes.size() > UINT32_MAX) {
    return nullptr;  // beyond what wire_bytes and the views' offsets can hold
  }
  if (LooksLikeRawV1(bytes)) {
    entry = DecodeV1(bytes);
  } else if (bytes.size() >= 2 && bytes[0] == kV2Magic && bytes[1] == kV2Version) {
    entry = DecodeV2(bytes);
  }
  if (entry == nullptr) {
    return nullptr;
  }
  entry->wire_bytes = static_cast<uint32_t>(bytes.size());
  if (retain_wire) {
    entry->wire =
        std::make_shared<const std::vector<uint8_t>>(bytes.begin(), bytes.end());
  }
  return entry;
}

}  // namespace grouting
