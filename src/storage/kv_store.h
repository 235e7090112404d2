// In-memory log-structured key-value store, modelled after RAMCloud's
// storage design (Ousterhout et al.): values are appended to fixed-size
// segments; a hash index maps keys to their latest location; dead space from
// overwrites/deletes is reclaimed by a cleaner (Compact).
//
// This is the per-server backing store of the storage tier. Single-owner
// (one server thread); no internal locking.

#ifndef GROUTING_SRC_STORAGE_KV_STORE_H_
#define GROUTING_SRC_STORAGE_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace grouting {

struct KvStoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t compactions = 0;
};

class LogStructuredStore {
 public:
  explicit LogStructuredStore(size_t segment_bytes = 1 << 20);

  // Inserts or overwrites. The value is copied into the log.
  void Put(uint64_t key, std::span<const uint8_t> value);

  // Returns a view into the log, valid until the next Compact() (appends
  // never move existing records). nullopt if absent.
  std::optional<std::span<const uint8_t>> Get(uint64_t key);

  bool Delete(uint64_t key);
  bool Contains(uint64_t key) const { return index_.count(key) > 0; }

  // Rewrites live records into fresh segments, dropping dead space.
  // Invalidates all previously returned Get() spans.
  void Compact();

  size_t entry_count() const { return index_.size(); }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t log_bytes() const { return log_bytes_; }
  // live / log; 1.0 means no dead space.
  double Utilization() const;
  const KvStoreStats& stats() const { return stats_; }

 private:
  struct Segment {
    std::vector<uint8_t> data;
  };
  struct Location {
    uint32_t segment;
    uint32_t offset;
    uint32_t length;
  };

  // Appends raw bytes to the open segment (opening a new one as needed) and
  // returns where they landed.
  Location Append(std::span<const uint8_t> value);

  size_t segment_bytes_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<uint64_t, Location> index_;
  uint64_t live_bytes_ = 0;
  uint64_t log_bytes_ = 0;
  KvStoreStats stats_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_STORAGE_KV_STORE_H_
