#include "src/storage/kv_store.h"

#include <cstring>

#include "src/util/check.h"

namespace grouting {

LogStructuredStore::LogStructuredStore(size_t segment_bytes)
    : segment_bytes_(segment_bytes) {
  GROUTING_CHECK(segment_bytes_ >= 64);
}

LogStructuredStore::Location LogStructuredStore::Append(std::span<const uint8_t> value) {
  GROUTING_CHECK_MSG(value.size() <= segment_bytes_, "value larger than a segment");
  if (segments_.empty() ||
      segments_.back()->data.size() + value.size() > segment_bytes_) {
    auto seg = std::make_unique<Segment>();
    seg->data.reserve(segment_bytes_);
    segments_.push_back(std::move(seg));
  }
  Segment& seg = *segments_.back();
  const Location loc{static_cast<uint32_t>(segments_.size() - 1),
                     static_cast<uint32_t>(seg.data.size()),
                     static_cast<uint32_t>(value.size())};
  seg.data.insert(seg.data.end(), value.begin(), value.end());
  log_bytes_ += value.size();
  return loc;
}

void LogStructuredStore::Put(uint64_t key, std::span<const uint8_t> value) {
  ++stats_.puts;
  auto it = index_.find(key);
  if (it != index_.end()) {
    live_bytes_ -= it->second.length;  // old record becomes dead space
  }
  const Location loc = Append(value);
  index_[key] = loc;
  live_bytes_ += value.size();
}

std::optional<std::span<const uint8_t>> LogStructuredStore::Get(uint64_t key) {
  ++stats_.gets;
  auto it = index_.find(key);
  if (it == index_.end()) {
    return std::nullopt;
  }
  const Location& loc = it->second;
  const Segment& seg = *segments_[loc.segment];
  return std::span<const uint8_t>(seg.data.data() + loc.offset, loc.length);
}

bool LogStructuredStore::Delete(uint64_t key) {
  ++stats_.deletes;
  auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  live_bytes_ -= it->second.length;
  index_.erase(it);
  return true;
}

double LogStructuredStore::Utilization() const {
  return log_bytes_ == 0
             ? 1.0
             : static_cast<double>(live_bytes_) / static_cast<double>(log_bytes_);
}

void LogStructuredStore::Compact() {
  ++stats_.compactions;
  std::vector<std::unique_ptr<Segment>> old_segments = std::move(segments_);
  segments_.clear();
  log_bytes_ = 0;
  for (auto& [key, loc] : index_) {
    const Segment& seg = *old_segments[loc.segment];
    loc = Append({seg.data.data() + loc.offset, loc.length});
  }
}

}  // namespace grouting
