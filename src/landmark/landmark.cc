#include "src/landmark/landmark.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "src/graph/traversal.h"

namespace grouting {
namespace {

// Candidate pool size = num_landmarks * kCandidateFactor highest-degree nodes.
constexpr size_t kCandidateFactor = 6;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<uint16_t> ToU16(const std::vector<int32_t>& dist) {
  std::vector<uint16_t> out(dist.size());
  for (size_t i = 0; i < dist.size(); ++i) {
    out[i] = dist[i] == kUnreachable || dist[i] > 0xFFFE
                 ? kUnreachableU16
                 : static_cast<uint16_t>(dist[i]);
  }
  return out;
}

}  // namespace

LandmarkSet LandmarkSet::Select(const Graph& g, const LandmarkConfig& config,
                                const std::vector<uint8_t>* allowed) {
  GROUTING_CHECK(config.num_landmarks > 0);
  LandmarkSet set;
  const size_t n = g.num_nodes();
  set.known_.assign(n, allowed == nullptr ? 1 : 0);
  if (allowed != nullptr) {
    for (NodeId u = 0; u < n; ++u) {
      set.known_[u] = (*allowed)[u];
    }
  }
  if (n == 0) {
    return set;
  }

  const auto select_start = std::chrono::steady_clock::now();

  // Candidate pool: highest-degree nodes first (paper: "considering the
  // highest degree nodes ... spread over the entire graph").
  std::vector<NodeId> by_degree;
  by_degree.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    // Isolated nodes cannot anchor anything — never select them.
    if ((allowed == nullptr || (*allowed)[u]) && g.Degree(u) > 0) {
      by_degree.push_back(u);
    }
  }
  std::sort(by_degree.begin(), by_degree.end(),
            [&](NodeId a, NodeId b) { return g.Degree(a) > g.Degree(b); });
  const size_t pool = std::min(by_degree.size(), config.num_landmarks * kCandidateFactor);

  set.stats_.selection_seconds = SecondsSince(select_start);
  const auto bfs_start = std::chrono::steady_clock::now();

  BfsOptions opts;
  opts.bidirected = true;
  opts.allowed = allowed;

  auto try_add = [&](NodeId candidate, int32_t min_sep) {
    for (size_t l = 0; l < set.landmarks_.size(); ++l) {
      const uint16_t d = set.distances_[l][candidate];
      if (d != kUnreachableU16 && static_cast<int32_t>(d) < min_sep) {
        return false;  // too close to landmark l; lower-degree candidate loses
      }
    }
    set.landmarks_.push_back(candidate);
    set.distances_.push_back(ToU16(BfsDistances(g, candidate, opts)));
    return true;
  };

  for (size_t i = 0; i < pool && set.landmarks_.size() < config.num_landmarks; ++i) {
    try_add(by_degree[i], config.min_separation);
  }
  // Relaxation pass: if separation filtering starved us, fill from the full
  // degree-ordered list ignoring separation.
  for (size_t i = 0;
       i < by_degree.size() && set.landmarks_.size() < config.num_landmarks; ++i) {
    const NodeId candidate = by_degree[i];
    if (std::find(set.landmarks_.begin(), set.landmarks_.end(), candidate) !=
        set.landmarks_.end()) {
      continue;
    }
    if (try_add(candidate, 1)) {
      ++set.stats_.separation_relaxed;
    }
  }
  set.stats_.bfs_seconds = SecondsSince(bfs_start);
  return set;
}

std::vector<uint16_t> LandmarkSet::EstimateDistances(const Graph& g, NodeId u) const {
  std::vector<uint16_t> est(count(), kUnreachableU16);
  auto consider = [&](NodeId v) {
    if (v >= known_.size() || !known_[v]) {
      return;
    }
    for (size_t l = 0; l < count(); ++l) {
      const uint16_t dv = distances_[l][v];
      if (dv != kUnreachableU16 && dv + 1 < est[l]) {
        est[l] = static_cast<uint16_t>(dv + 1);
      }
    }
  };
  for (const Edge& e : g.OutNeighbors(u)) {
    consider(e.dst);
  }
  for (const Edge& e : g.InNeighbors(u)) {
    consider(e.dst);
  }
  return est;
}

void LandmarkSet::Assimilate(NodeId u, const std::vector<uint16_t>& dists) {
  GROUTING_CHECK(dists.size() == count());
  GROUTING_CHECK(u < known_.size());
  for (size_t l = 0; l < count(); ++l) {
    distances_[l][u] = dists[l];
  }
  known_[u] = 1;
}

uint64_t LandmarkSet::MemoryBytes() const {
  uint64_t total = landmarks_.size() * sizeof(NodeId) + known_.size();
  for (const auto& d : distances_) {
    total += d.size() * sizeof(uint16_t);
  }
  return total;
}

}  // namespace grouting
