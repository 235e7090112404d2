// Landmark machinery (paper Section 3.4.1 preprocessing).
//
// Landmarks are selected by degree with a minimum pairwise hop separation;
// a BFS from each landmark yields distance vectors over all nodes. These
// distances power (a) landmark routing's d(u,p) table and (b) the graph
// embedding (src/embed). uint16 distances keep the tables compact (the
// paper stresses O(n) router storage).

#ifndef GROUTING_SRC_LANDMARK_LANDMARK_H_
#define GROUTING_SRC_LANDMARK_LANDMARK_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace grouting {

inline constexpr uint16_t kUnreachableU16 = 0xFFFF;

struct LandmarkConfig {
  size_t num_landmarks = 96;     // paper default
  int32_t min_separation = 3;    // paper default: >= 3 hops apart
  uint64_t seed = 7;
};

struct LandmarkSelectionStats {
  double selection_seconds = 0.0;  // pure candidate filtering
  double bfs_seconds = 0.0;        // distance computation (Table 2 column 1)
  size_t separation_relaxed = 0;   // landmarks accepted below min_separation
};

class LandmarkSet {
 public:
  // Selects landmarks and computes all distance vectors. If `allowed` is
  // non-null, selection and BFS are restricted to that induced node set
  // (the graph-update experiments preprocess on a subgraph).
  static LandmarkSet Select(const Graph& g, const LandmarkConfig& config,
                            const std::vector<uint8_t>* allowed = nullptr);

  size_t count() const { return landmarks_.size(); }
  NodeId landmark_node(size_t l) const { return landmarks_[l]; }
  const std::vector<NodeId>& landmark_nodes() const { return landmarks_; }

  // Hop distance from landmark l to node u (kUnreachableU16 if unknown).
  uint16_t Distance(size_t l, NodeId u) const { return distances_[l][u]; }
  const std::vector<uint16_t>& DistanceVector(size_t l) const { return distances_[l]; }

  // Distance between two landmarks.
  uint16_t LandmarkDistance(size_t l1, size_t l2) const {
    return distances_[l1][landmarks_[l2]];
  }

  // Estimates a (possibly new/unknown) node's distance to every landmark as
  // 1 + min over its neighbours' known distances — the incremental update
  // path for node insertion. Returns all-unreachable if no neighbour is
  // known. Does NOT modify the set; call Assimilate to persist.
  std::vector<uint16_t> EstimateDistances(const Graph& g, NodeId u) const;

  // Persists estimated distances for node u (marks it known).
  void Assimilate(NodeId u, const std::vector<uint16_t>& dists);

  bool IsKnown(NodeId u) const { return known_[u] != 0; }

  uint64_t MemoryBytes() const;
  const LandmarkSelectionStats& stats() const { return stats_; }

 private:
  std::vector<NodeId> landmarks_;
  std::vector<std::vector<uint16_t>> distances_;  // [landmark][node]
  std::vector<uint8_t> known_;                    // node had real/estimated BFS data
  LandmarkSelectionStats stats_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_LANDMARK_LANDMARK_H_
