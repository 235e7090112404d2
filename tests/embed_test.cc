// Tests for the Nelder-Mead optimiser and the landmark-based graph
// embedding, including the paper's key properties: error decreases with
// dimensionality, and nearby nodes get nearby coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/embed/embedding.h"
#include "src/embed/nelder_mead.h"
#include "src/embed/relative_error.h"
#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

TEST(NelderMeadTest, MinimizesQuadratic1D) {
  std::vector<double> x{10.0};
  const double best = NelderMead(
      [](std::span<const double> p) { return (p[0] - 3.0) * (p[0] - 3.0); },
      std::span<double>(x));
  EXPECT_NEAR(x[0], 3.0, 1e-2);
  EXPECT_NEAR(best, 0.0, 1e-3);
}

TEST(NelderMeadTest, MinimizesSphere5D) {
  std::vector<double> x{4, -3, 2, -1, 5};
  NelderMeadOptions opts;
  opts.max_evals = 2000;
  opts.tolerance = 1e-10;
  NelderMead(
      [](std::span<const double> p) {
        double s = 0;
        for (double v : p) {
          s += v * v;
        }
        return s;
      },
      std::span<double>(x), opts);
  for (double v : x) {
    EXPECT_NEAR(v, 0.0, 0.05);
  }
}

TEST(NelderMeadTest, RosenbrockMakesProgress) {
  std::vector<double> x{-1.2, 1.0};
  NelderMeadOptions opts;
  opts.max_evals = 4000;
  opts.tolerance = 1e-12;
  const double best = NelderMead(
      [](std::span<const double> p) {
        const double a = 1.0 - p[0];
        const double b = p[1] - p[0] * p[0];
        return a * a + 100.0 * b * b;
      },
      std::span<double>(x), opts);
  EXPECT_LT(best, 0.5);  // from f(-1.2, 1) = 24.2
}

TEST(NelderMeadTest, RespectsEvalBudget) {
  int evals = 0;
  std::vector<double> x{1.0, 1.0};
  NelderMeadOptions opts;
  opts.max_evals = 50;
  NelderMead(
      [&evals](std::span<const double> p) {
        ++evals;
        return p[0] * p[0] + p[1] * p[1];
      },
      std::span<double>(x), opts);
  EXPECT_LE(evals, 50 + 3);  // simplex init may finish the last iteration
}

// ---------------------------------------------------- Reference kernels --
//
// The textbook kernels: a Nelder-Mead that sorts the simplex every
// iteration and keeps one vector per point, and a relative-error objective
// that walks row-major float anchors one at a time. The production kernels
// must match them bit for bit: same x, same value, same evaluation count.
// std::sort of d+1 <= 16 indices is an insertion sort in libstdc++, i.e.
// stable, so the cases below stay at d <= 15.

template <typename F>
double ReferenceNelderMead(F&& f, std::span<double> x, const NelderMeadOptions& opts) {
  const size_t d = x.size();
  std::vector<std::vector<double>> pts(d + 1, std::vector<double>(x.begin(), x.end()));
  for (size_t i = 0; i < d; ++i) {
    pts[i + 1][i] += opts.initial_step;
  }
  std::vector<double> fv(d + 1);
  int evals = 0;
  auto eval = [&](const std::vector<double>& p) {
    ++evals;
    return f(std::span<const double>(p));
  };
  for (size_t i = 0; i <= d; ++i) {
    fv[i] = eval(pts[i]);
  }
  std::vector<size_t> order(d + 1);
  std::vector<double> centroid(d);
  std::vector<double> candidate(d);
  while (evals < opts.max_evals) {
    for (size_t i = 0; i <= d; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return fv[a] < fv[b]; });
    const size_t best = order[0];
    const size_t worst = order[d];
    const size_t second_worst = order[d - 1];
    if (fv[worst] - fv[best] <= opts.tolerance * (std::abs(fv[best]) + 1e-12)) {
      break;
    }
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (size_t i = 0; i <= d; ++i) {
      if (i == worst) {
        continue;
      }
      for (size_t k = 0; k < d; ++k) {
        centroid[k] += pts[i][k];
      }
    }
    for (size_t k = 0; k < d; ++k) {
      centroid[k] /= static_cast<double>(d);
    }
    auto blend = [&](double coef) {
      for (size_t k = 0; k < d; ++k) {
        candidate[k] = centroid[k] + coef * (centroid[k] - pts[worst][k]);
      }
    };
    blend(opts.alpha);
    const double f_reflect = eval(candidate);
    if (f_reflect < fv[best]) {
      blend(opts.alpha * opts.gamma);
      const double f_expand = eval(candidate);
      if (f_expand < f_reflect) {
        pts[worst] = candidate;
        fv[worst] = f_expand;
      } else {
        blend(opts.alpha);
        pts[worst] = candidate;
        fv[worst] = f_reflect;
      }
    } else if (f_reflect < fv[second_worst]) {
      pts[worst] = candidate;
      fv[worst] = f_reflect;
    } else {
      if (f_reflect < fv[worst]) {
        blend(opts.alpha * opts.rho);
      } else {
        blend(-opts.rho);
      }
      const double f_contract = eval(candidate);
      if (f_contract < std::min(f_reflect, fv[worst])) {
        pts[worst] = candidate;
        fv[worst] = f_contract;
      } else {
        for (size_t i = 0; i <= d; ++i) {
          if (i == best) {
            continue;
          }
          for (size_t k = 0; k < d; ++k) {
            pts[i][k] = pts[best][k] + opts.sigma * (pts[i][k] - pts[best][k]);
          }
          fv[i] = eval(pts[i]);
        }
      }
    }
  }
  size_t best = 0;
  for (size_t i = 1; i <= d; ++i) {
    if (fv[i] < fv[best]) {
      best = i;
    }
  }
  std::copy(pts[best].begin(), pts[best].end(), x.begin());
  return fv[best];
}

struct ReferenceObjective {
  std::span<const float> anchor_coords;  // A x D row-major
  std::span<const uint16_t> anchor_dists;
  size_t dims;

  double operator()(std::span<const double> x) const {
    double total = 0.0;
    for (size_t a = 0; a < anchor_dists.size(); ++a) {
      const uint16_t d = anchor_dists[a];
      if (d == kUnreachableU16) {
        continue;
      }
      double sum = 0.0;
      for (size_t k = 0; k < dims; ++k) {
        const double diff = x[k] - static_cast<double>(anchor_coords[a * dims + k]);
        sum += diff * diff;
      }
      const double embed_dist = std::sqrt(sum);
      if (d == 0) {
        total += embed_dist;
      } else {
        total += std::abs(static_cast<double>(d) - embed_dist) / static_cast<double>(d);
      }
    }
    return total;
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// A random anchor set: about a sixth unreachable, a sixth at distance 0.
struct AnchorSet {
  std::vector<float> coords;
  std::vector<uint16_t> dists;
};

AnchorSet RandomAnchors(Rng& rng, size_t anchors, size_t dims) {
  AnchorSet s;
  for (size_t i = 0; i < anchors * dims; ++i) {
    s.coords.push_back(static_cast<float>(rng.NextGaussian() * 3.0));
  }
  for (size_t a = 0; a < anchors; ++a) {
    const uint64_t kind = rng.NextBounded(6);
    if (kind == 0) {
      s.dists.push_back(kUnreachableU16);
    } else if (kind == 1) {
      s.dists.push_back(0);
    } else {
      s.dists.push_back(static_cast<uint16_t>(1 + rng.NextBounded(8)));
    }
  }
  return s;
}

std::vector<double> RandomPoint(Rng& rng, size_t dims) {
  std::vector<double> x(dims);
  for (double& v : x) {
    v = rng.NextGaussian() * 3.0;
  }
  return x;
}

class KernelReferenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelReferenceTest, ObjectiveMatchesRowMajorReference) {
  const size_t dims = GetParam();
  Rng rng(21 + dims);
  size_t unreachable = 0;
  size_t colocated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const AnchorSet s = RandomAnchors(rng, rng.NextBounded(41), dims);
    unreachable += std::count(s.dists.begin(), s.dists.end(), kUnreachableU16);
    colocated += std::count(s.dists.begin(), s.dists.end(), uint16_t{0});
    RelativeErrorObjective fast(s.coords, s.dists, dims);
    const ReferenceObjective ref{s.coords, s.dists, dims};
    for (int p = 0; p < 5; ++p) {
      const std::vector<double> x = RandomPoint(rng, dims);
      ASSERT_TRUE(SameBits(fast(x), ref(x))) << "trial " << trial;
    }
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(colocated, 0u);
}

TEST_P(KernelReferenceTest, NelderMeadMatchesSortReferenceOnEmbeddingObjective) {
  const size_t dims = GetParam();
  Rng rng(31 + dims);
  for (int trial = 0; trial < 60; ++trial) {
    const AnchorSet s = RandomAnchors(rng, 1 + rng.NextBounded(40), dims);
    NelderMeadOptions opts;
    opts.max_evals = 20 + static_cast<int>(rng.NextBounded(400));
    opts.initial_step = 0.25 * (1.0 + static_cast<double>(rng.NextBounded(4)));
    std::vector<double> x = RandomPoint(rng, dims);
    std::vector<double> x_ref = x;

    RelativeErrorObjective fast(s.coords, s.dists, dims);
    int evals = 0;
    const double value = NelderMead(
        [&](std::span<const double> p) {
          ++evals;
          return fast(p);
        },
        std::span<double>(x), opts);
    const ReferenceObjective ref{s.coords, s.dists, dims};
    int ref_evals = 0;
    const double ref_value = ReferenceNelderMead(
        [&](std::span<const double> p) {
          ++ref_evals;
          return ref(p);
        },
        std::span<double>(x_ref), opts);
    ASSERT_TRUE(SameBits(x, x_ref)) << "trial " << trial;
    ASSERT_TRUE(SameBits(value, ref_value)) << "trial " << trial;
    ASSERT_EQ(evals, ref_evals) << "trial " << trial;
  }
}

TEST_P(KernelReferenceTest, NelderMeadMatchesSortReferenceOnPlateaus) {
  // Quantised objectives take few distinct values, so the simplex holds
  // ties: the selection scan must break them as the stable sort does.
  const size_t dims = GetParam();
  Rng rng(41 + dims);
  size_t repeated_values = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double step = 0.25 * (1.0 + static_cast<double>(rng.NextBounded(8)));
    const std::vector<double> target = RandomPoint(rng, dims);
    auto plateau = [&](std::span<const double> p) {
      double s = 0.0;
      for (size_t k = 0; k < p.size(); ++k) {
        s += std::abs(p[k] - target[k]);
      }
      return std::floor(s / step);
    };
    NelderMeadOptions opts;
    opts.max_evals = 20 + static_cast<int>(rng.NextBounded(300));
    std::vector<double> x = RandomPoint(rng, dims);
    std::vector<double> x_ref = x;
    std::vector<double> seen;
    int evals = 0;
    const double value = NelderMead(
        [&](std::span<const double> p) {
          ++evals;
          const double v = plateau(p);
          repeated_values += std::count(seen.begin(), seen.end(), v) > 0;
          seen.push_back(v);
          return v;
        },
        std::span<double>(x), opts);
    int ref_evals = 0;
    const double ref_value = ReferenceNelderMead(
        [&](std::span<const double> p) {
          ++ref_evals;
          return plateau(p);
        },
        std::span<double>(x_ref), opts);
    ASSERT_TRUE(SameBits(x, x_ref)) << "trial " << trial;
    ASSERT_TRUE(SameBits(value, ref_value)) << "trial " << trial;
    ASSERT_EQ(evals, ref_evals) << "trial " << trial;
  }
  EXPECT_GT(repeated_values, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelReferenceTest, ::testing::Values(1, 2, 10));

// ----------------------------------------------------------- Embedding --

EmbedConfig TestEmbedConfig(size_t dims) {
  EmbedConfig cfg;
  cfg.dimensions = dims;
  cfg.seed = 3;
  cfg.num_threads = 2;
  return cfg;
}

LandmarkConfig TestLandmarkConfig(size_t count) {
  LandmarkConfig cfg;
  cfg.num_landmarks = count;
  cfg.min_separation = 2;
  cfg.seed = 4;
  return cfg;
}

TEST(EmbeddingTest, AllConnectedNodesEmbedded) {
  Graph g = GenerateBarabasiAlbert(400, 3, 1);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(12));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(6));
  EXPECT_EQ(emb.dimensions(), 6u);
  EXPECT_EQ(emb.num_nodes(), g.num_nodes());
  size_t embedded = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    embedded += emb.IsEmbedded(u);
  }
  EXPECT_GT(embedded, g.num_nodes() * 95 / 100);
}

TEST(EmbeddingTest, DisconnectedNodeStaysUnembedded) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddNode();  // node 3, isolated
  Graph g = b.Build();
  LandmarkConfig lc = TestLandmarkConfig(2);
  auto lms = LandmarkSet::Select(g, lc);
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  EXPECT_FALSE(emb.IsEmbedded(3));
}

TEST(EmbeddingTest, GridGeometryRecovered) {
  // A 2D grid embeds almost isometrically: far grid nodes must be far in
  // the embedding, near nodes near.
  Graph g = GenerateGrid(15, 15);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(10));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  auto l2 = [&](NodeId a, NodeId b) {
    auto ca = emb.Coords(a);
    auto cb = emb.Coords(b);
    double s = 0;
    for (size_t k = 0; k < ca.size(); ++k) {
      s += (ca[k] - cb[k]) * (ca[k] - cb[k]);
    }
    return std::sqrt(s);
  };
  // corners: 0 and 224 are 28 hops apart; adjacent nodes 1 hop.
  EXPECT_GT(l2(0, 224), 5.0 * l2(0, 1));
}

TEST(EmbeddingTest, ErrorDecreasesWithDimensions) {
  // A preferential-attachment graph has intrinsic dimension well above 2,
  // so a 1-D embedding must be clearly worse than an 8-D one (a grid would
  // already be near-perfect at D=2, hiding the effect).
  Graph g = GenerateBarabasiAlbert(500, 4, 5);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(12));
  auto emb1 = GraphEmbedding::Build(lms, TestEmbedConfig(1));
  auto emb8 = GraphEmbedding::Build(lms, TestEmbedConfig(8));
  Rng ra(9);
  Rng rb(9);
  const double err1 = emb1.MeasureRelativeError(g, 150, 3, ra);
  const double err8 = emb8.MeasureRelativeError(g, 150, 3, rb);
  // Paper Fig 12a: relative error shrinks as dimensionality grows.
  EXPECT_LT(err8, err1);
}

TEST(EmbeddingTest, NearbyNodesGetNearbyCoordinates) {
  LocalityWebConfig web;
  web.grid_width = 8;
  web.grid_height = 8;
  web.community_size = 40;
  Graph g = GenerateLocalityWeb(web, 6);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(24));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(8));
  Rng rng(7);
  double near_sum = 0;
  double far_sum = 0;
  int samples = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    auto near = KHopNeighborhood(g, u, 1);
    if (near.empty() || !emb.IsEmbedded(u)) {
      continue;
    }
    const NodeId v = near[rng.NextBounded(near.size())];
    const auto far_node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (!emb.IsEmbedded(v) || !emb.IsEmbedded(far_node)) {
      continue;
    }
    std::vector<double> cu(emb.Coords(u).begin(), emb.Coords(u).end());
    near_sum += emb.DistanceToPoint(v, cu);
    far_sum += emb.DistanceToPoint(far_node, cu);
    ++samples;
  }
  ASSERT_GT(samples, 20);
  EXPECT_LT(near_sum / samples, far_sum / samples);
}

// Every node's coordinates and embedded flag, compared bitwise.
void ExpectBitIdentical(const GraphEmbedding& a, const GraphEmbedding& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.dimensions(), b.dimensions());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.IsEmbedded(u), b.IsEmbedded(u)) << "node " << u;
    const auto ca = a.Coords(u);
    const auto cb = b.Coords(u);
    ASSERT_EQ(std::memcmp(ca.data(), cb.data(), ca.size_bytes()), 0) << "node " << u;
  }
}

TEST(EmbeddingTest, DeterministicInSeed) {
  Graph g = GenerateErdosRenyi(200, 800, 8);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(8));
  EmbedConfig cfg = TestEmbedConfig(5);
  cfg.num_threads = 1;
  ExpectBitIdentical(GraphEmbedding::Build(lms, cfg), GraphEmbedding::Build(lms, cfg));
}

TEST(EmbeddingTest, IndependentOfThreadCount) {
  // Each node's optimisation depends only on its own inputs, so the
  // parallel node phase must not depend on how nodes are spread over threads.
  Graph g = GenerateBarabasiAlbert(600, 3, 13);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(16));
  EmbedConfig cfg = TestEmbedConfig(10);
  cfg.num_threads = 1;
  const auto single = GraphEmbedding::Build(lms, cfg);
  cfg.num_threads = 3;
  ExpectBitIdentical(single, GraphEmbedding::Build(lms, cfg));
}

TEST(EmbeddingDeathTest, ZeroLandmarksPerNodeIsRejected) {
  Graph g = GenerateErdosRenyi(60, 180, 12);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(4));
  EmbedConfig cfg = TestEmbedConfig(3);
  cfg.landmarks_per_node = 0;
  EXPECT_DEATH(GraphEmbedding::Build(lms, cfg), "landmarks_per_node > 0");
}

TEST(EmbeddingTest, IncrementalAddMatchesRegion) {
  Graph g = GenerateGrid(12, 12);
  std::vector<uint8_t> allowed(g.num_nodes(), 1);
  const NodeId hidden = 77;  // interior node
  allowed[hidden] = 0;
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(10), &allowed);
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  EXPECT_FALSE(emb.IsEmbedded(hidden));
  ASSERT_TRUE(emb.AddNodeIncremental(g, hidden, lms));
  EXPECT_TRUE(emb.IsEmbedded(hidden));
  // The incrementally placed node should be closer to its grid neighbour
  // than to the far corner.
  std::vector<double> c(emb.Coords(hidden).begin(), emb.Coords(hidden).end());
  EXPECT_LT(emb.DistanceToPoint(hidden - 1, c), emb.DistanceToPoint(143, c));
}

TEST(EmbeddingTest, IncrementalAddFailsWithNoKnownNeighbors) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddNode();  // 3 isolated
  Graph g = b.Build();
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(2));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(3));
  EXPECT_FALSE(emb.AddNodeIncremental(g, 3, lms));
}

TEST(EmbeddingTest, MemoryBytesLinearInNodes) {
  Graph g = GenerateErdosRenyi(300, 900, 9);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(6));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(10));
  EXPECT_GE(emb.MemoryBytes(), 300u * 10u * sizeof(float));
}

TEST(EmbeddingTest, StatsPopulated) {
  Graph g = GenerateErdosRenyi(200, 600, 10);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(8));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(6));
  EXPECT_GT(emb.stats().landmark_embed_seconds, 0.0);
  EXPECT_GT(emb.stats().node_embed_seconds, 0.0);
  EXPECT_GE(emb.stats().mean_landmark_relative_error, 0.0);
  EXPECT_LT(emb.stats().mean_landmark_relative_error, 2.0);
}

// Property: for any dimensionality, embedding never produces NaN/Inf.
class EmbedDimsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EmbedDimsTest, CoordinatesFinite) {
  Graph g = GenerateBarabasiAlbert(150, 3, 11);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(6));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(GetParam()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!emb.IsEmbedded(u)) {
      continue;
    }
    for (float c : emb.Coords(u)) {
      EXPECT_TRUE(std::isfinite(c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, EmbedDimsTest, ::testing::Values(1, 2, 5, 10, 20));

}  // namespace
}  // namespace grouting
