// Relative-error objective of the graph embedding (paper Section 3.4.2):
// the sum over anchors of |d_graph - d_embed| / d_graph, where an anchor is
// a (coordinate row, graph distance) pair. Unreachable anchors are skipped;
// zero-distance anchors pin the point with an absolute penalty instead
// (relative error is undefined at 0). One objective serves the landmark
// phase, the per-node phase and incremental insertion.
//
// Nelder-Mead calls this millions of times, so the anchors are copied once
// into a dimension-major double block (D x A, reachable anchors only;
// skipping an unreachable anchor up front is exact, it adds no term) and an
// evaluation runs in two loops:
//
//   1. squared sums, k outermost: every anchor's sum still accumulates
//      k = 0..D-1 in order, but the inner loop over anchors carries no
//      dependency, so it vectorises without reassociating anything;
//   2. per anchor, sqrt, then |d - e| / d (or e when d = 0), added to the
//      total in anchor order. The sqrt and divide of one anchor do not wait
//      for the previous anchor's term, only the final add does.
//
// Each anchor's arithmetic is that of the textbook per-anchor loop, in the
// same order, so the result is bit-identical to it.

#ifndef GROUTING_SRC_EMBED_RELATIVE_ERROR_H_
#define GROUTING_SRC_EMBED_RELATIVE_ERROR_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/landmark/landmark.h"
#include "src/util/check.h"

namespace grouting {

class RelativeErrorObjective {
 public:
  // `anchor_coords` holds one row of `dims` floats per entry of
  // `anchor_dists`.
  RelativeErrorObjective(std::span<const float> anchor_coords,
                         std::span<const uint16_t> anchor_dists, size_t dims)
      : dims_(dims) {
    GROUTING_CHECK(dims > 0);
    GROUTING_CHECK(anchor_coords.size() == anchor_dists.size() * dims);
    for (const uint16_t d : anchor_dists) {
      if (d != kUnreachableU16) {
        dists_.push_back(static_cast<double>(d));
      }
    }
    const size_t anchors = dists_.size();
    coords_.resize(dims * anchors);
    size_t a = 0;
    for (size_t i = 0; i < anchor_dists.size(); ++i) {
      if (anchor_dists[i] == kUnreachableU16) {
        continue;
      }
      for (size_t k = 0; k < dims; ++k) {
        coords_[k * anchors + a] = static_cast<double>(anchor_coords[i * dims + k]);
      }
      ++a;
    }
    scratch_.resize(anchors);
  }

  // Not const: evaluations share one scratch array, so each thread needs
  // its own objective.
  double operator()(std::span<const double> x) {
    GROUTING_DCHECK(x.size() == dims_);
    const size_t anchors = dists_.size();
    double* sums = scratch_.data();
    // k = 0 initialises the sums: 0.0 + v == v for every v >= +0.
    for (size_t a = 0; a < anchors; ++a) {
      const double diff = x[0] - coords_[a];
      sums[a] = diff * diff;
    }
    for (size_t k = 1; k < dims_; ++k) {
      const double xk = x[k];
      const double* row = coords_.data() + k * anchors;
      for (size_t a = 0; a < anchors; ++a) {
        const double diff = xk - row[a];
        sums[a] += diff * diff;
      }
    }
    double total = 0.0;
    for (size_t a = 0; a < anchors; ++a) {
      const double d = dists_[a];
      const double e = std::sqrt(sums[a]);
      total += d == 0.0 ? e : std::abs(d - e) / d;
    }
    return total;
  }

 private:
  size_t dims_;
  std::vector<double> dists_;    // reachable anchors' graph distances
  std::vector<double> coords_;   // D x A dimension-major
  std::vector<double> scratch_;  // A squared sums
};

}  // namespace grouting

#endif  // GROUTING_SRC_EMBED_RELATIVE_ERROR_H_
