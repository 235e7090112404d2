// Simplex Downhill (Nelder-Mead) derivative-free minimiser — the exact
// algorithm the paper uses for graph embedding ("could be approximately
// solved by many off-the-shelf techniques, e.g., the Simplex Downhill
// algorithm that we apply in this work").
//
// Header-only template so the per-node objective (millions of calls during
// embedding) inlines. The simplex lives in one flat (d+1) x d buffer.

#ifndef GROUTING_SRC_EMBED_NELDER_MEAD_H_
#define GROUTING_SRC_EMBED_NELDER_MEAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/util/check.h"

namespace grouting {

struct NelderMeadOptions {
  int max_evals = 400;
  // Converged when the simplex's best-worst objective spread drops below
  // tol * (|f_best| + epsilon).
  double tolerance = 1e-4;
  // Initial simplex step per coordinate.
  double initial_step = 0.5;
  // Standard coefficients: reflection, expansion, contraction, shrink.
  double alpha = 1.0;
  double gamma = 2.0;
  double rho = 0.5;
  double sigma = 0.5;
};

// Minimises f over x (in place); returns the best objective value found.
// F: double(std::span<const double>). f must never return NaN: the
// selection below relies on the values being totally ordered.
//
// Stable-selection invariant: each iteration picks
//   best  = the first minimum,
//   worst = the last maximum,
// and the second-worst value = the maximum over all points but the worst,
// exactly what a stable sort of the indices 0..d by value yields at
// positions 0, d and d-1 (only the second-worst point's value is used, so
// ties there need no rule). For d+1 <= 16 points libstdc++'s std::sort is
// an insertion sort, i.e. stable, so this O(d) scan reproduces a sorting
// implementation's tie-breaking bit for bit.
template <typename F>
double NelderMead(F&& f, std::span<double> x, const NelderMeadOptions& opts = {}) {
  const size_t d = x.size();
  GROUTING_CHECK(d > 0);

  // Simplex of d+1 points, point i at pts[i*d, (i+1)*d).
  std::vector<double> pts((d + 1) * d);
  for (size_t i = 0; i <= d; ++i) {
    std::copy(x.begin(), x.end(), pts.begin() + i * d);
  }
  for (size_t i = 0; i < d; ++i) {
    pts[(i + 1) * d + i] += opts.initial_step;
  }
  auto point = [&](size_t i) { return pts.data() + i * d; };
  std::vector<double> fv(d + 1);
  int evals = 0;
  auto eval = [&](const double* p) {
    ++evals;
    return f(std::span<const double>(p, d));
  };
  for (size_t i = 0; i <= d; ++i) {
    fv[i] = eval(point(i));
  }

  std::vector<double> centroid(d);
  std::vector<double> candidate(d);

  while (evals < opts.max_evals) {
    size_t best = 0;
    size_t worst = 0;
    for (size_t i = 1; i <= d; ++i) {
      if (fv[i] < fv[best]) {
        best = i;
      }
      if (fv[i] >= fv[worst]) {
        worst = i;
      }
    }
    double f_second_worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i <= d; ++i) {
      if (i != worst) {
        f_second_worst = std::max(f_second_worst, fv[i]);
      }
    }

    if (fv[worst] - fv[best] <= opts.tolerance * (std::abs(fv[best]) + 1e-12)) {
      break;
    }

    // Centroid of all points except the worst.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (size_t i = 0; i <= d; ++i) {
      if (i == worst) {
        continue;
      }
      const double* p = point(i);
      for (size_t k = 0; k < d; ++k) {
        centroid[k] += p[k];
      }
    }
    for (size_t k = 0; k < d; ++k) {
      centroid[k] /= static_cast<double>(d);
    }

    double* const w = point(worst);
    auto blend = [&](double coef) {
      for (size_t k = 0; k < d; ++k) {
        candidate[k] = centroid[k] + coef * (centroid[k] - w[k]);
      }
    };
    auto accept = [&](double value) {
      std::copy(candidate.begin(), candidate.end(), w);
      fv[worst] = value;
    };

    blend(opts.alpha);  // reflection
    const double f_reflect = eval(candidate.data());
    if (f_reflect < fv[best]) {
      blend(opts.alpha * opts.gamma);  // expansion
      const double f_expand = eval(candidate.data());
      if (f_expand < f_reflect) {
        accept(f_expand);
      } else {
        blend(opts.alpha);
        accept(f_reflect);
      }
    } else if (f_reflect < f_second_worst) {
      accept(f_reflect);
    } else {
      // Contraction (outside if the reflection improved on the worst).
      if (f_reflect < fv[worst]) {
        blend(opts.alpha * opts.rho);
      } else {
        blend(-opts.rho);
      }
      const double f_contract = eval(candidate.data());
      if (f_contract < std::min(f_reflect, fv[worst])) {
        accept(f_contract);
      } else {
        // Shrink towards the best point.
        const double* b = point(best);
        for (size_t i = 0; i <= d; ++i) {
          if (i == best) {
            continue;
          }
          double* p = point(i);
          for (size_t k = 0; k < d; ++k) {
            p[k] = b[k] + opts.sigma * (p[k] - b[k]);
          }
          fv[i] = eval(p);
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
  std::copy_n(point(best), d, x.begin());
  return fv[best];
}

}  // namespace grouting

#endif  // GROUTING_SRC_EMBED_NELDER_MEAD_H_
