// Bounds on the weighted kernel aggregation N(q) = Σ y_i K(q, p_i), y_i >= 0.
//
// Mirrors bounds/node_bounds.h with n → Y = Σ y_i and the S1/S2 aggregates
// replaced by their y-weighted versions. Used by the Nadaraya–Watson
// regressor's numerator; the denominator uses the ordinary NodeBounds.
#ifndef QUADKDV_REGRESS_WEIGHTED_BOUNDS_H_
#define QUADKDV_REGRESS_WEIGHTED_BOUNDS_H_

#include "bounds/node_bounds.h"
#include "geom/rect.h"
#include "kernel/kernel.h"
#include "regress/weighted_stats.h"

namespace kdv {

// Evaluates bounds on N(q) over one node with MBR `mbr` and weighted
// aggregates `wstats`, using the given method's bound family. The
// KernelParams' `weight` multiplies the result (usually 1). Supported:
// kAkde/kTkdc (trivial), kKarl (Gaussian only), kQuad (all Table-4 kernels;
// polynomial kernels fall back to trivial bounds). Unsupported combinations
// fall back to the trivial bounds, which are always valid.
BoundPair EvaluateWeightedBounds(Method method, const KernelParams& params,
                                 RectView mbr,
                                 const WeightedNodeStats& wstats,
                                 const Point& q,
                                 const BoundsOptions& options = {});

}  // namespace kdv

#endif  // QUADKDV_REGRESS_WEIGHTED_BOUNDS_H_
